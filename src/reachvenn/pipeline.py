"""Integrated estimation framework.

Glues the model-free and model-based halves together: adaptive selection of
the next subset to measure (largest bound gap first), leave-one-out cross
validation of the tuning parameter d on the non-basic training points, error
bars from the validation-error quantiles, and a one-call estimator returning
a point estimate inside its 100%-confidence interval.  All of these read one
``Session`` per dataset, which computes each fact they share once: it holds
one universe size and one segment matrix per d.  A held-out point is a row
number: its leave-one-out prediction is a query on the stacked fit of that
matrix without the row (``fit_leave_one_out``, all d at once), and its bounds
a query on the session's one bounds solver (``BoundsSolver.bounds_without``),
which runs no new phase 1.  A batch of targets takes its bounds from one
``bounds_many`` call and its segment rows from one ``segment_rows`` call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .bounds import BoundsSolver, repair_dataset
from .core import (
    BoundInterval,
    InconsistencyError,
    ReachDataset,
    SubsetMask,
    UnavailableError,
    basic_masks,
)
from .model import (
    CiModel,
    SegmentMatrix,
    build_segment_matrix,
    estimate_universe,
    fit_leave_one_out,
    fit_segments,
    predict_row,
    segment_rows,
)

# Definition of the segment probabilities degenerates at exactly d = 1, so the
# grid point 1 is evaluated just above it.
_D_ONE_NUDGE = 1e-9


def effective_d(d: float) -> float:
    """The d the model is fitted at: d itself, nudged just above 1."""
    return d if d > 1.0 else 1.0 + _D_ONE_NUDGE


def d_grid() -> list[float]:
    """The candidate values of d: ten evenly spaced from 1 to 5."""
    step = (5.0 - 1.0) / 9
    return [1.0 + c * step for c in range(10)]


@dataclass(frozen=True)
class SelectionState:
    """Bookkeeping for adaptive training-point selection.

    ``chosen`` lists the measured masks in acquisition order (basics first),
    ``candidates`` the masks still eligible for measurement, and
    ``measurements`` the accumulated dataset.  Masks excluded up front (for
    example held-out testing points) belong to neither.
    """

    chosen: tuple[SubsetMask, ...]
    candidates: tuple[SubsetMask, ...]
    measurements: ReachDataset

    def __post_init__(self) -> None:
        chosen_ids = {m.index for m in self.chosen}
        candidate_ids = {m.index for m in self.candidates}
        if chosen_ids & candidate_ids:
            raise ValueError("chosen and candidate masks overlap")
        basics = {m.index for m in basic_masks(self.measurements.num_bgs)}
        if not basics <= chosen_ids:
            raise ValueError("chosen masks must include the basic points")

    @classmethod
    def initial(
        cls, measurements: ReachDataset, exclude: Sequence[SubsetMask] = ()
    ) -> "SelectionState":
        """Start from an already-measured dataset (must contain the basics)."""
        if not measurements.has_basic_points:
            raise ValueError("selection starts from the basic points")
        observed = {m.index for m in measurements.masks()}
        excluded = {m.index for m in exclude}
        num_bgs = measurements.num_bgs
        candidates = tuple(
            SubsetMask(j, num_bgs)
            for j in range(1, 1 << num_bgs)
            if j not in observed and j not in excluded
        )
        return cls(
            chosen=measurements.masks(),
            candidates=candidates,
            measurements=measurements,
        )

    @functools.cached_property
    def solver(self) -> BoundsSolver:
        """Bounds over the measurements; raises InconsistencyError (no repair)."""
        return BoundsSolver(self.measurements)


def select_next_point(
    state: SelectionState, measure: Callable[[SubsetMask], float]
) -> SelectionState:
    """Measure the candidate with the widest bound gap and fold it in.

    Gap ties break toward the smallest canonical index so runs are
    reproducible.  The current measurements must be consistent (repair first
    otherwise); raises UnavailableError when no candidates remain.
    """
    if not state.candidates:
        raise UnavailableError("selection exhausted: no candidates remain")
    candidates = sorted(state.candidates, key=lambda m: m.index)
    best_mask = None
    best_gap = -1.0
    for mask, interval in zip(candidates, state.solver.bounds_many(candidates)):
        gap = interval.gap
        if gap > best_gap + 1e-12 * max(1.0, best_gap):
            best_gap = gap
            best_mask = mask
    reach = float(measure(best_mask))
    return SelectionState(
        chosen=state.chosen + (best_mask,),
        candidates=tuple(m for m in state.candidates if m.index != best_mask.index),
        measurements=state.measurements.with_observation(best_mask, reach),
    )


def relative_error(
    estimate: float, truth: float, interval: BoundInterval, scale: float
) -> float:
    """(estimate - truth) / (upper - lower), the bound-gap-normalized error.

    When the bounds coincide (gap below 1e-9 of ``scale``, the universe size)
    the error is 0 if the estimate matches the truth to the same tolerance and
    signed infinity otherwise.
    """
    tol_gap = 1e-9 * scale
    gap = interval.gap
    if gap < tol_gap:
        if abs(estimate - truth) <= tol_gap:
            return 0.0
        return math.copysign(math.inf, estimate - truth)
    return (estimate - truth) / gap


def nearest_rank_percentile(values: Sequence[float], alpha: float) -> float:
    """The alpha-th percentile by the nearest-rank rule (alpha in (0, 100])."""
    if not values:
        raise ValueError("no values")
    if not 0 < alpha <= 100:
        raise ValueError("alpha must lie in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(alpha / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Session:
    """Every fact estimation needs about one dataset, each computed once.

    The constructor runs one phase 1 and repairs the data if that finds it
    inconsistent; ``dataset`` is the data used from then on, and ``reaches``
    its reaches in the segment matrices' row order.  The rest is computed on
    first use, so bounds-only use needs no basic points.
    """

    def __init__(self, dataset: ReachDataset):
        self.repaired = False
        try:
            self.solver = BoundsSolver(dataset)
        except InconsistencyError:
            dataset = repair_dataset(dataset)
            self.solver = BoundsSolver(dataset)
            self.repaired = True
        self.dataset = dataset
        self.reaches = np.array([o.reach for o in dataset.sorted_observations()])
        self.has_spare_points = dataset.n > dataset.num_bgs + 1
        self._segments: dict[float, SegmentMatrix] = {}
        self._errors: dict[float, list[float]] = {}
        self._models: dict[float, CiModel] = {}

    @functools.cached_property
    def universe_size(self) -> float:
        """The declared universe size, else ``estimate_universe``'s."""
        return self.dataset.universe_size or estimate_universe(self.dataset)

    @functools.cached_property
    def holdouts(self) -> list[tuple[int, SubsetMask, BoundInterval, float]]:
        """(row number, mask, the mask's bounds under the other points, its
        reach) for each non-basic point; the basics are never held out.  The
        bounds come from ``solver.bounds_without``, which runs no new phase 1."""
        basics = {m.index for m in basic_masks(self.dataset.num_bgs)}
        result = []
        for row, mask in enumerate(self.dataset.masks()):
            if mask.index not in basics:
                interval = self.solver.bounds_without(mask)
                result.append((row, mask, interval, self.dataset.reach_of(mask)))
        return result

    def segments(self, d: float) -> SegmentMatrix:
        """The segment matrix of all points at d (nudged by ``effective_d``)."""
        if d not in self._segments:
            self._segments[d] = build_segment_matrix(
                self.dataset, effective_d(d), self.universe_size
            )
        return self._segments[d]

    def loo_table(self, ds: Sequence[float]) -> list[list[float]]:
        """Leave-one-out relative errors for each d in ``ds``, one per held-out
        point, each from a fit on ``segments(d)`` without the point's row.
        The fits for the ds not yet known are one stacked solve, and each
        prediction reads the held-out point's row of ``segments(d)``."""
        missing = [d for d in dict.fromkeys(ds) if d not in self._errors]
        if missing:
            matrices = [self.segments(d) for d in missing]
            rows = [row for row, *_ in self.holdouts]
            predictions = fit_leave_one_out(matrices, self.reaches, rows)
            for d, points in zip(missing, predictions.tolist()):
                self._errors[d] = [
                    relative_error(point, truth, interval, self.universe_size)
                    for point, (_, _, interval, truth) in zip(points, self.holdouts)
                ]
        return [self._errors[d] for d in ds]

    def loo_errors(self, d: float) -> list[float]:
        """Leave-one-out relative errors at d (``loo_table`` of d alone)."""
        return self.loo_table([d])[0]

    def model(self, d: float) -> CiModel:
        """The model fitted to all points at d (nudged by ``effective_d``)."""
        if d not in self._models:
            self._models[d] = fit_segments(self.segments(d), self.reaches)
        return self._models[d]

    def estimates(
        self, model: CiModel, targets: Sequence[SubsetMask], clamp: bool = True
    ) -> list[Estimate]:
        """The model's point for each target (clamped unless told not to)
        beside the target's 100% interval, labelled as loaded at the model's
        d.  The intervals are one ``bounds_many`` batch and the segment rows
        one ``segment_rows`` call."""
        intervals = self.solver.bounds_many(targets)
        rows = segment_rows(targets, model.single_bg_proportions, model.d)
        result = []
        for target, interval, row in zip(targets, intervals, rows):
            point = predict_row(model, row)
            result.append(
                Estimate(
                    target=target,
                    point=interval.clamp(point) if clamp else point,
                    interval_100=interval,
                    d=model.d,
                    d_policy="loaded",
                    universe_size=model.universe_size,
                    repaired=self.repaired,
                )
            )
        return result

    def estimate(self, model: CiModel, target: SubsetMask, clamp: bool = True) -> Estimate:
        """``estimates`` of the one target."""
        return self.estimates(model, [target], clamp)[0]


def tune_d(session: Session) -> float:
    """Pick d from the grid by minimum mean absolute leave-one-out error.

    Each non-basic training point is held out once: the model fits on the
    other n-1 points and the error is normalized by the held-out point's
    bound gap under those n-1 points.  Ties go to the smaller d.  Requires
    n > P+1; the basics are never held out.
    """
    if not session.has_spare_points:
        raise UnavailableError("no validation points; use default_d")
    grid = d_grid()
    best_d = grid[0]
    best_score = math.inf
    # Scores within 1e-8 (solver noise, e.g. the d=1 nudge) count as ties,
    # and ties -- including all-infinite columns -- keep the smaller d.
    for d, errors in zip(grid, session.loo_table(grid)):
        score = float(np.mean(np.abs(errors)))
        if not math.isnan(score) and score < best_score - 1e-8:
            best_score = score
            best_d = d
    return best_d


def alpha_interval(
    estimate: float, interval: BoundInterval, q_alpha: float
) -> BoundInterval:
    """[estimate -/+ q_alpha/2 * gap] intersected with the 100% interval.

    When the two are disjoint (the estimate lies more than q_alpha/2 * gap
    outside the 100% interval), the result is the degenerate interval at the
    100% endpoint nearest the estimate.
    """
    half = q_alpha / 2.0 * interval.gap
    lower = max(interval.lower, estimate - half)
    upper = min(interval.upper, estimate + half)
    if lower > upper:
        lower = upper = interval.lower if estimate < interval.lower else interval.upper
    return BoundInterval(lower=lower, upper=upper)


def error_bar(
    session: Session, d: float, target: SubsetMask, alpha: float
) -> BoundInterval:
    """alpha%-confidence interval around the model estimate for ``target``.

    The alpha-th nearest-rank percentile q of the absolute leave-one-out
    relative errors (at the final d) scales the bound gap: the interval is
    [estimate - q/2*gap, estimate + q/2*gap] intersected with the
    100%-confidence interval.  Requires n > P+1.
    """
    if not session.has_spare_points:
        raise UnavailableError("error bar unavailable: no validation points")
    q_alpha = nearest_rank_percentile([abs(e) for e in session.loo_errors(d)], alpha)
    estimate = session.estimate(session.model(d), target, clamp=False)
    return alpha_interval(estimate.point, estimate.interval_100, q_alpha)


def resolve_d(session: Session, d: float | None) -> tuple[float, str]:
    """Settle d and name the policy that chose it.

    A given d is kept ("given") and must be at least 1 or infinity;
    otherwise d is cross-validated when there are spare points beyond the
    basics ("cross_validated") and is infinity when there are none
    ("default_inf").
    """
    if d is not None:
        # Written so that NaN fails the check.
        if not d >= 1.0:
            raise ValueError(f"d must be at least 1 (or inf), got {d}")
        return d, "given"
    if session.has_spare_points:
        return tune_d(session), "cross_validated"
    return math.inf, "default_inf"


@dataclass(frozen=True)
class EstimateOptions:
    clamp: bool = True
    alpha: float | None = None  # in (0, 100]
    d: float | None = None  # None: cross-validate, or d = inf when impossible

    def __post_init__(self) -> None:
        if self.alpha is not None and not 0 < self.alpha <= 100:
            raise ValueError(f"alpha must lie in (0, 100], got {self.alpha}")


@dataclass(frozen=True)
class Estimate:
    """Combined output: model point estimate plus model-free interval(s)."""

    target: SubsetMask
    point: float
    interval_100: BoundInterval
    interval_alpha: BoundInterval | None = None
    alpha: float | None = None
    d: float = math.inf
    d_policy: str = "default_inf"  # "given" | "cross_validated" | "default_inf" | "loaded"
    universe_size: float | None = None
    repaired: bool = False


def estimate_subset(
    dataset: ReachDataset, target: SubsetMask, options: EstimateOptions | None = None
) -> Estimate:
    """Full-pipeline estimate of one subset's reach.

    Repairs the data if inconsistent, settles the universe size and d
    (cross-validation when there are spare points, d = infinity otherwise),
    fits, predicts, and pairs the point with the model-free interval.  The
    point is clamped into the interval unless options.clamp is off; an
    alpha%-interval is attached when requested and achievable.
    """
    options = options or EstimateOptions()
    if not dataset.has_basic_points:
        raise ValueError("estimation needs the basic observations")
    session = Session(dataset)
    d, policy = resolve_d(session, options.d)
    estimate = session.estimate(session.model(d), target, options.clamp)
    interval_alpha = alpha = None
    if options.alpha is not None and session.has_spare_points:
        interval_alpha = error_bar(session, d, target, options.alpha)
        alpha = options.alpha
    return replace(
        estimate, d=d, d_policy=policy, interval_alpha=interval_alpha, alpha=alpha
    )
