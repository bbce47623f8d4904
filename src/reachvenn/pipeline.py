"""Integrated estimation framework.

Glues the model-free and model-based halves together: adaptive selection of
the next subset to measure (largest bound gap first), leave-one-out cross
validation of d on the non-basic points, alpha% error bars from quantiles of
the leave-one-out error table (absolute errors over held-out bound gaps), and
a one-call estimator that predicts the target once, clamps that point into its
100% interval, and centres the alpha% interval on the unclamped point.
Validation needs spare points, n > P + 1 (else ``NO_SPARE_POINTS``), and alpha
in (0, 100] (``check_alpha``).  All of these read one ``Session`` per dataset,
which computes each fact they share once: one universe size and one segment
matrix per d.  A held-out point is a row number: its leave-one-out prediction
is a query on the stacked fit of that matrix without the row
(``fit_leave_one_out``, all d at once), and its bounds a query on the session's
one bounds solver (``BoundsSolver.bounds_without``), which runs no new phase 1.
A batch of targets takes its bounds from one ``bounds_many`` call and its
segment rows from one ``segment_rows`` call.
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
    check_d,
    dataset_universe,
    fit_leave_one_out,
    fit_segments,
    predict_row,
    segment_rows,
)

NO_SPARE_POINTS = "unavailable without spare points: leave-one-out needs n > P + 1"


def d_grid() -> list[float]:
    """The candidate values of d: ten evenly spaced from 1 to 5."""
    step = (5.0 - 1.0) / 9
    return [1.0 + c * step for c in range(10)]


@dataclass(frozen=True)
class SelectionState:
    """Bookkeeping for adaptive training-point selection.

    ``measurements`` holds every observation so far, ``excluded`` the
    canonical indices of masks kept out of selection (for example held-out
    testing points), and ``chosen`` the measured masks in acquisition order:
    the starting ones in ascending canonical order, then one per round.
    """

    measurements: ReachDataset
    excluded: frozenset[int]
    chosen: tuple[SubsetMask, ...]

    @classmethod
    def initial(
        cls, measurements: ReachDataset, exclude: Sequence[SubsetMask] = ()
    ) -> "SelectionState":
        """Start from an already-measured dataset (must contain the basics)."""
        measurements.check_basic_points()
        for mask in exclude:
            mask.check_observable(measurements.num_bgs)
        excluded = frozenset(m.index for m in exclude)
        return cls(measurements, excluded, measurements.masks())

    @property
    def candidates(self) -> tuple[SubsetMask, ...]:
        """The masks still eligible for measurement, in ascending canonical order."""
        taken = self.excluded | {o.subset.index for o in self.measurements.observations}
        num_bgs = self.measurements.num_bgs
        return tuple(
            SubsetMask(j, num_bgs) for j in range(1, 1 << num_bgs) if j not in taken
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
    candidates = state.candidates
    if not candidates:
        raise UnavailableError("selection exhausted: no candidates remain")
    best_mask = None
    best_gap = -1.0
    for mask, interval in zip(candidates, state.solver.bounds_many(candidates)):
        gap = interval.gap
        if gap > best_gap + 1e-12 * max(1.0, best_gap):
            best_gap = gap
            best_mask = mask
    reach = float(measure(best_mask))
    measurements = state.measurements.with_observation(best_mask, reach)
    return SelectionState(measurements, state.excluded, state.chosen + (best_mask,))


def relative_errors(
    predictions: np.ndarray, truths: np.ndarray, gaps: np.ndarray, scale: float
) -> np.ndarray:
    """|prediction - truth| / gap per entry, the bound-gap-normalized error.

    A gap of exactly 0 is an interval the bounds solver collapsed: there the
    error is 0 if the prediction matches the truth to 1e-9 of ``scale`` (the
    universe size) and infinity otherwise.
    """
    misses = np.abs(predictions - truths)
    collapsed = np.where(misses <= 1e-9 * scale, 0.0, math.inf)
    return np.divide(misses, gaps, out=collapsed, where=gaps > 0)


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless 0 < ``alpha`` <= 100 (so NaN fails)."""
    if not 0 < alpha <= 100:
        raise ValueError(f"alpha must lie in (0, 100], got {alpha}")


def nearest_rank_percentile(values: Sequence[float], alpha: float) -> float:
    """The alpha-th percentile by the nearest-rank rule (alpha in (0, 100]) of
    a sequence or 1-d array."""
    if len(values) == 0:
        raise ValueError("no values")
    check_alpha(alpha)
    rank = max(1, math.ceil(alpha / 100.0 * len(values)))
    return float(np.sort(values)[rank - 1])


class Session:
    """Every fact estimation needs about one dataset, each computed once.

    The constructor runs one phase 1 and repairs the data if that finds it
    inconsistent; ``dataset`` is the data used from then on, and ``reaches``
    its reaches in its (canonical) row order.  The rest is computed on first
    use, so bounds-only use needs no basic points.
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
        self.reaches = np.array([o.reach for o in dataset.observations])
        self.has_spare_points = dataset.n > dataset.num_bgs + 1
        self._segments: dict[float, SegmentMatrix] = {}
        self._errors: dict[float, np.ndarray] = {}

    @functools.cached_property
    def universe_size(self) -> float:
        """``dataset_universe`` of the dataset."""
        return dataset_universe(self.dataset)

    @functools.cached_property
    def holdouts(self) -> list[tuple[int, SubsetMask, BoundInterval]]:
        """(row number, mask, the mask's bounds under the other points) for
        each non-basic point; the basics are never held out.  The bounds come
        from ``solver.bounds_without``, which runs no new phase 1."""
        basics = {m.index for m in basic_masks(self.dataset.num_bgs)}
        return [
            (row, obs.subset, self.solver.bounds_without(obs.subset))
            for row, obs in enumerate(self.dataset.observations)
            if obs.subset.index not in basics
        ]

    def segments(self, d: float) -> SegmentMatrix:
        """The segment matrix of all points at d; at d = 1 every column is the
        independence row z = 1 - prod(1 - r_i)."""
        if d not in self._segments:
            self._segments[d] = build_segment_matrix(self.dataset, d, self.universe_size)
        return self._segments[d]

    def loo_table(self, ds: Sequence[float]) -> np.ndarray:
        """Leave-one-out errors, of shape (len(ds), held-out points): entry
        (i, j) is |prediction - reach| / gap of held-out point j, predicted by
        the fit on ``segments(ds[i])`` without its row, its gap being its bound
        gap under the other points (``relative_errors``: a gap is degenerate
        only when the bounds solver collapsed it to 0).  The fits for the ds
        not yet known are one stacked solve."""
        missing = [d for d in dict.fromkeys(ds) if d not in self._errors]
        if missing:
            matrices = [self.segments(d) for d in missing]
            rows = [row for row, _, _ in self.holdouts]
            gaps = np.array([interval.gap for _, _, interval in self.holdouts])
            predictions = fit_leave_one_out(matrices, self.reaches, rows)
            errors = relative_errors(
                predictions, self.reaches[rows], gaps, self.universe_size
            )
            self._errors.update(zip(missing, errors))
        return np.array([self._errors[d] for d in ds])

    def model(self, d: float) -> CiModel:
        """The model fitted to all points at d; at d = 1 it predicts
        U clip(z.y / z.z, 0, 1) z_T, y being the reach proportions."""
        return fit_segments(self.segments(d), self.reaches)

    def estimates(
        self, model: CiModel, targets: Sequence[SubsetMask], clamp: bool = True
    ) -> list[Estimate]:
        """The model's point for each target (clamped unless told not to)
        beside the target's 100% interval, labelled as loaded at the model's
        d.  The intervals are one ``bounds_many`` batch and the segment rows
        one ``segment_rows`` call; a model of another BG count is a ValueError
        before either."""
        if model.num_bgs != self.dataset.num_bgs:
            raise ValueError(
                f"model has num_bgs={model.num_bgs}, dataset has {self.dataset.num_bgs}"
            )
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
    """Pick d from the grid by the minimum mean of ``Session.loo_table``.

    Each non-basic training point is held out once: the model fits on the
    other n-1 points and the absolute error is divided by the held-out point's
    bound gap under those n-1 points (a gap the bounds solver collapsed to 0
    gives 0 or infinity).  Ties go to the smaller d.  Requires n > P+1; the
    basics are never held out.
    """
    if not session.has_spare_points:
        raise UnavailableError(NO_SPARE_POINTS)
    grid = d_grid()
    best_d = grid[0]
    best_score = math.inf
    # Scores within 1e-8 (solver noise) count as ties, and ties -- including
    # infinite scores -- keep the smaller d.
    for d, score in zip(grid, session.loo_table(grid).mean(axis=1)):
        if score < best_score - 1e-8:
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
    session: Session, d: float, estimate: Estimate, alpha: float
) -> BoundInterval:
    """alpha%-confidence interval around the unclamped model ``estimate`` at d.

    The alpha-th nearest-rank percentile q of ``Session.loo_table`` at d (the
    absolute held-out errors over their bound gaps) scales the bound gap: the
    interval is [point - q/2*gap, point + q/2*gap] intersected with the
    estimate's 100%-confidence interval.  Requires n > P+1.
    """
    if not session.has_spare_points:
        raise UnavailableError(NO_SPARE_POINTS)
    q_alpha = nearest_rank_percentile(session.loo_table([d])[0], alpha)
    return alpha_interval(estimate.point, estimate.interval_100, q_alpha)


def resolve_d(session: Session, d: float | None) -> tuple[float, str]:
    """Settle d and name the policy that chose it.

    A given d is kept ("given") and must be at least 1 or infinity;
    otherwise d is cross-validated when there are spare points beyond the
    basics ("cross_validated") and is infinity when there are none
    ("default_inf").
    """
    if d is not None:
        check_d(d)
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
        if self.alpha is not None:
            check_alpha(self.alpha)
        if self.d is not None:
            check_d(self.d)


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
    fits, and predicts and bounds the target once.  The point is clamped into
    the interval unless options.clamp is off; an alpha%-interval around the
    unclamped point is attached when requested and achievable.
    """
    options = options or EstimateOptions()
    dataset.check_basic_points()
    target.check_observable(dataset.num_bgs)
    session = Session(dataset)
    d, policy = resolve_d(session, options.d)
    estimate = session.estimate(session.model(d), target, clamp=False)
    interval_alpha = alpha = None
    if options.alpha is not None and session.has_spare_points:
        interval_alpha = error_bar(session, d, estimate, options.alpha)
        alpha = options.alpha
    if options.clamp:
        estimate = replace(estimate, point=estimate.interval_100.clamp(estimate.point))
    return replace(
        estimate, d=d, d_policy=policy, interval_alpha=interval_alpha, alpha=alpha
    )
