"""Conditional-independence reach model.

The universe is split into 2**P latent activity segments, one per P-bit
label: inside segment x, BG i reaches users independently with the high
probability 1 - (1 - r_i)/d when flag i is set, or the low probability r_i/d
when it is not (r_i is BG i's overall reach proportion, d > 1 the tuning
parameter).  A subset's reach proportion is then a convex combination over
segments, and fitting reduces to least squares under w >= 0, sum(w) <= 1.
As d grows the segment rows approach the subset/region incidence pattern, so
consistent data is always perfectly fittable in the limit.

Fitting is split in two: ``build_segment_matrix`` builds Z(d) and
``fit_segments`` solves for the weights on it.  ``segment_rows`` builds the
rows of many subsets in one broadcast, each with the bits of its own
``segment_row``, so a row of Z(d) predicts its subset exactly as a rebuilt
row would (``predict_row``).  ``fit_leave_one_out`` fits
every pair of a matrix and a held-out row in one stacked ``simplex_lstsq``
call and returns the held-out rows' predictions, no models.  Each of those
fits deletes one row of the full matrix, which equals the smaller dataset's
own matrix bit for bit (the basics, and so the universe and single-BG
proportions, are never held out), and gets the weights its own
``fit_segments`` call would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import BoundsSolver
from .core import (
    InconsistencyError,
    ReachDataset,
    SubsetMask,
    UnavailableError,
)
from .lsq import simplex_lstsq

# Residuals at or below this (squared, proportion scale) count as a perfect fit.
PERFECT_FIT_EPS = 1e-9


def estimate_universe(dataset: ReachDataset) -> float:
    """Universe size under which the single-BG reaches look independent.

    Solves 1 - R(union)/U == prod_i (1 - R(G_i)/U) for the unique U above the
    union reach, by doubling a bracket and bisecting to 1e-10 relative width.

    Raises:
        ValueError: the basic observations are missing.
        InconsistencyError: some single-BG reach exceeds the union reach.
        UnavailableError: the singles do not overlap (no finite solution).
    """
    if not dataset.has_basic_points:
        raise ValueError("universe estimation needs all single-BG and union reaches")
    union = dataset.reach_of(SubsetMask.full(dataset.num_bgs))
    singles = [
        dataset.reach_of(SubsetMask.single(i, dataset.num_bgs))
        for i in range(1, dataset.num_bgs + 1)
    ]
    if any(s > union for s in singles):
        raise InconsistencyError("inconsistent basics: a single-BG reach exceeds the union")
    if sum(singles) <= union:
        raise UnavailableError("no finite independent universe: the BGs do not overlap")
    if union <= 0:
        raise UnavailableError("no finite independent universe: union reach is zero")

    def gap(u: float) -> float:
        return float(np.prod([1.0 - s / u for s in singles]) - (1.0 - union / u))

    lo = union * (1.0 + 1e-9)
    if gap(lo) <= 0:
        raise UnavailableError("no finite independent universe")
    hi = max(2.0 * union, lo * 2.0)
    while gap(hi) > 0:
        hi *= 2.0
        if hi > union * 1e15:
            raise UnavailableError("no finite independent universe")
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reach_probabilities(
    single_proportions: np.ndarray, d: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-BG (low, high) reach probabilities for the given d."""
    r = np.asarray(single_proportions, dtype=np.float64)
    if math.isinf(d):
        return np.zeros_like(r), np.ones_like(r)
    if d <= 1.0:
        raise ValueError("d must exceed 1")
    return r / d, 1.0 - (1.0 - r) / d


def segment_rows(
    subsets: Sequence[SubsetMask], single_proportions: np.ndarray, d: float
) -> np.ndarray:
    """Probability of a user in each activity segment being reached by each
    subset: one row per subset, one column per segment index.

    Entry (k, s) is 1 - prod over subset k's BGs of (1 - r_{s_i}(G_i)); at
    d = infinity a row equals the incidence vector exactly (the low/high
    probabilities are exact 0/1 there).  The products run over the BGs in
    ascending order from 1.0, and a BG outside a subset multiplies its row
    by exactly 1.0, so each row has the bits of a product over its own BGs.
    """
    low, high = _reach_probabilities(single_proportions, d)
    if any(subset.num_bgs != low.size for subset in subsets):
        raise ValueError(f"subsets must have {low.size} BGs")
    if any(subset.is_empty for subset in subsets):
        raise ValueError("empty subset has no reach")
    segments = np.arange(1 << low.size)
    bits = np.array([subset.bits for subset in subsets], dtype=np.int64)
    survive = np.ones((bits.size, segments.size))
    for i in range(low.size):
        p = np.where(segments >> i & 1, high[i], low[i])
        survive = survive * np.where((bits >> i & 1)[:, None] == 1, 1.0 - p, 1.0)
    return 1.0 - survive


def segment_row(
    subset: SubsetMask, single_proportions: np.ndarray, d: float
) -> np.ndarray:
    """``segment_rows`` of the one subset."""
    return segment_rows([subset], single_proportions, d)[0]


@dataclass(frozen=True)
class SegmentMatrix:
    """Segment-probability matrix: one row per training subset, one column
    per activity segment, both in ascending canonical order, with the
    universe size and single-BG proportions it was built from."""

    d: float
    rows: tuple[SubsetMask, ...]
    entries: np.ndarray = field(repr=False)
    universe_size: float
    single_bg_proportions: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.float64)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


def build_segment_matrix(
    dataset: ReachDataset, d: float, universe_size: float | None = None
) -> SegmentMatrix:
    """Segment matrix for the dataset's observed masks at parameter ``d``.

    The rows are the masks in ascending canonical order.  The single-BG
    proportions come from ``universe_size`` when given, else from the
    declared universe size, else from ``estimate_universe``.
    """
    if not dataset.has_basic_points:
        raise ValueError("fitting needs all single-BG reaches and the union reach")
    rows = dataset.masks()
    universe = universe_size or dataset.universe_size or estimate_universe(dataset)
    singles = [
        dataset.reach_of(SubsetMask.single(i, dataset.num_bgs))
        for i in range(1, dataset.num_bgs + 1)
    ]
    proportions = np.array(singles, dtype=np.float64) / universe
    entries = segment_rows(rows, proportions, d)
    return SegmentMatrix(d, rows, entries, float(universe), proportions)


@dataclass(frozen=True)
class CiModel:
    """Fitted conditional-independence model.

    ``weights`` holds one non-negative weight per activity segment with
    sum <= 1 (the unreached remainder is implicit); ``training_residual`` is
    the squared fitting error on the proportion scale.
    """

    num_bgs: int
    d: float
    universe_size: float
    single_bg_proportions: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    training_residual: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        r = np.asarray(self.single_bg_proportions, dtype=np.float64)
        if w.shape != (1 << self.num_bgs,) or r.shape != (self.num_bgs,):
            raise ValueError("model dimensions do not match num_bgs")
        # Written so that NaN fails every check.
        if not self.d > 1.0:
            raise ValueError(f"d must exceed 1 or be inf, got {self.d}")
        if not (math.isfinite(self.universe_size) and self.universe_size > 0):
            raise ValueError(
                f"universe_size must be finite and positive, got {self.universe_size}"
            )
        if not (r.min() >= 0.0 and r.max() <= 1.0):
            raise ValueError("single_bg_proportions must lie in [0, 1]")
        if not (w.min() >= 0.0 and w.sum() <= 1.0 + 1e-9):
            raise ValueError("weights must be finite and non-negative with sum <= 1")
        if not (math.isfinite(self.training_residual) and self.training_residual >= 0):
            raise ValueError("training_residual must be finite and non-negative")
        w = w.copy()
        w.flags.writeable = False
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "single_bg_proportions", r)

    def to_json_dict(self) -> dict:
        return {
            "num_bgs": self.num_bgs,
            "d": "inf" if math.isinf(self.d) else self.d,
            "universe_size": self.universe_size,
            "single_bg_proportions": self.single_bg_proportions.tolist(),
            "weights": self.weights.tolist(),
            "training_residual": self.training_residual,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CiModel":
        d = payload["d"]
        return cls(
            num_bgs=int(payload["num_bgs"]),
            d=math.inf if d == "inf" else float(d),
            universe_size=float(payload["universe_size"]),
            single_bg_proportions=np.array(payload["single_bg_proportions"]),
            weights=np.array(payload["weights"]),
            training_residual=float(payload["training_residual"]),
        )


def fit_segments(matrix: SegmentMatrix, reaches: np.ndarray) -> CiModel:
    """Fit segment weights to ``reaches``, the reaches of ``matrix``'s rows.

    Solves min ||r - Z(d) w||^2 over w >= 0, sum(w) <= 1 (a slack weight for
    the never-reached remainder turns this into least squares on a simplex).
    The returned objective is within ~1e-10 of the constrained optimum; when
    several weight vectors are optimal, any one of them may be returned.
    """
    target = np.asarray(reaches, dtype=np.float64) / matrix.universe_size
    padded = np.hstack([matrix.entries, np.zeros((len(matrix.rows), 1))])
    v, _ = simplex_lstsq(padded, target)
    resid = target - matrix.entries @ v[:-1]
    return CiModel(
        num_bgs=len(matrix.single_bg_proportions),
        d=matrix.d,
        universe_size=matrix.universe_size,
        single_bg_proportions=matrix.single_bg_proportions,
        weights=v[:-1],
        training_residual=float(resid @ resid),
    )


def fit_leave_one_out(
    matrices: Sequence[SegmentMatrix], reaches: np.ndarray, rows: Sequence[int]
) -> np.ndarray:
    """Held-out predictions, of shape (len(matrices), len(rows)): entry (i, j)
    is ``predict_row`` of row ``rows[j]`` of matrix i under the weights fitted
    on that matrix without the row to ``reaches`` without that entry.

    The matrices share their rows.  All the fits are one stacked
    ``simplex_lstsq`` call, and each gets the weights of its own
    ``fit_segments`` call bit for bit.
    """
    m, n = matrices[0].entries.shape
    pairs = [(matrix, row) for matrix in matrices for row in rows]
    stack = np.zeros((len(pairs), m - 1, n + 1))
    targets = np.empty((len(pairs), m - 1))
    for (matrix, row), a, b in zip(pairs, stack, targets):
        a[:row, :n] = matrix.entries[:row]
        a[row:, :n] = matrix.entries[row + 1 :]
        b[:] = np.delete(reaches, row) / matrix.universe_size
    v, _ = simplex_lstsq(stack, targets)
    predictions = []
    for (matrix, row), x in zip(pairs, v):
        raw = float(matrix.entries[row] @ x[:-1]) * matrix.universe_size
        predictions.append(min(max(raw, 0.0), matrix.universe_size))
    return np.reshape(predictions, (len(matrices), len(rows)))


def fit(dataset: ReachDataset, d: float) -> CiModel:
    """Fit segment weights to the dataset's training points at parameter ``d``
    (``fit_segments`` on the dataset's segment matrix)."""
    reaches = np.array([o.reach for o in dataset.sorted_observations()])
    return fit_segments(build_segment_matrix(dataset, d), reaches)


def predict_row(model: CiModel, row: np.ndarray) -> float:
    """Reach estimate for the subset whose segment row at the model's d and
    proportions is ``row``: row . w scaled to the universe, clamped into [0, U]."""
    raw = float(row @ model.weights) * model.universe_size
    return min(max(raw, 0.0), model.universe_size)


def predict(model: CiModel, target: SubsetMask) -> float:
    """Reach estimate for ``target`` (``predict_row`` of its segment row)."""
    return predict_row(model, segment_row(target, model.single_bg_proportions, model.d))


def min_perfect_fit_d(dataset: ReachDataset) -> float:
    """Smallest d whose fit residual is at or below ``PERFECT_FIT_EPS``.

    The fit residual is non-increasing in d and reaches zero for consistent
    data (in the limit the segment rows become the incidence pattern), so a
    doubling search brackets the threshold and bisection narrows it to 1e-3.
    Returns the search floor 1 + 1e-6 when even the near-independence model
    already fits.

    Raises:
        InconsistencyError: the training points are not consistent (no d can
            reach a zero residual).
    """
    BoundsSolver(dataset)  # raises InconsistencyError

    def residual(d: float) -> float:
        return fit(dataset, d).training_residual

    floor = 1.0 + 1e-6
    if residual(floor) <= PERFECT_FIT_EPS:
        return floor
    hi = 2.0
    while residual(hi) > PERFECT_FIT_EPS:
        hi *= 2.0
        if hi > 2.0**40:
            raise RuntimeError("no finite d reached a zero residual")
    lo = max(floor, hi / 2.0)
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if residual(mid) <= PERFECT_FIT_EPS:
            hi = mid
        else:
            lo = mid
    return hi
