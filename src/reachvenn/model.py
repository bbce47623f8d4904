"""Conditional-independence reach model.

The universe is split into 2**P latent activity segments, one per P-bit
label: inside segment x, BG i reaches users independently with the high
probability 1 - (1 - r_i)/d when flag i is set, or the low probability r_i/d
when it is not (r_i is BG i's overall reach proportion, d >= 1 the tuning
parameter).  A subset's reach proportion is then a convex combination over
segments, and fitting reduces to least squares under w >= 0, sum(w) <= 1.
At d = 1 every segment sees each BG's overall reach r_i, which is plain
conditional independence; as d grows the segment rows approach the
subset/region incidence pattern, so consistent data is always perfectly
fittable in the limit (d = inf).  The estimated universe
(``estimate_universe``) is precise to 1e-10 relative width.

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
    check_num_bgs,
    check_positive,
    frozen,
)
from .lsq import simplex_lstsq

# Residuals at or below this (squared, proportion scale) count as a perfect fit.
PERFECT_FIT_EPS = 1e-9


def _single_reaches(dataset: ReachDataset) -> list[float]:
    """The observed single-BG reaches, BG 1 first."""
    num_bgs = dataset.num_bgs
    return [dataset.reach_of(SubsetMask.single(i, num_bgs)) for i in range(1, num_bgs + 1)]


def dataset_universe(dataset: ReachDataset) -> float:
    """The declared universe size, else ``estimate_universe``'s."""
    return dataset.universe_size or estimate_universe(dataset)


def estimate_universe(dataset: ReachDataset) -> float:
    """Universe size under which the single-BG reaches look independent.

    Solves 1 - R(union)/U == prod_i (1 - R(G_i)/U) for the unique U above the
    union reach, to 1e-10 relative width.  In y = R(union)/U, it divides the
    equation by its root y = 0 and bisects the polynomial left,
    -overlap/R(union) + e_2 y - e_3 y**2 + ... (e_k the elementary symmetric
    polynomials of R(G_i)/R(union)), in (0, 1/(1 + 1e-9)).  The overlap
    sum_i R(G_i) - R(union) is an exactly rounded sum, so BGs close to
    independent keep that precision.

    Raises:
        ValueError: the basic observations are missing.
        InconsistencyError: some single-BG reach exceeds the union reach.
        UnavailableError: the singles do not overlap, the solution is the
            union reach, or it exceeds the float range.
    """
    dataset.check_basic_points()
    union = dataset.reach_of(SubsetMask.full(dataset.num_bgs))
    singles = _single_reaches(dataset)
    if any(s > union for s in singles):
        raise InconsistencyError("inconsistent basics: a single-BG reach exceeds the union")
    half_overlap = math.fsum([0.5 * s for s in singles] + [-0.5 * union])  # no overflow
    if half_overlap <= 0:
        raise UnavailableError("no finite independent universe: the BGs do not overlap")
    shares = np.array(singles) / union
    # np.poly(shares)[k] is (-1)**k e_k; highest power first, for Horner's rule.
    coefficients = np.poly(shares)[:1:-1].tolist() + [-half_overlap / (0.5 * union)]

    def excess(y: float) -> float:
        value = 0.0
        for c in coefficients:
            value = value * y + c
        return value

    lo, hi = 0.0, 1.0 / (1.0 + 1e-9)
    if excess(hi) <= 0:
        raise UnavailableError("no finite independent universe")
    mid = 0.5 * hi
    # Subnormal neighbours have no midpoint between them: stop there too.
    while hi - lo > 1e-10 * hi and lo < mid < hi:
        if excess(mid) > 0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    if mid == 0 or union / mid == math.inf:
        raise UnavailableError("no finite independent universe: it exceeds the float range")
    return union / mid


def check_d(d: float) -> None:
    """Raise ValueError unless 1 <= ``d`` <= inf (so NaN fails): the one d rule."""
    if not d >= 1.0:
        raise ValueError(f"d must be at least 1 (or inf), got {d}")


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
    check_d(d)
    r = np.asarray(single_proportions, dtype=np.float64)
    low, high = r / d, 1.0 - (1.0 - r) / d  # per-BG reach probabilities
    for subset in subsets:
        subset.check_observable(low.size)
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
        object.__setattr__(self, "entries", frozen(self.entries))


def build_segment_matrix(
    dataset: ReachDataset, d: float, universe_size: float | None = None
) -> SegmentMatrix:
    """Segment matrix for the dataset's observed masks at parameter ``d``.

    The rows are the masks in ascending canonical order.  The single-BG
    proportions come from ``universe_size`` when given, else from
    ``dataset_universe``.
    """
    dataset.check_basic_points()
    rows = dataset.masks()
    universe = universe_size or dataset_universe(dataset)
    proportions = np.array(_single_reaches(dataset), dtype=np.float64) / universe
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
        check_num_bgs(self.num_bgs)
        w = np.asarray(self.weights, dtype=np.float64)
        r = np.asarray(self.single_bg_proportions, dtype=np.float64)
        if w.shape != (1 << self.num_bgs,) or r.shape != (self.num_bgs,):
            raise ValueError("model dimensions do not match num_bgs")
        check_d(self.d)
        # Written so that NaN fails every check.
        check_positive("universe_size", self.universe_size)
        if not (r.min() >= 0.0 and r.max() <= 1.0):
            raise ValueError("single_bg_proportions must lie in [0, 1]")
        if not (w.min() >= 0.0 and w.sum() <= 1.0 + 1e-9):
            raise ValueError("weights must be finite and non-negative with sum <= 1")
        if not (math.isfinite(self.training_residual) and self.training_residual >= 0):
            raise ValueError("training_residual must be finite and non-negative")
        object.__setattr__(self, "weights", frozen(w))
        object.__setattr__(self, "single_bg_proportions", frozen(r))


def fit_segments(matrix: SegmentMatrix, reaches: np.ndarray) -> CiModel:
    """Fit segment weights to ``reaches``, the reaches of ``matrix``'s rows.

    Solves min ||r - Z(d) w||^2 over w >= 0, sum(w) <= 1 (a slack weight for
    the never-reached remainder turns this into least squares on a simplex).
    The returned objective is within ~1e-10 of the constrained optimum; when
    several weight vectors are optimal, any one of them may be returned.
    """
    target = np.asarray(reaches, dtype=np.float64) / matrix.universe_size
    padded = np.hstack([matrix.entries, np.zeros((len(matrix.rows), 1))])
    weights = simplex_lstsq(padded, target)[:-1]
    resid = target - matrix.entries @ weights
    return CiModel(
        num_bgs=len(matrix.single_bg_proportions),
        d=matrix.d,
        universe_size=matrix.universe_size,
        single_bg_proportions=matrix.single_bg_proportions,
        weights=weights,
        training_residual=float(resid @ resid),
    )


def fit_leave_one_out(
    matrices: Sequence[SegmentMatrix], reaches: np.ndarray, rows: Sequence[int]
) -> np.ndarray:
    """Held-out predictions, of shape (len(matrices), len(rows)): entry (i, j)
    is ``predict_row`` of row ``rows[j]`` of matrix i under the weights fitted
    on that matrix without the row to ``reaches`` without that entry.

    The matrices share their rows.  The stack of the fits is one gather of
    every matrix's kept rows, in matrix-major order, and all the fits are one
    stacked ``simplex_lstsq`` call, each with the weights of its own
    ``fit_segments`` call bit for bit.
    """
    m, n = matrices[0].entries.shape
    rows = np.asarray(rows, dtype=np.intp)
    kept = np.arange(m - 1)
    keep = kept + (kept >= rows[:, None])  # row j of keep: every row but rows[j]
    stack = np.zeros((len(matrices), m, n + 1))  # with the zero slack column
    stack[:, :, :n] = [matrix.entries for matrix in matrices]
    # One gather of every matrix's kept rows.  np.take writes them in C order,
    # so the reshape is a view.
    stack = np.take(stack, keep, axis=1).reshape(-1, m - 1, n + 1)
    universes = np.array([matrix.universe_size for matrix in matrices])
    targets = np.asarray(reaches, dtype=np.float64)[keep] / universes[:, None, None]
    targets = targets.reshape(-1, m - 1)
    weights = simplex_lstsq(stack, targets)[:, :-1].reshape(len(matrices), rows.size, n)
    return np.array(
        [
            [
                _clamped_reach(matrix.entries[row], w, matrix.universe_size)
                for row, w in zip(rows, ws)
            ]
            for matrix, ws in zip(matrices, weights)
        ]
    )


def fit(dataset: ReachDataset, d: float) -> CiModel:
    """Fit segment weights to the dataset's training points at parameter ``d``
    (``fit_segments`` on the dataset's segment matrix)."""
    reaches = np.array([o.reach for o in dataset.observations])
    return fit_segments(build_segment_matrix(dataset, d), reaches)


def predict_row(model: CiModel, row: np.ndarray) -> float:
    """Reach estimate for the subset whose segment row at the model's d and
    proportions is ``row``: row . w scaled to the universe, clamped into [0, U]."""
    return _clamped_reach(row, model.weights, model.universe_size)


def _clamped_reach(row: np.ndarray, weights: np.ndarray, universe: float) -> float:
    """row . weights scaled to the universe, clamped into [0, universe]."""
    raw = float(row @ weights) * universe
    return min(max(raw, 0.0), universe)


def predict(model: CiModel, target: SubsetMask) -> float:
    """Reach estimate for ``target`` (``predict_row`` of its segment row)."""
    return predict_row(model, segment_row(target, model.single_bg_proportions, model.d))


def min_perfect_fit_d(dataset: ReachDataset) -> float:
    """Smallest d whose fit residual is at or below ``PERFECT_FIT_EPS``.

    The fit residual is non-increasing in d and reaches zero for consistent
    data (in the limit the segment rows become the incidence pattern), so a
    doubling search brackets the threshold and bisection narrows it to 1e-3.
    Returns the floor 1 when the independence model already fits.

    Raises:
        InconsistencyError: the training points are not consistent (no d can
            reach a zero residual).
    """
    BoundsSolver(dataset)  # raises InconsistencyError

    def residual(d: float) -> float:
        return fit(dataset, d).training_residual

    if residual(1.0) <= PERFECT_FIT_EPS:
        return 1.0
    hi = 2.0
    while residual(hi) > PERFECT_FIT_EPS:
        hi *= 2.0
        if hi > 2.0**40:
            raise RuntimeError("no finite d reached a zero residual")
    lo = hi / 2.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if residual(mid) <= PERFECT_FIT_EPS:
            hi = mid
        else:
            lo = mid
    return hi
