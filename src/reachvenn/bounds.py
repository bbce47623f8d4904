"""Model-free reach analysis via linear programming.

A partial reach Venn diagram is consistent when a non-negative allocation of
its 2**P regions reproduces every observation and, with a declared universe,
sums to it (the regions partition the universe).  ``_lp_rows`` builds that
polytope, and three tools use it: a consistency check (its phase 1), tight
lower/upper bounds on any subset's reach (optimize the target's incidence
functional over it), and a least-squares repair onto its observation rows.
A bounds solver also bounds an observed mask under the other observations,
from its own phase 1 (``BoundsSolver.bounds_without``): the leave-one-out bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    TOL_FEAS,
    BoundInterval,
    InconsistencyError,
    ReachDataset,
    RegionAllocation,
    SubsetMask,
    UnavailableError,
    incidence_vector,
)
from .lp import UNBOUNDED, EqualityFormSolver, solve_lp
from .lsq import nnls, simplex_lstsq


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the consistency check.

    ``consistent`` is the phase-1 verdict that BoundsSolver also acts on.
    ``witness`` is an allocation that reproduces every observation and, with a
    declared universe, sums to it; it is None only when the data is
    inconsistent.
    """

    consistent: bool
    witness: RegionAllocation | None = None


def _lp_rows(dataset: ReachDataset) -> tuple[np.ndarray, np.ndarray]:
    """The equalities A x = b of the feasible polytope, on the proportion scale.

    First one row per observation, in the dataset's (canonical) order; then,
    only with a declared universe, the row sum_j x_j = U / scale (= 1) over
    all 2**P regions, region 0 included.  The universe row goes last, so
    observation i is row i either way.
    """
    if dataset.n == 0:
        raise ValueError("dataset has no observations")
    rows = [incidence_vector(o.subset) for o in dataset.observations]
    b = [o.reach for o in dataset.observations]
    if dataset.universe_size is not None:
        rows.append(np.ones(1 << dataset.num_bgs))
        b.append(dataset.universe_size)
    return np.array(rows), np.array(b) / dataset.scale


def check_consistency(dataset: ReachDataset) -> ConsistencyReport:
    """Decide whether the polytope of ``_lp_rows`` is non-empty.

    One LP with a zero objective: its status is the verdict, the same phase 1
    that BoundsSolver runs, and the witness is phase 1's vertex in reach units.
    Each region of a vertex lies in a row whose right-hand side is at most 1
    (no reach exceeds the scale), so clipping it into [0, 1] only removes
    round-off, and the witness is always finite.
    """
    result = solve_lp(*_lp_rows(dataset), np.zeros(1 << dataset.num_bgs))
    if not result.is_optimal:
        return ConsistencyReport(consistent=False)
    regions = np.clip(result.solution, 0.0, 1.0) * dataset.scale
    return ConsistencyReport(True, RegionAllocation(dataset.num_bgs, regions))


class BoundsSolver:
    """Tight subset-reach bounds over one dataset's feasible polytope.

    The feasibility phase runs once at construction; each target costs two
    simplex runs, each starting from the basis where the previous target's
    run of the same sense stopped.  Bounds therefore depend on the targets
    asked before, but only up to round-off (under 1e-13 of the scale on
    every mask at P=11), and are bit-identical for the same sequence of
    calls.  Construction raises InconsistencyError when the polytope is empty.
    """

    def __init__(self, dataset: ReachDataset):
        self._solver = EqualityFormSolver(*_lp_rows(dataset))
        if not self._solver.feasible:
            raise InconsistencyError(
                "observations are inconsistent; run repair_dataset first"
            )
        self.dataset = dataset
        self.scale = dataset.scale
        self._cap = _upper_cap(dataset)

    def bounds_without(self, mask: SubsetMask) -> BoundInterval:
        """Bounds of the observed ``mask`` under the other observations.

        They come from this solver's phase 1 (``EqualityFormSolver.without_row``),
        solved in this solver's scale with the sum of the other reaches as the
        cap, so they equal ``BoundsSolver(dataset.without(mask)).bounds(mask)``
        up to round-off.
        Phase 1 here leaves no artificial in the basis, so no other path is
        needed: mask S's row is 1[j within all BGs] - 1[j within S's
        complement], the indicators 1[j within T] form a basis (the zeta
        transform is unitriangular), and observed masks are distinct and
        non-empty, so their complements are distinct and none is all BGs.  The
        universe row is independent of them too: it is the only row that
        covers region 0.
        """
        mask.check_observable(self.dataset.num_bgs)
        if self.dataset.reach_of(mask) is None:
            raise ValueError(f"mask {mask} not present")
        cap = _upper_cap(self.dataset, without=mask)
        solver = self._solver.without_row(self.dataset.masks().index(mask))
        return _interval(solver, incidence_vector(mask), cap, self.scale)

    def bounds(self, target: SubsetMask) -> BoundInterval:
        target.check_observable(self.dataset.num_bgs)
        c = incidence_vector(target)
        return _interval(self._solver, c, self._cap, self.scale)

    def bounds_many(self, targets: Sequence[SubsetMask]) -> list[BoundInterval]:
        """``bounds`` of every target, in the order given.

        The targets are solved in Gray-code order of their masks, so
        consecutive solves differ by about one BG and start near their optimum.
        Against index order, in ms per batch (min of 5, one BLAS thread, 2 vCPUs):
        3.7 vs 5.1 and 17.9 vs 25.1 for the testing masks of repaired noisy P=6
        and P=8 designs, 327 vs 814 for all 2047 masks of exact P=11 designs.
        """
        intervals: list[BoundInterval | None] = [None] * len(targets)
        for i in sorted(range(len(targets)), key=lambda i: _gray_rank(targets[i].bits)):
            intervals[i] = self.bounds(targets[i])
        return intervals


def _upper_cap(dataset: ReachDataset, without: SubsetMask | None = None) -> float:
    """Ceiling in reach units for a target the observations leave unbounded
    above: the sum of the observed reaches (but ``without``'s).  Only reached
    without a universe, whose row bounds every target."""
    return float(sum(o.reach for o in dataset.observations if o.subset != without))


def _interval(
    solver: EqualityFormSolver, c: np.ndarray, cap: float, scale: float
) -> BoundInterval:
    """Bounds of the incidence functional ``c`` over ``solver``'s polytope,
    whose rows are divided by ``scale``, in reach units (``cap``, in reach
    units too, is the ceiling for an unbounded maximum).
    An upper bound past the float range in reach units is UnavailableError."""
    lo = solver.optimize(c, "min")
    hi = solver.optimize(c, "max")
    # The polytope is non-empty, and a non-negative objective over x >= 0 is
    # never unbounded below: the minimum is always optimal.
    lower = max(0.0, lo.value)
    capped = False
    if hi.status == UNBOUNDED:
        upper = max(cap / scale, lower)
        capped = True
    else:
        upper = hi.value
    if upper - lower < TOL_FEAS:
        mid = 0.5 * (lower + upper)
        lower = upper = max(0.0, mid)
    lower, upper = lower * scale, upper * scale
    if math.isinf(upper):
        raise UnavailableError("no finite bounds: the upper bound exceeds the float range")
    return BoundInterval(lower=lower, upper=upper, upper_capped=capped)


def _gray_rank(bits: int) -> int:
    """Position of ``bits`` in the reflected binary Gray code."""
    rank = 0
    while bits:
        rank ^= bits
        bits >>= 1
    return rank


def subset_bounds(dataset: ReachDataset, target: SubsetMask) -> BoundInterval:
    """``BoundsSolver(dataset).bounds(target)``.

    The tightest interval: some allocation that reproduces the observations
    (and sums to the universe, when one is declared) reaches each value in it
    and none a value outside.  Without a universe, an upper bound the
    observations leave open is the sum of the reaches (``upper_capped``).
    Raises InconsistencyError on inconsistent data, UnavailableError past the
    float range.
    """
    return BoundsSolver(dataset).bounds(target)


def repair_dataset(dataset: ReachDataset) -> ReachDataset:
    """Project possibly-noisy observations onto the consistent set.

    Finds a non-negative region allocation minimizing the summed squared
    residuals of the observation equalities on the proportion scale, then
    replaces every observed reach with the allocation's value.  Consistent
    inputs come back unchanged up to solver round-off.  When the universe
    size is declared, the allocation is additionally constrained to fit
    inside it (the unreached region absorbs the slack).  Either way the
    solve is one ``simplex_lstsq`` call: directly on the simplex with a
    universe, and through ``nnls``, its reduction onto that solver, without.
    A repaired reach past the float range raises UnavailableError.
    """
    # The observation rows: with a universe, the simplex constraint is its row
    # and column 0, zero here, is the unreached region.
    a, b = (rows[: dataset.n] for rows in _lp_rows(dataset))
    universe = dataset.universe_size
    x = nnls(a, b) if universe is None else simplex_lstsq(a, b)
    with np.errstate(over="ignore"):
        repaired = a @ x * dataset.scale
    if universe is not None:
        repaired = np.minimum(repaired, universe)
    if np.isinf(repaired).any():
        raise UnavailableError("no finite repair: a repaired reach exceeds the float range")
    return dataset.replace_reaches(np.clip(repaired, 0.0, None))


@dataclass(frozen=True)
class PrefixBound:
    """Bounds for one prefix of an incremental reach curve."""

    prefix_length: int
    subset: SubsetMask
    interval: BoundInterval
    pinned: float | None = None


# ``incremental_curve_bounds`` modes: bound each prefix, or pin it at a bound.
CURVE_MODES = ("free", "upper", "lower")


def incremental_curve_bounds(
    dataset: ReachDataset,
    order: Sequence[int],
    mode: str = "free",
) -> list[PrefixBound]:
    """Bounds along an incremental reach curve for one BG permutation.

    For each strict prefix (lengths 2..P-1) of ``order``, computes the
    prefix-union's reach bounds.  In ``upper``/``lower`` mode the
    prefix is pinned at its upper/lower bound as an extra observation before
    moving on, tracing one boundary of the feasible curve region; ``free``
    mode bounds every prefix against the original observations only.
    """
    num_bgs = dataset.num_bgs
    if sorted(order) != list(range(1, num_bgs + 1)):
        raise ValueError(f"order must be a permutation of 1..{num_bgs}")
    if mode not in CURVE_MODES:
        raise ValueError(f"unknown mode {mode!r}")

    results: list[PrefixBound] = []
    current = dataset
    solver = BoundsSolver(current)
    for k in range(2, num_bgs):
        prefix = SubsetMask.from_bgs(order[:k], num_bgs)
        interval = solver.bounds(prefix)
        if mode == "free":
            results.append(PrefixBound(k, prefix, interval))
            continue
        pinned = interval.upper if mode == "upper" else interval.lower
        results.append(PrefixBound(k, prefix, interval, pinned=pinned))
        if current.reach_of(prefix) is None:
            current = current.with_observation(prefix, pinned)
            solver = BoundsSolver(current)
    return results
