"""Model-free reach analysis via linear programming.

Consistency of a partial reach Venn diagram is equivalent to the existence of
a non-negative region allocation reproducing every observation.  That gives
three tools: a consistency check (phase-1 feasibility of that system), tight
lower/upper bounds on any subset's reach (optimize the target's incidence
functional over the feasible polytope), and a least-squares repair that
projects noisy observations back onto the consistent set.  A bounds solver
also bounds an observed mask under the other observations, from its own
phase 1 (``BoundsSolver.bounds_without``): those are the leave-one-out bounds.
"""

from __future__ import annotations

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
    incidence_vector,
)
from .lp import UNBOUNDED, EqualityFormSolver, solve_lp
from .lsq import nnls, simplex_lstsq


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the consistency check.

    ``consistent`` is the phase-1 verdict that BoundsSolver also acts on.
    ``t_star`` is the optimum of the max-min-region program in reach units,
    negative when no non-negative allocation fits; when the data is
    consistent, ``witness`` realizes every observation.
    """

    consistent: bool
    t_star: float
    witness: RegionAllocation | None = None


def _incidence_rows(dataset: ReachDataset) -> tuple[np.ndarray, np.ndarray]:
    """The observation equalities A x = b on the proportion scale, one row
    per observation in the dataset's (canonical) order."""
    if dataset.n == 0:
        raise ValueError("dataset has no observations")
    a = np.array([incidence_vector(o.subset) for o in dataset.observations])
    b = np.array([o.reach for o in dataset.observations]) / dataset.scale
    return a, b


def check_consistency(dataset: ReachDataset) -> ConsistencyReport:
    """Decide whether the observations admit a non-negative region allocation.

    The verdict is phase-1 feasibility of A x = b, x >= 0, the same test that
    BoundsSolver runs.  ``t_star`` is max t subject to A x = b and t <= x_j
    for every region j, with t capped at the scaled universe: the best
    achievable minimum region reach.  Substituting x = y + t and t = 1 - s
    gives the equality form A y - (A 1) s = b - A 1 over y, s >= 0, minimized
    in s.  Distinct masks make A's rows independent, so that program is
    always feasible and bounded.
    """
    a, b = _incidence_rows(dataset)
    consistent = EqualityFormSolver(a, b).feasible
    row_sums = a.sum(axis=1)
    objective = np.zeros(a.shape[1] + 1)
    objective[-1] = 1.0
    result = solve_lp(np.column_stack([a, -row_sums]), b - row_sums, objective)
    if not result.is_optimal:
        raise RuntimeError(f"max-min region program ended {result.status}")
    t_scaled = 1.0 - result.value
    witness = None
    if consistent:
        regions = np.clip(result.solution[:-1] + t_scaled, 0.0, None) * dataset.scale
        witness = RegionAllocation.from_values(dataset.num_bgs, regions)
    return ConsistencyReport(
        consistent=consistent, t_star=float(t_scaled * dataset.scale), witness=witness
    )


class BoundsSolver:
    """Tight subset-reach bounds over one dataset's feasible polytope.

    The feasibility phase runs once at construction; each target costs two
    simplex runs, each starting from the basis where the previous target's
    run of the same sense stopped.  Bounds therefore depend on the targets
    asked before, but only up to round-off, and are bit-identical for the
    same sequence of calls.  ``bounds_many`` orders a batch so that
    consecutive targets are close.  Construction raises InconsistencyError
    when the polytope is empty.
    """

    def __init__(self, dataset: ReachDataset):
        self._solver = EqualityFormSolver(*_incidence_rows(dataset))
        if not self._solver.feasible:
            raise InconsistencyError(
                "observations are inconsistent; run repair_dataset first"
            )
        self.dataset = dataset
        self.scale = dataset.scale
        self._cap = _upper_cap(dataset)

    def bounds_without(self, mask: SubsetMask) -> BoundInterval:
        """Bounds of the observed ``mask`` under the other observations.

        They come from this solver's phase 1 (``EqualityFormSolver.without_row``)
        with the scale and cap of ``dataset.without(mask)``, so they equal
        ``BoundsSolver(dataset.without(mask)).bounds(mask)`` up to round-off.
        Phase 1 here leaves no artificial in the basis, so no other path is
        needed: mask S's row is 1[j within all BGs] - 1[j within S's
        complement], the indicators 1[j within T] form a basis (the zeta
        transform is unitriangular), and observed masks are distinct and
        non-empty, so their complements are distinct and none is all BGs.
        """
        mask.check_observable(self.dataset.num_bgs)
        rest = self.dataset.without(mask)
        row = self.dataset.masks().index(mask)
        solver = self._solver.without_row(row, self.scale / rest.scale)
        c = incidence_vector(mask)
        return _interval(solver, c, _upper_cap(rest), rest.scale)

    def bounds(self, target: SubsetMask) -> BoundInterval:
        target.check_observable(self.dataset.num_bgs)
        c = incidence_vector(target)
        return _interval(self._solver, c, self._cap, self.scale)

    def bounds_many(self, targets: Sequence[SubsetMask]) -> list[BoundInterval]:
        """``bounds`` of every target, in the order given.

        The targets are solved in Gray-code order of their masks, so
        consecutive solves differ by about one BG and start near their optimum.
        """
        intervals: list[BoundInterval | None] = [None] * len(targets)
        for i in sorted(range(len(targets)), key=lambda i: _gray_rank(targets[i].bits)):
            intervals[i] = self.bounds(targets[i])
        return intervals


def _upper_cap(dataset: ReachDataset) -> float:
    """Scaled ceiling for a target the observations leave unbounded above:
    the universe size when declared, else the sum of the observed reaches."""
    if dataset.universe_size is not None:
        return 1.0
    return float(sum(o.reach for o in dataset.observations)) / dataset.scale


def _interval(
    solver: EqualityFormSolver, c: np.ndarray, cap: float, scale: float
) -> BoundInterval:
    """Bounds of the incidence functional ``c`` over ``solver``'s polytope,
    in reach units (``cap`` is the scaled ceiling for an unbounded maximum)."""
    lo = solver.optimize(c, "min")
    hi = solver.optimize(c, "max")
    # The polytope is non-empty, and a non-negative objective over x >= 0 is
    # never unbounded below: the minimum is always optimal.
    lower = max(0.0, lo.value)
    capped = False
    if hi.status == UNBOUNDED:
        upper = max(cap, lower)
        capped = True
    else:
        upper = hi.value
    if upper - lower < TOL_FEAS:
        mid = 0.5 * (lower + upper)
        lower = upper = max(0.0, mid)
    return BoundInterval(lower=lower * scale, upper=upper * scale, upper_capped=capped)


def _gray_rank(bits: int) -> int:
    """Position of ``bits`` in the reflected binary Gray code."""
    rank = 0
    while bits:
        rank ^= bits
        bits >>= 1
    return rank


def subset_bounds(dataset: ReachDataset, target: SubsetMask) -> BoundInterval:
    """Tightest [lower, upper] for the target's reach given the observations.

    Every value in the interval is realized by some non-negative allocation
    consistent with the data, and no value outside is.  Raises
    InconsistencyError for inconsistent datasets; an upper bound that only
    the cap provides (the universe size when declared, else the sum of the
    observed reaches) carries ``upper_capped=True``.
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
    """
    a, b = _incidence_rows(dataset)
    if dataset.universe_size is not None:
        x, _ = simplex_lstsq(a, b)  # column 0 is zero: the unreached region
    else:
        x, _ = nnls(a, b)
    repaired = a @ x * dataset.scale
    if dataset.universe_size is not None:
        repaired = np.minimum(repaired, dataset.universe_size)
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
