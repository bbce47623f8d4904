"""Brute-force grid oracle for the LP bounds at desk scale.

Exhaustive validation tool for small P: enumerate region allocations that
satisfy every observation exactly, and read off the extremes of the target
subset's reach.  The equality system is eliminated exactly over rationals so
only the leftover free regions are swept on the grid.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from reachvenn.core import BoundInterval, ReachDataset, SubsetMask

_GRID_LIMIT = 20_000_000


def _rref_fraction(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[list[Fraction]], list[Fraction], list[int], bool]:
    """Reduced row echelon form over exact rationals.

    Returns (matrix, rhs, pivot column per row, consistent flag).
    """
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rhs[r], rhs[sel] = rhs[sel], rhs[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        rhs[r] = rhs[r] * inv
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                rhs[i] = rhs[i] - f * rhs[r]
        pivots.append(col)
        r += 1
        if r == m:
            break
    consistent = all(rhs[i] == 0 for i in range(r, m))
    return rows[:r], rhs[:r], pivots, consistent


def oracle_bounds_by_grid(
    dataset: ReachDataset, target: SubsetMask, step: float
) -> BoundInterval:
    """Grid-search bounds on the target's reach over exact feasible allocations.

    Enumerates allocations whose free regions lie on a grid of spacing
    ``step`` (pivot regions are solved exactly from the observation
    equalities) and keeps the non-negative ones.  Only intended as an
    independent check of the LP bounds at desk scale.

    Args:
        dataset: consistent observations, P <= 4.
        target: non-empty subset whose reach range is sought.
        step: grid spacing per free region, > 0.

    Returns:
        The min/max target reach over surviving allocations.

    Raises:
        ValueError: P > 4, step <= 0, enumeration too large, or no feasible
            grid point ("grid too coarse").
    """
    num_bgs = dataset.num_bgs
    if num_bgs > 4:
        raise ValueError("grid oracle supports P <= 4 only")
    if step <= 0:
        raise ValueError("step must be positive")
    if target.is_empty:
        raise ValueError("empty subset has no reach")
    if dataset.n == 0:
        raise ValueError("dataset has no observations")

    nregions = (1 << num_bgs) - 1  # region 0 never contributes to any reach
    obs = dataset.sorted_observations()
    rows = [
        [Fraction(int(bool((j + 1) & o.subset.bits))) for j in range(nregions)]
        for o in obs
    ]
    rhs = [Fraction(o.reach) for o in obs]
    red_rows, red_rhs, pivots, consistent = _rref_fraction(rows, rhs)
    if not consistent:
        raise ValueError("grid too coarse")

    free_cols = [j for j in range(nregions) if j not in pivots]
    # Each region is bounded by every observed subset that covers it.
    cap = dataset.universe_size
    if cap is None:
        cap = sum(o.reach for o in obs if o.subset.popcount == 1) or dataset.scale
    ub = []
    for j in free_cols:
        covering = [o.reach for o in obs if (j + 1) & o.subset.bits]
        ub.append(min(covering) if covering else cap)
    counts = [int(np.floor(u / step + 0.5)) + 1 for u in ub]
    total = 1
    for c in counts:
        total *= c
    if total > _GRID_LIMIT:
        raise ValueError(f"grid enumeration too large ({total} points)")

    fstep = Fraction(step)
    target_coeff = np.array(
        [1.0 if (j + 1) & target.bits else 0.0 for j in range(nregions)]
    )
    pivot_rhs = red_rhs
    pivot_free = [[row[j] for j in free_cols] for row in red_rows]

    best_lo: Fraction | None = None
    best_hi: Fraction | None = None
    grids = [[fstep * k for k in range(c)] for c in counts]
    for combo in itertools.product(*grids):
        x = [Fraction(0)] * nregions
        for j, v in zip(free_cols, combo):
            x[j] = v
        ok = True
        for row_free, rv, pcol in zip(pivot_free, pivot_rhs, pivots):
            val = rv - sum(c * v for c, v in zip(row_free, combo) if c != 0)
            if val < 0:
                ok = False
                break
            x[pcol] = val
        if not ok:
            continue
        treach = sum(x[j] for j in range(nregions) if target_coeff[j])
        if best_lo is None or treach < best_lo:
            best_lo = treach
        if best_hi is None or treach > best_hi:
            best_hi = treach
    if best_lo is None or best_hi is None:
        raise ValueError("grid too coarse")
    return BoundInterval(lower=float(best_lo), upper=float(best_hi))
