"""Dense-tableau two-phase simplex solver.

Deterministic: Dantzig pricing with lowest-index tie breaks, and a permanent
switch to Bland's rule whenever the objective stalls, so degenerate problems
cannot cycle.  The tableaux are short and wide: the bounds LP has one row per
observation and one column per Venn region, 2**P of them (2048 at P=11, up
to 2**20 at ``core.MAX_BGS``).  Phase 2 allocates little: each solve writes
its cost row into the tableau in place, and each pivot's ratio test divides
into one buffer reused for the whole solve.

A pivot changes only the rows whose pivot-column factor is non-zero (Hall &
McKinnon, Comput. Optim. Appl. 32, 2005), and the width of the tableau picks
one of two updates.  A tableau of at most ``_ROW_WISE_WIDTH`` (1024) columns
is updated in one broadcast over every row, a single numpy call per pivot.  A
wider one is updated one row at a time, only on the rows with a non-zero
factor, with one row-sized temporary instead of a tableau-sized one.  Each
entry that changes gets the same product and subtraction either way, so the
pivots and the results are the same bits, and a skipped row keeps its bits
exactly.  The crossover, in µs per ``BoundsSolver.bounds`` call on an exact
2P+1 design (broadcast / row-wise, min of 7, 2-vCPU x86 host): P=9 (512
regions) 295 / 390, P=10 (1024) 450 / 480, P=11 (2048) 734 / 522.  At P=10
the Fortran-ordered tableaux of ``without_row`` favour rows (2.2 / 1.3 ms
per held-out bound), so P=10 is on the row-wise side.  Set the
``reachvenn.lp`` logger to DEBUG to see each phase 1 (pivots, artificials
left in the basis) and each ``optimize`` (sense, status, pivots, whether
Bland's rule fired).

One solver answers many objectives over a fixed constraint set, so each
solve starts from the basis where the last solve of the same sense stopped:
every basis the simplex visits is feasible.  The ``min`` sense runs on the
phase-1 tableau itself, and ``max`` copies ``min``'s current tableau on
first use.  A result therefore depends on the earlier calls, but only up to
round-off, and the same sequence of calls gives bit-identical results.  The
artificial columns carry the basis inverse: phase 2 never prices them, so
every pivot keeps them equal to B^-1, and the same program without one
equality is solved with no new phase 1 (``EqualityFormSolver.without_row``).
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-9
_PHASE1_TOL = 1e-8
# Tableaux with more columns than this pivot row by row (see the module docstring).
_ROW_WISE_WIDTH = 1024

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LpResult:
    status: str
    value: float | None = None
    solution: np.ndarray | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _pivot(tableau: np.ndarray, row: int, col: int, basis: np.ndarray) -> None:
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row]
    if tableau.shape[1] > _ROW_WISE_WIDTH:
        # Only rows with a non-zero factor change, by the broadcast's arithmetic.
        factors = tableau[:, col]
        for i in factors.nonzero()[0].tolist():
            if i != row:
                tableau[i] -= factors[i] * pivot_row
    else:
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau -= factors[:, None] * pivot_row
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, ncols: int) -> tuple[str, int, bool]:
    """Minimize the cost row of a feasible tableau in place.

    ``tableau`` has shape (m+1, width): m constraint rows, a cost row with
    reduced costs in columns [0, ncols) and -objective in the last column.
    Returns the status ("optimal" or "unbounded"), the number of pivots and
    whether Bland's rule took over; raises after 200 (m + ncols) + 1000 pivots.
    """
    m = tableau.shape[0] - 1
    cost = tableau[-1]
    bland = False
    stall = 0
    last_obj = cost[-1]
    rhs = tableau[:m, -1]
    ratios = np.empty(m)
    for pivots in range(200 * (m + ncols) + 1000):
        reduced = cost[:ncols]
        if bland:
            eligible = np.flatnonzero(reduced < -_COST_TOL)
            if eligible.size == 0:
                return OPTIMAL, pivots, bland
            col = int(eligible[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -_COST_TOL:
                return OPTIMAL, pivots, bland
        colvals = tableau[:m, col]
        pos = colvals > _PIVOT_TOL
        if not pos.any():
            return UNBOUNDED, pivots, bland
        ratios.fill(np.inf)
        np.divide(rhs, colvals, out=ratios, where=pos)
        ties = (ratios <= ratios.min() + 1e-12).nonzero()[0]
        # Among ratio ties, leave the smallest basis index (Bland-compatible).
        row = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])
        _pivot(tableau, row, col, basis)
        # The cost row stores -objective, so it rises on real progress.
        if cost[-1] <= last_obj + 1e-12:
            stall += 1
            if stall > 2 * (m + ncols) + 50:
                bland = True
        else:
            stall = 0
            last_obj = cost[-1]
    raise RuntimeError("simplex iteration limit exceeded")


class EqualityFormSolver:
    """Reusable simplex for min/max c @ x s.t. A x = b, x >= 0.

    Phase 1 runs once at construction and leaves its tableau to the ``min``
    sense.  Each sense keeps one tableau, and each ``optimize`` call runs
    phase 2 in place from the basis where that sense's last call stopped, so
    a run of similar objectives costs a few pivots each.  ``max`` starts from
    a copy of wherever ``min`` has got to.
    """

    def __init__(self, a_eq: np.ndarray, b_eq: np.ndarray):
        a = np.atleast_2d(np.asarray(a_eq, dtype=np.float64))
        b = np.asarray(b_eq, dtype=np.float64)
        m, n = a.shape
        flip = b < 0
        if flip.any():
            a = a.copy()
            b = b.copy()
            a[flip] *= -1.0
            b[flip] *= -1.0

        self.n = n
        # Columns that phase 2 prices: the structurals, and a derived solver's slack pair.
        self._ncols = n
        self._by_sense: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        tableau = np.zeros((m + 1, n + m + 1))
        tableau[:m, :n] = a
        tableau[:m, n : n + m] = np.eye(m)
        tableau[:m, -1] = b
        basis = np.arange(n, n + m)
        # Phase-1 reduced costs: minimize the artificial sum.
        tableau[-1, :n] = -a.sum(axis=0)
        tableau[-1, -1] = -b.sum()
        del a
        status, pivots, _ = _run_simplex(tableau, basis, n + m)
        # The artificial sum is bounded below by 0, so phase 1 must end optimal.
        if status != OPTIMAL:
            raise RuntimeError(f"phase 1 ended {status}")
        self.feasible = bool(
            -tableau[-1, -1] <= _PHASE1_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))
        )
        if not self.feasible:
            if _logger.isEnabledFor(logging.DEBUG):
                _logger.debug("phase 1: %d pivots, infeasible", pivots)
            return

        # Drive artificials out of the basis.  One that stays sits on a redundant
        # row at level zero, and phase 2, which never prices it, never moves it.
        for i in range(m):
            if basis[i] >= n:
                structural = np.flatnonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)
                if structural.size:
                    _pivot(tableau, i, int(structural[0]), basis)
                    pivots += 1
        if _logger.isEnabledFor(logging.DEBUG):
            _logger.debug("phase 1: %d pivots, %d artificials left", pivots, (basis >= n).sum())
        self._by_sense["min"] = (tableau, basis)

    def without_row(self, row: int, scale: float = 1.0) -> "EqualityFormSolver":
        """A solver of the same program without equality ``row``, with the
        right-hand side multiplied by ``scale``.

        No phase 1 runs: equality ``row`` gets a free slack, the column pair
        +/-B^-1 e_row, so the ``min`` sense's current basis B stays feasible
        and the new solver's ``min`` sense starts from it.  B^-1 e_row is the
        tableau's artificial column ``row``; the pair makes the row's sign
        flip irrelevant.  The slack is not priced in objectives or returned in
        solutions.  Raises IndexError for a row outside [0, m), and
        RuntimeError for an infeasible program, an artificial left in the
        basis (on a redundant row), or a derived solver.
        """
        if not self.feasible or self._ncols != self.n:
            raise RuntimeError("no basis inverse: the program is infeasible or derived")
        tableau, basis = self._by_sense["min"]
        if not 0 <= row < tableau.shape[0] - 1:
            raise IndexError(f"row {row} outside [0, {tableau.shape[0] - 1})")
        if (basis >= self.n).any():
            raise RuntimeError("an artificial left in the basis: no basis inverse")
        slack = tableau[:, self.n + row]
        # Fortran order, as a column gather gives: the phase-2 cost product
        # rounds by memory order.
        derived = np.asfortranarray(
            np.column_stack([tableau[:, : self.n], slack, -slack, tableau[:, -1]])
        )
        derived[:-1, -1] *= scale
        solver = copy.copy(self)
        solver._by_sense = {"min": (derived, basis.copy())}
        solver._ncols = self.n + 2
        return solver

    def optimize(self, objective: np.ndarray, sense: str = "min") -> LpResult:
        """Optimize one objective from the last basis of the same sense."""
        if not self.feasible:
            return LpResult(INFEASIBLE)
        c = np.asarray(objective, dtype=np.float64)
        if sense == "max":
            c = -c
        elif sense != "min":
            raise ValueError("sense must be 'min' or 'max'")
        if sense not in self._by_sense:
            tableau, basis = self._by_sense["min"]
            self._by_sense[sense] = (tableau.copy(), basis.copy())
        tableau, basis = self._by_sense[sense]
        m = tableau.shape[0] - 1
        cost = tableau[-1]
        cost[: self.n] = c
        cost[self.n :] = 0.0
        cost -= cost[basis] @ tableau[:m]
        status, pivots, bland = _run_simplex(tableau, basis, self._ncols)
        if _logger.isEnabledFor(logging.DEBUG):
            _logger.debug(
                "optimize %s: %s, %d pivots, Bland's rule %s",
                sense, status, pivots, "on" if bland else "off",
            )
        if status == UNBOUNDED:
            return LpResult(UNBOUNDED)
        x = np.zeros(tableau.shape[1] - 1)
        x[basis] = tableau[:m, -1]
        x = x[: self.n]
        value = float(c @ x)
        if sense == "max":
            value = -value
        return LpResult(OPTIMAL, value=value, solution=x)


def solve_lp(
    a_eq: np.ndarray, b_eq: np.ndarray, objective: np.ndarray, sense: str = "min"
) -> LpResult:
    """One-shot min/max objective @ x s.t. a_eq @ x == b_eq, x >= 0.

    Never raises for infeasible or unbounded programs; the status says so.
    """
    return EqualityFormSolver(a_eq, b_eq).optimize(objective, sense)
