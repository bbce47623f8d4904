"""Dense-tableau two-phase simplex solver.

Small and deterministic: Dantzig pricing with lowest-index tie breaks, and a
permanent switch to Bland's rule whenever the objective stalls, so degenerate
problems cannot cycle.  Problem sizes here are tiny (hundreds of columns at
most), so the dense tableau is the right tool.

One solver answers many objectives over a fixed constraint set, so each
solve starts from the basis where the last solve of the same sense stopped:
every basis the simplex visits is feasible.  A result therefore depends on
the earlier calls, but only up to round-off, and the same sequence of calls
gives bit-identical results.  Phase 1 keeps its basis and that basis's
inverse, so the same program without one equality is solved with no new
phase 1 (``EqualityFormSolver.without_row``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-9
_PHASE1_TOL = 1e-8

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


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
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(
    tableau: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int
) -> str:
    """Minimize the cost row of a feasible tableau in place.

    ``tableau`` has shape (m+1, width): m constraint rows, a cost row with
    reduced costs in columns [0, ncols) and -objective in the last column.
    Returns "optimal" or "unbounded".
    """
    m = tableau.shape[0] - 1
    cost = tableau[-1]
    bland = False
    stall = 0
    last_obj = cost[-1]
    for _ in range(max_iter):
        reduced = cost[:ncols]
        if bland:
            eligible = np.flatnonzero(reduced < -_COST_TOL)
            if eligible.size == 0:
                return OPTIMAL
            col = int(eligible[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -_COST_TOL:
                return OPTIMAL
        colvals = tableau[:m, col]
        pos = colvals > _PIVOT_TOL
        if not np.any(pos):
            return UNBOUNDED
        ratios = np.full(m, np.inf)
        ratios[pos] = tableau[:m, -1][pos] / colvals[pos]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-12)
        # Among ratio ties, leave the smallest basis index (Bland-compatible).
        row = int(ties[np.argmin(basis[ties])])
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

    Phase 1 runs once at construction.  Each sense (``min``/``max``) keeps
    one tableau, and each ``optimize`` call runs phase 2 in place from the
    basis where that sense's last call stopped, so a run of similar
    objectives costs a few pivots each.  The first sense to run takes the
    phase-1 tableau itself; the other starts from a copy of wherever the
    first one got to.
    """

    def __init__(self, a_eq: np.ndarray, b_eq: np.ndarray):
        a = np.atleast_2d(np.asarray(a_eq, dtype=np.float64))
        b = np.asarray(b_eq, dtype=np.float64).copy()
        m, n = a.shape
        a = a.copy()
        flip = b < 0
        a[flip] *= -1.0
        b[flip] *= -1.0

        self.n = n
        tableau = np.zeros((m + 1, n + m + 1))
        tableau[:m, :n] = a
        tableau[:m, n : n + m] = np.eye(m)
        tableau[:m, -1] = b
        basis = np.arange(n, n + m)
        # Phase-1 reduced costs: minimize the artificial sum.
        tableau[-1, :n] = -a.sum(axis=0)
        tableau[-1, -1] = -b.sum()
        status = _run_simplex(tableau, basis, n + m, max_iter=200 * (n + m) + 1000)
        # The artificial sum is bounded below by 0, so phase 1 must end optimal.
        if status != OPTIMAL:
            raise RuntimeError(f"phase 1 ended {status}")
        self.feasible = bool(
            -tableau[-1, -1] <= _PHASE1_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))
        )
        if not self.feasible:
            return

        # Drive artificials out of the basis; rows that cannot pivot on a
        # structural column are redundant and dropped.
        keep = []
        for i in range(m):
            if basis[i] < n:
                keep.append(i)
                continue
            structural = np.flatnonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)
            if structural.size:
                _pivot(tableau, i, int(structural[0]), basis)
                keep.append(i)
        rows = np.array(keep, dtype=int)
        self._phase1 = (
            np.ascontiguousarray(
                tableau[np.append(rows, m)][:, np.append(np.arange(n), n + m)]
            ),
            basis[rows],
        )
        self._by_sense: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # The artificial columns now hold the phase-1 basis inverse, which
        # ``without_row`` reads; a dropped row leaves no basis to start from.
        self._inverse = (
            (basis.copy(), tableau[:m, n : n + m].copy()) if rows.size == m else None
        )

    def without_row(self, row: int, scale: float = 1.0) -> "EqualityFormSolver | None":
        """A solver of the same program without equality ``row``, with the
        right-hand side multiplied by ``scale``, or None when phase 1 dropped
        a redundant row.

        No phase 1 runs: equality ``row`` gets a free slack, the column pair
        +/-B^-1 e_row, so the ``min`` sense's current basis B stays feasible
        and each sense of the new solver starts from it.  With B0 the phase-1
        basis, B^-1 e_row is the tableau's B0 columns (B^-1 B0) times the
        phase-1 inverse's column ``row``.  The slack is not priced in
        objectives or returned in solutions.
        """
        if not self.feasible or self._inverse is None:
            return None
        phase1_basis, inverse = self._inverse
        tableau, basis = self._state("min")
        slack = tableau[:, phase1_basis] @ inverse[:, row]
        # Fortran order, as a column gather gives: the phase-2 cost product
        # rounds by memory order.
        derived = np.asfortranarray(
            np.column_stack([tableau[:, : self.n], slack, -slack, tableau[:, -1]])
        )
        derived[:-1, -1] *= scale
        solver = object.__new__(EqualityFormSolver)
        solver.n = self.n
        solver.feasible = True
        solver._phase1 = (derived, basis.copy())
        solver._by_sense = {}
        solver._inverse = None
        return solver

    def _state(self, sense: str) -> tuple[np.ndarray, np.ndarray]:
        """The tableau and basis that ``sense`` pivots in place."""
        if sense not in self._by_sense:
            if self._by_sense:
                tableau, basis = next(iter(self._by_sense.values()))
                self._by_sense[sense] = (tableau.copy(), basis.copy())
            else:
                self._by_sense[sense] = self._phase1
                del self._phase1
        return self._by_sense[sense]

    def optimize(self, objective: np.ndarray, sense: str = "min") -> LpResult:
        """Optimize one objective from the last basis of the same sense."""
        if not self.feasible:
            return LpResult(INFEASIBLE)
        c = np.asarray(objective, dtype=np.float64)
        if sense == "max":
            c = -c
        elif sense != "min":
            raise ValueError("sense must be 'min' or 'max'")
        tableau, basis = self._state(sense)
        m, width = tableau.shape[0] - 1, tableau.shape[1] - 1
        cost = np.append(c, np.zeros(width - self.n + 1))
        cost -= cost[basis] @ tableau[:m]
        tableau[-1] = cost
        status = _run_simplex(tableau, basis, width, max_iter=200 * (width + m) + 1000)
        if status == UNBOUNDED:
            return LpResult(UNBOUNDED)
        x = np.zeros(width)
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
