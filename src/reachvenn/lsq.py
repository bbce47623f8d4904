"""Active-set least squares under non-negativity and simplex constraints.

Two solvers:

* ``nnls``: classic Lawson-Hanson, min ||A v - b||^2 with v >= 0.
* ``simplex_lstsq``: the same active-set idea with the extra equality
  sum(v) == 1, solved by eliminating an anchor coordinate in each subproblem.
  Callers that want sum(v) <= 1 append a zero column and discard its weight.

Both run to a KKT tolerance that puts the squared-residual objective within
~1e-10 of the true constrained optimum on unit-scale data, and raise
RuntimeError when ``max_iter`` outer or inner iterations end before that.
"""

from __future__ import annotations

import numpy as np

_KKT_TOL = 1e-10
_ZERO_TOL = 1e-13


def nnls(a: np.ndarray, b: np.ndarray, max_iter: int | None = None) -> tuple[np.ndarray, float]:
    """Minimize ||a @ v - b||^2 subject to v >= 0.

    Returns the solution and the squared residual at it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    if max_iter is None:
        max_iter = 6 * n + 60
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    for _ in range(max_iter):
        grad = a.T @ (b - a @ x)
        grad[free] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= _KKT_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
            break
        free[j] = True
        for _ in range(max_iter):
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            if np.all(z[free] > _ZERO_TOL):
                x = z
                break
            blocking = free & (z <= _ZERO_TOL)
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(blocking, x / (x - z), np.inf)
            alpha = float(np.min(steps))
            x = np.clip(x + alpha * (z - x), 0.0, None)
            free &= x > _ZERO_TOL
            if not np.any(free):
                x = np.zeros(n)
                break
        else:
            raise RuntimeError("nnls: inner iteration limit exceeded")
    else:
        raise RuntimeError("nnls: iteration limit exceeded")
    resid = b - a @ x
    return x, float(resid @ resid)


def _solve_on_face(a: np.ndarray, b: np.ndarray, free_idx: np.ndarray) -> np.ndarray:
    """Exact minimizer of ||a_F v_F - b||^2 with sum(v_F) == 1 (sign-free).

    The coordinate with the largest column norm is eliminated through the
    equality, leaving an unconstrained least-squares problem.
    """
    cols = a[:, free_idx]
    k = cols.shape[1]
    if k == 1:
        return np.array([1.0])
    anchor = int(np.argmax(np.linalg.norm(cols, axis=0)))
    others = [i for i in range(k) if i != anchor]
    reduced = cols[:, others] - cols[:, [anchor]]
    u, *_ = np.linalg.lstsq(reduced, b - cols[:, anchor], rcond=None)
    v = np.empty(k)
    v[others] = u
    v[anchor] = 1.0 - u.sum()
    return v


def simplex_lstsq(
    a: np.ndarray, b: np.ndarray, max_iter: int | None = None
) -> tuple[np.ndarray, float]:
    """Minimize ||a @ v - b||^2 subject to v >= 0 and sum(v) == 1.

    Active-set iteration: each face subproblem is solved exactly, blocked
    steps shrink the face, and coordinates whose gradient beats the current
    equality multiplier are released.  The simplex is compact, so the
    KKT gap bounds the objective error directly.

    Returns the solution and the squared residual at it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    if n == 0:
        raise ValueError("need at least one column")
    if max_iter is None:
        max_iter = 6 * n + 60

    # Start with all mass on the column closest to b in the lstsq sense: the
    # plain choice v = e_j for the column with smallest residual.
    start = int(np.argmin(np.linalg.norm(a - b[:, None], axis=0)))
    v = np.zeros(n)
    v[start] = 1.0
    free = np.zeros(n, dtype=bool)
    free[start] = True
    tol = _KKT_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))

    for _ in range(max_iter):
        grad = a.T @ (a @ v - b)
        nu = float(grad[free].min())  # equality multiplier estimate
        scores = np.where(free, np.inf, grad)
        j = int(np.argmin(scores))
        if scores[j] >= nu - tol:
            break
        free[j] = True
        for _ in range(max_iter):
            idx = np.flatnonzero(free)
            w = np.zeros(n)
            w[idx] = _solve_on_face(a, b, idx)
            if np.all(w[idx] > -_ZERO_TOL):
                v = np.clip(w, 0.0, None)
                s = v.sum()
                if s > 0:
                    v /= s
                break
            blocking = free & (w < -_ZERO_TOL)
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(blocking & (v > w), v / (v - w), np.inf)
            alpha = min(1.0, float(np.min(steps)))
            v = np.clip(v + alpha * (w - v), 0.0, None)
            v /= v.sum()
            free &= ~(blocking & (v <= _ZERO_TOL))
            if not np.any(free):
                free[start] = True
                v[:] = 0.0
                v[start] = 1.0
                break
        else:
            raise RuntimeError("simplex_lstsq: inner iteration limit exceeded")
    else:
        raise RuntimeError("simplex_lstsq: iteration limit exceeded")
    resid = b - a @ v
    return v, float(resid @ resid)
