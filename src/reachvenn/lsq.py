"""Active-set least squares under simplex and non-negativity constraints.

One solver, ``simplex_lstsq``: min ||A v - b||^2 with v >= 0 and sum(v) == 1.
Callers that want sum(v) <= 1 append a zero column and discard its weight.
It takes a stack of same-shaped problems and steps them in lock-step, so a
round's face subproblems are one stacked QR factorization and one back
substitution; a stack of one runs the same loop.  One start rule serves the
whole stack: each problem's column norms, start column (the column nearest b)
and KKT tolerance are reductions over its own entries only.  A face solve's
minimizer is exactly zero off the face, so a round's sign tests and step
lengths read it without a face mask.  So each problem gets the same bits in
any stack and in any stack order.

``nnls`` (v >= 0 only, for a non-negative A) is a reduction onto it: A's
columns, scaled so that the sum constraint never binds, and a zero column.

The solver runs to a KKT tolerance that puts the squared-residual objective
within ~1e-10 of the true constrained optimum on unit-scale data, and raises
RuntimeError when a problem's 6 n + 60 face solves end before that.
It logs each call's problems, rounds and face solves at DEBUG level on this
module's logger, which is silent by default.
"""

from __future__ import annotations

import logging

import numpy as np

_KKT_TOL = 1e-10
_ZERO_TOL = 1e-13
_START_BLOCK = 1 << 16

_ITERATION_LIMIT = "simplex_lstsq: face-solve limit exceeded"
_FACE_TOO_WIDE = "simplex_lstsq: a face has more than m + 1 columns"
_FACE_SINGULAR = "simplex_lstsq: a face is singular"

_logger = logging.getLogger(__name__)


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ||a @ v - b||^2 subject to v >= 0, for a non-negative ``a``.

    Every optimum has the same fitted values a v*, of norm at most ||b||, so
    its mass on the non-zero columns is at most sqrt(m) ||b|| over the
    smallest non-zero column sum.  With the columns scaled by twice that
    bound plus one, ``simplex_lstsq`` over them and a zero slack column has a
    sum constraint that never binds, so its optimum solves this one.  Zero
    columns get weight zero.

    Returns the solution.  Raises ValueError when ``a`` has a negative
    entry, for which the bound does not hold.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if (a < 0).any():
        raise ValueError("nnls needs a non-negative matrix")
    sums = a.sum(axis=0)
    bound = np.sqrt(len(b)) * np.linalg.norm(b) / sums[sums > 0].min(initial=np.inf)
    scale = 2.0 * bound + 1.0
    x = simplex_lstsq(np.hstack([np.zeros((len(b), 1)), a * scale]), b)[1:] * scale
    x[sums == 0] = 0.0
    return x


def _start(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every problem's column norms, start column and KKT tolerance, for a
    (count, m, n) stack ``a`` and its (count, m) targets ``b``.

    A problem starts with all mass on its column closest to b, and anchors
    each face at its column of largest norm.  Its KKT tolerance scales with
    the gradient's round-off, which grows with |a| |a v - b|.  Each reduction
    runs over one problem's own entries, so a problem's row has the same
    bits in any stack.  The squares go through one buffer of a block of
    problems, about ``_START_BLOCK`` entries, so a large stack is never
    copied whole.
    """
    count, m, n = a.shape
    norms = np.empty((count, n))
    start = np.empty(count, dtype=np.intp)
    step = max(1, _START_BLOCK // max(1, m * n))
    buffer = np.empty((min(step, count), m, n))
    for lo in range(0, count, step):
        block, target = a[lo : lo + step], b[lo : lo + step]
        squares = buffer[: len(block)]
        np.multiply(block, block, out=squares)
        norms[lo : lo + step] = np.sqrt(np.add.reduce(squares, axis=1))
        np.subtract(block, target[:, :, None], out=squares)
        np.multiply(squares, squares, out=squares)
        start[lo : lo + step] = np.sqrt(np.add.reduce(squares, axis=1)).argmin(axis=1)
    top_a = np.maximum(1.0, a.max(axis=(1, 2), initial=0.0))
    np.maximum(top_a, -a.min(axis=(1, 2), initial=0.0), out=top_a)
    top_b = np.maximum(1.0, b.max(axis=1, initial=0.0))
    np.maximum(top_b, -b.min(axis=1, initial=0.0), out=top_b)
    return norms, start, _KKT_TOL * top_a * np.maximum(top_a, top_b)


def _solve_faces(
    a: np.ndarray,
    b: np.ndarray,
    norms: np.ndarray,
    free: np.ndarray,
    problems: np.ndarray,
) -> np.ndarray:
    """Exact minimizers of ||a_F v_F - b||^2 with sum(v_F) == 1 (sign-free),
    one for each listed problem of the stack, F being its row of ``free``.
    Each minimizer is exactly zero off its face.

    The face column with the largest norm (the anchor) is eliminated through
    the equality.  The other face columns minus the anchor, in ascending
    order, then zero columns up to width m, then b minus the anchor form an
    m x (m + 1) matrix whose R factor carries the reduced least-squares
    problem, solved by back substitution over the face's rows.  Every
    problem has that width whatever its face size, so its arithmetic does
    not depend on the rest of the stack.
    """
    m, n = a.shape[1:]
    count = problems.size
    slots = np.arange(count)
    face = free[problems]
    anchor = np.where(face, norms[problems], -np.inf).argmax(axis=1)
    face[slots, anchor] = False
    problem, column = np.divmod(np.flatnonzero(face), n)
    width = np.bincount(problem, minlength=count)
    if width.max() > m:
        raise RuntimeError(_FACE_TOO_WIDE)
    slot = np.arange(column.size) - (np.cumsum(width) - width)[problem]
    anchors = a[problems, :, anchor]
    reduced = np.zeros((count, m, m + 1))
    reduced[problem, :, slot] = a[problems[problem], :, column] - anchors[problem]
    reduced[:, :, m] = b[problems] - anchors
    # R[k, j] is h[:, j, k]: the upper triangle that mode "r" would copy out.
    h = np.linalg.qr(reduced, mode="raw")[0]
    diagonal = np.arange(m)
    live = diagonal < width[:, None]
    if (live & (h[:, diagonal, diagonal] == 0.0)).any():
        raise RuntimeError(_FACE_SINGULAR)
    # Back substitution over the live rows; the padded coefficients stay
    # zero.  Row k's products sum over the fixed length m - k - 1 (the
    # padded ones are zero), whatever the face sizes in the stack.
    u = np.zeros((count, m))
    for k in range(width.max() - 1, -1, -1):
        s = np.add.reduce(h[:, k + 1 : m, k] * u[:, k + 1 :], axis=1)
        np.divide(h[:, m, k] - s, h[:, k, k], out=u[:, k], where=live[:, k])
    w = np.zeros((count, n))
    w[problem, column] = u[problem, slot]
    w[slots, anchor] = 1.0 - u.sum(axis=1)
    return w


def _lock_step(
    a: np.ndarray,
    b: np.ndarray,
    norms: np.ndarray,
    start: np.ndarray,
    tol: np.ndarray,
    max_iter: int,
) -> tuple[np.ndarray, int, int]:
    """A stack's solutions, rounds and face solves.  Each round, every
    unfinished problem takes its own next step, and the round's face solves
    are one stacked QR and one back substitution."""
    count, m, n = a.shape
    problems = np.arange(count)
    v = np.zeros((count, n))
    v[problems, start] = 1.0
    free = np.zeros((count, n), dtype=bool)
    free[problems, start] = True
    live = np.ones(count, dtype=bool)
    on_face = np.zeros(count, dtype=bool)  # a face solve is due, not a KKT check
    solves = np.zeros(count, dtype=np.intp)  # face solves per problem
    rounds = 0

    while live.any():
        rounds += 1
        check = np.flatnonzero(live & ~on_face)
        if check.size:
            # One slab of the stack, a view: the checked problems and those between.
            lo, hi = check[0], check[-1] + 1
            resid = (a[lo:hi] @ v[lo:hi, :, None])[:, :, 0] - b[lo:hi]
            grad = (resid[:, None, :] @ a[lo:hi])[:, 0, :]
            if check.size < hi - lo:
                grad = grad[check - lo]
            face = free[check]
            nu = grad.min(axis=1, where=face, initial=np.inf)  # equality multiplier
            # The scores of the columns that may enter.
            np.copyto(grad, np.inf, where=face)
            j = grad.argmin(axis=1)
            done = grad[np.arange(check.size), j] >= nu - tol[check]
            live[check[done]] = False
            enter, j = check[~done], j[~done]
            free[enter, j] = True
            on_face[enter] = True
        solve = np.flatnonzero(on_face)
        if not solve.size:
            continue
        solves[solve] += 1
        if solves[solve].max() > max_iter:
            raise RuntimeError(_ITERATION_LIMIT)
        w = _solve_faces(a, b, norms, free, solve)
        # w is zero off each face, so its sign tests need no face mask.
        inside = (w > -_ZERO_TOL).all(axis=1)

        if inside.any():
            # Clipped at zero and rescaled to sum 1 (an all-zero row stays zero).
            done = solve[inside]
            x = np.maximum(w[inside], 0.0)
            s = x.sum(axis=1, keepdims=True)
            np.divide(x, s, out=x, where=s > 0)
            v[done] = x
            on_face[done] = False
        if inside.all():
            continue
        # A blocked step: towards w until its first negative coordinate
        # reaches zero, renormalised, dropping the face columns it zeroes.
        stop = solve[~inside]
        x, w = v[stop], w[~inside]
        blocking = w < -_ZERO_TOL
        steps = np.full(x.shape, np.inf)
        np.divide(x, x - w, out=steps, where=blocking & (x > w))
        alpha = np.minimum(1.0, steps.min(axis=1))
        x = np.maximum(x + alpha[:, None] * (w - x), 0.0)
        x /= x.sum(axis=1, keepdims=True)
        v[stop] = x
        free[stop] &= ~(blocking & (x <= _ZERO_TOL))
    return v, rounds, int(solves.sum())


def simplex_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ||a[i] @ v[i] - b[i]||^2 subject to v[i] >= 0 and
    sum(v[i]) == 1, for each problem i of a stack.

    ``a`` is (B, m, n) and ``b`` is (B, m).  A 2-D ``a`` with a 1-D ``b`` is
    a stack of one whose solution comes back unstacked.

    Active-set iteration: each face subproblem is solved exactly, blocked
    steps shrink the face, and coordinates whose gradient beats the current
    equality multiplier are released.  The simplex is compact, so the KKT
    gap bounds the objective error directly.  The stack runs in lock-step:
    each round, every unfinished problem takes its own next step (a KKT
    check that may enter a column, then a face solve that may block), and
    the round's face solves are one stacked QR and one back substitution.
    A problem follows the same path, bit for bit, in any stack.

    Returns the solutions (B, n).  Raises RuntimeError when a problem needs
    more than 6 n + 60 face solves, or meets a face that has no unique
    solution.
    """
    single = np.ndim(a) == 2
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if single:
        a, b = a[None], b[None]
    count, m, n = a.shape
    if n == 0:
        raise ValueError("need at least one column")
    norms, start, tol = _start(a, b)
    v, rounds, face_solves = _lock_step(a, b, norms, start, tol, 6 * n + 60)
    if _logger.isEnabledFor(logging.DEBUG):
        _logger.debug(
            "simplex_lstsq: %d problems, %d rounds, %d face solves",
            count, rounds, face_solves,
        )
    return v[0] if single else v
