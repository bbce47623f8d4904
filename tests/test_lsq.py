"""Constrained least-squares solvers against the projected-gradient oracle."""

import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachvenn import bounds, lsq, pipeline, synth
from reachvenn.lsq import nnls, simplex_lstsq

from conftest import (
    face_solve_limit,
    noisy_design_dataset,
    pgd_simplex_lstsq,
    random_stack,
    record_stacks_of_one,
    reference_start,
    refuse,
    squared_residual,
)


def kkt_gap(a, b, v):
    """Upper bound on the squared-residual suboptimality of a simplex point."""
    grad = a.T @ (a @ v - b)
    support = v > 1e-12
    nu = float(grad[support].max())
    return 2.0 * max(0.0, nu - float(grad.min()))


class TestNnls:
    def test_exact_nonnegative_system(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, size=(8, 5))
        x_true = np.array([0.0, 1.5, 0.0, 0.2, 3.0])
        x = nnls(a, a @ x_true)
        assert squared_residual(a, a @ x_true, x) < 1e-18
        assert np.allclose(a @ x, a @ x_true, atol=1e-9)

    def test_negative_directions_clipped(self):
        # b = -column forces the zero solution.
        a = np.eye(3)
        b = np.array([-1.0, -2.0, -3.0])
        x = nnls(a, b)
        assert np.all(x == 0.0)
        assert squared_residual(a, b, x) == pytest.approx(14.0)

    def test_matches_normal_equations_on_interior(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.1, 1, size=(12, 4))
        b = a @ np.array([0.5, 0.7, 0.1, 0.9]) + 0.01 * rng.normal(size=12)
        x = nnls(a, b)
        if np.all(x > 1e-9):  # interior: must equal plain least squares
            ls = np.linalg.lstsq(a, b, rcond=None)[0]
            assert np.allclose(x, ls, atol=1e-8)
        grad = a.T @ (b - a @ x)
        assert np.all(grad <= 1e-8)

    def test_negative_entry_raises(self):
        # The mass bound behind the reduction onto simplex_lstsq needs a >= 0.
        with pytest.raises(ValueError, match="non-negative"):
            nnls(np.array([[1.0, -0.5], [0.0, 1.0]]), np.array([1.0, 1.0]))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 16),
        cols=st.integers(1, 32),
        zero_columns=st.integers(0, 3),
        low=st.sampled_from([0.0, -0.5]),
    )
    def test_kkt_on_incidence_matrices(self, seed, rows, cols, zero_columns, low):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=(rows, cols)).astype(float)
        a[:, rng.choice(cols, size=min(zero_columns, cols), replace=False)] = 0.0
        b = rng.uniform(low, 1.2, size=rows)
        x = nnls(a, b)
        assert x.shape == (cols,)
        assert x.min() >= 0.0
        assert np.all(x[~a.any(axis=0)] == 0.0)
        tol = 1e-9 * max(1.0, float(np.linalg.norm(b)))
        grad = a.T @ (b - a @ x)  # minus half the objective's gradient
        assert grad.max() <= tol
        assert np.abs(x * grad).max() <= tol


class TestSimplexLstsq:
    def test_recovers_interior_point(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(6, 4))
        v_true = np.array([0.1, 0.2, 0.3, 0.4])
        v = simplex_lstsq(a, a @ v_true)
        assert squared_residual(a, a @ v_true, v) < 1e-16
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.min(v) >= 0.0

    def test_iteration_limit_raises(self, monkeypatch):
        # All four columns carry weight; the start holds one of them.
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(6, 4))
        b = a @ np.array([0.1, 0.2, 0.3, 0.4])
        face_solve_limit(monkeypatch, 1)
        with pytest.raises(RuntimeError, match="simplex_lstsq"):
            simplex_lstsq(a, b)

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            simplex_lstsq(np.zeros((2, 0)), np.array([1.0, 1.0]))

    def test_single_column(self):
        a, b = np.array([[2.0], [0.0]]), np.array([1.0, 1.0])
        v = simplex_lstsq(a, b)
        assert v.tolist() == [1.0]
        assert squared_residual(a, b, v) == pytest.approx(2.0)

    def test_against_pgd_oracle(self, rng):
        for trial in range(12):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(4, 14))
            a = rng.uniform(0, 1, size=(n, m))
            if trial % 2 == 0:
                b = a @ (rng.dirichlet(np.ones(m)) * rng.uniform(0.3, 1.0))
            else:
                b = rng.uniform(0, 1.2, size=n)  # usually unattainable
            v = simplex_lstsq(a, b)
            assert v.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.min(v) >= 0.0
            _, rss_pgd = pgd_simplex_lstsq(a, b)
            assert squared_residual(a, b, v) <= rss_pgd + 1e-8
            assert kkt_gap(a, b, v) < 1e-8

    def test_zero_slack_column_gives_sum_le_one(self):
        # Appending a zero column turns the equality into sum(w) <= 1.
        rng = np.random.default_rng(21)
        a = rng.uniform(0, 1, size=(5, 6))
        b = a @ (0.25 * np.ones(6) / 6 * np.array([1, 2, 0, 3, 0, 0]))
        v = simplex_lstsq(np.hstack([a, np.zeros((5, 1))]), b)
        w = v[:-1]
        assert w.sum() <= 1.0 + 1e-12
        assert squared_residual(a, b, w) < 1e-16


class TestStackedSimplexLstsq:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 6),
        rows=st.integers(1, 9),
        cols=st.integers(1, 12),
        kind=st.sampled_from(["uniform", "incidence", "slack", "scaled"]),
    )
    def test_each_problem_is_optimal(self, seed, count, rows, cols, kind):
        # Each problem's bits against solving it alone: test_solver_contracts.py.
        rng = np.random.default_rng(seed)
        a, b = random_stack(rng, kind, count, rows, cols)
        v = simplex_lstsq(a, b)
        assert v.shape == (count, cols)
        for i in range(count):
            assert v[i].min() >= 0.0
            assert v[i].sum() == pytest.approx(1.0, abs=1e-12)
            # KKT: no column's gradient undercuts the support's, up to the
            # solver's tolerance, which scales with |a| max(|a|, |b|).
            top_a = max(1.0, np.abs(a[i]).max())
            scale = top_a * max(top_a, np.abs(b[i]).max())
            grad = a[i].T @ (a[i] @ v[i] - b[i])
            assert grad[v[i] > 0].max() - grad.min() <= 1e-9 * scale

    def test_iteration_limit_on_one_problem_raises(self, monkeypatch):
        # Problems 0 and 2 sit on a column and pass their first KKT check;
        # problem 1 needs all four columns.
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(3, 6, 4))
        b = a[:, :, 0].copy()
        b[1] = a[1] @ np.array([0.1, 0.2, 0.3, 0.4])
        easy = [0, 2]
        face_solve_limit(monkeypatch, 1)
        assert simplex_lstsq(a[easy], b[easy])[:, 0].tolist() == [1.0, 1.0]
        with pytest.raises(RuntimeError, match="simplex_lstsq"):
            simplex_lstsq(a, b)


def reference_solve_face(a, b, norms, face):
    """One problem's face solve on the sorted column list ``face``, with the
    R factor of numpy's ``mode="r"`` QR on 2-D arrays and a scalar back
    substitution over the face's rows: the arithmetic that the stacked face
    solver must reproduce on a stack of one."""
    m, n = a.shape
    width = len(face) - 1
    top = int(norms[face].argmax())
    anchor = face[top]
    others = face[:top] + face[top + 1 :]
    anchor_column = a[:, anchor]
    reduced = np.zeros((m, m + 1))
    reduced[:, :width] = a[:, others] - anchor_column[:, None]
    reduced[:, m] = b - anchor_column
    r = np.linalg.qr(reduced, mode="r")
    u = np.zeros(m)
    for k in reversed(range(width)):
        u[k] = (r[k, m] - np.add.reduce(r[k, k + 1 : m] * u[k + 1 :])) / r[k, k]
    w = np.zeros(n)
    w[others] = u[:width]
    w[anchor] = 1.0 - u.sum()
    return w


def solve_one_face(a, b, face):
    """The stacked face solver on one problem and its column list ``face``:
    the face's minimizer w and the residual the solver returns with it."""
    free = np.zeros((1, a.shape[1]), dtype=bool)
    free[0, face] = True
    norms = lsq._start(a[None], b[None])[0]
    w, resid = lsq._solve_faces(a[None], b[None], norms, free, np.zeros(1, dtype=np.intp))
    return w[0], resid[0]


class TestSolveFaces:
    @pytest.mark.parametrize("rows", [1, 2, 5, 12, 16])
    @pytest.mark.parametrize("zero_column", [False, True])
    def test_stack_of_one_equals_the_mode_r_reference(self, rows, zero_column):
        # Faces of 1 to m + 1 columns; with zero_column, every face holds
        # column 0, which is all zeros (a slack column).
        rng = np.random.default_rng(rows)
        cols = rows + 4
        a = rng.uniform(0, 1, size=(rows, cols))
        if zero_column:
            a[:, 0] = 0.0
        b = rng.uniform(0, 1.2, size=rows)
        norms = lsq._start(a[None], b[None])[0]
        for size in range(1, rows + 2):
            face = rng.choice(cols, size=size, replace=False)
            if zero_column and 0 not in face:
                face[0] = 0
            face = sorted(face.tolist())
            w, resid = solve_one_face(a, b, face)
            assert w.tobytes() == reference_solve_face(a, b, norms[0], face).tobytes()
            # The KKT check reads this residual in place of a @ w - b; the
            # scale is the largest term of that sum.
            scale = np.abs(a).max() * np.abs(w).sum() + np.abs(b).max()
            assert np.abs(resid - (a @ w - b)).max() <= 1e-12 * scale

    def test_two_zero_columns_are_a_singular_face(self):
        a = np.random.default_rng(3).uniform(0, 1, size=(4, 6))
        a[:, [1, 4]] = 0.0
        with pytest.raises(RuntimeError, match="simplex_lstsq: a face is singular"):
            solve_one_face(a, np.ones(4), [1, 4])

    def test_face_wider_than_m_plus_one_rejected(self):
        a = np.random.default_rng(4).uniform(0, 1, size=(4, 8))
        with pytest.raises(
            RuntimeError, match=r"simplex_lstsq: a face has more than m \+ 1 columns"
        ):
            solve_one_face(a, np.ones(4), list(range(6)))


def start_stack(rng, kind, count, rows, cols):
    """A stack for the start rule: uniform entries; all-negative entries of
    up to 1e3; targets of either sign up to 1e3, beyond entries of up to 1e2; or
    targets equal to a column that the stack repeats, so that two columns tie
    for the nearest."""
    a = rng.uniform(0, 1, size=(count, rows, cols))
    b = rng.uniform(0, 1, size=(count, rows))
    if kind == "negative":
        a = -(a + 1e-3) * 10.0 ** rng.integers(0, 4)
    elif kind == "large_b":
        a = a * 10.0 ** rng.uniform(0, 2)
        b = rng.uniform(-1e3, 1e3, size=(count, rows))
    elif kind == "tie":
        a[:, :, -1] = a[:, :, 0]
        b = a[:, :, 0].copy()
    return a, b


class TestStart:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 6),
        rows=st.integers(1, 20),
        cols=st.integers(1, 70),
        kind=st.sampled_from(["uniform", "negative", "large_b", "tie"]),
        block=st.sampled_from([1, 100, lsq._START_BLOCK]),
    )
    @example(seed=0, count=0, rows=3, cols=4, kind="uniform", block=1)
    @example(seed=1, count=1, rows=12, cols=65, kind="uniform", block=1)
    @example(seed=2, count=3, rows=5, cols=6, kind="tie", block=lsq._START_BLOCK)
    @example(seed=3, count=2, rows=4, cols=5, kind="negative", block=lsq._START_BLOCK)
    @example(seed=4, count=2, rows=4, cols=5, kind="large_b", block=lsq._START_BLOCK)
    @example(seed=5, count=5, rows=3, cols=10, kind="uniform", block=100)  # 3 + 2
    def test_stack_equals_each_problem_alone(
        self, seed, count, rows, cols, kind, block
    ):
        # Blocks of one problem, of a few problems and of the whole stack.
        rng = np.random.default_rng(seed)
        a, b = start_stack(rng, kind, count, rows, cols)
        with mock.patch.object(lsq, "_START_BLOCK", block):
            norms, start, tol = lsq._start(a, b)
        assert norms.shape == (count, cols)
        assert start.shape == tol.shape == (count,)
        for i in range(count):
            alone_norms, alone_start, alone_tol = reference_start(a[i], b[i])
            assert np.array_equal(norms[i], alone_norms)
            assert start[i] == alone_start
            assert np.array_equal(tol[i], alone_tol)
            if kind == "tie":
                assert start[i] == 0  # the first of the two nearest columns


class TestWorkloadShapes:
    """The problems the estimation path really solves: the segment fits of a
    P=6 and a P=8 session and both branches of the repair, on the 2P+1 design
    of a noisy Dirichlet truth as the benchmark's estimation ops build it.
    Their bits in a stack: test_solver_contracts.py."""

    @pytest.mark.parametrize("num_bgs", [6, 8])
    @pytest.mark.parametrize("declare", [True, False])
    def test_session_fits(self, monkeypatch, num_bgs, declare):
        calls = record_stacks_of_one(monkeypatch)
        seed = 100 + num_bgs
        ds = noisy_design_dataset(
            num_bgs, seed, declare, kind="dirichlet", alpha=2.0, noise_seed=synth.noise_seed(seed)
        )
        session = pipeline.Session(ds)
        before = len(calls)  # the repair, when the data are inconsistent
        weights = [session.model(d).weights for d in pipeline.d_grid()]
        assert len(calls) - before == len(weights)
        for fitted, (_, _, v) in zip(weights, calls[before:]):
            assert fitted.tobytes() == v[:-1].tobytes()

    @pytest.mark.parametrize("num_bgs", [6, 8])
    @pytest.mark.parametrize("declare", [True, False])
    def test_repair(self, monkeypatch, num_bgs, declare):
        # With a universe the repair calls simplex_lstsq itself; without,
        # it goes through nnls.
        calls = record_stacks_of_one(monkeypatch)
        seed = 200 + num_bgs
        ds = noisy_design_dataset(
            num_bgs, seed, declare, kind="dirichlet", alpha=2.0, noise_seed=synth.noise_seed(seed)
        )
        bounds.repair_dataset(ds)
        [(a, _, _)] = calls
        assert (a[:, 0] == 0).all()  # the unreached region, or nnls's slack


def logged_counts(caplog):
    [record] = caplog.records
    found = re.fullmatch(
        r"simplex_lstsq: (\d+) problems, (\d+) rounds, (\d+) face solves, (\d+) KKT checks",
        record.getMessage(),
    )
    return tuple(map(int, found.groups()))


class TestLogging:
    def stack(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(3, 6, 4))
        return a, (a @ rng.dirichlet(np.ones(4), size=3)[:, :, None])[:, :, 0]

    def test_silent_and_free_by_default(self, caplog, monkeypatch):
        monkeypatch.setattr(logging.getLogger("reachvenn.lsq"), "debug", refuse)
        simplex_lstsq(*self.stack())
        assert caplog.records == []

    def test_stack_of_one_silent_and_free_by_default(self, caplog, monkeypatch):
        monkeypatch.setattr(logging.getLogger("reachvenn.lsq"), "debug", refuse)
        a, b = self.stack()
        simplex_lstsq(a[1], b[1])
        simplex_lstsq(a[1:2], b[1:2])
        assert caplog.records == []

    def test_debug_reports_problems_rounds_and_face_solves(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="reachvenn.lsq"):
            simplex_lstsq(*self.stack())
        problems, rounds, face_solves, checks = logged_counts(caplog)
        # Each optimum holds all four columns: three entries, then a last check.
        # Every check but each problem's last enters a column, which a face
        # solve follows.
        assert problems == 3
        assert rounds >= 4
        assert face_solves >= 9
        assert checks >= 12
        assert face_solves >= checks - problems

    def test_debug_reports_a_stack_of_one(self, caplog):
        a, b = self.stack()
        with caplog.at_level(logging.DEBUG, logger="reachvenn.lsq"):
            simplex_lstsq(a[1], b[1])
        problems, rounds, face_solves, checks = logged_counts(caplog)
        assert problems == 1
        assert rounds >= 4
        assert face_solves >= 3
        assert checks >= 4
        assert face_solves >= checks - problems
