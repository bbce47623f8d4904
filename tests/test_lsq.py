"""Constrained least-squares solvers against the projected-gradient oracle."""

import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachvenn import bounds, experiment, lsq, model, pipeline, synth
from reachvenn.core import ReachDataset, ReachObservation
from reachvenn.lsq import nnls, simplex_lstsq

from conftest import pgd_simplex_lstsq, reference_start, refuse


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
        x, rss = nnls(a, a @ x_true)
        assert rss < 1e-18
        assert np.allclose(a @ x, a @ x_true, atol=1e-9)

    def test_negative_directions_clipped(self):
        # b = -column forces the zero solution.
        a = np.eye(3)
        x, rss = nnls(a, np.array([-1.0, -2.0, -3.0]))
        assert np.all(x == 0.0)
        assert rss == pytest.approx(14.0)

    def test_matches_normal_equations_on_interior(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.1, 1, size=(12, 4))
        b = a @ np.array([0.5, 0.7, 0.1, 0.9]) + 0.01 * rng.normal(size=12)
        x, rss = nnls(a, b)
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
        x, rss = nnls(a, b)
        assert x.shape == (cols,)
        assert x.min() >= 0.0
        assert np.all(x[~a.any(axis=0)] == 0.0)
        tol = 1e-9 * max(1.0, float(np.linalg.norm(b)))
        grad = a.T @ (b - a @ x)  # minus half the objective's gradient
        assert grad.max() <= tol
        assert np.abs(x * grad).max() <= tol
        assert rss == pytest.approx(float((b - a @ x) @ (b - a @ x)), abs=1e-12)


class TestSimplexLstsq:
    def test_recovers_interior_point(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(6, 4))
        v_true = np.array([0.1, 0.2, 0.3, 0.4])
        v, rss = simplex_lstsq(a, a @ v_true)
        assert rss < 1e-16
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.min(v) >= 0.0

    def test_iteration_limit_raises(self):
        # All four columns carry weight; the start holds one of them.
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(6, 4))
        b = a @ np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(RuntimeError, match="simplex_lstsq"):
            simplex_lstsq(a, b, max_iter=1)

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            simplex_lstsq(np.zeros((2, 0)), np.array([1.0, 1.0]))

    def test_single_column(self):
        v, rss = simplex_lstsq(np.array([[2.0], [0.0]]), np.array([1.0, 1.0]))
        assert v.tolist() == [1.0]
        assert rss == pytest.approx(2.0)

    def test_against_pgd_oracle(self, rng):
        for trial in range(12):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(4, 14))
            a = rng.uniform(0, 1, size=(n, m))
            if trial % 2 == 0:
                b = a @ (rng.dirichlet(np.ones(m)) * rng.uniform(0.3, 1.0))
            else:
                b = rng.uniform(0, 1.2, size=n)  # usually unattainable
            v, rss = simplex_lstsq(a, b)
            assert v.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.min(v) >= 0.0
            _, rss_pgd = pgd_simplex_lstsq(a, b)
            assert rss <= rss_pgd + 1e-8
            assert kkt_gap(a, b, v) < 1e-8

    def test_zero_slack_column_gives_sum_le_one(self):
        # Appending a zero column turns the equality into sum(w) <= 1.
        rng = np.random.default_rng(21)
        a = rng.uniform(0, 1, size=(5, 6))
        b = a @ (0.25 * np.ones(6) / 6 * np.array([1, 2, 0, 3, 0, 0]))
        v, rss = simplex_lstsq(np.hstack([a, np.zeros((5, 1))]), b)
        w = v[:-1]
        assert w.sum() <= 1.0 + 1e-12
        assert rss < 1e-16


def random_stack(rng, kind, count, rows, cols):
    """A stack of problems: uniform entries, 0/1 incidence-like entries (ties
    and repeated columns), uniform entries with a repeated column and a zero
    slack column, or normal entries scaled by up to 1e3 either way, each
    problem by its own power of ten, so that their KKT tolerances differ."""
    if kind == "incidence":
        a = rng.integers(0, 2, size=(count, rows, cols)).astype(float)
    elif kind == "scaled":
        scales = 10.0 ** rng.integers(-3, 4, size=(count, 1, 1))
        a = rng.normal(size=(count, rows, cols)) * scales
    else:
        a = rng.uniform(0, 1, size=(count, rows, cols))
    if kind == "slack":
        a[:, :, -1] = 0.0
        a[:, :, 0] = a[:, :, cols // 2]
    if rng.random() < 0.5:  # attainable targets
        b = (a @ rng.dirichlet(np.ones(cols), size=count)[:, :, None])[:, :, 0]
    else:
        b = rng.uniform(0, 1.2, size=(count, rows))
    return a, b


class TestStackedSimplexLstsq:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 6),
        rows=st.integers(1, 9),
        cols=st.integers(1, 12),
        kind=st.sampled_from(["uniform", "incidence", "slack", "scaled"]),
    )
    def test_each_problem_solves_as_if_alone(self, seed, count, rows, cols, kind):
        rng = np.random.default_rng(seed)
        a, b = random_stack(rng, kind, count, rows, cols)
        v, rss = simplex_lstsq(a, b)
        assert v.shape == (count, cols) and rss.shape == (count,)
        for i in range(count):
            alone, alone_rss = simplex_lstsq(a[i], b[i])
            assert np.array_equal(v[i], alone)
            assert rss[i] == alone_rss
            assert v[i].min() >= 0.0
            assert v[i].sum() == pytest.approx(1.0, abs=1e-12)
            # KKT: no column's gradient undercuts the support's, up to the
            # solver's tolerance, which scales with |a| max(|a|, |b|).
            top_a = max(1.0, np.abs(a[i]).max())
            scale = top_a * max(top_a, np.abs(b[i]).max())
            grad = a[i].T @ (a[i] @ v[i] - b[i])
            assert grad[v[i] > 0].max() - grad.min() <= 1e-9 * scale

    def test_iteration_limit_on_one_problem_raises(self):
        # Problems 0 and 2 sit on a column and pass their first KKT check;
        # problem 1 needs all four columns.
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(3, 6, 4))
        b = a[:, :, 0].copy()
        b[1] = a[1] @ np.array([0.1, 0.2, 0.3, 0.4])
        easy = [0, 2]
        v, _ = simplex_lstsq(a[easy], b[easy], max_iter=1)
        assert v[:, 0].tolist() == [1.0, 1.0]
        with pytest.raises(RuntimeError, match="simplex_lstsq"):
            simplex_lstsq(a, b, max_iter=1)


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
    """The stacked face solver on one problem and its column list ``face``."""
    free = np.zeros((1, a.shape[1]), dtype=bool)
    free[0, face] = True
    norms = lsq._start(a[None], b[None])[0]
    return lsq._solve_faces(a[None], b[None], norms, free, np.zeros(1, dtype=np.intp))[0]


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
            w = solve_one_face(a, b, face)
            assert w.tobytes() == reference_solve_face(a, b, norms[0], face).tobytes()

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


class TestStackOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(2, 7),
        rows=st.integers(1, 9),
        cols=st.integers(1, 12),
        kind=st.sampled_from(["uniform", "incidence", "slack", "scaled"]),
    )
    def test_permuting_the_stack_permutes_the_solutions(
        self, seed, count, rows, cols, kind
    ):
        rng = np.random.default_rng(seed)
        a, b = random_stack(rng, kind, count, rows, cols)
        order = rng.permutation(count)
        v, rss = simplex_lstsq(a, b)
        permuted, permuted_rss = simplex_lstsq(a[order], b[order])
        assert permuted.tobytes() == v[order].tobytes()
        assert permuted_rss.tobytes() == rss[order].tobytes()


def noisy_dataset(num_bgs, seed, declare):
    """The 2P+1 training design of a Dirichlet truth with measurement noise,
    the universe declared or not, as the benchmark's estimation ops build it."""
    universe = 1e6
    truth = synth.generate(synth.GeneratorSpec("dirichlet", num_bgs, universe, seed=seed))
    clean = [
        ReachObservation(mask, synth.true_reach(truth, mask))
        for mask in experiment.training_masks(num_bgs)
    ]
    noisy = synth.add_measurement_noise(clean, synth.noise_seed(seed))
    if declare:
        noisy = [ReachObservation(o.subset, min(o.reach, universe)) for o in noisy]
    return ReachDataset(num_bgs, universe if declare else None, tuple(noisy))


def record_stacks_of_one(monkeypatch):
    """Route every ``simplex_lstsq`` call of the library through a spy that
    keeps each 2-D call's problem and answer."""
    calls = []

    def spy(a, b, max_iter=None):
        v, rss = simplex_lstsq(a, b, max_iter)
        if np.ndim(a) == 2:
            calls.append((np.array(a, dtype=float), np.array(b, dtype=float), v, rss))
        return v, rss

    for module in (lsq, model, bounds):
        monkeypatch.setattr(module, "simplex_lstsq", spy)
    return calls


def assert_same_in_a_stack_of_three(calls):
    """Each recorded problem, solved at position 1 of a stack of 3, gets the
    bits it got alone."""
    for a, b, v, rss in calls:
        stacked, stacked_rss = simplex_lstsq(
            np.stack([a[::-1], a, a]), np.stack([b[::-1], b, 0.5 * b])
        )
        assert stacked[1].tobytes() == v.tobytes()
        assert stacked_rss[1] == rss


class TestWorkloadShapes:
    """Stack order on the problems the estimation path really solves: the
    segment fits of a P=6 and a P=8 session and both branches of the repair."""

    @pytest.mark.parametrize("num_bgs", [6, 8])
    @pytest.mark.parametrize("declare", [True, False])
    def test_session_fits(self, monkeypatch, num_bgs, declare):
        calls = record_stacks_of_one(monkeypatch)
        session = pipeline.Session(noisy_dataset(num_bgs, 100 + num_bgs, declare))
        before = len(calls)  # the repair, when the data are inconsistent
        weights = [session.model(d).weights for d in pipeline.d_grid()]
        assert len(calls) - before == len(weights)
        for fitted, (_, _, v, _) in zip(weights, calls[before:]):
            assert fitted.tobytes() == v[:-1].tobytes()
        assert_same_in_a_stack_of_three(calls)

    @pytest.mark.parametrize("num_bgs", [6, 8])
    @pytest.mark.parametrize("declare", [True, False])
    def test_repair(self, monkeypatch, num_bgs, declare):
        # With a universe the repair calls simplex_lstsq itself; without,
        # it goes through nnls.
        calls = record_stacks_of_one(monkeypatch)
        bounds.repair_dataset(noisy_dataset(num_bgs, 200 + num_bgs, declare))
        [(a, _, _, _)] = calls
        assert (a[:, 0] == 0).all()  # the unreached region, or nnls's slack
        assert_same_in_a_stack_of_three(calls)


def logged_counts(caplog):
    [record] = caplog.records
    found = re.fullmatch(
        r"simplex_lstsq: (\d+) problems, (\d+) rounds, (\d+) face solves",
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
        problems, rounds, face_solves = logged_counts(caplog)
        # Each optimum holds all four columns: three entries, then a last check.
        assert problems == 3
        assert rounds >= 4
        assert face_solves >= 9

    def test_debug_reports_a_stack_of_one(self, caplog):
        a, b = self.stack()
        with caplog.at_level(logging.DEBUG, logger="reachvenn.lsq"):
            simplex_lstsq(a[1], b[1])
        problems, rounds, face_solves = logged_counts(caplog)
        assert problems == 1
        assert rounds >= 4
        assert face_solves >= 3
