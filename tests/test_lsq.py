"""Constrained least-squares solvers against the projected-gradient oracle."""

import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachvenn.lsq import nnls, simplex_lstsq

from conftest import pgd_simplex_lstsq


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
    slack column, or normal entries scaled by up to 1e3 either way."""
    if kind == "incidence":
        a = rng.integers(0, 2, size=(count, rows, cols)).astype(float)
    elif kind == "scaled":
        a = rng.normal(size=(count, rows, cols)) * 10.0 ** rng.integers(-3, 4)
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


class TestLogging:
    def stack(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(3, 6, 4))
        return a, (a @ rng.dirichlet(np.ones(4), size=3)[:, :, None])[:, :, 0]

    def test_silent_and_free_by_default(self, caplog, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a debug record was built with DEBUG off")

        monkeypatch.setattr(logging.getLogger("reachvenn.lsq"), "debug", refuse)
        simplex_lstsq(*self.stack())
        assert caplog.records == []

    def test_debug_reports_problems_rounds_and_face_solves(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="reachvenn.lsq"):
            simplex_lstsq(*self.stack())
        [record] = caplog.records
        found = re.fullmatch(
            r"simplex_lstsq: (\d+) problems, (\d+) rounds, (\d+) face solves",
            record.getMessage(),
        )
        problems, rounds, face_solves = map(int, found.groups())
        # Each optimum holds all four columns: three entries, then a last check.
        assert problems == 3
        assert rounds >= 4
        assert face_solves >= 9
