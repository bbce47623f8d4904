"""Simplex solver contract: hand-solved programs, statuses, determinism, warm starts."""

import logging
import tracemalloc

import numpy as np
import pytest

from reachvenn import lp
from reachvenn.lp import (
    INFEASIBLE,
    UNBOUNDED,
    EqualityFormSolver,
    solve_lp,
)


class TestSolveLp:
    def test_max_with_two_ceilings(self):
        # max t s.t. t <= 3, t <= 5 (slack columns s1, s2).
        a = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        result = solve_lp(a, np.array([3.0, 5.0]), np.array([1.0, 0.0, 0.0]), "max")
        assert result.is_optimal
        assert result.value == pytest.approx(3.0, abs=1e-9)

    def test_negative_optimum_is_not_infeasible(self):
        # max -x1 s.t. x1 - x2 = 1: the best value is -1, not a failure.
        result = solve_lp(
            np.array([[1.0, -1.0]]), np.array([1.0]), np.array([-1.0, 0.0]), "max"
        )
        assert result.is_optimal
        assert result.value == pytest.approx(-1.0, abs=1e-9)

    def test_min_on_split_resource(self):
        result = solve_lp(np.array([[1.0, 1.0]]), np.array([10.0]), np.array([1.0, 0.0]))
        assert result.is_optimal
        assert result.value == pytest.approx(0.0, abs=1e-9)
        assert result.solution[1] == pytest.approx(10.0, abs=1e-7)

    def test_infeasible(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        result = solve_lp(a, np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert result.status == INFEASIBLE

    def test_unbounded(self):
        result = solve_lp(
            np.array([[1.0, -1.0]]), np.array([0.0]), np.array([1.0, 0.0]), "max"
        )
        assert result.status == UNBOUNDED

    def test_degenerate_program_terminates(self):
        # Many redundant rows around a single vertex.
        n = 12
        a = np.vstack([np.eye(n), np.ones((3, n))])
        b = np.zeros(n + 3)
        result = solve_lp(a, b, np.ones(n))
        assert result.is_optimal
        assert result.value == pytest.approx(0.0, abs=1e-10)

    def test_beale_cycling_example_switches_to_blands_rule(self):
        # Beale's example in its slack basis: Dantzig pricing with these tie
        # breaks stalls at the degenerate vertex, so Bland's rule takes over.
        # Columns x4..x7, then the slacks x1..x3; min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7.
        tableau = np.array(
            [
                [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0, 0.0],
                [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0],
                [-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        status, pivots, bland = lp._run_simplex(tableau, np.array([4, 5, 6]), 7)
        assert status == lp.OPTIMAL
        assert bland is True
        assert pivots > 2 * (3 + 7) + 50  # past the stall limit
        # The cost row's last entry is minus the objective.
        assert -tableau[-1, -1] == pytest.approx(-1.25, abs=1e-12)

    def test_constraints_satisfied_at_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m, n = 4, 9
            a = rng.uniform(0, 1, size=(m, n))
            x_feas = rng.uniform(0, 1, size=n)
            b = a @ x_feas
            result = solve_lp(a, b, rng.normal(size=n))
            assert result.is_optimal
            assert np.max(np.abs(a @ result.solution - b)) < 1e-7
            assert np.min(result.solution) > -1e-9

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1, size=(5, 12))
        b = a @ rng.uniform(0, 1, size=12)
        c = rng.normal(size=12)
        first = solve_lp(a, b, c)
        second = solve_lp(a, b, c)
        assert first.value == second.value
        assert np.array_equal(first.solution, second.solution)


class TestEqualityFormSolver:
    def test_reusable_phase_one(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([2.0, 2.0])
        solver = EqualityFormSolver(a, b)
        assert solver.feasible
        lo = solver.optimize(np.array([0.0, 1.0, 0.0]), "min")
        hi = solver.optimize(np.array([0.0, 1.0, 0.0]), "max")
        assert lo.value == pytest.approx(0.0, abs=1e-9)
        assert hi.value == pytest.approx(2.0, abs=1e-9)

    def test_unknown_sense_rejected(self):
        solver = EqualityFormSolver(np.array([[1.0, 1.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="sense must be 'min' or 'max'"):
            solver.optimize(np.array([1.0, 0.0]), "mid")

    def test_infeasible_constraints(self):
        solver = EqualityFormSolver(np.array([[1.0, 1.0]]), np.array([-1.0]))
        # Row flips sign, but x >= 0 cannot produce a negative sum.
        assert not solver.feasible
        assert solver.optimize(np.array([1.0, 0.0])).status == INFEASIBLE

    def test_rows_flipped_on_copies(self):
        # -x1 - x2 = -2 is x1 + x2 = 2; the caller's arrays stay as given.
        a = np.array([[-1.0, -1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([-2.0, 3.0])
        solver = EqualityFormSolver(a, b)
        result = solver.optimize(np.array([1.0, 0.0, 0.0]), "max")
        assert result.value == pytest.approx(2.0, abs=1e-9)
        assert a[0].tolist() == [-1.0, -1.0, 0.0] and b.tolist() == [-2.0, 3.0]

    def test_redundant_rows_kept(self):
        # Row 2 is twice row 0: its artificial stays basic at level zero,
        # and warm-started solves match a solver without the duplicate.
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, size=(3, 8))
        a[2] = 2.0 * a[0]
        b = a @ rng.uniform(0, 1, size=8)
        kept, plain = EqualityFormSolver(a, b), EqualityFormSolver(a[:2], b[:2])
        assert kept.feasible
        for k in range(20):
            objective = rng.normal(size=8)
            sense = "max" if k % 2 else "min"
            got, want = kept.optimize(objective, sense), plain.optimize(objective, sense)
            assert got.status == want.status
            if want.is_optimal:
                assert got.value == pytest.approx(want.value, abs=1e-9)
                assert np.max(np.abs(a @ got.solution - b)) < 1e-7

    def test_after_unbounded_result_returns_cold_value(self):
        # x1 - x2 = 1 and x3 + x4 = 2: x1 has no ceiling, x3 and x4 do.
        a = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        b = np.array([1.0, 2.0])
        solver = EqualityFormSolver(a, b)
        assert solver.optimize(np.array([1.0, 0.0, 0.0, 0.0]), "max").status == UNBOUNDED
        for objective, sense in (
            (np.array([0.0, 0.0, 1.0, 0.0]), "max"),
            (np.array([1.0, 0.0, 0.0, 1.0]), "max"),
            (np.array([1.0, 0.0, 0.0, 0.0]), "min"),
        ):
            cold = EqualityFormSolver(a, b).optimize(objective, sense)
            warm = solver.optimize(objective, sense)
            assert warm.status == cold.status
            if cold.is_optimal:
                assert warm.value == pytest.approx(cold.value, abs=1e-9)

    def test_alternating_senses_return_cold_values(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, size=(6, 20))
        b = a @ rng.uniform(0, 1, size=20)
        solver = EqualityFormSolver(a, b)
        for k in range(30):
            objective = rng.normal(size=20)
            sense = "max" if k % 3 else "min"
            cold = EqualityFormSolver(a, b).optimize(objective, sense)
            warm = solver.optimize(objective, sense)
            assert cold.is_optimal and warm.is_optimal
            assert warm.value == pytest.approx(cold.value, abs=1e-9)
            assert np.max(np.abs(a @ warm.solution - b)) < 1e-7
            assert np.min(warm.solution) > -1e-9

    def test_same_calls_give_identical_results(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1, size=(5, 14))
        b = a @ rng.uniform(0, 1, size=14)
        objectives = [(rng.normal(size=14), "min" if k % 2 else "max") for k in range(12)]
        first, second = EqualityFormSolver(a, b), EqualityFormSolver(a, b)
        for objective, sense in objectives:
            one = first.optimize(objective, sense)
            two = second.optimize(objective, sense)
            assert one.value == two.value
            assert np.array_equal(one.solution, two.solution)


class TestWithoutRow:
    def test_matches_a_fresh_solver_of_the_other_rows(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1, size=(6, 20))
        b = a @ rng.uniform(0, 1, size=20)
        full = EqualityFormSolver(a, b)
        for row in range(6):
            for scale in (1.0, 0.25):
                derived = full.without_row(row, scale)
                fresh = EqualityFormSolver(np.delete(a, row, axis=0), np.delete(b, row) * scale)
                for k in range(6):
                    objective = rng.normal(size=20)
                    sense = "max" if k % 2 else "min"
                    got, want = derived.optimize(objective, sense), fresh.optimize(objective, sense)
                    assert got.status == want.status
                    if want.is_optimal:
                        assert got.value == pytest.approx(want.value, abs=1e-9)
                        assert got.solution.shape == (20,)
                        rest = np.delete(a, row, axis=0) @ got.solution
                        assert np.max(np.abs(rest - np.delete(b, row) * scale)) < 1e-7

    def test_unbounded_once_the_ceiling_row_is_gone(self):
        # x1 - x2 = 1 leaves x1 no ceiling; x1 + x3 = 4 gives it one.
        a = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, 1.0]])
        solver = EqualityFormSolver(a, np.array([1.0, 4.0]))
        objective = np.array([1.0, 0.0, 0.0])
        assert solver.optimize(objective, "max").value == pytest.approx(4.0, abs=1e-9)
        assert solver.without_row(1).optimize(objective, "max").status == UNBOUNDED
        assert solver.without_row(0).optimize(objective, "max").value == pytest.approx(
            4.0, abs=1e-9
        )

    def test_no_derived_solver_with_an_artificial_left_in_the_basis(self):
        # The duplicate row keeps its artificial basic, so no structural
        # basis covers every row.
        a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        solver = EqualityFormSolver(a, np.array([1.0, 1.0, 2.0]))
        assert solver.feasible
        for row in range(3):
            with pytest.raises(RuntimeError, match="inverse"):
                solver.without_row(row)

    @pytest.mark.parametrize("row", [-1, 2])
    def test_row_outside_the_program_rejected(self, row):
        # A negative row would otherwise read a structural column.
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        with pytest.raises(IndexError):
            EqualityFormSolver(a, np.array([1.0, 2.0])).without_row(row)

    def test_no_derived_solver_when_infeasible(self):
        solver = EqualityFormSolver(np.array([[1.0, 1.0]]), np.array([-1.0]))
        with pytest.raises(RuntimeError, match="inverse"):
            solver.without_row(0)

    def test_no_derived_solver_of_a_derived_solver(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        derived = EqualityFormSolver(a, np.array([1.0, 2.0])).without_row(0)
        with pytest.raises(RuntimeError, match="inverse"):
            derived.without_row(0)

    def test_every_solver_carries_the_same_attributes(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        constructed = EqualityFormSolver(a, np.array([1.0, 2.0]))
        infeasible = EqualityFormSolver(a, np.array([-1.0, 2.0]))
        derived = constructed.without_row(1)
        assert not infeasible.feasible
        assert vars(constructed).keys() == vars(infeasible).keys() == vars(derived).keys()
        for solver in (constructed, derived):
            solver.optimize(np.array([1.0, 0.0, 0.0]), "max")
            assert vars(solver).keys() == vars(infeasible).keys()


BROADCAST = 1 << 62  # a width rule no tableau exceeds


def pivot_under(monkeypatch, rule, tableau, row, col):
    """``lp._pivot`` on a copy of ``tableau`` with the width rule set to ``rule``."""
    monkeypatch.setattr(lp, "_ROW_WISE_WIDTH", rule)
    tableau, basis = tableau.copy(order="K"), np.arange(tableau.shape[0])
    lp._pivot(tableau, row, col, basis)
    return tableau, basis


class TestWidePivots:
    @pytest.mark.parametrize("offset", [-400, 400])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_row_wise_update_equals_the_broadcast(self, monkeypatch, offset, order):
        # Both updates on tableaux narrower and wider than the default rule.
        width = lp._ROW_WISE_WIDTH + offset
        rng = np.random.default_rng(width)
        for _ in range(8):
            tableau = rng.normal(size=(24, width))
            row, col = int(rng.integers(23)), int(rng.integers(width - 1))
            zero = rng.random(24) < 0.4
            zero[row] = False
            tableau[zero, col] = 0.0
            tableau = np.asarray(tableau, order=order)
            wide, wide_basis = pivot_under(monkeypatch, 0, tableau, row, col)
            narrow, narrow_basis = pivot_under(monkeypatch, BROADCAST, tableau, row, col)
            assert np.array_equal(wide, narrow)
            assert np.array_equal(wide_basis, narrow_basis)
            assert wide_basis[row] == col
            # A row with a zero factor keeps its bits, signs of zero included.
            assert wide[zero].tobytes() == tableau[zero].tobytes()

    def test_wide_pivot_allocates_no_tableau_sized_temporary(self):
        rng = np.random.default_rng(5)
        tableau = rng.normal(size=(24, 4 * lp._ROW_WISE_WIDTH))
        tracemalloc.start()
        try:
            lp._pivot(tableau, 3, 7, np.arange(24))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tableau.nbytes / 4


def refuse(*args, **kwargs):
    raise AssertionError("a debug record was built with DEBUG off")


class TestLogging:
    # x1 + x2 = 1 twice (one row is redundant), and x2 + x3 = 2.
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    B = np.array([1.0, 1.0, 2.0])

    def test_silent_and_free_by_default(self, caplog, monkeypatch):
        monkeypatch.setattr(logging.getLogger("reachvenn.lp"), "debug", refuse)
        solver = EqualityFormSolver(self.A, self.B)
        solver.optimize(np.array([1.0, 0.0, 0.0]), "max")
        solver.optimize(np.array([1.0, 0.0, 0.0]), "min")
        EqualityFormSolver(self.A, -self.B).optimize(np.ones(3))
        assert caplog.records == []

    def test_debug_reports_phase_one_and_each_optimize(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="reachvenn.lp"):
            solver = EqualityFormSolver(self.A, self.B)
            result = solver.optimize(np.array([1.0, 0.0, 0.0]), "max")
        assert result.value == pytest.approx(1.0)
        assert [r.getMessage() for r in caplog.records] == [
            "phase 1: 2 pivots, 1 artificials left",
            "optimize max: optimal, 1 pivots, Bland's rule off",
        ]

    def test_debug_reports_an_infeasible_phase_one(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="reachvenn.lp"):
            EqualityFormSolver(np.array([[1.0, 1.0]]), np.array([-1.0]))
        assert [r.getMessage() for r in caplog.records] == ["phase 1: 0 pivots, infeasible"]
