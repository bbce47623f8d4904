"""Simplex solver contract: hand-solved programs, statuses, determinism, warm starts."""

import numpy as np
import pytest

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

    def test_infeasible_constraints(self):
        solver = EqualityFormSolver(np.array([[1.0, 1.0]]), np.array([-1.0]))
        # Row flips sign, but x >= 0 cannot produce a negative sum.
        assert not solver.feasible
        assert solver.optimize(np.array([1.0, 0.0])).status == INFEASIBLE

    def test_redundant_rows_dropped(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        solver = EqualityFormSolver(a, b)
        assert solver.feasible
        result = solver.optimize(np.array([1.0, 0.0]), "max")
        assert result.value == pytest.approx(1.0, abs=1e-9)

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

    def test_no_derived_solver_after_a_dropped_row(self):
        # Phase 1 drops the duplicate row, so no basis covers every row.
        a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        solver = EqualityFormSolver(a, np.array([1.0, 1.0, 2.0]))
        assert solver.feasible
        for row in range(3):
            with pytest.raises(RuntimeError, match="inverse"):
                solver.without_row(row)

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
