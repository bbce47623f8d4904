"""The solver contracts, each asserted once.

Each section is one promise about the simplex least squares behind the
segment weights or the LP behind the bounds: one test, parametrized over every
input the promise is checked on, with one shared assertion.  A case returns
what its test compares.  A case that takes Hypothesis's ``data`` and draws
nothing from it runs once.  Shapes, sums and KKT checks stay with the solver's
own tests.
"""

import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachvenn import synth
from reachvenn.bounds import BoundsSolver, repair_dataset
from reachvenn.core import (
    SubsetMask,
    basic_masks,
    dataset_from_allocation,
    enumerate_masks,
    incidence_vector,
)
from reachvenn.lp import UNBOUNDED, EqualityFormSolver, LpResult
from reachvenn.lsq import simplex_lstsq
from reachvenn.model import build_segment_matrix, fit, fit_leave_one_out, predict
from reachvenn.pipeline import Session, d_grid

from conftest import (
    noisy_design_dataset,
    noisy_p5_dataset,
    per_universe,
    random_allocation,
    random_consistent_dataset,
    random_stack,
    record_stacks_of_one,
    reference_start,
)


# -- 1. A fit problem keeps its bits in any stack and stack order -----------


def random_stacks(data):
    """A ``random_stack`` of 1 to 7 problems, and a random order of it."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    count, rows, cols = (data.draw(st.integers(1, top)) for top in (7, 9, 12))
    kind = data.draw(st.sampled_from(["uniform", "incidence", "slack", "scaled"]))
    return [(*random_stack(rng, kind, count, rows, cols), rng.permutation(count))]


def scaled_stack(data):
    """A fixed "scaled" ``random_stack`` of seven problems whose KKT
    tolerances span about seven decades, so that a stack-wide tolerance would
    stop its small-scale problems early on every run."""
    rng = np.random.default_rng(3)
    a, b = random_stack(rng, "scaled", 7, 9, 12)
    tols = [reference_start(a[i], b[i])[2] for i in range(len(a))]
    assert max(tols) >= 1e6 * min(tols)
    return [(a, b, rng.permutation(len(a)))]


def workload_stacks(solve, num_bgs, declare, data):
    """Each problem that a session's segment fits or the repair solve alone,
    on a noisy 2P+1 design as the benchmark builds it, at position 1 of a
    stack of three, and then moved to position 0."""
    seed = {"session": 100, "repair": 200}[solve] + num_bgs
    ds = noisy_design_dataset(
        num_bgs, seed, declare, kind="dirichlet", alpha=2.0, noise_seed=synth.noise_seed(seed)
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = record_stacks_of_one(monkeypatch)
        if solve == "repair":
            repair_dataset(ds)
        else:
            session = Session(ds)
            for d in d_grid():
                session.model(d)
    stacks = [(np.stack([a[::-1], a, a]), np.stack([b[::-1], b, 0.5 * b])) for a, b, _ in calls]
    return [(a, b, [1, 2, 0]) for a, b in stacks]


STACKS = {"random": random_stacks, "scaled": scaled_stack} | {
    case: build
    for solve in ("session", "repair")
    for num_bgs in (6, 8)
    for case, build in per_universe(f"{solve}-p{num_bgs}", workload_stacks, solve, num_bgs).items()
}


@pytest.mark.parametrize("case", STACKS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_fit_problem_keeps_its_bits_in_any_stack(case, data):
    for a, b, order in STACKS[case](data):
        alone = np.stack([simplex_lstsq(a[i], b[i]) for i in range(len(a))])
        assert simplex_lstsq(a, b).tobytes() == alone.tobytes()
        assert simplex_lstsq(a[order], b[order]).tobytes() == alone[order].tobytes()


# -- 2. A held-out fit equals refitting the rest, bit for bit ---------------


def leave_one_out_predictions():
    """``fit_leave_one_out`` at d = 1.5, 3 and inf on exact observations of a
    random P=4 truth, every mask but the basics held out."""
    ds, _ = random_consistent_dataset(np.random.default_rng(20240817), 4, extra=4, universe=1000.0)
    grid, reaches = (1.5, 3.0, math.inf), np.array([o.reach for o in ds.observations])
    rows = [i for i, m in enumerate(ds.masks()) if m.popcount not in (1, 4)]
    table = fit_leave_one_out([build_segment_matrix(ds, d) for d in grid], reaches, rows)
    return ds, grid, [ds.masks()[row] for row in rows], table, lambda point, mask: point


def leave_one_out_errors(declare):
    """``Session.loo_table``, |prediction - reach| / gap over the d grid, on
    noisy observations of the basics and 8 pairs of a P=5 truth."""
    session = Session(noisy_p5_dataset(declare))
    reach, gaps = session.dataset.reach_of, {m: i.gap for _, m, i in session.holdouts}
    table = session.loo_table(d_grid())
    return session.dataset, d_grid(), list(gaps), table, lambda p, m: abs(p - reach(m)) / gaps[m]


HELD_OUT_FITS = {
    "fit_leave_one_out": leave_one_out_predictions,
    **per_universe("loo_table", leave_one_out_errors),
}


@pytest.mark.parametrize("case", HELD_OUT_FITS)
def test_a_held_out_fit_equals_refitting_the_rest(case):
    # Entry (k, j) is ``read`` of mask j's prediction by a fresh fit, at
    # grid[k], of every other observation.
    ds, grid, masks, table, read = HELD_OUT_FITS[case]()
    refits = [[read(predict(fit(ds.without(m), d), m), m) for m in masks] for d in grid]
    assert table.tolist() == refits


# -- 3. A held-out bound equals a fresh solver's, up to round-off -----------


def assert_same_answer(got, want, tol, program=None):
    """``got`` has ``want``'s cap flag and ends within ``tol``, or its status
    and value, and then solves ``program``, (a, b) of a x = b, x >= 0."""
    if isinstance(want, LpResult):
        assert got.status == want.status
        if want.is_optimal:
            a, b = program
            assert abs(got.value - want.value) <= tol
            assert np.abs(a @ got.solution - b).max() < 1e-7 and got.solution.min() > -1e-9
    else:
        assert got.upper_capped == want.upper_capped
        assert max(abs(got.lower - want.lower), abs(got.upper - want.upper)) <= tol


def lp_without_each_row(data):
    """Each row of a random 6 x 20 program left out, under six objectives of
    alternating sense."""
    rng = np.random.default_rng(11)
    a = rng.uniform(0, 1, size=(6, 20))
    b = a @ rng.uniform(0, 1, size=20)
    full, answers = EqualityFormSolver(a, b), []
    for row in range(6):
        rest = np.delete(a, row, axis=0), np.delete(b, row)
        derived, fresh = full.without_row(row), EqualityFormSolver(*rest)
        for k in range(6):
            call = (rng.normal(size=20), "max" if k % 2 else "min")
            answers.append((derived.optimize(*call), fresh.optimize(*call), 1e-9, rest))
    return answers


def bounds_without_every_mask(num_bgs, declare, data):
    """Every observed mask held out, basics included (dropping a single
    changes the cap, the union can change the scale), on exact observations
    of random truths with none, half or all of the other masks; again after a
    sweep has moved both senses off phase 1's basis."""
    rng = np.random.default_rng(20240817)
    pool = (1 << num_bgs) - 2 - num_bgs
    answers = []
    for extra in sorted({0, pool // 2, pool}):
        ds, _ = random_consistent_dataset(rng, num_bgs, extra, 1000.0 if declare else None)
        fresh = [BoundsSolver(ds.without(mask)).bounds(mask) for mask in ds.masks()]
        solver = BoundsSolver(ds)
        for _ in range(2):
            held_out = [solver.bounds_without(mask) for mask in ds.masks()]
            answers += [(got, want, 1e-12 * ds.scale) for got, want in zip(held_out, fresh)]
            solver.bounds_many(enumerate_masks(num_bgs))
    return answers


def bounds_without_distinct_masks(data):
    """Any distinct masks, observed exactly.  Their incidence rows are
    independent, so phase 1 leaves no artificial in the basis and each
    held-out program derives from it."""
    seed, num_bgs = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(2, 6))
    indices = data.draw(st.sets(st.integers(1, (1 << num_bgs) - 1), min_size=2))
    masks = [SubsetMask(j, num_bgs) for j in sorted(indices)]
    assert np.linalg.matrix_rank([incidence_vector(m) for m in masks]) == len(masks)
    universe = data.draw(st.sampled_from([1000.0, None]))
    alloc = random_allocation(np.random.default_rng(seed), num_bgs, 1000.0)
    ds = dataset_from_allocation(alloc, masks, universe_size=universe)
    solver = BoundsSolver(ds)
    fresh = [BoundsSolver(ds.without(mask)).bounds(mask) for mask in masks]
    return [(solver.bounds_without(m), f, 1e-9 * ds.scale) for m, f in zip(masks, fresh)]


def bounds_without_capped(data):
    """Exact observations of a random P=4 truth's singles and two pairs, with
    neither the full union nor a universe.  No other observation covers BG 4,
    so its single held out is bounded above only by the cap, the sum of the
    other reaches."""
    alloc = random_allocation(np.random.default_rng(20240817), 4, 1000.0)
    masks = [SubsetMask.from_string(s) for s in ("1000", "0100", "0010", "0001", "1100", "0110")]
    ds = dataset_from_allocation(alloc, masks, universe_size=None)
    solver = BoundsSolver(ds)
    fresh = [BoundsSolver(ds.without(mask)).bounds(mask) for mask in masks]
    assert [f.upper_capped for f in fresh] == [False, False, False, True, False, False]
    return [(solver.bounds_without(m), f, 1e-12 * ds.scale) for m, f in zip(masks, fresh)]


def session_holdouts(declare, data):
    """A session's held-out bounds, on noisy observations of the basics and 8
    pairs of a P=5 truth: the 8 pairs, held out in the dataset's order."""
    session = Session(noisy_p5_dataset(declare))
    ds = session.dataset
    held_out = [m for m in ds.masks() if m not in basic_masks(5)]
    assert (ds.universe_size is not None) == declare and len(held_out) == 8
    assert [mask for _, mask, _ in session.holdouts] == held_out
    fresh = [BoundsSolver(ds.without(mask)).bounds(mask) for _, mask, _ in session.holdouts]
    return [(i, f, 1e-12 * ds.scale) for (_, _, i), f in zip(session.holdouts, fresh)]


HELD_OUT_BOUNDS = {
    "lp-without_row": lp_without_each_row,
    **{
        case: build
        for num_bgs in range(2, 7)
        for case, build in per_universe(
            f"bounds_without-p{num_bgs}", bounds_without_every_mask, num_bgs
        ).items()
    },
    "bounds_without-distinct-masks": bounds_without_distinct_masks,
    "bounds_without-capped": bounds_without_capped,
    **per_universe("holdouts", session_holdouts),
}


@pytest.mark.parametrize("case", HELD_OUT_BOUNDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_held_out_bound_equals_a_fresh_solvers(case, data):
    for held_out, fresh, tol, *program in HELD_OUT_BOUNDS[case](data):
        assert_same_answer(held_out, fresh, tol, *program)


# -- 4. Warm-started solves equal cold ones and repeat bit for bit ----------


def lp_calls(a, b, calls):
    """One solver answering ``calls`` in turn, a fresh solver's answer to
    each, the tolerance between them, and the program."""

    def warm():
        solver = EqualityFormSolver(a, b)
        return [solver.optimize(*call) for call in calls]

    return warm, [EqualityFormSolver(a, b).optimize(*call) for call in calls], 1e-9, (a, b)


def lp_after_an_unbounded_result(data):
    """x1 - x2 = 1 and x3 + x4 = 2: x1 has no ceiling, x3 and x4 do."""
    a = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    b = np.array([1.0, 2.0])
    x1, x3, x4 = np.eye(4)[[0, 2, 3]]
    assert EqualityFormSolver(a, b).optimize(x1, "max").status == UNBOUNDED
    return lp_calls(a, b, [(x1, "max"), (x3, "max"), (x1 + x4, "max"), (x1, "min")])


def lp_random_objectives(rows, cols, count, seed, senses, data):
    """``count`` normal objectives on a random ``rows`` x ``cols`` program,
    their senses cycling through ``senses``."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, size=(rows, cols))
    b = a @ rng.uniform(0, 1, size=cols)
    calls = [(rng.normal(size=cols), senses[k % len(senses)]) for k in range(count)]
    warm, cold, *rest = lp_calls(a, b, calls)
    assert all(answer.is_optimal for answer in cold)  # a > 0 bounds every x
    return warm, cold, *rest


def bounds_visiting_orders(data):
    """Every mask of exact observations of a random truth, bounded by one
    solver in index order, reversed, in Gray-code order, then by
    ``bounds_many``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    num_bgs, extra = data.draw(st.integers(2, 6)), data.draw(st.integers(0, 8))
    ds, _ = random_consistent_dataset(rng, num_bgs, extra, data.draw(st.sampled_from([1.0, None])))
    masks = enumerate_masks(num_bgs)
    gray = [SubsetMask(r ^ (r >> 1), num_bgs) for r in range(1, 1 << num_bgs)]
    orders = (masks, masks[::-1], gray)
    cold = {m: BoundsSolver(ds).bounds(m) for m in masks}

    def warm():
        solver = BoundsSolver(ds)
        return [solver.bounds(m) for order in orders for m in order] + solver.bounds_many(masks)

    return warm, [cold[m] for order in (*orders, masks) for m in order], 1e-9 * ds.scale


def bounds_many_input_order(data):
    """``bounds_many`` of unordered targets, one of them twice, and of none."""
    ds, _ = random_consistent_dataset(np.random.default_rng(20240817), 4, extra=3, universe=None)
    targets = [SubsetMask(j, 4) for j in (9, 1, 15, 6, 9, 12)]
    cold = [BoundsSolver(ds).bounds(target) for target in targets]

    def warm():
        return BoundsSolver(ds).bounds_many(targets) + BoundsSolver(ds).bounds_many([])

    return warm, cold, 1e-9 * ds.scale


WARM_STARTS = {
    "lp-after-unbounded": lp_after_an_unbounded_result,
    "lp-min-max-max": functools.partial(lp_random_objectives, 6, 20, 30, 5, ("min", "max", "max")),
    "lp-max-min": functools.partial(lp_random_objectives, 5, 14, 12, 9, ("max", "min")),
    "lp-one-call": functools.partial(lp_random_objectives, 5, 12, 1, 11, ("min",)),
    "bounds-visiting-orders": bounds_visiting_orders,
    "bounds_many-input-order": bounds_many_input_order,
}


@pytest.mark.parametrize("case", WARM_STARTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_warm_started_solves_equal_cold_ones_and_repeat(case, data):
    warm, cold, tol, *program = WARM_STARTS[case](data)
    answers = warm()
    # Pickled, every float and array of a second run compares bit for bit.
    assert pickle.dumps(warm()) == pickle.dumps(answers)
    for got, want in zip(answers, cold, strict=True):
        assert_same_answer(got, want, tol, *program)
