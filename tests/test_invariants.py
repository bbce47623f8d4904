"""The invariants of the answers, each asserted once.

Each section is one invariant of the reach-consistency LP and of the answers
built on it: one test, parametrized over every entry point that answers the
question, with one shared assertion.  A case returns what its test compares,
with its own inputs and tolerance.  A case that takes Hypothesis's ``data`` and
draws nothing from it runs once; each invariant keeps such a fixed case, which
fails on every run, not only when Hypothesis draws the right example.  Point
estimates stay out of the relabelling test: the segment weights are not
unique, so a prediction need not permute.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachvenn.bounds import (
    BoundsSolver, ConsistencyReport, check_consistency, incremental_curve_bounds, repair_dataset,
)
from reachvenn.core import (
    BoundInterval, ReachDataset, ReachObservation, SubsetMask, basic_masks, enumerate_masks,
    subset_reach_from_allocation,
)
from reachvenn.experiment import training_masks
from reachvenn.pipeline import (
    Estimate, EstimateOptions, SelectionState, estimate_subset, select_next_point,
)
from reachvenn.synth import (
    GeneratorSpec, add_measurement_noise, generate, independent_truth, true_dataset, true_reach,
)

from conftest import noisy_design_dataset, noisy_p5_dataset, per_universe, random_consistent_dataset


@st.composite
def truths(draw, num_bgs, extra, universes, noise=False):
    """``random_consistent_dataset`` and its truth, on a drawn seed, P, number
    of extra masks and universe; with ``noise``, each reach moved by 10%
    relative noise, kept inside the universe (usually inconsistent)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_bgs, extra = draw(st.integers(*num_bgs)), draw(st.integers(*extra))
    ds, alloc = random_consistent_dataset(rng, num_bgs, extra, draw(st.sampled_from(universes)))
    if noise:
        cap = ds.universe_size or np.inf
        moved = [o.reach * (1 + 0.1 * rng.standard_normal()) for o in ds.observations]
        ds = ds.replace_reaches([min(cap, max(0.0, r)) for r in moved])
    return ds, alloc


WIDE = truths((2, 6), (0, 8), (1.0, None))
EXACT = truths((2, 5), (0, 6), (1.0, None))
NOISY = truths((2, 5), (0, 6), (1000.0, None), noise=True)
REPAIRED = NOISY.map(lambda truth: (repair_dataset(truth[0]), truth[1]))


# -- 1. The truth lies inside every answer ----------------------------------


def consistency_verdicts(data):
    """``check_consistency`` of exact observations of 20 random truths (P = 2
    to 5, 0 to 3 extra masks)."""
    rng, answers = np.random.default_rng(20240817), []
    for _ in range(20):
        num_bgs = int(rng.integers(2, 6))
        ds, alloc = random_consistent_dataset(rng, num_bgs, extra=int(rng.integers(0, 4)))
        answers.append((check_consistency(ds), alloc, None))
    return answers


def solver_bounds(data):
    """``BoundsSolver.bounds`` of every mask, on exact observations of 15
    random truths (P = 2 to 5, 2 extra masks)."""
    rng, answers = np.random.default_rng(20240817), []
    for _ in range(15):
        ds, alloc = random_consistent_dataset(rng, int(rng.integers(2, 6)), extra=2)
        solver = BoundsSolver(ds)
        for t in enumerate_masks(ds.num_bgs):
            truth = subset_reach_from_allocation(t, alloc)
            answers.append((solver.bounds(t), truth, 1e-6 * ds.scale))
    return answers


def estimate_intervals(data):
    """``interval_100`` of every mask: model-free; a given d skips tuning."""
    ds, alloc = data.draw(WIDE)
    options, tol = EstimateOptions(d=math.inf), 1e-9 * ds.scale
    return [
        (estimate_subset(ds, t, options).interval_100, subset_reach_from_allocation(t, alloc), tol)
        for t in enumerate_masks(ds.num_bgs)
    ]


def held_out_reaches(data):
    """Each observed reach, against its bounds under the other observations."""
    ds, _ = data.draw(WIDE)
    solver = BoundsSolver(ds)
    return [(solver.bounds_without(o.subset), o.reach, 1e-9 * ds.scale) for o in ds.observations]


def free_curve(data):
    """Every strict prefix of a drawn BG order, bounded in ``free`` mode."""
    ds, alloc = data.draw(WIDE)
    prefixes = incremental_curve_bounds(ds, data.draw(st.permutations(range(1, ds.num_bgs + 1))))
    return [
        (p.interval, subset_reach_from_allocation(p.subset, alloc), 1e-9 * ds.scale)
        for p in prefixes
    ]


TRUTH_INSIDE = {
    "check_consistency": consistency_verdicts,
    "bounds": solver_bounds,
    "estimate_subset": estimate_intervals,
    "bounds_without": held_out_reaches,
    "incremental_curve_bounds-free": free_curve,
}


def assert_holds(answer, truth, tol):
    """``answer`` admits ``truth``: a bound holds it within ``tol``, and a
    consistency report, whose truth is an allocation, finds its data consistent."""
    if isinstance(answer, ConsistencyReport):
        assert answer.consistent
    else:
        assert answer.contains(truth, tol)


@pytest.mark.parametrize("case", TRUTH_INSIDE)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_the_truth_lies_inside(case, data):
    for answer, truth, tol in TRUTH_INSIDE[case](data):
        assert_holds(answer, truth, tol)


# -- 2 and 3. Relabelling the BGs permutes, scaling the reaches scales -------


# Each entry point's answers to a list of masks, whether it is asked about
# observed masks only, and the datasets it is drawn on.  ``bounds_many`` visits
# the masks in Gray-code order, which relabelling changes.  The repair runs
# nnls without a universe and simplex_lstsq with one; either way its values
# are the unique fitted values.
ENTRY_POINTS = {
    "bounds": (lambda ds, masks: list(map(BoundsSolver(ds).bounds, masks)), False, EXACT),
    "bounds_without": (
        lambda ds, masks: list(map(BoundsSolver(ds).bounds_without, masks)), True, EXACT
    ),
    "repair_dataset": (
        lambda ds, masks: list(map(repair_dataset(ds).reach_of, masks)), True, NOISY
    ),
    "bounds_many": (lambda ds, masks: BoundsSolver(ds).bounds_many(masks), False, REPAIRED),
}


def relabelled(mask, perm):
    """``mask`` with BG i + 1 renamed to BG perm[i] + 1."""
    bits = sum(1 << perm[i] for i in range(mask.num_bgs) if mask.bits >> i & 1)
    return SubsetMask(bits, mask.num_bgs)


def relabelling(name, ds, perm):
    """``name``'s answers in the data ``relabelled`` by ``perm``, and before."""
    answer, observed, _ = ENTRY_POINTS[name]
    masks = ds.masks() if observed else enumerate_masks(ds.num_bgs)
    pairs = [(relabelled(o.subset, perm), o.reach) for o in ds.observations]
    renamed = ReachDataset.from_pairs(ds.num_bgs, pairs, universe_size=ds.universe_size)
    got = answer(renamed, [relabelled(m, perm) for m in masks])
    return [(a, b, 1e-9 * ds.scale) for a, b in zip(got, answer(ds, masks), strict=True)]


def scaled_dataset(ds, factor):
    """``ds`` with every reach, and the universe, times ``factor``."""
    universe = None if ds.universe_size is None else ds.universe_size * factor
    pairs = [(o.subset, o.reach * factor) for o in ds.observations]
    return ReachDataset.from_pairs(ds.num_bgs, pairs, universe_size=universe)


def scaled(answer, factor):
    """A reach, a bound or an estimate times ``factor``: an estimate's point,
    intervals and universe scale, and the rest stays."""
    if isinstance(answer, Estimate):
        return dataclasses.replace(
            answer,
            point=answer.point * factor,
            interval_100=scaled(answer.interval_100, factor),
            interval_alpha=scaled(answer.interval_alpha, factor),
            universe_size=answer.universe_size * factor,
        )
    if isinstance(answer, BoundInterval):
        return BoundInterval(answer.lower * factor, answer.upper * factor, answer.upper_capped)
    return answer * factor


def scaling(name, ds, factor):
    """``name``'s answers with every reach times ``factor``, and scaled."""
    answer, observed, _ = ENTRY_POINTS[name]
    masks = ds.masks() if observed else enumerate_masks(ds.num_bgs)
    got, tol = answer(scaled_dataset(ds, factor), masks), 1e-9 * ds.scale * factor
    return [(a, scaled(b, factor), tol) for a, b in zip(got, answer(ds, masks), strict=True)]


def drawn_relabelling(name, data):
    """``relabelling`` on ``name``'s drawn datasets, by a drawn permutation."""
    ds, _ = data.draw(ENTRY_POINTS[name][2])
    return relabelling(name, ds, data.draw(st.permutations(range(ds.num_bgs))))


def drawn_scaling(name, data):
    """``scaling`` of ``name``'s drawn datasets, by 1e-6 or 1e9."""
    ds, _ = data.draw(ENTRY_POINTS[name][2])
    return scaling(name, ds, data.draw(st.sampled_from([1e-6, 1e9])))


def fixed_relabelling(declare, data):
    """``bounds_many`` on the repair of ``noisy_p5_dataset``, a fixed renaming."""
    return relabelling("bounds_many", repair_dataset(noisy_p5_dataset(declare)), [3, 0, 4, 1, 2])


def scaled_estimates(num_bgs, kind, declare, data):
    """Each estimate at alpha = 90 of every 7th mask left out of two noisy
    2P+1 designs, with the reaches times 2**-3 and 2**10, and scaled: a power
    of two scales the reaches, and the arithmetic, exactly."""
    options, answers = EstimateOptions(alpha=90), []
    for seed in (31, 32):
        ds = noisy_design_dataset(
            num_bgs, seed, declare, kind=kind, alpha=0.5, noise_seed=seed + 100
        )
        for target in [m for m in enumerate_masks(num_bgs) if ds.reach_of(m) is None][::7]:
            want = estimate_subset(ds, target, options)
            for factor in (2.0**-3, 2.0**10):
                got = estimate_subset(scaled_dataset(ds, factor), target, options)
                answers.append((got, scaled(want, factor), None))
    return answers


RELABELLINGS = {
    **{name: functools.partial(drawn_relabelling, name) for name in ENTRY_POINTS},
    **per_universe("bounds_many-p5", fixed_relabelling),
}
SCALINGS = {
    **{name: functools.partial(drawn_scaling, name) for name in ENTRY_POINTS},
    **{
        case: build
        for num_bgs in (4, 5)
        for kind in ("ci_groups", "dirichlet")
        for case, build in per_universe(
            f"estimate_subset-p{num_bgs}-{kind}", scaled_estimates, num_bgs, kind
        ).items()
    },
}


def assert_same_answer(got, want, tol):
    """``got`` equals ``want`` when ``tol`` is None; else, as bounds (a reach
    is a bound of one point), it has ``want``'s cap flag and ends within ``tol``."""
    if tol is None:
        assert got == want
        return
    got, want = (a if isinstance(a, BoundInterval) else BoundInterval(a, a) for a in (got, want))
    assert got.upper_capped == want.upper_capped
    assert max(abs(got.lower - want.lower), abs(got.upper - want.upper)) <= tol


@pytest.mark.parametrize("case", RELABELLINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_relabelling_the_bgs_permutes_the_answers(case, data):
    for got, want, tol in RELABELLINGS[case](data):
        assert_same_answer(got, want, tol)


@pytest.mark.parametrize("case", SCALINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scaling_the_reaches_scales_the_answers(case, data):
    for got, want, tol in SCALINGS[case](data):
        assert_same_answer(got, want, tol)


# -- 4. Adding observations only narrows the bounds --------------------------


def added_observations(data):
    """``bounds_many`` of every mask, on exact observations of a random truth
    (P = 3 to 6, 0 to 4 extra masks, one mask left out at least), after and
    before 1 to 3 more of its masks are observed."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    num_bgs = data.draw(st.integers(3, 6))
    extra = min(data.draw(st.integers(0, 4)), (1 << num_bgs) - num_bgs - 3)
    universe = data.draw(st.sampled_from([1.0, None]))
    ds, alloc = random_consistent_dataset(rng, num_bgs, extra, universe)
    grown, unobserved = ds, [m for m in enumerate_masks(num_bgs) if ds.reach_of(m) is None]
    for mask in data.draw(st.permutations(unobserved))[: data.draw(st.integers(1, 3))]:
        grown = grown.with_observation(mask, subset_reach_from_allocation(mask, alloc))
    before, after = (BoundsSolver(d).bounds_many(enumerate_masks(num_bgs)) for d in (ds, grown))
    return [(a, b, 1e-9 * ds.scale) for a, b in zip(after, before)]


def select_rounds(data):
    """The bounds of 11110 after and before each of six ``select_next_point``
    rounds, from the basics of five independent BGs at r = 0.2, U = 500000."""
    truth, probe = independent_truth(5, 0.2, 500000.0), SubsetMask.from_string("11110")
    state = SelectionState.initial(true_dataset(truth, basic_masks(5)))
    intervals = [BoundsSolver(state.measurements).bounds(probe)]
    for _ in range(6):
        state = select_next_point(state, lambda m: true_reach(truth, m))
        intervals.append(BoundsSolver(state.measurements).bounds(probe))
    return [(a, b, 1e-6 * 500000.0) for a, b in zip(intervals[1:], intervals)]


NARROWINGS = {"bounds_many": added_observations, "select_next_point": select_rounds}


def assert_narrower(after, before, tol):
    """``after`` lies inside ``before``, within ``tol``."""
    assert after.lower >= before.lower - tol and after.upper <= before.upper + tol


@pytest.mark.parametrize("case", NARROWINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_adding_observations_only_narrows_the_bounds(case, data):
    for after, before, tol in NARROWINGS[case](data):
        assert_narrower(after, before, tol)


# -- 5. Input order changes no bit -------------------------------------------


def shuffled(num_bgs, declare, repaired):
    """(dataset, its rows in another order, a mask left out), three orders
    each: noisy observations of the 2P+1 design and two more masks of a
    ci_groups and a dirichlet truth, clipped at U = 1e6, declared or not; with
    ``repaired``, their repair."""
    universe, rng = 1e6, np.random.default_rng((num_bgs, declare))
    for kind in ("ci_groups", "dirichlet"):
        seed = int(rng.integers(2**31))
        truth = generate(GeneratorSpec(kind, num_bgs, universe, seed=seed))
        masks = training_masks(num_bgs)
        extra = [m for m in enumerate_masks(num_bgs) if m not in masks]
        masks += [extra[i] for i in rng.choice(len(extra), size=2, replace=False)]
        clean = [ReachObservation(m, true_reach(truth, m)) for m in masks]
        noisy = add_measurement_noise(clean, seed=seed + 1)
        rows = [ReachObservation(o.subset, min(o.reach, universe)) for o in noisy]
        ds = ReachDataset(num_bgs, universe if declare else None, tuple(rows))
        if repaired:
            ds = repair_dataset(ds)
            rows = ds.observations
        target = next(m for m in extra if m not in masks)
        for order in (rng.permutation(len(rows)) for _ in range(3)):
            yield ds, ReachDataset(num_bgs, ds.universe_size, tuple(rows[i] for i in order)), target


def witness(ds, target):
    """The witness of ``check_consistency``, which reproduces every
    observation within 1e-9 of U = 1e6."""
    regions = check_consistency(ds).witness
    for o in ds.observations:
        assert abs(subset_reach_from_allocation(o.subset, regions) - o.reach) <= 1e-9 * 1e6
    return regions.values.tolist()


# Each entry point's answer, and whether it is asked about the repair.
ORDER_FREE = {
    "ReachDataset": (lambda ds, target: ds, False),
    "repair_dataset": (
        lambda ds, target: {o.subset.index: o.reach for o in repair_dataset(ds).observations},
        False,
    ),
    "check_consistency": (lambda ds, target: check_consistency(ds).consistent, False),
    "check_consistency-witness": (witness, True),
    "bounds_many": (
        lambda ds, target: BoundsSolver(ds).bounds_many(enumerate_masks(ds.num_bgs)), True
    ),
    "estimate_subset": (
        lambda ds, target: repr(estimate_subset(ds, target, EstimateOptions(alpha=90))),
        False,
    ),
}


def reordered(name, num_bgs, declare):
    """``name``'s answers to each shuffled dataset, and to the dataset."""
    answer, repaired = ORDER_FREE[name]
    shuffles = shuffled(num_bgs, declare, repaired)
    return [(answer(permuted, t), answer(ds, t), None) for ds, permuted, t in shuffles]


INPUT_ORDERS = {
    case: build
    for name in ORDER_FREE
    for num_bgs in (4, 5, 6, 7)
    for case, build in per_universe(f"{name}-p{num_bgs}", reordered, name, num_bgs).items()
}


@pytest.mark.parametrize("case", INPUT_ORDERS)
def test_input_order_changes_no_bit(case):
    for got, want, tol in INPUT_ORDERS[case]():
        assert_same_answer(got, want, tol)
