"""Consistency detection, subset bounds, repair, and curve tracing."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachvenn import lp
from reachvenn.bounds import (
    BoundsSolver,
    check_consistency,
    incremental_curve_bounds,
    repair_dataset,
    subset_bounds,
)
from reachvenn.core import (
    InconsistencyError,
    ReachDataset,
    SubsetMask,
    dataset_from_allocation,
    enumerate_masks,
    incidence_vector,
    subset_reach_from_allocation,
)
from reachvenn.experiment import training_masks
from reachvenn.pipeline import EstimateOptions, estimate_subset

from conftest import random_allocation, random_consistent_dataset
from grid_oracle import oracle_bounds_by_grid


def triangle_dataset(claim=None):
    """P=3, singles 3000, full union 7000, R(G2 u G3) = 5000."""
    pairs = [("100", 3000), ("010", 3000), ("001", 3000), ("111", 7000), ("011", 5000)]
    if claim is not None:
        pairs.append(("101", claim))
    return ReachDataset.from_pairs(3, pairs)


def epsilon_triangle(eps, universe=10000.0):
    """Disjoint G2, G3 (singles 3000) with R(G2 u G3) claimed eps * U too high."""
    pairs = [
        ("100", 3000),
        ("010", 3000),
        ("001", 3000),
        ("111", 7000),
        ("011", 6000 + eps * universe),
    ]
    return ReachDataset.from_pairs(3, pairs, universe_size=universe)


def five_bg_basics(union=336160.0, single=100000.0):
    pairs = [(m, single) for m in ["10000", "01000", "00100", "00010", "00001"]]
    pairs.append(("11111", union))
    return ReachDataset.from_pairs(5, pairs)


def five_bg_with_extras():
    ds = five_bg_basics()
    extras = [
        ("10001", 180000.0),
        ("10010", 180000.0),
        ("01110", 244000.0),
        ("11010", 244000.0),
        ("01111", 295200.0),
    ]
    for mask, reach in extras:
        ds = ds.with_observation(SubsetMask.from_string(mask), reach)
    return ds


class TestCheckConsistency:
    def test_triangle_claim_3500_inconsistent(self):
        report = check_consistency(triangle_dataset(3500))
        assert not report.consistent
        assert report.t_star < 0

    def test_triangle_claim_4000_inconsistent(self):
        report = check_consistency(triangle_dataset(4000))
        assert not report.consistent

    def test_triangle_claim_5500_consistent(self):
        report = check_consistency(triangle_dataset(5500))
        assert report.consistent
        assert report.witness is not None

    def test_witness_realizes_observations(self):
        ds = triangle_dataset(5500)
        witness = check_consistency(ds).witness
        for obs in ds.observations:
            realized = subset_reach_from_allocation(obs.subset, witness)
            assert realized == pytest.approx(obs.reach, abs=1e-6 * ds.scale)

    def test_soundness_on_random_truths(self, rng):
        for _ in range(20):
            num_bgs = int(rng.integers(2, 6))
            ds, _ = random_consistent_dataset(rng, num_bgs, extra=int(rng.integers(0, 4)))
            assert check_consistency(ds).consistent

    def test_single_observation_consistent(self):
        ds = ReachDataset.from_pairs(2, [("10", 5.0)])
        assert check_consistency(ds).consistent

    @pytest.mark.parametrize("eps", [1e-8, 2e-8, 5e-8, 9e-8, 1e-7])
    def test_epsilon_window_inconsistent_and_repaired(self, eps):
        # The excess is far below TOL_FEAS yet above phase 1's tolerance: the
        # check must agree with BoundsSolver so estimate_subset repairs first.
        ds = epsilon_triangle(eps)
        assert not check_consistency(ds).consistent
        with pytest.raises(InconsistencyError):
            BoundsSolver(ds)
        est = estimate_subset(ds, SubsetMask.from_string("101"))
        assert est.repaired
        assert est.interval_100.contains(est.point)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bgs=st.integers(2, 5),
        extra=st.integers(0, 31),
        pick=st.integers(0, 10**6),
        half_decades=st.integers(-20, -10),
    )
    def test_verdict_matches_bounds_solver(self, seed, num_bgs, extra, pick, half_decades):
        # Grid truths have empty regions, so with enough observations a push
        # of one reach by eps * U, eps = 10**(half_decades / 2), can leave the
        # feasible set; both verdicts get exercised.
        ds, alloc = random_consistent_dataset(
            np.random.default_rng(seed), num_bgs, extra=extra, grid_step=0.125
        )
        reaches = [o.reach for o in ds.observations]
        reaches[pick % len(reaches)] += 10.0 ** (half_decades / 2) * alloc.values.sum()
        pushed = ds.replace_reaches(reaches)
        try:
            BoundsSolver(pushed)
            constructs = True
        except InconsistencyError:
            constructs = False
        assert check_consistency(pushed).consistent == constructs


class TestSubsetBounds:
    def test_triangle_target_interval(self):
        interval = subset_bounds(triangle_dataset(), SubsetMask.from_string("101"))
        assert interval.lower == pytest.approx(5000.0, abs=1e-3)
        assert interval.upper == pytest.approx(6000.0, abs=1e-3)

    def test_matches_grid_oracle_on_triangle(self):
        ds = triangle_dataset()
        target = SubsetMask.from_string("101")
        lp = subset_bounds(ds, target)
        grid = oracle_bounds_by_grid(ds, target, step=250.0)
        assert abs(lp.lower - grid.lower) <= 250.0
        assert abs(lp.upper - grid.upper) <= 250.0

    def test_matches_grid_oracle_on_random_p3(self, rng):
        step = 0.125
        for _ in range(8):
            ds, _ = random_consistent_dataset(
                rng, 3, extra=int(rng.integers(0, 3)), grid_step=step
            )
            solver = BoundsSolver(ds)
            for target in enumerate_masks(3):
                lp = solver.bounds(target)
                grid = oracle_bounds_by_grid(ds, target, step=step)
                assert abs(lp.lower - grid.lower) <= step + 1e-9
                assert abs(lp.upper - grid.upper) <= step + 1e-9

    def test_matches_grid_oracle_on_random_p4(self, rng):
        step = 0.25
        for _ in range(4):
            ds, _ = random_consistent_dataset(rng, 4, extra=2, grid_step=step)
            solver = BoundsSolver(ds)
            for target in enumerate_masks(4):
                lp = solver.bounds(target)
                grid = oracle_bounds_by_grid(ds, target, step=step)
                assert abs(lp.lower - grid.lower) <= step + 1e-9
                assert abs(lp.upper - grid.upper) <= step + 1e-9

    def test_five_bg_pair_bounds(self):
        ds = five_bg_basics()
        interval = subset_bounds(ds, SubsetMask.from_string("11000"))
        assert interval.lower == pytest.approx(100000.0, abs=1e-3)
        assert interval.upper == pytest.approx(200000.0, abs=1e-3)

    def test_five_bg_extras_narrow_prefix4(self):
        ds = five_bg_with_extras()
        interval = subset_bounds(ds, SubsetMask.from_string("11110"))
        tol = 1e-4 * 500000.0
        assert interval.lower >= 244000.0 - tol
        assert interval.upper <= 336160.0 + tol

    def test_observed_subset_degenerate(self):
        ds = triangle_dataset()
        interval = subset_bounds(ds, SubsetMask.from_string("011"))
        assert interval.lower == pytest.approx(5000.0, abs=1e-3)
        assert interval.gap <= 1e-7 * ds.scale + 1e-9

    def test_truth_always_inside_bounds(self, rng):
        for _ in range(15):
            num_bgs = int(rng.integers(2, 6))
            ds, alloc = random_consistent_dataset(rng, num_bgs, extra=2)
            solver = BoundsSolver(ds)
            for target in enumerate_masks(num_bgs):
                truth = subset_reach_from_allocation(target, alloc)
                assert solver.bounds(target).contains(truth, tol=1e-6 * ds.scale)

    def test_inconsistent_dataset_raises(self):
        with pytest.raises(InconsistencyError, match="repair_dataset"):
            subset_bounds(triangle_dataset(3500), SubsetMask.from_string("110"))

    def test_unbounded_target_capped(self):
        # No full union observed: G3's overlap with nothing is untouched, so
        # the target G1 u G3 has no data-driven ceiling.
        ds = ReachDataset.from_pairs(3, [("100", 10.0), ("010", 8.0)])
        interval = subset_bounds(ds, SubsetMask.from_string("101"))
        assert interval.upper_capped
        assert interval.upper == pytest.approx(18.0)

    def test_unbounded_capped_at_universe(self):
        ds = ReachDataset.from_pairs(3, [("100", 10.0), ("010", 8.0)], universe_size=40.0)
        interval = subset_bounds(ds, SubsetMask.from_string("101"))
        assert interval.upper_capped
        assert interval.upper == pytest.approx(40.0)

    @pytest.mark.parametrize("universe", [None, 1000.0])
    @pytest.mark.parametrize("extra", [0, 3])
    def test_every_single_observed_needs_no_cap(self, rng, universe, extra):
        # Each non-empty region lies in some single's row, so the observed
        # singles bound every target's maximum and no cap applies.
        for num_bgs in range(3, 9):
            singles = [SubsetMask.single(i, num_bgs) for i in range(1, num_bgs + 1)]
            others = [m for m in enumerate_masks(num_bgs) if m.popcount > 1]
            picks = rng.choice(len(others), size=extra, replace=False)
            masks = singles + [others[i] for i in sorted(picks)]
            alloc = random_allocation(rng, num_bgs, 1000.0)
            ds = dataset_from_allocation(alloc, masks, universe_size=universe)
            intervals = BoundsSolver(ds).bounds_many(enumerate_masks(num_bgs))
            assert not any(interval.upper_capped for interval in intervals)

    def test_monotone_refinement(self, rng):
        for _ in range(10):
            num_bgs = int(rng.integers(3, 6))
            ds, alloc = random_consistent_dataset(rng, num_bgs, extra=1)
            observed = {m.index for m in ds.masks()}
            unobserved = [m for m in enumerate_masks(num_bgs) if m.index not in observed]
            if not unobserved:
                continue
            new = unobserved[int(rng.integers(0, len(unobserved)))]
            wider = BoundsSolver(ds)
            tighter = BoundsSolver(
                ds.with_observation(new, subset_reach_from_allocation(new, alloc))
            )
            for target in enumerate_masks(num_bgs):
                before = wider.bounds(target)
                after = tighter.bounds(target)
                tol = 1e-6 * ds.scale
                assert after.lower >= before.lower - tol
                assert after.upper <= before.upper + tol


def relabelled(mask, perm):
    """``mask`` with BG i + 1 renamed to BG perm[i] + 1."""
    bits = sum(1 << perm[i] for i in range(mask.num_bgs) if mask.bits >> i & 1)
    return SubsetMask(bits, mask.num_bgs)


def relabelled_dataset(ds, perm):
    """``ds`` with every observation's mask relabelled by ``perm``."""
    return ReachDataset.from_pairs(
        ds.num_bgs,
        [(relabelled(o.subset, perm), o.reach) for o in ds.observations],
        universe_size=ds.universe_size,
    )


def noisy_dataset(rng, num_bgs, extra, universe):
    """A random consistent dataset with 10% relative noise on every reach,
    kept inside the declared universe; usually inconsistent."""
    ds, _ = random_consistent_dataset(rng, num_bgs, extra=extra, universe=universe)
    cap = ds.universe_size or np.inf
    return ds.replace_reaches(
        [
            min(cap, max(0.0, o.reach * (1 + 0.1 * rng.standard_normal())))
            for o in ds.observations
        ]
    )


class TestBoundsProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bgs=st.integers(2, 5),
        extra=st.integers(0, 6),
        universe=st.sampled_from([1.0, None]),
        perm_seed=st.integers(0, 2**32 - 1),
    )
    def test_relabelling_bgs_permutes_bounds(
        self, seed, num_bgs, extra, universe, perm_seed
    ):
        ds, _ = random_consistent_dataset(
            np.random.default_rng(seed), num_bgs, extra=extra, universe=universe
        )
        perm = np.random.default_rng(perm_seed).permutation(num_bgs).tolist()
        renamed = relabelled_dataset(ds, perm)
        solver, renamed_solver = BoundsSolver(ds), BoundsSolver(renamed)
        tol = 1e-9 * ds.scale
        for target in enumerate_masks(num_bgs):
            before = solver.bounds(target)
            after = renamed_solver.bounds(relabelled(target, perm))
            assert abs(after.lower - before.lower) <= tol
            assert abs(after.upper - before.upper) <= tol

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bgs=st.integers(2, 5),
        extra=st.integers(0, 6),
        universe=st.sampled_from([1.0, None]),
        factor=st.sampled_from([1e-6, 1e9]),
    )
    def test_scaling_reaches_scales_bounds(self, seed, num_bgs, extra, universe, factor):
        ds, _ = random_consistent_dataset(
            np.random.default_rng(seed), num_bgs, extra=extra, universe=universe
        )
        scaled = ReachDataset.from_pairs(
            num_bgs,
            [(o.subset, o.reach * factor) for o in ds.observations],
            universe_size=None if universe is None else universe * factor,
        )
        solver, scaled_solver = BoundsSolver(ds), BoundsSolver(scaled)
        tol = 1e-9 * scaled.scale
        for target in enumerate_masks(num_bgs):
            before = solver.bounds(target)
            after = scaled_solver.bounds(target)
            assert abs(after.lower - before.lower * factor) <= tol
            assert abs(after.upper - before.upper * factor) <= tol

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bgs=st.integers(2, 5),
        extra=st.integers(0, 6),
        universe=st.sampled_from([1000.0, None]),
        perm_seed=st.integers(0, 2**32 - 1),
    )
    def test_relabelling_bgs_permutes_repair_and_batch_bounds(
        self, seed, num_bgs, extra, universe, perm_seed
    ):
        # Without a universe repair runs nnls, with one simplex_lstsq; either
        # way its values are the unique fitted values, so they permute.
        ds = noisy_dataset(np.random.default_rng(seed), num_bgs, extra, universe)
        perm = np.random.default_rng(perm_seed).permutation(num_bgs).tolist()
        repaired = repair_dataset(ds)
        renamed = repair_dataset(relabelled_dataset(ds, perm))
        tol = 1e-9 * ds.scale
        for o in repaired.observations:
            assert abs(renamed.reach_of(relabelled(o.subset, perm)) - o.reach) <= tol
        # bounds_many visits the targets in Gray-code order of their masks,
        # which relabelling changes.
        masks = enumerate_masks(num_bgs)
        before = BoundsSolver(repaired).bounds_many(masks)
        after = BoundsSolver(relabelled_dataset(repaired, perm)).bounds_many(
            [relabelled(m, perm) for m in masks]
        )
        for b, a in zip(before, after):
            assert abs(a.lower - b.lower) <= tol
            assert abs(a.upper - b.upper) <= tol
            assert a.upper_capped == b.upper_capped

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bgs=st.integers(2, 6),
        extra=st.integers(0, 8),
        universe=st.sampled_from([1.0, None]),
    )
    def test_truth_lies_in_estimate_interval(self, seed, num_bgs, extra, universe):
        ds, alloc = random_consistent_dataset(
            np.random.default_rng(seed), num_bgs, extra=extra, universe=universe
        )
        # interval_100 is model-free; a given d skips the cross-validation.
        options = EstimateOptions(d=math.inf)
        tol = 1e-9 * ds.scale
        for target in enumerate_masks(num_bgs):
            interval = estimate_subset(ds, target, options).interval_100
            assert interval.contains(subset_reach_from_allocation(target, alloc), tol)


def gray_order(num_bgs):
    """Every non-empty mask along the reflected binary Gray code."""
    return [SubsetMask(r ^ (r >> 1), num_bgs) for r in range(1, 1 << num_bgs)]


class TestWarmStartedBounds:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bgs=st.integers(2, 6),
        extra=st.integers(0, 8),
        universe=st.sampled_from([1.0, None]),
    )
    def test_visiting_order_does_not_change_bounds(self, seed, num_bgs, extra, universe):
        ds, _ = random_consistent_dataset(
            np.random.default_rng(seed), num_bgs, extra=extra, universe=universe
        )
        masks = enumerate_masks(num_bgs)
        cold = {m.index: BoundsSolver(ds).bounds(m) for m in masks}
        solver = BoundsSolver(ds)
        passes = [
            {m.index: solver.bounds(m) for m in order}
            for order in (masks, masks[::-1], gray_order(num_bgs))
        ]
        passes.append(dict(zip([m.index for m in masks], solver.bounds_many(masks))))
        tol = 1e-9 * ds.scale
        for warm in passes:
            for m in masks:
                assert abs(warm[m.index].lower - cold[m.index].lower) <= tol
                assert abs(warm[m.index].upper - cold[m.index].upper) <= tol
                assert warm[m.index].upper_capped == cold[m.index].upper_capped

    def test_bounds_many_keeps_input_order(self, rng):
        ds, _ = random_consistent_dataset(rng, 4, extra=3, universe=None)
        targets = [SubsetMask(j, 4) for j in (9, 1, 15, 6, 9, 12)]
        got = BoundsSolver(ds).bounds_many(targets)
        assert len(got) == len(targets)
        for target, interval in zip(targets, got):
            cold = BoundsSolver(ds).bounds(target)
            assert interval.lower == pytest.approx(cold.lower, abs=1e-9 * ds.scale)
            assert interval.upper == pytest.approx(cold.upper, abs=1e-9 * ds.scale)
        assert BoundsSolver(ds).bounds_many([]) == []


class TestBoundsWithout:
    @pytest.mark.parametrize("num_bgs", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("universe", [1000.0, None])
    def test_every_mask_matches_a_fresh_solver(self, rng, num_bgs, universe):
        # Basic masks included: dropping a single changes the cap, and
        # dropping the union can change the scale.
        pool = (1 << num_bgs) - 2 - num_bgs
        for extra in sorted({0, pool // 2, pool}):
            ds, _ = random_consistent_dataset(rng, num_bgs, extra=extra, universe=universe)
            fresh = [BoundsSolver(ds.without(mask)).bounds(mask) for mask in ds.masks()]
            solver = BoundsSolver(ds)
            for _ in range(2):
                for mask, b in zip(ds.masks(), fresh):
                    a = solver.bounds_without(mask)
                    assert a.upper_capped == b.upper_capped
                    assert abs(a.lower - b.lower) <= 1e-12 * ds.scale
                    assert abs(a.upper - b.upper) <= 1e-12 * ds.scale
                # Again after a sweep has moved both senses off phase 1's
                # basis, where the held-out program then starts.
                solver.bounds_many(enumerate_masks(num_bgs))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_bgs=st.integers(2, 6), data=st.data())
    def test_distinct_masks_never_need_another_path(self, seed, num_bgs, data):
        # Distinct non-empty masks have independent incidence rows, so phase 1
        # leaves no artificial in the basis and each held-out program derives from it.
        indices = data.draw(st.sets(st.integers(1, (1 << num_bgs) - 1), min_size=2))
        masks = [SubsetMask(j, num_bgs) for j in sorted(indices)]
        a = np.array([incidence_vector(m) for m in masks])
        assert np.linalg.matrix_rank(a) == len(masks)
        universe = data.draw(st.sampled_from([1000.0, None]))
        alloc = random_allocation(np.random.default_rng(seed), num_bgs, 1000.0)
        ds = dataset_from_allocation(alloc, masks, universe_size=universe)
        solver = BoundsSolver(ds)
        for mask in masks:
            got = solver.bounds_without(mask)
            want = BoundsSolver(ds.without(mask)).bounds(mask)
            assert got.upper_capped == want.upper_capped
            assert abs(got.lower - want.lower) <= 1e-9 * ds.scale
            assert abs(got.upper - want.upper) <= 1e-9 * ds.scale

    def test_unobserved_mask_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            BoundsSolver(triangle_dataset()).bounds_without(SubsetMask.from_string("110"))


class TestWidePivots:
    def test_p11_construction_holds_one_tableau(self, rng):
        # The caller's A (23 x 2048 floats) and the phase-1 tableau, which the
        # lower-bound simplex then runs on: no second m x 2**P array.
        num_bgs = 11
        alloc = random_allocation(rng, num_bgs, 1000.0)
        ds = dataset_from_allocation(alloc, training_masks(num_bgs), universe_size=1000.0)
        a_bytes = len(ds.masks()) * (1 << num_bgs) * 8
        tracemalloc.start()
        try:
            BoundsSolver(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * a_bytes

    def test_p11_bounds_equal_under_both_update_rules(self, rng, monkeypatch):
        # 2**11 regions give over 2049 tableau columns, above the width rule.
        num_bgs, universe = 11, 1000.0
        assert (1 << num_bgs) + 1 > lp._ROW_WISE_WIDTH
        alloc = random_allocation(rng, num_bgs, universe)
        ds = dataset_from_allocation(alloc, training_masks(num_bgs), universe_size=universe)
        targets = enumerate_masks(num_bgs)[::16]

        def intervals():
            # Held-out bounds pivot on Fortran-ordered tableaux.
            solver = BoundsSolver(ds)
            return solver.bounds_many(targets), [solver.bounds_without(m) for m in ds.masks()]

        row_wise, held_out = intervals()
        monkeypatch.setattr(lp, "_ROW_WISE_WIDTH", 1 << 62)
        assert intervals() == (row_wise, held_out)
        for target, interval in zip(targets, row_wise):
            truth = subset_reach_from_allocation(target, alloc)
            assert interval.lower - 1e-7 * universe <= truth <= interval.upper + 1e-7 * universe


class TestRepairDataset:
    def test_consistent_input_is_identity(self, rng):
        for _ in range(10):
            ds, _ = random_consistent_dataset(rng, int(rng.integers(2, 5)), extra=2)
            repaired = repair_dataset(ds)
            for before, after in zip(ds.observations, repaired.observations):
                assert after.reach == pytest.approx(before.reach, abs=1e-9 * ds.scale)

    def test_subadditivity_violation_projected(self):
        # Hand-solved quadratic program: the overlap region pins at zero and
        # the stationary conditions give R1 = R2 = 350/3, union = 700/3.
        ds = ReachDataset.from_pairs(2, [("10", 100.0), ("01", 100.0), ("11", 250.0)])
        repaired = repair_dataset(ds)
        values = {o.subset.to_string(): o.reach for o in repaired.observations}
        assert values["10"] == pytest.approx(350.0 / 3.0, rel=1e-6)
        assert values["01"] == pytest.approx(350.0 / 3.0, rel=1e-6)
        assert values["11"] == pytest.approx(700.0 / 3.0, rel=1e-6)
        assert values["11"] <= values["10"] + values["01"] + 1e-9
        assert check_consistency(repaired).consistent

    def test_noisy_dataset_becomes_consistent(self, rng):
        ds, _ = random_consistent_dataset(rng, 4, extra=3, universe=1000.0)
        noisy = ds.replace_reaches(
            [
                min(1000.0, max(0.0, o.reach * (1 + 0.1 * rng.standard_normal())))
                for o in ds.observations
            ]
        )
        repaired = repair_dataset(noisy)
        assert check_consistency(repaired).consistent

    def test_universe_cap_respected(self):
        ds = ReachDataset.from_pairs(
            2, [("10", 90.0), ("01", 90.0), ("11", 100.0)], universe_size=100.0
        )
        repaired = repair_dataset(ds)
        assert all(o.reach <= 100.0 for o in repaired.observations)
        assert check_consistency(repaired).consistent


class TestIncrementalCurves:
    def test_five_bg_free_mode_envelope(self):
        # Hand algebra: upper_k = min(k * 100000, 336160); lower_k binds at
        # max(100000, 336160 - (5 - k) * 100000) via subadditivity with the
        # remaining singles.  Endpoint witnesses exist for all three.
        ds = five_bg_basics()
        prefixes = incremental_curve_bounds(ds, [1, 2, 3, 4, 5], "free")
        expected = [(100000.0, 200000.0), (136160.0, 300000.0), (236160.0, 336160.0)]
        assert len(prefixes) == 3
        for entry, (lo, hi) in zip(prefixes, expected):
            assert entry.interval.lower == pytest.approx(lo, abs=1e-3)
            assert entry.interval.upper == pytest.approx(hi, abs=1e-3)
            assert entry.pinned is None
        # All prefix intervals sit inside the coarse single/union envelope.
        for entry in prefixes:
            assert entry.interval.lower >= 100000.0 - 1e-3
            assert entry.interval.upper <= 336160.0 + 1e-3

    def test_five_bg_extras_prefix4_lower(self):
        ds = five_bg_with_extras()
        prefixes = incremental_curve_bounds(ds, [1, 2, 3, 4, 5], "free")
        prefix4 = prefixes[-1]
        assert prefix4.subset.to_string() == "11110"
        assert prefix4.interval.lower >= 244000.0 - 1e-4 * 500000.0

    def test_p2_has_no_strict_prefixes(self):
        ds = ReachDataset.from_pairs(2, [("10", 1.0), ("01", 1.0), ("11", 1.5)])
        assert incremental_curve_bounds(ds, [1, 2], "free") == []

    def test_traces_bracket_and_stay_inside_free(self):
        ds = five_bg_with_extras()
        free = incremental_curve_bounds(ds, [1, 2, 3, 4, 5], "free")
        upper = incremental_curve_bounds(ds, [1, 2, 3, 4, 5], "upper")
        lower = incremental_curve_bounds(ds, [1, 2, 3, 4, 5], "lower")
        for f, u, l in zip(free, upper, lower):
            assert u.pinned >= l.pinned - 1e-6
            assert f.interval.contains(u.pinned, tol=1e-6 * ds.scale)
            assert f.interval.contains(l.pinned, tol=1e-6 * ds.scale)

    def test_bad_order_rejected(self):
        ds = triangle_dataset()
        with pytest.raises(ValueError, match="permutation"):
            incremental_curve_bounds(ds, [1, 2, 2], "free")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'wat'"):
            incremental_curve_bounds(triangle_dataset(), [1, 2, 3], mode="wat")
