"""Consistency detection, subset bounds, repair, and curve tracing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachvenn import lp
from reachvenn.bounds import (
    BoundsSolver,
    ConsistencyReport,
    check_consistency,
    incremental_curve_bounds,
    repair_dataset,
    subset_bounds,
)
from reachvenn.core import (
    InconsistencyError,
    ReachDataset,
    RegionAllocation,
    SubsetMask,
    UnavailableError,
    dataset_from_allocation,
    enumerate_masks,
    subset_reach_from_allocation,
)
from reachvenn.experiment import training_masks
from reachvenn.pipeline import estimate_subset

from conftest import (
    five_bg_basics,
    random_allocation,
    random_consistent_dataset,
    triangle_dataset,
)
from grid_oracle import oracle_bounds_by_grid


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
        assert report.witness is None

    def test_triangle_claim_4000_inconsistent(self):
        report = check_consistency(triangle_dataset(4000))
        assert not report.consistent

    def test_triangle_claim_5500_consistent(self):
        report = check_consistency(triangle_dataset(5500))
        assert report.consistent
        assert report.witness is not None

    def test_witness_realizes_observations(self, rng):
        datasets = [
            triangle_dataset(5500),
            five_bg_with_extras(),
            # A declared universe the observations leave room in, and one
            # that binds: 101 and 011 keep BG 3 apart from BGs 1 and 2.
            ReachDataset.from_pairs(
                3, [("110", 3000.0), ("011", 3000.0), ("010", 0.0)], universe_size=5000.0
            ),
            ReachDataset.from_pairs(
                3,
                [("100", 4.0), ("010", 4.0), ("001", 5.0), ("101", 9.0), ("011", 9.0)],
                universe_size=10.0,
            ),
        ]
        for universe in [None, 1.0] * 10:
            num_bgs, extra = int(rng.integers(2, 7)), int(rng.integers(0, 6))
            datasets.append(random_consistent_dataset(rng, num_bgs, extra, universe)[0])
        for ds in datasets:
            witness = check_consistency(ds).witness
            for obs in ds.observations:
                realized = subset_reach_from_allocation(obs.subset, witness)
                assert realized == pytest.approx(obs.reach, abs=1e-9 * ds.scale)
            if ds.universe_size is not None:
                assert witness.total == pytest.approx(ds.universe_size, abs=1e-9 * ds.scale)

    def test_pairs_past_the_universe_inconsistent(self):
        # Each pair equals the sum of its singles, so the three BGs are
        # disjoint and reach 12 users, past a universe of 10.
        pairs = [("100", 4), ("010", 4), ("001", 4), ("110", 8), ("011", 8), ("101", 8)]
        assert check_consistency(ReachDataset.from_pairs(3, pairs)).consistent
        ds = ReachDataset.from_pairs(3, pairs, universe_size=10.0)
        assert check_consistency(ds) == ConsistencyReport(consistent=False)
        with pytest.raises(InconsistencyError):
            BoundsSolver(ds)

    @pytest.mark.parametrize("universe", [None, 10000.0])
    @pytest.mark.parametrize("claim", [3500, 5500])
    def test_one_solver(self, monkeypatch, universe, claim):
        # The verdict and the witness come from a single phase 1.
        built = []
        init = lp.EqualityFormSolver.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(lp.EqualityFormSolver, "__init__", counted)
        pairs = [(o.subset, o.reach) for o in triangle_dataset(claim).observations]
        check_consistency(ReachDataset.from_pairs(3, pairs, universe_size=universe))
        assert len(built) == 1

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
        # The universe row bounds the target, so its upper bound is an LP
        # optimum, not the cap that applies without a universe.
        pairs = [("100", 10.0), ("010", 8.0)]
        target = SubsetMask.from_string("101")
        interval = subset_bounds(ReachDataset.from_pairs(3, pairs, universe_size=40.0), target)
        assert not interval.upper_capped
        assert interval.upper == pytest.approx(40.0)
        interval = subset_bounds(ReachDataset.from_pairs(3, pairs), target)
        assert interval.upper_capped
        assert interval.upper == pytest.approx(18.0)

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

    def test_a_declared_universe_bounds_an_upper_the_observations_bound(self):
        # The observations give 111 <= 110 + 011 = 6000; the universe is tighter.
        pairs = [("110", 3000.0), ("011", 3000.0), ("010", 0.0)]
        ds = ReachDataset.from_pairs(3, pairs, universe_size=5000.0)
        assert BoundsSolver(ds).bounds(SubsetMask.parse("111", 3)).upper <= 5000.0

    def test_a_declared_universe_tightens_bounds_below_it(self):
        # 101 and 011 at 9 = 4 + 5 keep BG 3 apart from BGs 1 and 2, so in a
        # universe of 10, 110 <= 10 - 5.  The observations alone give 8, and
        # clamping that at the universe would not help: min(8, 10) = 8.
        pairs = [("100", 4.0), ("010", 4.0), ("001", 5.0), ("101", 9.0), ("011", 9.0)]
        ds = ReachDataset.from_pairs(3, pairs, universe_size=10.0)
        interval = BoundsSolver(ds).bounds(SubsetMask.parse("110", 3))
        assert interval.lower == pytest.approx(4.0, abs=1e-9 * 10)
        assert interval.upper == pytest.approx(5.0, abs=1e-9 * 10)

    @pytest.mark.parametrize("num_bgs, step, total", [(2, 0.125, 2), (3, 0.125, 4), (4, 0.25, 2)])
    def test_matches_grid_oracle_inside_a_declared_universe(self, num_bgs, step, total):
        # The full union is left out, so the universe, the truth's total with
        # region 0, bounds how far the BGs spread: it tightens some bounds.
        # Every other truth leaves region 0 empty, so the union fills it.
        rng = np.random.default_rng(num_bgs)
        full = SubsetMask.full(num_bgs)
        pool = [m for m in enumerate_masks(num_bgs) if m.popcount > 1 and m != full]
        tightened = 0
        for i in range(4):
            regions = random_allocation(rng, num_bgs, total, grid_step=step).values.copy()
            regions[0] *= i % 2
            alloc = RegionAllocation(num_bgs, regions)
            picks = rng.choice(len(pool), size=len(pool) * 2 // 3, replace=False)
            masks = [SubsetMask.single(i, num_bgs) for i in range(1, num_bgs + 1)]
            masks += [pool[i] for i in sorted(picks)]
            ds = dataset_from_allocation(alloc, masks, universe_size=alloc.total)
            unbounded = BoundsSolver(dataset_from_allocation(alloc, masks))
            solver = BoundsSolver(ds)
            for target in enumerate_masks(num_bgs):
                lp = solver.bounds(target)
                grid = oracle_bounds_by_grid(ds, target, step=step)
                assert abs(lp.lower - grid.lower) <= step + 1e-9
                assert abs(lp.upper - grid.upper) <= step + 1e-9
                assert lp.upper <= ds.universe_size + 1e-9
                tightened += lp.upper < unbounded.bounds(target).upper - 1e-9
        assert tightened


TOP = np.finfo(float).max
PAST_THE_RANGE = {
    "bound": "no finite bounds: the upper bound exceeds the float range",
    "repair": "no finite repair: a repaired reach exceeds the float range",
}


class TestPastTheFloatRange:
    """A bound or a repaired reach past the float range in reach units is
    unavailable, a witness never is, and a bound just inside is kept."""

    @pytest.mark.parametrize(
        "pairs, call, what",
        [
            ([("10", 1e308), ("01", 1e308)],
             lambda ds: subset_bounds(ds, SubsetMask(3, 2)), "bound"),
            ([("100", 1e308), ("010", 1e308), ("001", 1e308)],
             lambda ds: subset_bounds(ds, SubsetMask(3, 3)), "bound"),
            # Pinning the first prefix at 1e308 makes the reaches sum past it.
            ([("1101", 1e308), ("1001", 1000.0)],
             lambda ds: incremental_curve_bounds(ds, [1, 2, 3, 4], "upper"), "bound"),
            ([("1101", 1e308), ("1001", 1000.0)],
             lambda ds: incremental_curve_bounds(ds, [1, 2, 3, 4], "lower"), "bound"),
            ([("10", TOP), ("01", TOP)], repair_dataset, "repair"),
        ],
        ids=["union", "pair", "upper trace", "lower trace", "repair"],
    )
    def test_unavailable(self, pairs, call, what):
        ds = ReachDataset.from_pairs(len(pairs[0][0]), pairs)
        with pytest.raises(UnavailableError, match=f"^{PAST_THE_RANGE[what]}$"):
            call(ds)

    @pytest.mark.parametrize(
        "pairs, universe",
        [
            ([("10", 1.0), ("11", TOP)], None),
            # Consistent within phase 1's tolerance; its raw vertex holds a
            # region of -1e-8 on the proportion scale.
            ([("10", 0.0), ("01", 0.0), ("11", 1e300)], 1e308),
            ([("10", TOP), ("01", TOP)], TOP),
        ],
        ids=["union at the top", "vertex round-off", "universe at the top"],
    )
    def test_a_consistent_dataset_always_has_a_witness(self, pairs, universe):
        ds = ReachDataset.from_pairs(2, pairs, universe_size=universe)
        report = check_consistency(ds)
        assert report.consistent
        assert np.isfinite(report.witness.values).all()
        assert report.witness.values.max() <= ds.scale

    def test_bound_inside_it_is_kept(self):
        ds = ReachDataset.from_pairs(2, [("10", 1e308), ("01", 5e307)])
        interval = BoundsSolver(ds).bounds(SubsetMask.full(2))
        assert interval.lower == 1e308
        assert interval.upper == pytest.approx(1.5e308, rel=1e-12)


class TestBoundsWithout:
    """Held-out bounds against a fresh solver's: test_solver_contracts.py."""

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
            # Held-out bounds pivot on derived tableaux with a slack pair.
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
