"""Adaptive selection, d tuning, error bars, and the combined estimator."""

import math
import re

import numpy as np
import pytest

from reachvenn import model, pipeline
from reachvenn.bounds import BoundsSolver, check_consistency, repair_dataset
from reachvenn.core import (
    BoundInterval,
    ReachDataset,
    ReachObservation,
    SubsetMask,
    UnavailableError,
    basic_masks,
    enumerate_masks,
)
from reachvenn.experiment import training_masks
from reachvenn.model import estimate_universe, fit, predict
from reachvenn.pipeline import (
    NO_SPARE_POINTS,
    EstimateOptions,
    SelectionState,
    Session,
    alpha_interval,
    d_grid,
    error_bar,
    estimate_subset,
    nearest_rank_percentile,
    relative_error,
    select_next_point,
    tune_d,
)
from reachvenn.synth import (
    GeneratorSpec,
    add_measurement_noise,
    generate,
    independent_truth,
    true_dataset,
    true_reach,
)

from conftest import random_consistent_dataset


def five_bg_setup():
    """The textbook setup: P=5 independent BGs at r=0.2, U=500000."""
    truth = independent_truth(5, 0.2, 500000.0)
    masks = [m for m in enumerate_masks(5) if m.popcount in (1, 5)]
    return truth, true_dataset(truth, masks)


def noisy_p5_dataset(declare_universe: bool) -> ReachDataset:
    """Noisy reaches of the basics and 8 more masks of a P=5 ci_groups truth."""
    universe = 100000.0
    truth = generate(GeneratorSpec("ci_groups", 5, universe, seed=17))
    masks = basic_masks(5) + [m for m in enumerate_masks(5) if m.popcount == 2][:8]
    clean = [ReachObservation(m, true_reach(truth, m)) for m in masks]
    noisy = [
        ReachObservation(o.subset, min(o.reach, universe))
        for o in add_measurement_noise(clean, seed=18)
    ]
    return ReachDataset(5, universe if declare_universe else None, tuple(noisy))


def noisy_design_dataset(num_bgs, seed, declare_universe, kind="dirichlet"):
    """Noisy reaches of the 2P+1 design of a ci_groups or Dirichlet(0.5) truth."""
    universe = 1e6
    truth = generate(GeneratorSpec(kind, num_bgs, universe, seed=seed, alpha=0.5))
    clean = [ReachObservation(m, true_reach(truth, m)) for m in training_masks(num_bgs)]
    noisy = add_measurement_noise(clean, seed=seed + 100)
    if declare_universe:
        noisy = [ReachObservation(o.subset, min(o.reach, universe)) for o in noisy]
    return ReachDataset(num_bgs, universe if declare_universe else None, tuple(noisy))


def counting(monkeypatch, name, modules):
    """Count calls to the function ``name`` through each module's binding."""
    calls = []
    original = getattr(model, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def independence_p3_dataset(extra_popcount2=2):
    truth = independent_truth(3, 0.2, 1000.0)
    masks = [m for m in enumerate_masks(3) if m.popcount in (1, 3)]
    masks += [m for m in enumerate_masks(3) if m.popcount == 2][:extra_popcount2]
    return true_dataset(truth, sorted(masks, key=lambda m: m.index)), truth


class TestDGrid:
    def test_default_grid_values(self):
        grid = d_grid()
        expected = [1.0 + c * 4.0 / 9.0 for c in range(10)]
        assert grid == pytest.approx(expected)
        assert grid[0] == 1.0 and grid[-1] == 5.0
        assert grid[1] == pytest.approx(13.0 / 9.0)


class TestSelectionState:
    def test_initial_partition(self):
        _, ds = five_bg_setup()
        testing = [SubsetMask.from_string(s) for s in ["11000", "11100", "11110"]]
        state = SelectionState.initial(ds, exclude=testing)
        assert len(state.chosen) == 6
        assert len(state.candidates) == 31 - 6 - 3  # 22, as in the write-up
        candidate_ids = {m.index for m in state.candidates}
        assert not candidate_ids & {m.index for m in testing}

    def test_requires_basics(self):
        ds = ReachDataset.from_pairs(2, [("10", 1.0), ("01", 1.0)])
        with pytest.raises(ValueError, match="basic"):
            SelectionState.initial(ds)


class TestSelectNextPoint:
    def test_picks_largest_gap_class(self):
        # Under the six basic observations the LP gaps are 100000 for pairs,
        # 163840 for triples, 100000 for quadruples, so a triple wins; ties
        # inside the class go to the smallest canonical index ("11100" = 7).
        truth, ds = five_bg_setup()
        state = SelectionState.initial(ds)
        measured = []

        def measure(mask):
            measured.append(mask)
            return true_reach(truth, mask)

        state = select_next_point(state, measure)
        assert measured[0].popcount == 3
        assert measured[0].index == 7
        assert state.measurements.n == 7
        assert all(m.index != 7 for m in state.candidates)

    def test_single_candidate_selected_regardless(self):
        truth, ds = five_bg_setup()
        keep = SubsetMask.from_string("11000")
        exclude = [
            m for m in enumerate_masks(5) if m.popcount in (2, 3, 4) and m != keep
        ]
        state = SelectionState.initial(ds, exclude=exclude)
        state = select_next_point(state, lambda m: true_reach(truth, m))
        assert state.chosen[-1] == keep
        with pytest.raises(UnavailableError, match="exhausted"):
            select_next_point(state, lambda m: 0.0)

    def test_equal_gaps_take_smallest_index(self):
        # P=3 basics with symmetric singles: all pair candidates tie.
        truth = independent_truth(3, 0.2, 1000.0)
        ds = true_dataset(truth, [m for m in enumerate_masks(3) if m.popcount in (1, 3)])
        state = SelectionState.initial(ds)
        state = select_next_point(state, lambda m: true_reach(truth, m))
        pair_indices = [m.index for m in enumerate_masks(3) if m.popcount == 2]
        assert state.chosen[-1].index == min(pair_indices)

    def test_gap_never_widens_across_rounds(self):
        truth, ds = five_bg_setup()
        state = SelectionState.initial(ds)
        from reachvenn.bounds import BoundsSolver

        probe = SubsetMask.from_string("11110")
        gaps = []
        for _ in range(6):
            gaps.append(BoundsSolver(state.measurements).bounds(probe).gap)
            state = select_next_point(state, lambda m: true_reach(truth, m))
        for before, after in zip(gaps, gaps[1:]):
            assert after <= before + 1e-6 * 500000.0


class TestRelativeError:
    def test_plain_substitution(self):
        interval = BoundInterval(50.0, 250.0)
        assert relative_error(150.0, 100.0, interval, scale=1e6) == pytest.approx(0.25)

    def test_exact_estimate(self):
        interval = BoundInterval(50.0, 250.0)
        assert relative_error(100.0, 100.0, interval, scale=1e6) == 0.0

    def test_degenerate_gap_matching(self):
        interval = BoundInterval(100.0, 100.0)
        assert relative_error(100.0, 100.0, interval, scale=1e6) == 0.0

    def test_degenerate_gap_mismatch_is_signed_infinite(self):
        interval = BoundInterval(100.0, 100.0)
        high = relative_error(200.0, 100.0, interval, scale=1e6)
        low = relative_error(0.0, 100.0, interval, scale=1e6)
        assert math.isinf(high) and high > 0
        assert math.isinf(low) and low < 0


class TestNearestRank:
    def test_midpoints(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert nearest_rank_percentile(values, 50.0) == 0.2
        assert nearest_rank_percentile(values, 100.0) == 0.4
        assert nearest_rank_percentile(values, 1.0) == 0.1

    def test_rejects_empty_and_bad_alpha(self):
        with pytest.raises(ValueError):
            nearest_rank_percentile([], 50.0)
        with pytest.raises(ValueError):
            nearest_rank_percentile([1.0], 0.0)


class TestTuneD:
    def test_requires_spare_points(self):
        truth = independent_truth(3, 0.2, 1000.0)
        ds = true_dataset(truth, [m for m in enumerate_masks(3) if m.popcount in (1, 3)])
        with pytest.raises(UnavailableError, match=f"^{re.escape(NO_SPARE_POINTS)}$"):
            tune_d(Session(ds))

    def test_independence_data_selects_smallest_d(self):
        # Exact independence fits perfectly already at the grid's d = 1.
        ds, _ = independence_p3_dataset()
        assert tune_d(Session(ds)) == 1.0

    def test_choice_lies_on_grid_and_is_deterministic(self, rng):
        ds, _ = random_consistent_dataset(rng, 4, extra=3)
        first = tune_d(Session(ds))
        assert first in d_grid()
        assert tune_d(Session(ds)) == first


class TestSession:
    @pytest.mark.parametrize("declare_universe", [True, False])
    def test_loo_errors_equal_refitting_each_rest(self, declare_universe):
        # Each held-out fit drops one row of the session's matrix; the
        # reference refits the dataset without that point anew.  The
        # held-out bounds come from the session's solver without a new phase
        # 1, so they match a fresh solver of the rest up to round-off.
        session = Session(noisy_p5_dataset(declare_universe))
        ds = session.dataset
        assert (ds.universe_size is not None) == declare_universe
        universe = ds.universe_size or estimate_universe(ds)
        basics = {m.index for m in basic_masks(5)}
        held_out = [m for m in ds.masks() if m.index not in basics]
        assert [mask for _, mask, _, _ in session.holdouts] == held_out
        assert len(held_out) == 8
        for _, mask, interval, _ in session.holdouts:
            fresh = BoundsSolver(ds.without(mask)).bounds(mask)
            assert interval.upper_capped == fresh.upper_capped
            assert abs(interval.lower - fresh.lower) <= 1e-12 * ds.scale
            assert abs(interval.upper - fresh.upper) <= 1e-12 * ds.scale
        for d, errors in zip(d_grid(), session.loo_table(d_grid())):
            expected = []
            for _, mask, interval, truth in session.holdouts:
                estimate = predict(fit(ds.without(mask), d), mask)
                expected.append(relative_error(estimate, truth, interval, universe))
            assert errors == expected

    def test_one_segment_matrix_per_grid_d(self, monkeypatch):
        ds = noisy_p5_dataset(declare_universe=False)
        matrices = counting(monkeypatch, "build_segment_matrix", [model, pipeline])
        universes = counting(monkeypatch, "estimate_universe", [model, pipeline])
        target = next(m for m in enumerate_masks(5) if ds.reach_of(m) is None)
        est = estimate_subset(ds, target, EstimateOptions(alpha=90.0))
        assert est.d_policy == "cross_validated" and est.interval_alpha is not None
        assert len(matrices) == 10
        assert len(universes) == 1

    def test_model_of_another_bg_count_is_rejected_before_any_bounds(self, monkeypatch):
        _, ds = five_bg_setup()
        session = Session(ds)
        small = ReachDataset.from_pairs(2, [("10", 3.0), ("01", 3.0), ("11", 5.0)])
        other = fit(small, math.inf)

        def no_bounds(targets):
            raise AssertionError("bounds were solved")

        monkeypatch.setattr(session.solver, "bounds_many", no_bounds)
        with pytest.raises(ValueError, match="model has num_bgs=2, dataset has 5"):
            session.estimates(other, [SubsetMask.from_string("11000")])


def independence_prediction(z, y, z_target, universe):
    """U clip(z.y / z.z, 0, 1) z_target: the least-squares fit of y by t z
    with t in [0, 1], which is every fit whose segment columns all equal z."""
    return universe * min(max(z @ y / (z @ z), 0.0), 1.0) * z_target


class TestIndependenceModel:
    """At d = 1 every segment column is the independence row
    z = 1 - prod(1 - r_i), so each fit has a closed form."""

    @pytest.mark.parametrize("num_bgs", range(3, 9))
    @pytest.mark.parametrize("declare_universe", [True, False])
    def test_fits_at_one_are_the_closed_form(self, num_bgs, declare_universe):
        for seed in (1, 2, 3):
            session = Session(noisy_design_dataset(num_bgs, seed, declare_universe))
            ds, universe = session.dataset, session.universe_size
            singles = [SubsetMask.single(i + 1, num_bgs) for i in range(num_bgs)]
            r = [ds.reach_of(single) / universe for single in singles]

            def z(mask):
                bgs = [i for i in range(num_bgs) if mask.bits >> i & 1]
                return 1.0 - math.prod(1.0 - r[i] for i in bgs)

            z_rows = np.array([z(mask) for mask in ds.masks()])
            y = session.reaches / universe
            tol = 1e-12 * universe
            fitted = session.model(1.0)
            for mask in enumerate_masks(num_bgs):
                expected = independence_prediction(z_rows, y, z(mask), universe)
                assert abs(predict(fitted, mask) - expected) <= tol
            rows = [row for row, *_ in session.holdouts]
            matrices = [session.segments(1.0)]
            points = model.fit_leave_one_out(matrices, session.reaches, rows)[0]
            for row, point in zip(rows, points):
                keep = np.arange(ds.n) != row
                expected = independence_prediction(
                    z_rows[keep], y[keep], z_rows[row], universe
                )
                assert abs(point - expected) <= tol


def p2_dataset():
    return ReachDataset.from_pairs(
        2, [("10", 3.0), ("01", 3.0), ("11", 5.0)], universe_size=10.0
    )


D_ENTRY_POINTS = {
    "segment_rows": lambda d: model.segment_rows(
        p2_dataset().masks(), np.array([0.3, 0.3]), d
    ),
    "build_segment_matrix": lambda d: model.build_segment_matrix(p2_dataset(), d),
    "fit": lambda d: model.fit(p2_dataset(), d),
    "CiModel": lambda d: model.CiModel(
        2, d, 10.0, np.array([0.3, 0.3]), np.zeros(4), 0.0
    ),
    "resolve_d": lambda d: pipeline.resolve_d(Session(p2_dataset()), d),
}


class TestOneDRule:
    """``model.check_d`` is the one rule on d: 1 <= d <= inf."""

    @pytest.mark.parametrize("entry", D_ENTRY_POINTS)
    @pytest.mark.parametrize("d", [math.nan, -3.0, 0.5])
    def test_rejected_with_one_message(self, monkeypatch, entry, d):
        fits = counting(monkeypatch, "simplex_lstsq", [model])
        with pytest.raises(ValueError, match=r"^d must be at least 1 \(or inf\), got "):
            D_ENTRY_POINTS[entry](d)
        assert fits == []

    @pytest.mark.parametrize("entry", D_ENTRY_POINTS)
    @pytest.mark.parametrize("d", [1.0, math.inf])
    def test_one_and_inf_accepted(self, entry, d):
        D_ENTRY_POINTS[entry](d)


class TestAlphaInterval:
    def test_hand_substitution(self):
        interval = BoundInterval(0.0, 200.0)
        assert alpha_interval(100.0, interval, 0.2) == BoundInterval(80.0, 120.0)

    def test_estimate_at_lower_edge_clamps(self):
        interval = BoundInterval(50.0, 250.0)
        result = alpha_interval(50.0, interval, 0.4)
        assert result.lower == 50.0
        assert result.upper == pytest.approx(90.0)

    def test_large_quantile_returns_full_interval(self):
        interval = BoundInterval(0.0, 200.0)
        assert alpha_interval(100.0, interval, 2.5) == interval

    def test_estimate_far_outside_gives_nearest_endpoint(self):
        # q/2 * gap = 20, so [estimate -/+ 20] misses [0, 200] on either side.
        interval = BoundInterval(0.0, 200.0)
        assert alpha_interval(300.0, interval, 0.2) == BoundInterval(200.0, 200.0)
        assert alpha_interval(-50.0, interval, 0.2) == BoundInterval(0.0, 0.0)


class TestErrorBar:
    def test_subset_of_100_interval_and_contains_point(self, rng):
        ds, _ = random_consistent_dataset(rng, 4, extra=3, universe=1000.0)
        target = next(m for m in enumerate_masks(4) if ds.reach_of(m) is None)
        est = estimate_subset(ds, target, EstimateOptions(alpha=90.0))
        assert est.interval_alpha is not None
        assert est.interval_alpha.lower >= est.interval_100.lower - 1e-9
        assert est.interval_alpha.upper <= est.interval_100.upper + 1e-9

    def test_unavailable_without_spare_points(self):
        truth = independent_truth(3, 0.2, 1000.0)
        ds = true_dataset(truth, [m for m in enumerate_masks(3) if m.popcount in (1, 3)])
        session = Session(ds)
        target = SubsetMask.from_string("110")
        estimate = session.estimate(session.model(math.inf), target, clamp=False)
        with pytest.raises(UnavailableError, match=f"^{re.escape(NO_SPARE_POINTS)}$"):
            error_bar(session, math.inf, estimate, 90.0)


class TestEstimateSubset:
    def test_alpha_reuses_the_tuning_fits(self, rng, monkeypatch):
        # The leave-one-out fits of the ten grid values are one stacked
        # solve of ten values times k holdouts, then the final model is a
        # stack of one: the error bar reads its errors from the tuning pass.
        ds, _ = random_consistent_dataset(rng, 4, extra=3, universe=1000.0)
        spare = ds.n - (ds.num_bgs + 1)
        calls = counting(monkeypatch, "simplex_lstsq", [model])
        target = next(m for m in enumerate_masks(4) if ds.reach_of(m) is None)
        est = estimate_subset(ds, target, EstimateOptions(alpha=90.0))
        assert est.interval_alpha is not None
        assert [a.shape[:-2] for a, _ in calls] == [(10 * spare,), ()]

    def test_target_is_bounded_once(self, rng, monkeypatch):
        # The point and the error bar share one prediction and one interval.
        ds, _ = random_consistent_dataset(rng, 4, extra=3, universe=1000.0)
        calls = []
        bounds = BoundsSolver.bounds

        def counted(self, target):
            calls.append(target)
            return bounds(self, target)

        monkeypatch.setattr(BoundsSolver, "bounds", counted)
        target = next(m for m in enumerate_masks(4) if ds.reach_of(m) is None)
        est = estimate_subset(ds, target, EstimateOptions(alpha=90.0))
        assert est.interval_alpha is not None
        assert calls == [target]

    def test_given_d_fits_its_holdouts_in_one_solve(self, rng, monkeypatch):
        ds, _ = random_consistent_dataset(rng, 4, extra=3, universe=1000.0)
        spare = ds.n - (ds.num_bgs + 1)
        calls = counting(monkeypatch, "simplex_lstsq", [model])
        target = next(m for m in enumerate_masks(4) if ds.reach_of(m) is None)
        est = estimate_subset(ds, target, EstimateOptions(d=3.0, alpha=90.0))
        assert est.d_policy == "given" and est.interval_alpha is not None
        assert [a.shape[:-2] for a, _ in calls] == [(), (spare,)]

    def test_cross_validation_builds_one_model(self, rng, monkeypatch):
        # The leave-one-out fits give predictions, not models: only the
        # final fit at the chosen d builds a CiModel.
        ds, _ = random_consistent_dataset(rng, 4, extra=3, universe=1000.0)
        built = []
        post_init = model.CiModel.__post_init__

        def counted(self):
            built.append(self.d)
            post_init(self)

        monkeypatch.setattr(model.CiModel, "__post_init__", counted)
        target = next(m for m in enumerate_masks(4) if ds.reach_of(m) is None)
        est = estimate_subset(ds, target, EstimateOptions(alpha=90.0))
        assert est.d_policy == "cross_validated" and est.interval_alpha is not None
        assert built == [est.d]

    @pytest.mark.parametrize("d", [math.nan, -3.0, 0.5])
    def test_given_d_below_one_rejected(self, d):
        ds = ReachDataset.from_pairs(
            3,
            [("100", 3000), ("010", 3000), ("001", 3000), ("111", 7000), ("011", 5000),
             ("110", 5200)],
            universe_size=1e4,
        )
        options = EstimateOptions(d=d, alpha=90.0)
        with pytest.raises(ValueError, match="d must be at least 1"):
            estimate_subset(ds, SubsetMask.from_string("101"), options)

    def test_observed_target_degenerate(self, rng):
        ds, _ = random_consistent_dataset(rng, 3, extra=2, universe=1000.0)
        target = ds.masks()[0]
        est = estimate_subset(ds, target)
        assert est.point == pytest.approx(ds.reach_of(target), abs=1e-5 * 1000.0)
        assert est.interval_100.gap <= 1e-6 * 1000.0

    def test_basics_only_uses_default_inf(self):
        truth = independent_truth(3, 0.2, 1000.0)
        ds = true_dataset(truth, [m for m in enumerate_masks(3) if m.popcount in (1, 3)])
        est = estimate_subset(ds, SubsetMask.from_string("110"))
        assert est.d_policy == "default_inf"
        assert math.isinf(est.d)
        assert est.interval_100.contains(est.point)

    def test_clamp_keeps_point_inside(self, rng):
        for _ in range(5):
            ds, _ = random_consistent_dataset(rng, 4, extra=4, universe=1000.0)
            target = next(m for m in enumerate_masks(4) if ds.reach_of(m) is None)
            est = estimate_subset(ds, target)
            assert est.interval_100.contains(est.point, tol=1e-9)

    def test_noisy_input_gets_repaired(self):
        # The repaired values make the BGs exactly disjoint, so a universe
        # size must be declared for the model half to run.
        ds = ReachDataset.from_pairs(
            2, [("10", 100.0), ("01", 100.0), ("11", 250.0)], universe_size=500.0
        )
        est = estimate_subset(ds, SubsetMask.from_string("10"))
        assert est.repaired
        assert est.point == pytest.approx(350.0 / 3.0, rel=1e-4)

    def test_requires_basics(self):
        ds = ReachDataset.from_pairs(3, [("100", 1.0), ("010", 1.0), ("001", 1.0)])
        with pytest.raises(ValueError, match="basic"):
            estimate_subset(ds, SubsetMask.from_string("110"))

    @pytest.mark.parametrize("num_bgs", [4, 5])
    @pytest.mark.parametrize("kind", ["ci_groups", "dirichlet"])
    @pytest.mark.parametrize("declare", [False, True])
    def test_scaling_reaches_scales_estimates(self, num_bgs, kind, declare):
        # A power of two scales every reach exactly, and the estimate's
        # arithmetic with it: the point, both intervals and the universe
        # scale by exactly 2**k, and d and the repair stay.
        options = EstimateOptions(alpha=90)
        for seed in (31, 32):
            ds = noisy_design_dataset(num_bgs, seed, declare, kind)
            targets = [m for m in enumerate_masks(num_bgs) if ds.reach_of(m) is None]
            for target in targets[::7]:
                before = estimate_subset(ds, target, options)
                for k in (-3, 10):
                    factor = 2.0**k
                    scaled = ReachDataset.from_pairs(
                        num_bgs,
                        [(o.subset, o.reach * factor) for o in ds.observations],
                        universe_size=ds.universe_size * factor if declare else None,
                    )
                    after = estimate_subset(scaled, target, options)
                    assert (after.d, after.repaired) == (before.d, before.repaired)
                    assert after.point == before.point * factor
                    assert after.universe_size == before.universe_size * factor
                    for interval in ("interval_100", "interval_alpha"):
                        ends = getattr(before, interval)
                        assert getattr(after, interval) == BoundInterval(
                            ends.lower * factor, ends.upper * factor, ends.upper_capped
                        )


class TestInputOrder:
    """A dataset is a set: listing its observations in another order changes
    no bit of any result."""

    @pytest.mark.parametrize("num_bgs", [4, 5, 6, 7])
    @pytest.mark.parametrize("declare", [False, True])
    def test_permuted_observations_give_identical_results(self, num_bgs, declare):
        universe = 1e6
        options = EstimateOptions(alpha=90)
        rng = np.random.default_rng((num_bgs, declare))
        for kind in ("ci_groups", "dirichlet"):
            seed = int(rng.integers(2**31))
            truth = generate(GeneratorSpec(kind, num_bgs, universe, seed=seed))
            masks = training_masks(num_bgs)
            extra = [m for m in enumerate_masks(num_bgs) if m not in masks]
            masks += [extra[i] for i in rng.choice(len(extra), size=2, replace=False)]
            clean = [ReachObservation(m, true_reach(truth, m)) for m in masks]
            noisy = [
                ReachObservation(o.subset, min(o.reach, universe))
                for o in add_measurement_noise(clean, seed=seed + 1)
            ]
            given = ReachDataset(num_bgs, universe if declare else None, tuple(noisy))
            target = next(m for m in extra if m not in masks)
            repaired = repair_dataset(given)
            reaches = {o.subset.index: o.reach for o in repaired.observations}
            t_star = check_consistency(given).t_star
            intervals = BoundsSolver(repaired).bounds_many(enumerate_masks(num_bgs))
            estimate = repr(estimate_subset(given, target, options))
            for _ in range(3):
                order = rng.permutation(len(noisy))
                shuffled = tuple(noisy[i] for i in order)
                permuted = ReachDataset(given.num_bgs, given.universe_size, shuffled)
                assert permuted == given
                again = repair_dataset(permuted)
                assert {o.subset.index: o.reach for o in again.observations} == reaches
                assert check_consistency(permuted).t_star == t_star
                rows = tuple(repaired.observations[i] for i in order)
                solver = BoundsSolver(ReachDataset(num_bgs, repaired.universe_size, rows))
                assert solver.bounds_many(enumerate_masks(num_bgs)) == intervals
                assert repr(estimate_subset(permuted, target, options)) == estimate
