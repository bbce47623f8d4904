"""Adaptive selection, d tuning, error bars, and the combined estimator."""

import math
import re

import numpy as np
import pytest

from reachvenn import model, pipeline
from reachvenn.bounds import BoundsSolver
from reachvenn.core import (
    BoundInterval,
    ReachDataset,
    SubsetMask,
    UnavailableError,
    enumerate_masks,
)
from reachvenn.model import fit, predict
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
    relative_errors,
    select_next_point,
    tune_d,
)
from reachvenn.synth import independent_truth, true_dataset, true_reach

from conftest import (
    nearly_disjoint_dataset,
    noisy_design_dataset,
    noisy_p5_dataset,
    random_consistent_dataset,
)


def five_bg_setup():
    """The textbook setup: P=5 independent BGs at r=0.2, U=500000."""
    truth = independent_truth(5, 0.2, 500000.0)
    masks = [m for m in enumerate_masks(5) if m.popcount in (1, 5)]
    return truth, true_dataset(truth, masks)


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


def gap_errors(predictions, truths, gaps, scale=1e6):
    """``relative_errors`` of nested lists, as nested lists."""
    arrays = [np.array(values, dtype=float) for values in (predictions, truths, gaps)]
    return relative_errors(*arrays, scale).tolist()


class TestRelativeError:
    def test_plain_substitution(self):
        assert gap_errors([150.0, 50.0], [100.0, 100.0], [200.0, 200.0]) == [0.25, 0.25]

    def test_exact_estimate(self):
        assert gap_errors([100.0], [100.0], [200.0]) == [0.0]

    def test_degenerate_gap_matching(self):
        assert gap_errors([100.0], [100.0], [0.0]) == [0.0]

    def test_degenerate_gap_mismatch_is_infinite(self):
        assert gap_errors([200.0, 0.0], [100.0, 100.0], [0.0, 0.0]) == [math.inf, math.inf]

    def test_tiny_gap_beside_a_huge_scale_still_divides(self):
        # Only a gap the bounds solver collapsed to 0 is degenerate: a real
        # gap of 0.007 far below 1e-9 of the scale still normalizes the miss.
        miss = abs(2000.001 - 2000.0)
        assert gap_errors([2000.001], [2000.0], [0.007], scale=3e8) == [miss / 0.007]

    def test_one_row_per_prediction_row(self):
        errors = gap_errors([[150.0, 100.0], [50.0, 300.0]], [100.0, 100.0], [200.0, 0.0])
        assert errors == [[0.25, 0.0], [0.25, math.inf]]


class TestNearestRank:
    def test_midpoints(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert nearest_rank_percentile(values, 50.0) == 0.2
        assert nearest_rank_percentile(values, 100.0) == 0.4
        assert nearest_rank_percentile(values, 1.0) == 0.1

    def test_reads_arrays(self):
        assert nearest_rank_percentile(np.array([0.0]), 50.0) == 0.0
        assert nearest_rank_percentile(np.array([0.4, 0.1, 0.3, 0.2]), 50.0) == 0.2

    def test_rejects_empty(self):
        for values in ([], np.array([])):
            with pytest.raises(ValueError, match="^no values$"):
                nearest_rank_percentile(values, 50.0)


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

    def test_tiny_real_gaps_do_not_tie_every_d(self):
        assert tune_d(Session(nearly_disjoint_dataset())) != 1.0

    def test_choice_lies_on_grid_and_is_deterministic(self, rng):
        ds, _ = random_consistent_dataset(rng, 4, extra=3)
        first = tune_d(Session(ds))
        assert first in d_grid()
        assert tune_d(Session(ds)) == first


class TestSession:
    def test_loo_errors_of_uncollapsed_tiny_gaps_are_real(self):
        # The held-out gaps are about 2e-11 of the estimated universe, yet the
        # bounds solver did not collapse them, so they normalize the misses.
        table = Session(nearly_disjoint_dataset()).loo_table(d_grid())
        assert table.shape == (10, 2)
        assert np.isfinite(table).all() and (table > 0).any()

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
            ds = noisy_design_dataset(
                num_bgs, seed, declare_universe, kind="dirichlet", alpha=0.5, noise_seed=seed + 100
            )
            session = Session(ds)
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
