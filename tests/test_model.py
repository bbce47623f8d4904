"""Universe estimation, segment matrices, fitting, prediction, and d search."""

import math
from fractions import Fraction

import numpy as np
import pytest

from reachvenn import io
from reachvenn.core import (
    InconsistencyError,
    ReachDataset,
    SubsetMask,
    UnavailableError,
    enumerate_masks,
    incidence_vector,
)
from reachvenn.model import (
    CiModel,
    build_segment_matrix,
    estimate_universe,
    fit,
    fit_leave_one_out,
    min_perfect_fit_d,
    predict,
    segment_row,
    segment_rows,
)
from reachvenn.synth import independent_truth, true_dataset

from conftest import five_bg_basics, random_consistent_dataset


def overlap_pair_dataset(universe=1.0):
    """Two BGs covering the same users: as far from independence as it gets."""
    return ReachDataset.from_pairs(
        2, [("10", 0.2), ("01", 0.2), ("11", 0.2)], universe_size=universe
    )


def basics_dataset(singles, union):
    """The single-BG reaches ``singles`` and the union reach ``union``."""
    num_bgs = len(singles)
    pairs = [(SubsetMask.single(i + 1, num_bgs), s) for i, s in enumerate(singles)]
    return ReachDataset.from_pairs(num_bgs, pairs + [(SubsetMask.full(num_bgs), union)])


def exact_universe(singles, union) -> float:
    """Oracle for ``estimate_universe``: the root of
    prod_i (1 - a_i y) - (1 - y), with a_i = single_i / union and y = union / U,
    bisected in exact rationals to 1e-14 relative width."""
    union = Fraction(union)
    shares = [Fraction(s) / union for s in singles]

    def gap(y: Fraction) -> Fraction:
        product = Fraction(1)
        for a in shares:
            product *= 1 - a * y
        return product - (1 - y)

    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > hi / 10**14:
        mid = (lo + hi) / 2
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return float(union * 2 / (lo + hi))


class TestEstimateUniverse:
    def test_five_bg_closed_form(self):
        # (1 - 336160/U) == (1 - 100000/U)^5 holds exactly at U = 500000.
        assert estimate_universe(five_bg_basics()) == pytest.approx(500000.0, rel=1e-6)

    def test_two_bg_quadratic(self):
        # 1 - 175/U == (1 - 100/U)^2  =>  25 U == 10000  =>  U == 400.
        ds = ReachDataset.from_pairs(2, [("10", 100.0), ("01", 100.0), ("11", 175.0)])
        assert estimate_universe(ds) == pytest.approx(400.0, rel=1e-9)

    def test_disjoint_bgs_have_no_finite_universe(self):
        # All-zero basics are the limit case: no reach, so no overlap either.
        for reaches in ((100.0, 100.0, 200.0), (0.0, 0.0, 0.0)):
            ds = ReachDataset.from_pairs(2, zip(("10", "01", "11"), reaches))
            with pytest.raises(UnavailableError, match="do not overlap"):
                estimate_universe(ds)

    def test_universe_past_the_float_range_is_unavailable(self):
        # (1 - s/U)^2 == 1 - 1.5 s/U gives U == 2 s: 2e308 overflows, 2e300 does not.
        big = ReachDataset.from_pairs(2, [("10", 1e308), ("01", 1e308), ("11", 1.5e308)])
        with pytest.raises(UnavailableError, match="exceeds the float range"):
            estimate_universe(big)
        near = ReachDataset.from_pairs(2, [("10", 1e300), ("01", 1e300), ("11", 1.5e300)])
        assert estimate_universe(near) == pytest.approx(2e300, rel=1e-9)
        # (1 - 0.9 s/U)^2 == 1 - s/U gives U == 1.0125 s: finite, though twice
        # the union is not.
        edge = ReachDataset.from_pairs(2, [("10", 0.9e308), ("01", 0.9e308), ("11", 1e308)])
        assert estimate_universe(edge) == pytest.approx(1.0125e308, rel=1e-9)

    def test_root_at_the_union_is_unavailable(self):
        # 1 - 10/U == (1 - 10/U)(1 - 5/U) holds only at U == 10, the union itself.
        ds = ReachDataset.from_pairs(2, [("10", 10.0), ("01", 5.0), ("11", 10.0)])
        with pytest.raises(UnavailableError, match="no finite independent universe"):
            estimate_universe(ds)

    # Near-independent BGs: the overlap is a tiny share of the union.
    @pytest.mark.parametrize(
        "singles, union",
        [
            ([1e6, 1e6], 1_999_999.0),
            ([1e6, 1e6], 1_999_999.99),
            ([1e6] * 5, 4_999_990.0),
            ([1.0, 1.0], 2.0 - 2.0**-52),
        ],
    )
    def test_matches_the_exact_root_near_independence(self, singles, union):
        ds = basics_dataset(singles, union)
        assert estimate_universe(ds) == pytest.approx(
            exact_universe(singles, union), rel=1e-9
        )

    @pytest.mark.parametrize("num_bgs", range(2, 13))
    def test_matches_the_exact_root_on_random_basics(self, num_bgs):
        rng = np.random.default_rng(20240817 + num_bgs)
        for _ in range(3):
            universe = 10.0 ** rng.uniform(2, 12)
            proportions = 10.0 ** rng.uniform(-5, -0.3, size=num_bgs)
            singles = [float(r * universe) for r in proportions]
            union = float((1.0 - np.prod(1.0 - proportions)) * universe)
            ds = basics_dataset(singles, union)
            assert estimate_universe(ds) == pytest.approx(
                exact_universe(singles, union), rel=1e-9
            )

    def test_single_above_union_is_inconsistent(self):
        ds = ReachDataset.from_pairs(2, [("10", 300.0), ("01", 100.0), ("11", 200.0)])
        with pytest.raises(InconsistencyError, match="inconsistent basics"):
            estimate_universe(ds)

    def test_requires_basics(self):
        ds = ReachDataset.from_pairs(2, [("10", 100.0), ("01", 100.0)])
        with pytest.raises(ValueError, match="single-BG"):
            estimate_universe(ds)


class TestSegmentMatrix:
    def test_infinite_d_p2_matrix(self):
        ds = ReachDataset.from_pairs(
            2, [("10", 0.2), ("01", 0.2), ("11", 0.36)], universe_size=1.0
        )
        matrix = build_segment_matrix(ds, math.inf)
        expected = np.array([[0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1]], dtype=float)
        assert np.array_equal(matrix.entries, expected)

    def test_finite_d_hand_values(self):
        # r1 = r2 = 0.5, d = 2: low = 0.25, high = 0.75.
        ds = ReachDataset.from_pairs(
            2, [("10", 0.5), ("01", 0.5), ("11", 0.75)], universe_size=1.0
        )
        matrix = build_segment_matrix(ds, 2.0)
        assert matrix.entries[0].tolist() == [0.25, 0.75, 0.25, 0.75]
        union_row = matrix.entries[2]
        assert union_row[3] == pytest.approx(1.0 - 0.25**2)  # 0.9375
        assert union_row[0] == pytest.approx(1.0 - 0.75**2)

    def test_entries_are_probabilities(self, rng):
        ds, _ = random_consistent_dataset(rng, 4, extra=3)
        for d in (1.5, 2.0, 5.0, math.inf):
            entries = build_segment_matrix(ds, d).entries
            assert np.all(entries >= 0.0) and np.all(entries <= 1.0)

    def test_single_bg_rows_have_two_values(self, rng):
        ds, _ = random_consistent_dataset(rng, 3, extra=0)
        matrix = build_segment_matrix(ds, 3.0)
        for row, mask in zip(matrix.entries, matrix.rows):
            if mask.popcount == 1:
                assert len(set(np.round(row, 12))) == 2

    def test_requires_basics(self):
        ds = ReachDataset.from_pairs(2, [("10", 0.2), ("11", 0.36)], universe_size=1.0)
        with pytest.raises(ValueError, match="^dataset lacks a basic point"):
            build_segment_matrix(ds, 2.0)

    def test_infinite_d_rows_equal_incidence(self, rng):
        for num_bgs in range(2, 7):
            proportions = rng.uniform(0.05, 0.9, size=num_bgs)
            for mask in enumerate_masks(num_bgs):
                row = segment_row(mask, proportions, math.inf)
                assert np.array_equal(row, incidence_vector(mask))


def looped_segment_row(subset, proportions, d):
    """The per-subset loop ``segment_rows`` replaced: the bitwise reference."""
    if math.isinf(d):
        low, high = np.zeros_like(proportions), np.ones_like(proportions)
    else:
        low, high = proportions / d, 1.0 - (1.0 - proportions) / d
    segments = np.arange(1 << subset.num_bgs)
    survive = np.ones(1 << subset.num_bgs)
    for i in range(subset.num_bgs):
        if subset.bits >> i & 1:
            survive = survive * (1.0 - np.where(segments >> i & 1, high[i], low[i]))
    return 1.0 - survive


class TestSegmentRows:
    @pytest.mark.parametrize("num_bgs", [3, 6, 8, 11])
    def test_rows_equal_the_per_subset_loop_bitwise(self, rng, num_bgs):
        masks = enumerate_masks(num_bgs)
        if len(masks) > 64:
            masks = [masks[i] for i in sorted(rng.choice(len(masks), 64, replace=False))]
        proportions = rng.uniform(0.01, 0.95, size=num_bgs)
        for d in (1.0, 1.0 + 1e-9, 1.3, 2.0, 5.0, 1e6, math.inf):
            rows = segment_rows(masks, proportions, d)
            assert rows.shape == (len(masks), 1 << num_bgs)
            for mask, row in zip(masks, rows):
                expected = looped_segment_row(mask, proportions, d)
                assert np.array_equal(row, expected)
                assert np.array_equal(segment_row(mask, proportions, d), expected)

    def test_rejects_empty_and_mismatched_subsets(self):
        proportions = np.array([0.2, 0.3])
        with pytest.raises(ValueError, match="empty"):
            segment_rows([SubsetMask(1, 2), SubsetMask(0, 2)], proportions, 2.0)
        with pytest.raises(ValueError, match="2 BGs"):
            segment_rows([SubsetMask(1, 3)], proportions, 2.0)


class TestFit:
    def test_independent_p2_zero_residual_at_inf(self):
        ds = ReachDataset.from_pairs(
            2, [("10", 0.2), ("01", 0.2), ("11", 0.36)], universe_size=1.0
        )
        model = fit(ds, math.inf)
        assert model.training_residual <= 1e-10
        # The region proportions themselves are a feasible weight vector.
        assert model.weights.sum() <= 1.0 + 1e-9

    def test_consistent_data_fits_at_inf(self, rng):
        for _ in range(10):
            ds, _ = random_consistent_dataset(rng, int(rng.integers(2, 6)), extra=2)
            assert fit(ds, math.inf).training_residual <= 1e-10

    def test_strong_correlation_defeats_near_independence(self):
        model = fit(overlap_pair_dataset(), 1.0 + 1e-6)
        assert model.training_residual > 1e-6

    def test_residual_nonincreasing_in_d(self, rng):
        ds, _ = random_consistent_dataset(rng, 3, extra=2)
        grid = [1.0, 13 / 9, 17 / 9, 3.0, 5.0, 50.0, math.inf]
        residuals = [fit(ds, d).training_residual for d in grid]
        for larger_d_resid, smaller_d_resid in zip(residuals[1:], residuals):
            assert larger_d_resid <= smaller_d_resid + 1e-9

    def test_estimated_universe_used_when_missing(self):
        pairs = [(m, 100000.0) for m in ["10000", "01000", "00100", "00010", "00001"]]
        pairs.append(("11111", 336160.0))
        ds = ReachDataset.from_pairs(5, pairs)
        model = fit(ds, math.inf)
        assert model.universe_size == pytest.approx(500000.0, rel=1e-6)

    def test_objective_matches_projected_gradient_oracle(self, rng):
        import numpy as np

        from conftest import pgd_simplex_lstsq

        for d in (1.3, 2.0, math.inf):
            ds, _ = random_consistent_dataset(rng, 3, extra=2)
            model = fit(ds, d)
            matrix = build_segment_matrix(ds, d).entries
            padded = np.hstack([matrix, np.zeros((matrix.shape[0], 1))])
            target = np.array([o.reach for o in ds.sorted_observations()])
            _, oracle_resid = pgd_simplex_lstsq(padded, target)
            assert model.training_residual <= oracle_resid + 1e-8


class TestPredict:
    def test_training_subsets_reproduced_at_inf(self, rng):
        ds, _ = random_consistent_dataset(rng, 4, extra=3, universe=1000.0)
        model = fit(ds, math.inf)
        for obs in ds.observations:
            assert predict(model, obs.subset) == pytest.approx(
                obs.reach, abs=1e-6 * 1000.0
            )

    def test_zero_weights_predict_zero(self):
        model = CiModel(
            num_bgs=2,
            d=math.inf,
            universe_size=100.0,
            single_bg_proportions=np.array([0.2, 0.2]),
            weights=np.zeros(4),
            training_residual=0.0,
        )
        for mask in enumerate_masks(2):
            assert predict(model, mask) == 0.0

    def test_independent_p3_pairwise_prediction(self):
        # Independent BGs at r = 0.2: every 2-subset truly reaches 0.36 U.
        u = 1000.0
        alloc_pairs = [
            (mask, (1.0 - 0.8**mask.popcount) * u) for mask in enumerate_masks(3)
        ]
        # With every subset observed the zero-residual weights are forced to
        # the region proportions, so predictions are exact.
        full = ReachDataset.from_pairs(3, alloc_pairs, universe_size=u)
        model = fit(full, math.inf)
        assert model.training_residual <= 1e-10
        for mask in [m for m in enumerate_masks(3) if m.popcount == 2]:
            assert predict(model, mask) == pytest.approx(0.36 * u, abs=1e-6 * u)
        # With only the basics the fit is underdetermined: any zero-residual
        # weights are acceptable, and predictions must stay inside the
        # model-free bounds (here [0.288, 0.4] * U).
        basics = ReachDataset.from_pairs(
            3, [(m, r) for m, r in alloc_pairs if m.popcount in (1, 3)], universe_size=u
        )
        model_b = fit(basics, math.inf)
        assert model_b.training_residual <= 1e-10
        for mask in [m for m in enumerate_masks(3) if m.popcount == 2]:
            assert 0.288 * u - 1e-6 <= predict(model_b, mask) <= 0.4 * u + 1e-6

    def test_monotone_in_target_at_inf(self, rng):
        ds, _ = random_consistent_dataset(rng, 4, extra=4)
        model = fit(ds, math.inf)
        for _ in range(30):
            small = int(rng.integers(1, 16))
            large = small | int(rng.integers(1, 16))
            p_small = predict(model, SubsetMask(small, 4))
            p_large = predict(model, SubsetMask(large, 4))
            assert p_small <= p_large + 1e-9

    def test_clamped_to_universe(self):
        model = CiModel(
            num_bgs=2,
            d=2.0,
            universe_size=100.0,
            single_bg_proportions=np.array([0.9, 0.9]),
            weights=np.ones(4) / 4.0,
            training_residual=0.5,
        )
        assert predict(model, SubsetMask.from_string("11")) <= 100.0


class TestFitLeaveOneOut:
    def test_predictions_equal_refitting_each_rest(self, rng):
        ds, _ = random_consistent_dataset(rng, 4, extra=4, universe=1000.0)
        reaches = np.array([o.reach for o in ds.sorted_observations()])
        matrices = [build_segment_matrix(ds, d) for d in (1.5, 3.0, math.inf)]
        rows = [i for i, m in enumerate(ds.masks()) if m.popcount not in (1, 4)]
        got = fit_leave_one_out(matrices, reaches, rows)
        assert got.shape == (len(matrices), len(rows))
        for matrix, points in zip(matrices, got):
            for row, point in zip(rows, points):
                mask = matrix.rows[row]
                assert point == predict(fit(ds.without(mask), matrix.d), mask)


class TestMinPerfectFitD:
    def test_independent_dataset_returns_floor(self):
        # d = 1 is the independence model, which fits these data exactly.
        pair = ReachDataset.from_pairs(
            2, [("10", 0.2), ("01", 0.2), ("11", 0.36)], universe_size=1.0
        )
        triple = true_dataset(independent_truth(3, 0.2, 1000.0), enumerate_masks(3))
        for ds in (pair, triple):
            assert min_perfect_fit_d(ds) == 1.0

    def test_overlap_dataset_needs_finite_d_above_one(self):
        ds = overlap_pair_dataset()
        d_star = min_perfect_fit_d(ds)
        assert math.isfinite(d_star)
        assert d_star > 1.01
        assert fit(ds, d_star).training_residual <= 1e-9
        assert fit(ds, d_star * (1.0 - 1e-2)).training_residual > 1e-9

    def test_residual_stays_zero_above_threshold(self):
        ds = overlap_pair_dataset()
        d_star = min_perfect_fit_d(ds)
        for factor in (1.1, 2.0, 10.0):
            assert fit(ds, d_star * factor).training_residual <= 1e-9

    def test_inconsistent_dataset_rejected(self):
        ds = ReachDataset.from_pairs(2, [("10", 100.0), ("01", 100.0), ("11", 300.0)])
        with pytest.raises(InconsistencyError):
            min_perfect_fit_d(ds)


class TestModelSerialization:
    def test_json_round_trip(self, rng, tmp_path):
        ds, _ = random_consistent_dataset(rng, 3, extra=2, universe=500.0)
        for d in (math.inf, 2.5):
            model = fit(ds, d)
            path, again = tmp_path / "model.json", tmp_path / "again.json"
            io.save_model(model, path)
            clone = io.load_model(path)
            assert clone.d == d
            assert clone.num_bgs == model.num_bgs
            assert clone.universe_size == model.universe_size
            assert clone.training_residual == model.training_residual
            assert np.array_equal(clone.weights, model.weights)
            assert np.array_equal(
                clone.single_bg_proportions, model.single_bg_proportions
            )
            io.save_model(clone, again)
            assert again.read_bytes() == path.read_bytes()
