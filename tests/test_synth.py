"""Generators, analytic region math, and the noise model."""

import math

import numpy as np
import pytest

from reachvenn.bounds import check_consistency
from reachvenn.core import ReachObservation, SubsetMask, enumerate_masks
from reachvenn.synth import (
    GeneratorSpec,
    add_measurement_noise,
    derive_seed,
    generate,
    independent_truth,
    noise_seed,
    true_dataset,
    true_reach,
)


def ci_spec(seed=7, num_bgs=4, groups=10):
    return GeneratorSpec(
        kind="ci_groups", num_bgs=num_bgs, universe_size=1000.0, seed=seed, num_groups=groups
    )


def dirichlet_spec(alpha, seed=7, num_bgs=4):
    return GeneratorSpec(
        kind="dirichlet", num_bgs=num_bgs, universe_size=1000.0, seed=seed, alpha=alpha
    )


class TestGenerate:
    def test_same_seed_same_allocation(self):
        a = generate(ci_spec(seed=99)).allocation.values
        b = generate(ci_spec(seed=99)).allocation.values
        assert np.array_equal(a, b)
        c = generate(ci_spec(seed=100)).allocation.values
        assert not np.array_equal(a, c)

    def test_allocation_sums_to_universe(self):
        for spec in (ci_spec(), dirichlet_spec(2.0), dirichlet_spec(0.5)):
            total = generate(spec).allocation.total
            assert total == pytest.approx(1000.0, abs=1e-9 * 1000.0)

    def test_dirichlet_concentrates_at_symmetric_point(self):
        spec = GeneratorSpec(
            kind="dirichlet", num_bgs=3, universe_size=1.0, seed=3, alpha=1e6
        )
        values = generate(spec).allocation.values
        assert np.all(np.abs(values - 1.0 / 8.0) < 1e-2)

    def test_dirichlet_small_alpha_has_larger_variance(self):
        spread = {}
        for alpha in (2.0, 0.5):
            draws = np.array(
                [
                    generate(dirichlet_spec(alpha, seed=s)).allocation.values
                    for s in range(40)
                ]
            )
            spread[alpha] = np.var(draws / 1000.0, axis=0).mean()
        assert spread[0.5] > spread[2.0]

    def test_ci_groups_full_data_is_consistent(self):
        for seed in range(5):
            truth = generate(ci_spec(seed=seed))
            ds = true_dataset(truth, enumerate_masks(4))
            assert check_consistency(ds).consistent

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            GeneratorSpec(kind="wat", num_bgs=3, universe_size=1.0, seed=0)
        with pytest.raises(ValueError, match="num_groups"):
            GeneratorSpec(kind="ci_groups", num_bgs=3, universe_size=1.0, seed=0, num_groups=0)
        with pytest.raises(ValueError, match="alpha"):
            GeneratorSpec(kind="dirichlet", num_bgs=3, universe_size=1.0, seed=0, alpha=0.0)
        for num_bgs in (1, 21):
            with pytest.raises(ValueError, match="num_bgs"):
                GeneratorSpec(kind="ci_groups", num_bgs=num_bgs, universe_size=1.0, seed=0)

    @pytest.mark.parametrize(
        "field", ["universe_size", "alpha", "reach_beta_a", "reach_beta_b"]
    )
    def test_non_finite_or_non_positive_parameters_rejected(self, field):
        for kind in ("ci_groups", "dirichlet"):
            for value in (math.nan, math.inf, 0.0, -1.0):
                spec = {"kind": kind, "num_bgs": 3, "universe_size": 1.0, "seed": 0}
                with pytest.raises(ValueError, match=field):
                    GeneratorSpec(**{**spec, field: value})


class TestIndependentTruth:
    def test_single_group_closed_form(self):
        # One group at fixed reach 0.2, P=5: the union covers 1 - 0.8^5.
        truth = independent_truth(5, 0.2, 500000.0)
        union = true_reach(truth, SubsetMask.full(5))
        assert union == pytest.approx(0.67232 * 500000.0, abs=1e-6)
        assert union == pytest.approx(336160.0, abs=1e-6)

    def test_textbook_union_ladder(self):
        truth = independent_truth(5, 0.2, 500000.0)
        expected = {1: 100000.0, 2: 180000.0, 3: 244000.0, 4: 295200.0}
        for mask in enumerate_masks(5):
            if mask.popcount in expected:
                assert true_reach(truth, mask) == pytest.approx(
                    expected[mask.popcount], abs=1e-6
                )

    def test_full_union_complements_unreached_region(self):
        truth = generate(dirichlet_spec(2.0))
        union = true_reach(truth, SubsetMask.full(4))
        assert union == pytest.approx(1000.0 - truth.allocation.values[0], abs=1e-9)


class TestMeasurementNoise:
    def test_zero_reach_stays_zero(self):
        obs = [ReachObservation(SubsetMask.from_string("10"), 0.0)]
        assert add_measurement_noise(obs, 5)[0].reach == 0.0

    def test_same_seed_identical(self):
        obs = [
            ReachObservation(m, 100.0 * (i + 1))
            for i, m in enumerate(enumerate_masks(3))
        ]
        first = [o.reach for o in add_measurement_noise(obs, 11)]
        second = [o.reach for o in add_measurement_noise(obs, 11)]
        assert first == second

    def test_quantile_calibration(self):
        reach = 1e5
        obs = [ReachObservation(SubsetMask.from_string("10"), reach)] * 10000
        noisy = add_measurement_noise(obs, 123)
        rel = np.abs(np.array([o.reach for o in noisy]) - reach) / reach
        q90 = np.quantile(rel, 0.9)
        assert 0.09 <= q90 <= 0.11

    def test_values_clamped_at_zero(self):
        obs = [ReachObservation(SubsetMask.from_string("10"), 1.0)] * 2000
        noisy = add_measurement_noise(obs, 77)
        assert min(o.reach for o in noisy) >= 0.0


class TestSeedDerivation:
    def test_replicate_streams_differ(self):
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0) == 42

    def test_noise_stream_never_matches_generation(self):
        for seed in (0, 42, 2**63):
            assert noise_seed(seed) != seed
