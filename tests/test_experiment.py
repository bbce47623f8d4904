"""Experiment harness: design counts, determinism, stream independence."""

import concurrent.futures

import numpy as np
import pytest

from reachvenn import experiment as harness
from reachvenn import io
from reachvenn.synth import GeneratorSpec


def spec_p4(kind="ci_groups", alpha=2.0):
    return GeneratorSpec(
        kind=kind, num_bgs=4, universe_size=1_000_000.0, seed=0, alpha=alpha
    )


class TestDesign:
    def test_training_mask_count(self):
        for p in (4, 5, 6):
            masks = harness.training_masks(p)
            assert len(masks) == 2 * p + 1
            assert {m.popcount for m in masks} == {1, p - 1, p}

    def test_testing_mask_count(self):
        for p in (4, 5, 6):
            assert len(harness.testing_masks(p)) == 2**p - 2 * p - 2

    def test_p_below_4_rejected(self):
        bad = GeneratorSpec(kind="dirichlet", num_bgs=3, universe_size=1.0, seed=0)
        with pytest.raises(ValueError, match="P >= 4"):
            harness.run_experiment(bad, replicates=1, seed=0)


class TestRunExperiment:
    def test_error_count_invariant(self):
        report = harness.run_experiment(spec_p4(), replicates=3, seed=9)
        assert report.error_count == 3 * (2**4 - 2 * 4 - 2)
        assert all(len(row) == 6 for row in report.errors)

    def test_single_replicate_matches_first_of_many(self):
        single = harness.run_experiment(spec_p4(), replicates=1, seed=5)
        triple = harness.run_experiment(spec_p4(), replicates=3, seed=5)
        assert single.errors[0] == triple.errors[0]

    def test_deterministic_given_seed(self):
        a = harness.run_experiment(spec_p4("dirichlet", 0.5), replicates=2, seed=3)
        b = harness.run_experiment(spec_p4("dirichlet", 0.5), replicates=2, seed=3)
        assert a.errors == b.errors
        assert a.q90 == b.q90

    def test_parallel_equals_sequential(self):
        seq = harness.run_experiment(spec_p4(), replicates=4, seed=1, max_workers=1)
        par = harness.run_experiment(spec_p4(), replicates=4, seed=1, max_workers=2)
        assert seq.errors == par.errors

    def test_pool_has_at_most_one_process_per_replicate(self, monkeypatch):
        # A stand-in pool that records its size and maps in this process, so
        # that no process starts.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        seq = harness.run_experiment(spec_p4(), replicates=2, seed=4)
        assert sizes == []
        wide = harness.run_experiment(spec_p4(), replicates=2, seed=4, max_workers=10**6)
        assert sizes == [2]
        assert wide.errors == seq.errors
        harness.run_experiment(spec_p4(), replicates=1, seed=4, max_workers=8)
        assert sizes == [2]  # one replicate runs in this process

    def test_q90_is_nearest_rank_of_absolute_errors(self):
        report = harness.run_experiment(spec_p4(), replicates=2, seed=13)
        pooled = sorted(abs(e) for row in report.errors for e in row)
        rank = int(np.ceil(0.9 * len(pooled)))
        assert report.q90 == pooled[rank - 1]

    def test_report_round_trips_to_json_dict(self):
        report = harness.run_experiment(spec_p4(), replicates=1, seed=2)
        payload = io.report_to_dict(report)
        assert payload["error_count"] == 6
        assert payload["generator"]["kind"] == "ci_groups"
        assert payload["q90"] == report.q90


class TestReplicateQuality:
    def test_errors_are_mostly_moderate(self):
        # Noise is ~6% per training point; estimates should usually stay
        # within a few tens of percent of the truth.
        errs = harness.run_replicate(spec_p4(), 0, 21)
        assert np.median(np.abs(errs)) < 0.5
