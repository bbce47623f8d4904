"""Mask encodings, incidence vectors, datasets, and the grid oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachvenn.core import (
    BoundInterval,
    ReachDataset,
    ReachObservation,
    RegionAllocation,
    SubsetMask,
    basic_masks,
    dataset_from_allocation,
    enumerate_masks,
    incidence_vector,
    subset_reach_from_allocation,
)

from conftest import triangle_dataset
from grid_oracle import oracle_bounds_by_grid


class TestSubsetMask:
    def test_string_round_trip_and_index(self):
        mask = SubsetMask.from_string("110")
        assert mask.bits == 0b011  # BG1 -> bit 0, BG2 -> bit 1
        assert mask.index == 3
        assert mask.to_string() == "110"

    def test_single_bg_weights(self):
        # Flag i contributes 2**(i-1) to the canonical index.
        assert SubsetMask.from_string("100").index == 1
        assert SubsetMask.from_string("010").index == 2
        assert SubsetMask.from_string("001").index == 4

    def test_zero_mask_is_constructible_but_empty(self):
        mask = SubsetMask.from_string("000")
        assert mask.is_empty

    def test_bad_strings(self):
        with pytest.raises(ValueError):
            SubsetMask.from_string("10a")
        with pytest.raises(ValueError):
            SubsetMask.from_string("")

    @pytest.mark.parametrize(
        "text, num_bgs, message",
        [
            ("100", 2, r"subset '100' does not have 2 characters \(num_bgs=2\)"),
            ("1", 2, "does not have 2 characters"),
            ("1a", 2, "non-empty over"),
        ],
    )
    def test_parse_rejects(self, text, num_bgs, message):
        with pytest.raises(ValueError, match=message):
            SubsetMask.parse(text, num_bgs)

    def test_bounds_on_p(self):
        with pytest.raises(ValueError):
            SubsetMask(bits=0, num_bgs=1)
        with pytest.raises(ValueError):
            SubsetMask(bits=0, num_bgs=21)

    def test_subset_relation(self):
        # Every region a subset reaches is reached by its supersets.
        a = SubsetMask.from_string("100")
        b = SubsetMask.from_string("110")
        assert np.all(incidence_vector(a) <= incidence_vector(b))
        assert not np.all(incidence_vector(b) <= incidence_vector(a))


class TestEnumerateMasks:
    def test_all_p2(self):
        assert len(enumerate_masks(2)) == 3

    def test_basic_masks(self):
        masks = basic_masks(3)
        assert [m.index for m in masks] == [1, 2, 4, 7]


class TestIncidenceVector:
    def test_p2_single_bg_row(self):
        vec = incidence_vector(SubsetMask.from_string("10"))
        assert vec.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_p2_union_row(self):
        vec = incidence_vector(SubsetMask.from_string("11"))
        assert vec.tolist() == [0.0, 1.0, 1.0, 1.0]

    def test_p3_full_union(self):
        vec = incidence_vector(SubsetMask.full(3))
        assert vec[0] == 0.0
        assert np.all(vec[1:] == 1.0)

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_or_composition(self, num_bgs, data):
        a = data.draw(st.integers(1, (1 << num_bgs) - 1))
        b = data.draw(st.integers(1, (1 << num_bgs) - 1))
        ma, mb = SubsetMask(a, num_bgs), SubsetMask(b, num_bgs)
        combined = incidence_vector(SubsetMask(a | b, num_bgs))
        either = np.maximum(incidence_vector(ma), incidence_vector(mb))
        assert np.array_equal(combined, either)


class TestAllocationReach:
    def test_partial_sum(self):
        alloc = RegionAllocation.from_values(2, [0.0, 2000.0, 0.0, 1000.0])
        assert subset_reach_from_allocation(SubsetMask.from_string("10"), alloc) == 3000.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_entry_rejected(self, bad):
        values = np.ones(4)
        values[2] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            RegionAllocation(2, values)
        with pytest.raises(ValueError, match="allocation"):
            RegionAllocation.from_values(2, values)

    def test_zero_allocation(self):
        alloc = RegionAllocation(2, np.zeros(4))
        for mask in enumerate_masks(2):
            assert subset_reach_from_allocation(mask, alloc) == 0.0

    def test_hand_sum_p3(self):
        # By canonical index: 100 (1), 010 (2), 110 (3), 001 (4) and 011 (6).
        alloc = RegionAllocation.from_values(3, [0, 2000, 1000, 1000, 2000, 0, 1000, 0])
        reach = subset_reach_from_allocation(SubsetMask.from_string("101"), alloc)
        assert reach == 6000.0

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_subadditive(self, num_bgs, data):
        values = data.draw(
            st.lists(
                st.floats(0, 1e6, allow_nan=False),
                min_size=1 << num_bgs,
                max_size=1 << num_bgs,
            )
        )
        alloc = RegionAllocation(num_bgs, np.array(values))
        i = data.draw(st.integers(1, (1 << num_bgs) - 1))
        j = data.draw(st.integers(1, (1 << num_bgs) - 1))
        s1, s2 = SubsetMask(i, num_bgs), SubsetMask(j, num_bgs)
        r1 = subset_reach_from_allocation(s1, alloc)
        r2 = subset_reach_from_allocation(s2, alloc)
        ru = subset_reach_from_allocation(SubsetMask(i | j, num_bgs), alloc)
        assert ru >= max(r1, r2) - 1e-6
        assert ru <= r1 + r2 + 1e-6


class TestDataset:
    def test_duplicate_masks_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ReachDataset.from_pairs(2, [("10", 1.0), ("10", 2.0)])

    def test_reach_above_universe_rejected(self):
        with pytest.raises(ValueError, match="universe"):
            ReachDataset.from_pairs(2, [("10", 200.0)], universe_size=100.0)

    def test_has_basic_points(self):
        ds = ReachDataset.from_pairs(3, [("100", 1), ("010", 1), ("001", 1), ("111", 2)])
        ds.check_basic_points()
        with pytest.raises(ValueError, match="^dataset lacks a basic point"):
            ds.without(SubsetMask.from_string("111")).check_basic_points()

    def test_sorted_observations(self):
        ds = ReachDataset.from_pairs(2, [("11", 3), ("10", 1), ("01", 2)])
        assert [o.subset.index for o in ds.sorted_observations()] == [1, 2, 3]

    def test_observations_kept_in_canonical_order(self):
        ds = ReachDataset.from_pairs(2, [("11", 3), ("10", 1), ("01", 2)])
        assert [o.subset.index for o in ds.observations] == [1, 2, 3]
        same = ReachDataset.from_pairs(2, [("01", 2), ("11", 3), ("10", 1)])
        assert same == ds and hash(same) == hash(ds)
        grown = ReachDataset.from_pairs(2, [("11", 3), ("01", 2)]).with_observation(
            SubsetMask.from_string("10"), 1
        )
        assert grown == ds
        assert ds.reach_of(SubsetMask.from_string("01")) == 2.0
        assert ds.reach_of(SubsetMask.from_string("11")) == 3.0
        assert ds.without(SubsetMask.from_string("11")).reach_of(SubsetMask.full(2)) is None

    def test_without_an_absent_mask_rejected(self):
        ds = ReachDataset.from_pairs(2, [("10", 1.0), ("11", 2.0)])
        with pytest.raises(ValueError, match="^mask 01 not present$"):
            ds.without(SubsetMask.from_string("01"))

    def test_scale(self):
        ds = ReachDataset.from_pairs(2, [("10", 50)], universe_size=100.0)
        assert ds.scale == 100.0
        assert ReachDataset.from_pairs(2, [("10", 50)]).scale == 50.0


class TestGridOracle:
    def test_triangle_example_target_interval(self):
        ds = triangle_dataset()
        interval = oracle_bounds_by_grid(ds, SubsetMask.from_string("101"), step=250.0)
        assert interval.lower == 5000.0
        assert interval.upper == 6000.0

    def test_observed_target_degenerate(self):
        ds = triangle_dataset()
        interval = oracle_bounds_by_grid(ds, SubsetMask.from_string("011"), step=250.0)
        assert interval.lower == interval.upper == 5000.0

    def test_union_equal_to_single(self):
        ds = ReachDataset.from_pairs(2, [("10", 1000), ("11", 1000)])
        interval = oracle_bounds_by_grid(ds, SubsetMask.from_string("10"), step=100.0)
        assert interval.lower == interval.upper == 1000.0

    def test_p_cap(self):
        ds, _ = _tiny_p5()
        with pytest.raises(ValueError, match="P <= 4"):
            oracle_bounds_by_grid(ds, SubsetMask.full(5), step=0.5)

    def test_infeasible_reports_coarse_grid(self):
        # Union exceeding the sum of singles cannot be met by any allocation.
        ds = ReachDataset.from_pairs(2, [("10", 100), ("01", 100), ("11", 300)])
        with pytest.raises(ValueError, match="grid too coarse"):
            oracle_bounds_by_grid(ds, SubsetMask.from_string("10"), step=50.0)


def _tiny_p5():
    alloc = RegionAllocation.from_values(5, np.full(32, 1.0))
    return dataset_from_allocation(alloc, basic_masks(5)), alloc


# Each constructor and helper rejects the input that breaks its own rule.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SubsetMask(bits=4, num_bgs=2), "bits 4 out of range for 2 BGs"),
        (lambda: SubsetMask.from_bgs([3], 2), "BG index 3 out of range 1..2"),
        (
            lambda: ReachObservation(SubsetMask.from_string("10"), math.nan),
            "reach must be finite and >= 0",
        ),
        (
            lambda: ReachDataset.from_pairs(2, [("10", 1.0)]).replace_reaches([1.0, 2.0]),
            "reach count mismatch",
        ),
        (lambda: RegionAllocation(2, np.zeros(3)), "allocation needs 4 entries"),
        (lambda: BoundInterval(0.0, math.inf), "bounds must be finite"),
        (lambda: BoundInterval(2.0, 1.0), "lower 2.0 exceeds upper 1.0"),
    ],
    ids=[
        "mask_bits",
        "bg_index",
        "nan_reach",
        "reach_count",
        "allocation_size",
        "infinite_bound",
        "crossed_bounds",
    ],
)
def test_rule_violations_are_value_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()
