"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The optional P=8 benchmark rows are enabled by setting
REACHVENN_ACCEPT_P8=1 (about 30 seconds on a 2-vCPU host).
"""

import math
import os
import time

import numpy as np
import pytest

from reachvenn.bounds import BoundsSolver, check_consistency, subset_bounds
from reachvenn.core import (
    ReachDataset,
    ReachObservation,
    SubsetMask,
    enumerate_masks,
    incidence_vector,
    subset_reach_from_allocation,
)
from reachvenn.experiment import run_experiment
from reachvenn.model import build_segment_matrix, estimate_universe, fit, min_perfect_fit_d, segment_row
from reachvenn.pipeline import SelectionState, d_grid, select_next_point
from reachvenn.synth import (
    GeneratorSpec,
    add_measurement_noise,
    independent_truth,
    true_dataset,
    true_reach,
)

from conftest import random_consistent_dataset
from grid_oracle import oracle_bounds_by_grid

MIN_PERFECT_FIT_FLOOR = 1.0 + 1e-6


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def triangle_dataset(claim=None):
    pairs = [("100", 3000), ("010", 3000), ("001", 3000), ("111", 7000), ("011", 5000)]
    if claim is not None:
        pairs.append(("101", claim))
    return ReachDataset.from_pairs(3, pairs)


def test_criterion_1_triangle_worked_example():
    started = time.perf_counter()
    assert not check_consistency(triangle_dataset(claim=3500)).consistent
    assert not check_consistency(triangle_dataset(claim=4000)).consistent
    target = SubsetMask.from_string("101")
    lp = subset_bounds(triangle_dataset(), target)
    grid = oracle_bounds_by_grid(triangle_dataset(), target, step=250.0)
    assert grid.lower == 5000.0 and grid.upper == 6000.0
    assert abs(lp.lower - grid.lower) <= 250.0
    assert abs(lp.upper - grid.upper) <= 250.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"3500/4000 inconsistent; bounds [{lp.lower:.0f}, {lp.upper:.0f}] vs grid; {elapsed:.2f}s")


def test_criterion_2_universe_and_prefix_narrowing():
    started = time.perf_counter()
    pairs = [(m, 100000.0) for m in ["10000", "01000", "00100", "00010", "00001"]]
    pairs.append(("11111", 336160.0))
    basics = ReachDataset.from_pairs(5, pairs)
    universe = estimate_universe(basics)
    assert abs(universe - 500000.0) <= 1e-6 * 500000.0

    extras = [
        ("10001", 180000.0),
        ("10010", 180000.0),
        ("01110", 244000.0),
        ("11010", 244000.0),
        ("01111", 295200.0),
    ]
    ds = basics
    for mask, reach in extras:
        ds = ds.with_observation(SubsetMask.from_string(mask), reach)
    interval = subset_bounds(ds, SubsetMask.from_string("11110"))
    tol = 1e-4 * 500000.0
    assert interval.lower >= 244000.0 - tol
    assert interval.upper <= 336160.0 + tol
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"U={universe:.1f}; prefix-4 in [{interval.lower:.0f}, {interval.upper:.0f}]; {elapsed:.2f}s")


def test_criterion_3_perfect_fit_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    checked_threshold = 0
    for trial in range(200):
        num_bgs = 2 + trial % 4  # cycles P through 2..5
        ds, _ = random_consistent_dataset(rng, num_bgs, extra=int(rng.integers(0, 4)))
        assert fit(ds, math.inf).training_residual <= 1e-9
        d_star = min_perfect_fit_d(ds)
        assert math.isfinite(d_star)
        assert fit(ds, d_star).training_residual <= 1e-9
        probe = d_star * (1.0 - 1e-2)
        if probe > MIN_PERFECT_FIT_FLOOR:
            checked_threshold += 1
            assert fit(ds, probe).training_residual > 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"200 datasets; {checked_threshold} strict-threshold checks; {elapsed:.1f}s")


def test_criterion_4_segment_matrix_limit_equality():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    for num_bgs in range(2, 7):
        proportions = rng.uniform(0.05, 0.95, size=num_bgs)
        for mask in enumerate_masks(num_bgs):
            row = segment_row(mask, proportions, math.inf)
            assert np.array_equal(row, incidence_vector(mask))
    eq10 = ReachDataset.from_pairs(
        2, [("10", 0.2), ("01", 0.2), ("11", 0.36)], universe_size=1.0
    )
    matrix = build_segment_matrix(eq10, math.inf)
    assert np.array_equal(
        matrix.entries, np.array([[0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1]], float)
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(4, f"Z(inf) == incidence for P=2..6; 3x4 matrix exact; {elapsed:.2f}s")


def test_criterion_5_noise_calibration():
    started = time.perf_counter()
    reach = 1e5
    obs = [ReachObservation(SubsetMask.from_string("10"), reach)] * 100_000
    noisy = add_measurement_noise(obs, 2024)
    rel = np.abs(np.array([o.reach for o in noisy]) - reach) / reach
    q90 = float(np.quantile(rel, 0.9))
    assert 0.095 <= q90 <= 0.105
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(5, f"noise q90 = {q90:.4f}; {elapsed:.1f}s")


def _table4_band(kind: str, alpha: float, band: tuple[float, float], seed: int):
    spec = GeneratorSpec(
        kind=kind, num_bgs=6, universe_size=1_000_000.0, seed=0, alpha=alpha
    )
    return run_experiment(spec, replicates=100, seed=seed)


def test_criterion_6_table4_desk_scale():
    started = time.perf_counter()
    rows = {
        "ci": ("ci_groups", 2.0, (0.05, 0.16)),
        "dir2": ("dirichlet", 2.0, (0.05, 0.17)),
        "dir05": ("dirichlet", 0.5, (0.12, 0.28)),
    }
    q90 = {}
    in_band = {}
    for label, (kind, alpha, band) in rows.items():
        rep = _table4_band(kind, alpha, band, seed=20240817)
        q90[label] = rep.q90
        in_band[label] = band[0] <= rep.q90 <= band[1]
        assert rep.error_count == 100 * (2**6 - 2 * 6 - 2)
    if all(in_band.values()):
        verdict = "all bands met"
    else:
        # Documented fallback: stress row strictly worst and everything < 35%.
        assert q90["dir05"] > q90["dir2"] and q90["dir05"] > q90["ci"]
        assert all(v < 0.35 for v in q90.values())
        verdict = f"fallback (out of band: {[k for k, v in in_band.items() if not v]})"
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(
        6,
        f"q90 ci={q90['ci']:.3f} dir2={q90['dir2']:.3f} dir05={q90['dir05']:.3f}; "
        f"{verdict}; {elapsed:.0f}s",
    )


@pytest.mark.skipif(
    os.environ.get("REACHVENN_ACCEPT_P8") != "1",
    reason="optional P=8 rows; set REACHVENN_ACCEPT_P8=1 to run (about 30 s)",
)
def test_criterion_6_table4_p8_rows():
    started = time.perf_counter()
    rows = {
        "ci": ("ci_groups", 2.0, (0.044, 0.164)),
        "dir2": ("dirichlet", 2.0, (0.004, 0.124)),
        "dir05": ("dirichlet", 0.5, (0.067, 0.187)),
    }
    q90 = {}
    in_band = {}
    for label, (kind, alpha, band) in rows.items():
        spec = GeneratorSpec(
            kind=kind, num_bgs=8, universe_size=1_000_000.0, seed=0, alpha=alpha
        )
        rep = run_experiment(spec, replicates=100, seed=20240817)
        q90[label] = rep.q90
        in_band[label] = band[0] <= rep.q90 <= band[1]
    if not all(in_band.values()):
        assert q90["dir05"] > q90["dir2"] and q90["dir05"] > q90["ci"]
        assert all(v < 0.35 for v in q90.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    report(6, f"P=8 rows q90={q90}; {elapsed:.0f}s")


def test_criterion_7_monotone_refinement_and_selection():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(50):
        num_bgs = int(rng.integers(3, 6))
        ds, alloc = random_consistent_dataset(rng, num_bgs, extra=int(rng.integers(0, 3)))
        observed = {m.index for m in ds.masks()}
        unobserved = [m for m in enumerate_masks(num_bgs) if m.index not in observed]
        if not unobserved:
            continue
        extra = unobserved[int(rng.integers(0, len(unobserved)))]
        before = BoundsSolver(ds)
        after = BoundsSolver(
            ds.with_observation(extra, subset_reach_from_allocation(extra, alloc))
        )
        all_masks = enumerate_masks(num_bgs)
        targets = [all_masks[i] for i in rng.choice(len(all_masks), size=10)]
        tol = 1e-6 * ds.scale
        for target in targets:
            b = before.bounds(target)
            a = after.bounds(target)
            assert a.lower >= b.lower - tol
            assert a.upper <= b.upper + tol

    # Selection harness on the textbook setup: testing intervals never widen.
    truth = independent_truth(5, 0.2, 500000.0)
    masks = [m for m in enumerate_masks(5) if m.popcount in (1, 5)]
    testing = [SubsetMask.from_string(s) for s in ["11000", "11100", "11110"]]
    state = SelectionState.initial(true_dataset(truth, masks), exclude=testing)
    tol = 1e-6 * 500000.0
    previous = {m: BoundsSolver(state.measurements).bounds(m) for m in testing}
    for _ in range(10):
        state = select_next_point(state, lambda m: true_reach(truth, m))
        solver = BoundsSolver(state.measurements)
        for m in testing:
            current = solver.bounds(m)
            assert current.lower >= previous[m].lower - tol
            assert current.upper <= previous[m].upper + tol
            previous[m] = current
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(7, f"50 refinement datasets + 10 selection rounds non-widening; {elapsed:.1f}s")


def test_criterion_8_residual_monotone_in_d():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    grid = d_grid()
    for _ in range(50):
        num_bgs = int(rng.integers(2, 6))
        ds, _ = random_consistent_dataset(rng, num_bgs, extra=int(rng.integers(0, 4)))
        residuals = [fit(ds, d).training_residual for d in grid]
        for smaller_d_resid, larger_d_resid in zip(residuals, residuals[1:]):
            assert larger_d_resid <= smaller_d_resid + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(8, f"50 datasets x 10-point grid monotone; {elapsed:.1f}s")
