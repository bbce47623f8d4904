"""Synthetic-experiment harness with the fixed 2P+1 training design.

Each replicate: draw a ground truth, observe the singles, the all-but-one
unions, and the full union, corrupt them with measurement noise, repair,
cross-validate d, fit, then score every remaining subset's clamped point
estimate against the clean truth.  The summary metric is the 90th
nearest-rank percentile of |estimate - truth| / truth pooled over replicates
and targets: the same relative-to-value notion the noise calibration uses,
which is what makes the benchmark's ~10% figures reachable at all (the
injected noise alone moves training points past many LP bound gaps, so
gap-normalized errors have no 10% regime).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .bounds import repair_dataset
from .core import ReachDataset, ReachObservation, SubsetMask, enumerate_masks
from .pipeline import Session, nearest_rank_percentile, tune_d
from .synth import (
    GeneratorSpec,
    add_measurement_noise,
    derive_seed,
    generate,
    noise_seed,
    true_reach,
)


def training_masks(num_bgs: int) -> list[SubsetMask]:
    """Singles, all-but-one unions, and the full union: 2P+1 masks."""
    keep = {1, num_bgs - 1, num_bgs}
    return [m for m in enumerate_masks(num_bgs) if m.popcount in keep]


def testing_masks(num_bgs: int) -> list[SubsetMask]:
    """The 2**P - 2P - 2 non-zero masks outside the training design."""
    skip = {1, num_bgs - 1, num_bgs}
    return [m for m in enumerate_masks(num_bgs) if m.popcount not in skip]


@dataclass(frozen=True)
class ExperimentReport:
    generator: GeneratorSpec
    replicates: int
    seed: int
    errors: tuple[tuple[float, ...], ...]  # signed, per replicate per target
    q90: float
    runtime_seconds: float

    @property
    def error_count(self) -> int:
        return sum(len(row) for row in self.errors)


def run_replicate(spec: GeneratorSpec, replicate: int, base_seed: int) -> list[float]:
    """Signed relative errors for every testing subset of one replicate."""
    rep_seed = derive_seed(base_seed, replicate)
    truth = generate(spec.with_seed(rep_seed))
    universe = spec.universe_size

    clean = [
        ReachObservation(m, true_reach(truth, m)) for m in training_masks(spec.num_bgs)
    ]
    noisy = add_measurement_noise(clean, noise_seed(rep_seed))
    # The dataset declares the universe, so noise may not push a reach past it.
    noisy = [ReachObservation(o.subset, min(o.reach, universe)) for o in noisy]
    dataset = ReachDataset(spec.num_bgs, universe, tuple(noisy))

    # The design repairs every replicate, consistent or not.
    session = Session(repair_dataset(dataset))
    model = session.model(tune_d(session))

    errors = []
    for estimate in session.estimates(model, testing_masks(spec.num_bgs)):
        point = estimate.point
        clean_truth = true_reach(truth, estimate.target)
        if clean_truth > 0:
            errors.append((point - clean_truth) / clean_truth)
        else:
            errors.append(0.0 if point == 0.0 else math.inf)
    return errors


def run_experiment(
    spec: GeneratorSpec, replicates: int, seed: int, max_workers: int = 1
) -> ExperimentReport:
    """Run all replicates and pool the errors.

    The replicates run in min(max_workers, replicates) processes, or in this
    process when that is 1.  Replicate streams derive from (seed, replicate
    index), so the result is identical whatever the worker count, and a
    1-replicate run reproduces the first replicate of a longer one.
    """
    if spec.num_bgs < 4:
        raise ValueError("the experiment design needs P >= 4")
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if max_workers < 1:
        raise ValueError("need at least one worker")
    started = time.perf_counter()
    workers = min(max_workers, replicates)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            specs, seeds = [spec] * replicates, [seed] * replicates
            rows = list(pool.map(run_replicate, specs, range(replicates), seeds))
    else:
        rows = [run_replicate(spec, i, seed) for i in range(replicates)]
    elapsed = time.perf_counter() - started
    pooled = [abs(e) for row in rows for e in row]
    return ExperimentReport(
        generator=spec,
        replicates=replicates,
        seed=seed,
        errors=tuple(tuple(row) for row in rows),
        q90=nearest_rank_percentile(pooled, 90.0),
        runtime_seconds=elapsed,
    )
