"""The benchmark's workloads: seeded inputs, the timed op and its oracle.

Each workload turns (seed, op index) into the op's inputs, so a run is
reproducible from its seed and a reference op can be replayed on its own.
``call`` is the only part that is timed; it goes through module attributes
(``experiment.run_replicate``, ``pipeline.estimate_subset``) and class methods
so that the traced run sees the same calls.

* ``table4_p6`` -- the paper's Table-4 experiment at desk scale: replicates of
  the three rows of the acceptance test, round-robin.  Nearly all of its time
  is the leave-one-out ``fit`` -> ``simplex_lstsq`` loop, so it loads the fit
  layer and never reaches ``check_consistency``, ``error_bar`` or
  ``estimate_universe``.
* ``bounds_all_p11`` -- ``bounds --all``: one phase-1 solve, then a bounds call
  on every non-empty mask of an exact P=11 dataset.  Only ``lp``/``bounds``
  run, which makes it the no-change control for fit work.
* ``predict_alpha_p8`` -- ``predict --alpha 90`` on a fresh noisy P=8 dataset
  per op, universe declared on half of them.  The only workload through
  ``check_consistency``/``solve_lp``, ``estimate_universe``, the ``nnls``
  repair and ``error_bar``; it builds phase 1 many times per op.
"""

from __future__ import annotations

import math

import numpy as np

from reachvenn import bounds, experiment, pipeline, synth
from reachvenn.core import ReachDataset, ReachObservation, SubsetMask

UNIVERSE = 1_000_000.0
# The Table-4 rows of tests/test_acceptance.py: (generator kind, alpha).
ROWS = (("ci_groups", 2.0), ("dirichlet", 2.0), ("dirichlet", 0.5))
# pipeline's default d grid, written out so the oracle does not ask the program.
_D_STEP = (5.0 - 1.0) / 9
D_GRID = frozenset(1.0 + c * _D_STEP for c in range(10))


def _true_reach(allocation: np.ndarray, mask: SubsetMask) -> float:
    """Reach from the region allocation, independently of the program."""
    regions = np.arange(allocation.size)
    return float(allocation[(regions & mask.index) != 0].sum())


class Table4:
    name = "table4_p6"
    trace_ops = 30
    reference_ops = range(6)
    tol = 1e-6  # relative-error units
    errors_per_replicate = 2**6 - 2 * 6 - 2

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = [
            synth.GeneratorSpec(kind, 6, UNIVERSE, seed=0, alpha=alpha)
            for kind, alpha in ROWS
        ]

    def op_input(self, i: int):
        return self.specs[i % len(ROWS)], i // len(ROWS)

    def call(self, args):
        spec, replicate = args
        return experiment.run_replicate(spec, replicate, self.seed)

    def summary(self, out) -> dict:
        return {"errors": [float(e) for e in out]}

    def check(self, args, out) -> str | None:
        if len(out) != self.errors_per_replicate:
            return f"{len(out)} errors, expected {self.errors_per_replicate}"
        if not all(math.isfinite(e) and e >= -1.0 for e in out):
            return "an error is not finite or lies below -1"
        return None

    def rel_errors(self, args, out) -> list[float]:
        return [abs(e) for e in out]


class BoundsAll:
    name = "bounds_all_p11"
    num_bgs = 11
    trace_ops = (1 << num_bgs) - 1
    reference_ops = range(0, (1 << num_bgs) - 1, 16)
    tol = 1e-7 * UNIVERSE

    def __init__(self, seed: int):
        self.seed = seed
        self.masks = [SubsetMask(j, self.num_bgs) for j in range(1, 1 << self.num_bgs)]
        self._pass = -1
        self._load_pass(0)

    def _load_pass(self, k: int) -> None:
        """Exact 2P+1-design observations of a fresh truth, and its solver."""
        spec = synth.GeneratorSpec(
            "dirichlet", self.num_bgs, UNIVERSE, seed=synth.derive_seed(self.seed, k), alpha=0.5
        )
        truth = synth.generate(spec)
        self.allocation = np.array(truth.allocation.values)
        dataset = synth.true_dataset(truth, experiment.training_masks(self.num_bgs))
        self.solver = bounds.BoundsSolver(dataset)
        self._pass = k

    def op_input(self, i: int):
        k, j = divmod(i, len(self.masks))
        if k != self._pass:
            self._load_pass(k)
        mask = self.masks[j]
        return mask, _true_reach(self.allocation, mask)

    def call(self, args):
        return self.solver.bounds(args[0])

    def summary(self, out) -> dict:
        return {"lower": out.lower, "upper": out.upper, "capped": out.upper_capped}

    def check(self, args, out) -> str | None:
        truth = args[1]
        if not out.lower - self.tol <= truth <= out.upper + self.tol:
            return f"truth {truth} outside [{out.lower}, {out.upper}]"
        return None

    def rel_errors(self, args, out) -> list[float]:
        return []


class PredictAlpha:
    name = "predict_alpha_p8"
    num_bgs = 8
    trace_ops = 24
    reference_ops = range(6)
    tol = 1e-6 * UNIVERSE

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = [
            synth.GeneratorSpec(kind, self.num_bgs, UNIVERSE, seed=0, alpha=alpha)
            for kind, alpha in ROWS
        ]
        self.design = experiment.training_masks(self.num_bgs)
        self.targets = experiment.testing_masks(self.num_bgs)
        self.options = pipeline.EstimateOptions(alpha=90)

    def op_input(self, i: int):
        """Generator rows in turn; the universe is declared on alternate rounds."""
        spec = self.specs[i % len(ROWS)].with_seed(synth.derive_seed(self.seed, i))
        declare = (i // len(ROWS)) % 2 == 0
        truth = synth.generate(spec)
        allocation = np.array(truth.allocation.values)
        clean = [ReachObservation(m, _true_reach(allocation, m)) for m in self.design]
        noisy = synth.add_measurement_noise(clean, synth.noise_seed(spec.seed))
        if declare:
            noisy = [ReachObservation(o.subset, min(o.reach, UNIVERSE)) for o in noisy]
        dataset = ReachDataset(self.num_bgs, UNIVERSE if declare else None, tuple(noisy))
        pick = int(np.random.default_rng((self.seed, i)).integers(len(self.targets)))
        target = self.targets[pick]
        return dataset, target, _true_reach(allocation, target)

    def call(self, args):
        return pipeline.estimate_subset(args[0], args[1], self.options)

    def summary(self, out) -> dict:
        ialpha = out.interval_alpha
        return {
            "point": out.point,
            "interval_100": [out.interval_100.lower, out.interval_100.upper],
            "interval_alpha": None if ialpha is None else [ialpha.lower, ialpha.upper],
            "d": repr(out.d),  # compared exactly, not within the reach tolerance
            "universe_size": out.universe_size,
            "repaired": out.repaired,
        }

    def check(self, args, out) -> str | None:
        i100, ialpha = out.interval_100, out.interval_alpha
        if not i100.lower <= out.point <= i100.upper:
            return "point outside interval_100"
        if ialpha is None:
            return "no interval_alpha"
        if not i100.lower <= ialpha.lower <= ialpha.upper <= i100.upper:
            return "interval_alpha not inside interval_100"
        if out.d not in D_GRID:
            return f"d={out.d} is not on the grid"
        return None

    def rel_errors(self, args, out) -> list[float]:
        truth = args[2]
        return [abs(out.point - truth) / truth] if truth > 0 else []


WORKLOADS = {cls.name: cls for cls in (Table4, BoundsAll, PredictAlpha)}


def outputs_match(expected, actual, tol: float) -> bool:
    """Equal structure, numbers within ``tol``, everything else exactly."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(outputs_match(expected[k], actual[k], tol) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(outputs_match(e, a, tol) for e, a in zip(expected, actual))
        )
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return expected == actual
    return isinstance(actual, (int, float)) and abs(expected - actual) <= tol
