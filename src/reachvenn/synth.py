"""Synthetic ground truths and the noisy measurement model.

Two generators: a conditional-independence mixture (group weights uniform
then normalized, per-group single-BG reach probabilities Beta-distributed,
region masses computed analytically so no user-level sampling noise enters),
and a Dirichlet draw straight over the 2**P region proportions.  Measurement
noise is Gaussian with sigma = (0.1/1.645) * reach, which puts the 90th
percentile of the relative error at 10%.

Randomness comes from numpy's PCG64 (``default_rng``); replicate streams are
derived as seed XOR replicate_index so runs parallelize reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ReachDataset,
    ReachObservation,
    RegionAllocation,
    SubsetMask,
    check_num_bgs,
    check_positive,
    dataset_from_allocation,
    subset_reach_from_allocation,
)

NOISE_SIGMA_FACTOR = 0.1 / 1.645

_SEED_MASK = (1 << 64) - 1
_NOISE_SALT = 0xD1B54A32D192ED03


def derive_seed(seed: int, index: int) -> int:
    return (seed ^ index) & _SEED_MASK


def noise_seed(seed: int) -> int:
    return (seed ^ _NOISE_SALT) & _SEED_MASK


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic ground truth; the seed fixes it completely."""

    kind: str  # "ci_groups" | "dirichlet"
    num_bgs: int
    universe_size: float
    seed: int
    num_groups: int = 10
    reach_beta_a: float = 0.4
    reach_beta_b: float = 2.0
    alpha: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("ci_groups", "dirichlet"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        check_num_bgs(self.num_bgs)
        if self.kind == "ci_groups" and self.num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        for name in ("universe_size", "alpha", "reach_beta_a", "reach_beta_b"):
            check_positive(name, getattr(self, name))

    def with_seed(self, seed: int) -> "GeneratorSpec":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class GroundTruth:
    """A complete region allocation (index 0 included) summing to the universe."""

    allocation: RegionAllocation
    generator: GeneratorSpec


def _independence_regions(reach_probabilities: np.ndarray) -> np.ndarray:
    """Region masses of independent BGs, indexed canonically.

    Doubling construction: appending BG i splits every existing region into
    a not-reached copy and a reached copy at bit i-1.
    """
    regions = np.ones(1)
    for p in reach_probabilities:
        regions = np.concatenate([regions * (1.0 - p), regions * p])
    return regions


def generate(spec: GeneratorSpec) -> GroundTruth:
    """Draw a ground truth from the spec; the same spec always reproduces it."""
    rng = np.random.default_rng(spec.seed)
    size = 1 << spec.num_bgs
    if spec.kind == "ci_groups":
        weights = rng.uniform(0.0, 1.0, size=spec.num_groups)
        weights /= weights.sum()
        regions = np.zeros(size)
        for w in weights:
            reach_probs = rng.beta(spec.reach_beta_a, spec.reach_beta_b, size=spec.num_bgs)
            regions += w * _independence_regions(reach_probs)
    else:
        regions = rng.dirichlet(np.full(size, spec.alpha))
    regions = regions / regions.sum() * spec.universe_size
    return GroundTruth(
        allocation=RegionAllocation.from_values(spec.num_bgs, regions), generator=spec
    )


def independent_truth(
    num_bgs: int, reach_proportion: float, universe_size: float, seed: int = 0
) -> GroundTruth:
    """Deterministic single-group truth with every BG at the same reach.

    With r = 0.2 and P = 5 this reproduces the textbook numbers: pair unions
    0.36 U, triples 0.488 U, quadruples 0.5904 U, full union 0.67232 U.
    """
    regions = _independence_regions(np.full(num_bgs, reach_proportion)) * universe_size
    spec = GeneratorSpec(
        kind="ci_groups",
        num_bgs=num_bgs,
        universe_size=universe_size,
        seed=seed,
        num_groups=1,
    )
    return GroundTruth(
        allocation=RegionAllocation.from_values(num_bgs, regions), generator=spec
    )


def true_reach(truth: GroundTruth, subset: SubsetMask) -> float:
    return subset_reach_from_allocation(subset, truth.allocation)


def true_dataset(truth: GroundTruth, masks: list[SubsetMask]) -> ReachDataset:
    """Exact observations of ``masks`` under the ground truth, with its
    universe size declared."""
    return dataset_from_allocation(truth.allocation, masks, truth.generator.universe_size)


def add_measurement_noise(
    observations: list[ReachObservation], seed: int
) -> list[ReachObservation]:
    """Independent Gaussian noise, sigma = (0.1/1.645) * reach, clamped at 0.

    A zero reach stays exactly zero.  Downstream consumers treat the noisy
    values as the ground truth; the clean values are never used again.
    """
    rng = np.random.default_rng(seed & _SEED_MASK)
    noisy = []
    for obs in observations:
        sigma = NOISE_SIGMA_FACTOR * obs.reach
        value = obs.reach + (rng.normal(0.0, sigma) if sigma > 0 else 0.0)
        noisy.append(ReachObservation(obs.subset, max(0.0, value)))
    return noisy
