"""Core types for reach Venn diagrams: subset masks, datasets, region allocations.

A universe of users is carved by P buying groups (BGs) into 2**P primitive
regions.  Every subset of BGs, every primitive region, and every activity
segment is identified by the same P-bit encoding: flag i (1-indexed) marks
BG i and contributes 2**(i-1) to the canonical integer index.  The string
form writes flag 1 leftmost, so "110" with P=3 is the subset {G1, G2} with
canonical index 3.  A dataset keeps its observations in that index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

MAX_BGS = 20

# Feasibility tolerance on the proportion scale (all LP rows are divided by
# the universe size or the max observed reach before solving).
TOL_FEAS = 1e-7


class ReachVennError(Exception):
    """Base class for errors raised by this package."""


class InconsistencyError(ReachVennError):
    """The observed reaches violate Venn-diagram consistency."""


class UnavailableError(ReachVennError):
    """The requested quantity cannot be computed from the given data."""


def frozen(values) -> np.ndarray:
    """A read-only C-ordered float64 copy of ``values``."""
    arr = np.array(values, dtype=np.float64, order="C")
    arr.flags.writeable = False
    return arr


def check_num_bgs(num_bgs: int) -> None:
    """Raise ValueError unless 2 <= ``num_bgs`` <= ``MAX_BGS``: the one rule on
    BG counts, run before anything sized by 2**num_bgs is built."""
    if not 2 <= num_bgs <= MAX_BGS:
        raise ValueError(f"num_bgs must be in [2, {MAX_BGS}], got {num_bgs}")


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless 0 < ``value`` < inf (so NaN fails): the one size rule."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SubsetMask:
    """A subset of the P buying groups, encoded as a bit mask.

    Bit (i-1) of ``bits`` is set iff BG i belongs to the subset, so the
    integer value of ``bits`` is the canonical index used everywhere for
    ordering regions, segments, and matrix columns.  The all-zero mask is a
    valid primitive-region label but not an observable subset.
    """

    bits: int
    num_bgs: int

    def __post_init__(self) -> None:
        check_num_bgs(self.num_bgs)
        if not 0 <= self.bits < (1 << self.num_bgs):
            raise ValueError(f"bits {self.bits} out of range for {self.num_bgs} BGs")

    @classmethod
    def from_string(cls, text: str) -> "SubsetMask":
        """Parse the "x1...xP" form, leftmost character = BG 1."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"subset string must be non-empty over {{0,1}}: {text!r}")
        bits = sum(1 << i for i, c in enumerate(text) if c == "1")
        return cls(bits=bits, num_bgs=len(text))

    @classmethod
    def parse(cls, text: str, num_bgs: int) -> "SubsetMask":
        """The observable subset ``text`` of ``num_bgs`` BGs: exactly that
        many characters over {0,1}, not all zero.  Every subset string read
        from a file or the command line goes through here."""
        if len(text) != num_bgs:
            raise ValueError(
                f"subset {text!r} does not have {num_bgs} characters (num_bgs={num_bgs})"
            )
        mask = cls.from_string(text)
        mask.check_observable(num_bgs)
        return mask

    @classmethod
    def from_bgs(cls, bgs: Iterable[int], num_bgs: int) -> "SubsetMask":
        """Build from 1-indexed BG numbers."""
        bits = 0
        for i in bgs:
            if not 1 <= i <= num_bgs:
                raise ValueError(f"BG index {i} out of range 1..{num_bgs}")
            bits |= 1 << (i - 1)
        return cls(bits=bits, num_bgs=num_bgs)

    @classmethod
    def single(cls, bg: int, num_bgs: int) -> "SubsetMask":
        return cls.from_bgs([bg], num_bgs)

    @classmethod
    def full(cls, num_bgs: int) -> "SubsetMask":
        return cls(bits=(1 << num_bgs) - 1, num_bgs=num_bgs)

    def to_string(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.num_bgs))

    @property
    def index(self) -> int:
        """Canonical index: flag i contributes 2**(i-1)."""
        return self.bits

    @property
    def popcount(self) -> int:
        return bin(self.bits).count("1")

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def check_observable(self, num_bgs: int) -> None:
        """Raise ValueError unless this is a non-empty subset of ``num_bgs`` BGs."""
        if self.is_empty or self.num_bgs != num_bgs:
            raise ValueError(f"subset '{self}' is not a non-empty subset of {num_bgs} BGs")

    def __str__(self) -> str:
        return self.to_string()


def enumerate_masks(num_bgs: int) -> list[SubsetMask]:
    """All non-zero subset masks of P = ``num_bgs`` BGs, ascending by index."""
    check_num_bgs(num_bgs)
    return [SubsetMask(j, num_bgs) for j in range(1, 1 << num_bgs)]


def basic_masks(num_bgs: int) -> list[SubsetMask]:
    """The P single-BG masks plus the all-BGs union, ascending."""
    indices = sorted([1 << i for i in range(num_bgs)] + [(1 << num_bgs) - 1])
    return [SubsetMask(j, num_bgs) for j in indices]


def incidence_vector(subset: SubsetMask) -> np.ndarray:
    """0/1 vector over the 2**P primitive regions covered by ``subset``.

    Entry j is 1 iff region j shares a set flag with the subset; entry 0 is
    always 0.  The dot product of this vector with a region allocation is the
    subset's reach.
    """
    subset.check_observable(subset.num_bgs)
    region_ids = np.arange(1 << subset.num_bgs)
    return ((region_ids & subset.bits) != 0).astype(np.float64)


@dataclass(frozen=True)
class ReachObservation:
    """An observed (subset, reach) pair.  Reach is real-valued to admit noise."""

    subset: SubsetMask
    reach: float

    def __post_init__(self) -> None:
        self.subset.check_observable(self.subset.num_bgs)
        if not np.isfinite(self.reach) or self.reach < 0:
            raise ValueError(f"reach must be finite and >= 0, got {self.reach}")


@dataclass(frozen=True)
class ReachDataset:
    """A set of reach observations over distinct subsets of P BGs, kept in
    ascending canonical-index order whatever order they came in: the one row
    order of every solve on the dataset, so datasets that differ only in input
    order are equal and give the same results."""

    num_bgs: int
    universe_size: float | None
    observations: tuple[ReachObservation, ...]
    _reaches: dict[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_num_bgs(self.num_bgs)
        if self.universe_size is not None:
            check_positive("universe_size", self.universe_size)
        reaches: dict[int, float] = {}
        for obs in self.observations:
            obs.subset.check_observable(self.num_bgs)
            if obs.subset.index in reaches:
                raise ValueError(f"duplicate mask {obs.subset} in dataset")
            reaches[obs.subset.index] = obs.reach
            if self.universe_size is not None and obs.reach > self.universe_size:
                raise ValueError(
                    f"reach {obs.reach} for {obs.subset} exceeds universe size"
                )
        ordered = tuple(sorted(self.observations, key=lambda o: o.subset.index))
        object.__setattr__(self, "observations", ordered)
        object.__setattr__(self, "_reaches", reaches)

    @classmethod
    def from_pairs(
        cls,
        num_bgs: int,
        pairs: Iterable[tuple[SubsetMask | str, float]],
        universe_size: float | None = None,
    ) -> "ReachDataset":
        obs = []
        for mask, reach in pairs:
            if isinstance(mask, str):
                mask = SubsetMask.parse(mask, num_bgs)
            obs.append(ReachObservation(mask, float(reach)))
        return cls(num_bgs=num_bgs, universe_size=universe_size, observations=tuple(obs))

    @property
    def n(self) -> int:
        return len(self.observations)

    def sorted_observations(self) -> tuple[ReachObservation, ...]:
        """Observations in ascending canonical-index order: ``observations``."""
        return self.observations

    def masks(self) -> tuple[SubsetMask, ...]:
        """The observed masks, in ascending canonical-index order."""
        return tuple(o.subset for o in self.observations)

    def reach_of(self, subset: SubsetMask) -> float | None:
        """The observed reach of ``subset``, None when it is not observed."""
        return self._reaches.get(subset.index)

    def check_basic_points(self) -> None:
        """Raise ValueError unless every mask of ``basic_masks`` is observed."""
        if not all(m.index in self._reaches for m in basic_masks(self.num_bgs)):
            raise ValueError("dataset lacks a basic point: a single-BG or union reach")

    @property
    def scale(self) -> float:
        """Row-scaling factor for LPs: the universe size when declared, else
        the largest observed reach (1.0 for all-zero data)."""
        if self.universe_size is not None:
            return float(self.universe_size)
        top = max((o.reach for o in self.observations), default=0.0)
        return top if top > 0 else 1.0

    def with_observation(self, subset: SubsetMask, reach: float) -> "ReachDataset":
        return ReachDataset(
            num_bgs=self.num_bgs,
            universe_size=self.universe_size,
            observations=self.observations + (ReachObservation(subset, float(reach)),),
        )

    def without(self, subset: SubsetMask) -> "ReachDataset":
        kept = tuple(o for o in self.observations if o.subset.index != subset.index)
        if len(kept) == len(self.observations):
            raise ValueError(f"mask {subset} not present")
        return ReachDataset(self.num_bgs, self.universe_size, kept)

    def replace_reaches(self, new_reaches: Sequence[float]) -> "ReachDataset":
        """New dataset with the same masks (canonical order) and given reaches."""
        if len(new_reaches) != self.n:
            raise ValueError("reach count mismatch")
        obs = tuple(
            ReachObservation(o.subset, float(r))
            for o, r in zip(self.observations, new_reaches)
        )
        return ReachDataset(self.num_bgs, self.universe_size, obs)


@dataclass(frozen=True)
class RegionAllocation:
    """Non-negative reach of each of the 2**P primitive regions.

    Index 0 is the region reached by no BG.  Values are stored in a
    read-only array indexed by canonical region index.
    """

    num_bgs: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        check_num_bgs(self.num_bgs)
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (1 << self.num_bgs,):
            raise ValueError(
                f"allocation needs {1 << self.num_bgs} entries, got {arr.shape}"
            )
        # Written so that NaN fails it too.
        if not np.all((arr >= 0) & (arr < np.inf)):
            raise ValueError("allocation entries must be finite and non-negative")
        object.__setattr__(self, "values", frozen(arr))

    @classmethod
    def from_values(
        cls, num_bgs: int, values: Sequence[float] | np.ndarray
    ) -> "RegionAllocation":
        """Build an allocation, clipping negative round-off up to 1e-9 of the
        largest magnitude (or of 1)."""
        arr = np.asarray(values, dtype=np.float64)
        if np.any(arr < -1e-9 * max(1.0, float(np.max(np.abs(arr), initial=0.0)))):
            raise ValueError("allocation entries must be non-negative")
        return cls(num_bgs=num_bgs, values=np.clip(arr, 0.0, None))

    @classmethod
    def from_region_dict(
        cls, num_bgs: int, regions: dict[str, float]
    ) -> "RegionAllocation":
        """Build from {region string: reach}; unlisted regions are zero."""
        arr = np.zeros(1 << num_bgs)
        for key, value in regions.items():
            arr[SubsetMask.from_string(key).index] = value
        return cls(num_bgs=num_bgs, values=arr)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def subset_reach_from_allocation(subset: SubsetMask, alloc: RegionAllocation) -> float:
    """Reach of ``subset``: the sum of its primitive regions' reaches."""
    subset.check_observable(alloc.num_bgs)
    return float(incidence_vector(subset) @ alloc.values)


def dataset_from_allocation(
    alloc: RegionAllocation,
    masks: Iterable[SubsetMask],
    universe_size: float | None = None,
) -> ReachDataset:
    """Exact observations of ``masks`` under a ground-truth allocation."""
    obs = tuple(
        ReachObservation(m, subset_reach_from_allocation(m, alloc)) for m in masks
    )
    return ReachDataset(alloc.num_bgs, universe_size, obs)


@dataclass(frozen=True)
class BoundInterval:
    """Lower and upper reach bounds for one subset.

    ``upper_capped`` marks an upper bound imposed by the cap (the universe
    size when declared, else the sum of the observed reaches) rather than by
    the observations.
    """

    lower: float
    upper: float
    upper_capped: bool = False

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lower - tol <= value <= self.upper + tol

    def clamp(self, value: float) -> float:
        """The point of the interval nearest ``value``."""
        return min(max(value, self.lower), self.upper)
