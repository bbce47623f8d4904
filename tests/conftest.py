"""Shared fixtures: random ground truths, the hand-made and noisy datasets
several files use, random least-squares stacks, the projected-gradient oracle,
and the per-problem start rule, the residual, a face-solve limit and a call
recorder of the least-squares solver."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from reachvenn import bounds, lsq, model
from reachvenn.core import (
    ReachDataset,
    ReachObservation,
    RegionAllocation,
    SubsetMask,
    basic_masks,
    dataset_from_allocation,
    enumerate_masks,
)
from reachvenn.experiment import training_masks
from reachvenn.synth import GeneratorSpec, add_measurement_noise, generate, true_reach


def random_allocation(
    rng: np.random.Generator,
    num_bgs: int,
    universe: float = 1.0,
    grid_step: float | None = None,
) -> RegionAllocation:
    """A random non-negative allocation summing to ``universe``.

    With ``grid_step`` the entries are multiples of the step (the total then
    lands near ``universe`` instead of exactly on it).
    """
    raw = rng.dirichlet(np.ones(1 << num_bgs)) * universe
    if grid_step is not None:
        raw = np.round(raw / grid_step) * grid_step
    return RegionAllocation.from_values(num_bgs, raw)


def random_consistent_dataset(
    rng: np.random.Generator,
    num_bgs: int,
    extra: int = 0,
    universe: float | None = 1.0,
    grid_step: float | None = None,
) -> tuple[ReachDataset, RegionAllocation]:
    """Exact observations (basics plus ``extra`` random masks) of a random truth."""
    total = universe if universe is not None else 1.0
    alloc = random_allocation(rng, num_bgs, total, grid_step)
    if grid_step is not None:
        universe = None  # rounding can push the covered total past the universe
    masks = basic_masks(num_bgs)
    pool = [
        SubsetMask(j, num_bgs)
        for j in range(1, 1 << num_bgs)
        if SubsetMask(j, num_bgs) not in masks
    ]
    if extra:
        picks = rng.choice(len(pool), size=min(extra, len(pool)), replace=False)
        masks = masks + [pool[i] for i in sorted(picks)]
    return dataset_from_allocation(alloc, masks, universe_size=universe), alloc


def triangle_dataset(claim=None):
    """P=3, singles 3000, full union 7000, R(G2 u G3) = 5000; ``claim`` adds
    an observed R(G1 u G3)."""
    pairs = [("100", 3000), ("010", 3000), ("001", 3000), ("111", 7000), ("011", 5000)]
    if claim is not None:
        pairs.append(("101", claim))
    return ReachDataset.from_pairs(3, pairs)


def nearly_disjoint_dataset():
    """P=3 singles of 1000 that barely overlap, no universe: the held-out gaps
    (0.007 and 0.006) are far below 1e-9 of the estimated universe (~3e8)."""
    pairs = [("100", 1000), ("010", 1000), ("001", 1000), ("111", 2999.99)]
    pairs += [("110", 1999.996), ("011", 1999.997)]
    return ReachDataset.from_pairs(3, pairs)


def noisy_design_dataset(num_bgs, seed, declare, *, kind, alpha, noise_seed):
    """Noisy reaches of the 2P+1 design of a ``kind`` truth (Dirichlet
    ``alpha``) at U = 1e6; with ``declare``, the universe is declared and every
    reach is clipped at it."""
    universe = 1e6
    truth = generate(GeneratorSpec(kind, num_bgs, universe, seed=seed, alpha=alpha))
    clean = [ReachObservation(m, true_reach(truth, m)) for m in training_masks(num_bgs)]
    noisy = add_measurement_noise(clean, noise_seed)
    if declare:
        noisy = [ReachObservation(o.subset, min(o.reach, universe)) for o in noisy]
    return ReachDataset(num_bgs, universe if declare else None, tuple(noisy))


def noisy_p5_dataset(declare_universe: bool) -> ReachDataset:
    """Noisy reaches of the basics and 8 more masks of a P=5 ci_groups truth."""
    universe = 100000.0
    truth = generate(GeneratorSpec("ci_groups", 5, universe, seed=17))
    masks = basic_masks(5) + [m for m in enumerate_masks(5) if m.popcount == 2][:8]
    clean = [ReachObservation(m, true_reach(truth, m)) for m in masks]
    noisy = [
        ReachObservation(o.subset, min(o.reach, universe))
        for o in add_measurement_noise(clean, seed=18)
    ]
    return ReachDataset(5, universe if declare_universe else None, tuple(noisy))


def five_bg_basics(union=336160.0, single=100000.0):
    """The basic points of five BGs, each single at ``single``."""
    pairs = [(m, single) for m in ["10000", "01000", "00100", "00010", "00001"]]
    pairs.append(("11111", union))
    return ReachDataset.from_pairs(5, pairs)


def per_universe(name, build, *args):
    """``build`` with a declared universe and without one, by case id."""
    ids = {True: "universe", False: "no-universe"}
    return {f"{name}-{ids[declare]}": functools.partial(build, *args, declare) for declare in ids}


def refuse(*args, **kwargs):
    raise AssertionError("a debug record was built with DEBUG off")


def project_to_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {v >= 0, sum(v) == 1} (sort algorithm)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, y.size + 1)
    rho = np.nonzero(u * ks > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


def pgd_simplex_lstsq(
    a: np.ndarray, b: np.ndarray, gap_tol: float = 1e-12, max_iter: int = 200_000
) -> tuple[np.ndarray, float]:
    """Accelerated projected gradient for min ||a v - b||^2 on the simplex.

    FISTA steps of 1/L with an adaptive restart whenever the momentum points
    uphill (O'Donoghue and Candes, 2015), run until the Frank-Wolfe gap
    grad . v - min(grad) certifies the objective within ``gap_tol`` of the
    optimum.  Used as the independent optimality oracle for the active-set
    solver; raises RuntimeError if ``max_iter`` steps give no certificate.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[1]
    gram = 2.0 * a.T @ a
    lin = 2.0 * a.T @ b
    step = 1.0 / max(np.linalg.norm(gram, 2), 1e-12)
    v = np.full(n, 1.0 / n)
    y, t = v, 1.0
    for _ in range(max_iter):
        grad = gram @ v - lin
        if grad @ v - grad.min() <= gap_tol:
            resid = b - a @ v
            return v, float(resid @ resid)
        nxt = project_to_simplex(y - step * (gram @ y - lin))
        if (y - nxt) @ (nxt - v) > 0:
            y, t = v, 1.0
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = nxt + (t - 1.0) / t_next * (nxt - v)
        v, t = nxt, t_next
    raise RuntimeError("projected gradient oracle: no optimality certificate")


def squared_residual(a: np.ndarray, b: np.ndarray, v: np.ndarray):
    """||a v - b||^2 at a solution, or one per problem for a stack."""
    resid = b - (a @ v[..., None])[..., 0]
    return (resid * resid).sum(axis=-1)


def random_stack(rng, kind, count, rows, cols):
    """A stack of problems: uniform entries, 0/1 incidence-like entries (ties
    and repeated columns), uniform entries with a repeated column and a zero
    slack column, or normal entries scaled by up to 1e3 either way, each
    problem by its own power of ten, so that their KKT tolerances differ."""
    if kind == "incidence":
        a = rng.integers(0, 2, size=(count, rows, cols)).astype(float)
    elif kind == "scaled":
        scales = 10.0 ** rng.integers(-3, 4, size=(count, 1, 1))
        a = rng.normal(size=(count, rows, cols)) * scales
    else:
        a = rng.uniform(0, 1, size=(count, rows, cols))
    if kind == "slack":
        a[:, :, -1] = 0.0
        a[:, :, 0] = a[:, :, cols // 2]
    if rng.random() < 0.5:  # attainable targets
        b = (a @ rng.dirichlet(np.ones(cols), size=count)[:, :, None])[:, :, 0]
    else:
        b = rng.uniform(0, 1.2, size=(count, rows))
    return a, b


def record_stacks_of_one(monkeypatch):
    """Route every ``simplex_lstsq`` call of the library through a spy that
    keeps each 2-D call's problem and answer."""
    calls = []
    simplex_lstsq = lsq.simplex_lstsq

    def spy(a, b):
        v = simplex_lstsq(a, b)
        if np.ndim(a) == 2:
            calls.append((np.array(a, dtype=float), np.array(b, dtype=float), v))
        return v

    for module in (lsq, model, bounds):
        monkeypatch.setattr(module, "simplex_lstsq", spy)
    return calls


def face_solve_limit(monkeypatch, limit: int) -> None:
    """Let each ``simplex_lstsq`` problem take at most ``limit`` face solves
    (the last argument of ``lsq._lock_step``) instead of 6 n + 60."""
    lock_step = lsq._lock_step
    monkeypatch.setattr(lsq, "_lock_step", lambda *args: lock_step(*args[:-1], limit))


def reference_start(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int, float]:
    """One problem's column norms, start column and KKT tolerance, computed on
    that problem alone; ``lsq._start`` must give every problem of a stack
    these bits."""
    norms = np.linalg.norm(a, axis=0)
    start = int(np.argmin(np.linalg.norm(a - b[:, None], axis=0)))
    top_a = max(1.0, a.max(initial=0.0), -a.min(initial=0.0))
    top_b = max(1.0, b.max(initial=0.0), -b.min(initial=0.0))
    return norms, start, lsq._KKT_TOL * top_a * max(top_a, top_b)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
