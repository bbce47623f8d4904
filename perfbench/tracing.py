"""In-memory span tracing of reachvenn's layer boundaries.

``patched(tracer)`` rebinds each boundary below to a wrapper that records a
span (name, start, end, parent span, op id) and restores the originals on
exit.  A function is rebound in every ``reachvenn`` module that holds it, since
``from .model import fit`` gives ``pipeline`` and ``experiment`` their own
binding; a method is rebound once, on its class.  Nothing in the package
itself changes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute or Class.method), in reporting order.
BOUNDARIES = (
    ("lsq.simplex_lstsq", "reachvenn.lsq", "simplex_lstsq"),
    ("lsq.nnls", "reachvenn.lsq", "nnls"),
    ("model.build_segment_matrix", "reachvenn.model", "build_segment_matrix"),
    ("model.segment_row", "reachvenn.model", "segment_row"),
    ("model.fit", "reachvenn.model", "fit"),
    ("model.predict", "reachvenn.model", "predict"),
    ("model.estimate_universe", "reachvenn.model", "estimate_universe"),
    ("pipeline.tune_d", "reachvenn.pipeline", "tune_d"),
    ("pipeline.error_bar", "reachvenn.pipeline", "error_bar"),
    ("pipeline.estimate_subset", "reachvenn.pipeline", "estimate_subset"),
    ("lp.phase1", "reachvenn.lp", "EqualityFormSolver.__init__"),
    ("lp.optimize", "reachvenn.lp", "EqualityFormSolver.optimize"),
    ("lp.solve_lp", "reachvenn.lp", "solve_lp"),
    ("bounds.check_consistency", "reachvenn.bounds", "check_consistency"),
    ("bounds.BoundsSolver", "reachvenn.bounds", "BoundsSolver.__init__"),
    ("bounds.bounds", "reachvenn.bounds", "BoundsSolver.bounds"),
    ("bounds.repair_dataset", "reachvenn.bounds", "repair_dataset"),
    ("experiment.run_replicate", "reachvenn.experiment", "run_replicate"),
    ("synth.generate", "reachvenn.synth", "generate"),
    ("synth.add_measurement_noise", "reachvenn.synth", "add_measurement_noise"),
)

# Boundaries whose inputs are fingerprinted: distinct inputs / calls shows
# how much of the layer's work repeats an earlier call.
DISTINCT = ("lp.phase1", "model.fit")


def _digest(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _phase1_key(_solver, a_eq, b_eq) -> str:
    a = np.ascontiguousarray(a_eq, dtype=np.float64)
    b = np.ascontiguousarray(b_eq, dtype=np.float64)
    return _digest(repr(a.shape).encode(), a.tobytes(), b.tobytes())


def _fit_key(dataset, d) -> str:
    obs = tuple((o.subset.index, o.reach) for o in dataset.sorted_observations())
    return _digest(repr((dataset.num_bgs, dataset.universe_size, obs, d)).encode())


_KEYS = {"lp.phase1": _phase1_key, "model.fit": _fit_key}


class Tracer:
    """Spans of one run, kept in memory until ``write``.

    ``op`` is the id stamped on new spans; spans recorded while it is None
    (input generation between ops) are kept but left out of per-op metrics.
    """

    def __init__(self) -> None:
        self.op: int | None = None
        # [name, start, end, parent index, op, tracer time spent inside]
        self.spans: list[list] = []
        self.keys: dict[str, list[str]] = {name: [] for name in DISTINCT}
        self.tune_d: list[tuple[int | None, float]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        key_fn = _KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if key_fn is not None and self.op is not None:
                began = perf_counter()
                self.keys[name].append(key_fn(*args, **kwargs))
                if parent >= 0:
                    self.spans[parent][5] += perf_counter() - began
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.op, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if name == "pipeline.tune_d":
                self.tune_d.append((self.op, result))
            return result

        return traced

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op calls and self time of each boundary, plus the waste ratios."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for index, (name, start, end, _, op, inner) in enumerate(self.spans):
            if op is None:
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child[index] - inner
        metrics = {}
        for name, _, _ in BOUNDARIES:
            metrics[f"{name}.calls"] = (calls[name] / ops, "calls/op")
            metrics[f"{name}.self_s"] = (self_s[name] / ops, "s/op")
        for name in DISTINCT:
            keys = self.keys[name]
            # No calls means no repeated work.
            ratio = len(set(keys)) / len(keys) if keys else 1.0
            metrics[f"{name}.distinct_ratio"] = (ratio, "ratio")
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            for name, start, end, parent, op, _ in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every boundary through ``tracer`` for the duration of the block."""
    restore = []
    try:
        for name, module_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, tracer.wrap(name, original))
                restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "reachvenn" and not mod_name.startswith("reachvenn."):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        restore.append((mod, binding, original))
        yield tracer
    finally:
        for owner, binding, original in reversed(restore):
            setattr(owner, binding, original)
