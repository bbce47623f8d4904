"""Seeded benchmark of reachvenn: per workload, a record line and a JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload table4_p6 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs every workload in turn in this one process and ends
with one result object whose metric names carry the workload as a prefix.

``--trace 0`` times ops for ``--seconds`` (and at least 100 ops) with tracing
off and reports the end-to-end metrics, with times scaled for the shared
host's drifting speed by a kernel timed between ops (``hostspeed.py``).  ``--trace 1`` runs a fixed number of
ops untraced, then the same ops traced, requires identical outputs, and
reports per-layer calls and self time per op.  Every op's output goes through
the workload's oracle, and a few ops of the committed reference seed are
replayed against ``reference.json`` before timing starts.  The last stdout
line is the result object; the line before it is the full record (metrics
with units, sample counts, failure labels, environment), also written to
``perfbench/out/``.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("REACH_VENN_THREADS", None)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 20240817  # the acceptance suite's Table-4 base seed
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
SETUP_REPEATS = 7


def import_program():
    """Import reachvenn from this checkout's sources, never from elsewhere."""
    package = SRC / "reachvenn"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no reachvenn sources at {package}")
    sys.path.insert(0, str(SRC))
    import reachvenn

    if Path(reachvenn.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported reachvenn from {reachvenn.__file__}")


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def run_op(workload, i, tracer=None):
    """Build op ``i``'s inputs untimed, then time the call alone."""
    args = workload.op_input(i)
    if tracer is not None:
        tracer.op = i
    began = perf_counter()
    try:
        out, error = workload.call(args), None
    except Exception as exc:  # a failed op is counted and labelled, never fatal
        out, error = None, exc
    elapsed = perf_counter() - began
    if tracer is not None:
        tracer.op = None
    return args, out, error, elapsed


class Tally:
    """Latencies, oracle verdicts and failure labels of a sequence of ops."""

    def __init__(self):
        self.latencies = []
        self.summaries = []
        self.rel_errors = []
        self.failures = Counter()
        self.examples = {}
        self.mismatches = []

    def add(self, workload, i, args, out, error, elapsed):
        self.latencies.append(elapsed)
        if error is not None:
            label = type(error).__name__
            self.failures[label] += 1
            self.examples.setdefault(label, f"op {i}: {error}")
            self.summaries.append({"error": label, "message": str(error)})
            return
        problem = workload.check(args, out)
        if problem is not None:
            self.failures["OracleMismatch"] += 1
            self.mismatches.append(f"op {i}: {problem}")
            self.summaries.append({"mismatch": problem})
            return
        self.rel_errors.extend(workload.rel_errors(args, out))
        self.summaries.append(workload.summary(out))

    @property
    def ops(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())


def run_ops(workload, ops, tracer=None):
    tally = Tally()
    for i in ops:
        tally.add(workload, i, *run_op(workload, i, tracer))
    return tally


def replay(workload_cls, seed, ops):
    """Per op: its summary (or exception type) and the d values tune_d chose."""
    from tracing import Tracer, patched

    workload = workload_cls(seed)
    tracer = Tracer()
    entries = {}
    with patched(tracer):
        for i in ops:
            _, out, error, _ = run_op(workload, i, tracer)
            entry = {"error": type(error).__name__} if error else workload.summary(out)
            entry["tune_d"] = [d for op, d in tracer.tune_d if op == i]
            entries[str(i)] = entry
    return entries


def check_reference(workload_cls):
    """Replay the committed reference ops; return a list of mismatches."""
    from workloads import outputs_match

    reference = json.loads(REFERENCE.read_text())[workload_cls.name]
    ops = [int(i) for i in reference["ops"]]
    actual = replay(workload_cls, reference["seed"], ops)
    problems = []
    for key, expected in reference["ops"].items():
        got = actual[key]
        if got["tune_d"] != expected["tune_d"]:
            problems.append(f"reference op {key}: tune_d {got['tune_d']} != {expected['tune_d']}")
        # An op that failed in the reference (the known error_bar defect) may
        # succeed once that is fixed; only recorded successes are compared.
        if "error" in expected:
            continue
        if not outputs_match(expected, got, workload_cls.tol):
            problems.append(f"reference op {key}: output differs from reference.json")
    return problems


def probe_setup(name, seed):
    """Wall time for a fresh interpreter to import reachvenn and build op 0's inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
    command += ["--seed", str(seed), "--setup-probe"]
    began = perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms, which
    # would quantise the measurement.
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - began


def environment(load_at_start):
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "REACH_VENN_THREADS": os.environ.get("REACH_VENN_THREADS"),
        "loadavg_at_start": list(load_at_start),
    }


def untraced_run(workload_cls, args):
    from hostspeed import HostSpeed

    # Set-up is not scaled for host speed: the kernel, timed in this process,
    # tracks a child interpreter's start-up badly (its spread over seeds rose).
    setup = [probe_setup(workload_cls.name, args.seed) for _ in range(SETUP_REPEATS)]
    workload = workload_cls(args.seed)
    problems = check_reference(workload_cls)  # also warms every code path up

    def more(i):
        if args.max_ops is not None:
            return i < args.max_ops
        return i < MIN_OPS or perf_counter() - started < args.seconds

    tally = Tally()
    speed = HostSpeed()
    started = perf_counter()
    i = 0
    while more(i):
        tally.add(workload, i, *run_op(workload, i))
        speed.after_op()
        i += 1
    wall = tally.latencies
    lat = [t * f for t, f in zip(wall, speed.finish())]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (percentile(lat, 50), "s"),
        "latency_p90_s": (percentile(lat, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "failed_ops_ratio": (tally.failed / tally.ops, "ratio"),
        "latency_samples": (len(lat), "count"),
        "wall_ops_per_s": (len(wall) / sum(wall), "1/s"),
        "wall_latency_p50_s": (percentile(wall, 50), "s"),
        "wall_latency_p90_s": (percentile(wall, 90), "s"),
        "kernel_p50_s": (statistics.median(speed.kernel_times), "s"),
    }
    if tally.rel_errors:
        extra["rel_error_q90"] = (percentile(tally.rel_errors, 90), "ratio")
    details = {"setup_samples_s": setup}
    return tally, problems, metrics, extra, details


def traced_run(workload_cls, args):
    from tracing import Tracer, patched
    from workloads import D_GRID

    count = workload_cls.trace_ops if args.max_ops is None else args.max_ops
    problems = check_reference(workload_cls)
    untraced = run_ops(workload_cls(args.seed), range(count))
    workload = workload_cls(args.seed)
    tracer = Tracer()
    with patched(tracer):
        tally = run_ops(workload, range(count), tracer)
    if tally.summaries != untraced.summaries:
        problems.append("traced outputs differ from untraced outputs")
    off_grid = [(op, d) for op, d in tracer.tune_d if d not in D_GRID]
    if off_grid:
        problems.append(f"tune_d chose off-grid d: {off_grid[:5]}")
    metrics = tracer.layer_metrics(count)
    metrics["trace.overhead_ratio"] = (sum(untraced.latencies) / sum(tally.latencies), "ratio")
    spans = OUT / f"spans-{workload_cls.name}-seed{args.seed}.jsonl"
    tracer.write(spans)
    details = {"spans": str(spans.relative_to(HERE.parent)), "span_count": len(tracer.spans)}
    return tally, problems, metrics, {}, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-ops", type=int, default=None, help="run exactly this many ops (smoke tests)"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.max_ops is not None and args.max_ops < 1:
        parser.error("--max-ops must be at least 1")
    return args


def run_workload(workload_cls, args, load_at_start):
    """One workload's full record and its result object."""
    run = traced_run if args.trace else untraced_run
    tally, problems, metrics, extra, details = run(workload_cls, args)
    problems += tally.mismatches
    record = {
        "workload": workload_cls.name,
        "seed": args.seed,
        "trace": args.trace,
        "ops": tally.ops,
        "failures": dict(tally.failures),
        "failure_examples": tally.examples,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "environment": environment(load_at_start),
        **details,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{workload_cls.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": not problems,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None):
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload == "all" and not args.setup_probe:
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        chosen[0](args.seed).op_input(0)
        return 0

    results = {}
    for workload_cls in chosen:
        record, results[workload_cls.name] = run_workload(workload_cls, args, load_at_start)
        print(json.dumps(record), flush=True)
    if len(results) == 1:
        (result,) = results.values()
    else:
        # All workloads from one process: metric names gain a workload prefix.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
