"""Command-line front end.

Subcommands: check, bounds, curve, fit, predict, select, experiment.
Exit codes: 0 ok, 2 inconsistent data, 3 infeasible/unavailable (or a solver
that stopped before converging, or an allocation that failed), 64 usage.
Structured output goes to stdout (JSON, or CSV for curves); diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import io
from .bounds import (
    CURVE_MODES,
    BoundsSolver,
    check_consistency,
    incremental_curve_bounds,
    repair_dataset,
)
from .core import (
    BoundInterval,
    InconsistencyError,
    SubsetMask,
    UnavailableError,
    enumerate_masks,
    subset_reach_from_allocation,
)
from .experiment import run_experiment
from .model import check_d
from .pipeline import (
    NO_SPARE_POINTS,
    EstimateOptions,
    SelectionState,
    Session,
    estimate_subset,
    resolve_d,
    select_next_point,
)
from .synth import GeneratorSpec

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_UNAVAILABLE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _interval_dict(interval: BoundInterval) -> dict:
    payload = {"lower": interval.lower, "upper": interval.upper}
    if interval.upper_capped:
        payload["upper_capped"] = True
    return payload


def _parse_masks(text: str | None, num_bgs: int) -> list[SubsetMask]:
    """The subsets of a comma-separated list (none when absent)."""
    return [SubsetMask.parse(tok, num_bgs) for tok in text.split(",")] if text else []


def _parse_d(text: str | None) -> float | None:
    if text is None or text == "auto":
        return None
    d = float(text)
    check_d(d)
    return d


def cmd_check(args) -> int:
    dataset = io.load_dataset(args.dataset)
    report = check_consistency(dataset)
    print("consistent" if report.consistent else "inconsistent")
    print(f"t_star: {report.t_star}")
    if args.repair is not None:
        io.save_dataset(repair_dataset(dataset), args.repair)
        print(f"repaired dataset written to {args.repair}")
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def cmd_bounds(args) -> int:
    dataset = io.load_dataset(args.dataset)
    if args.all:
        targets = enumerate_masks(dataset.num_bgs)
    else:
        targets = [SubsetMask.parse(args.target, dataset.num_bgs)]
    intervals = BoundsSolver(dataset).bounds_many(targets)
    bounds = {m.to_string(): _interval_dict(iv) for m, iv in zip(targets, intervals)}
    io.write_json({"num_bgs": dataset.num_bgs, "bounds": bounds})
    return EXIT_OK


def cmd_curve(args) -> int:
    dataset = io.load_dataset(args.dataset)
    order = [int(tok) for tok in args.order.split(",")]
    rows = incremental_curve_bounds(dataset, order, args.mode)
    pinned = args.mode != "free"
    print("prefix_length,subset,lower,upper" + (",pinned" if pinned else ""))
    for row in rows:
        fields = [row.prefix_length, row.subset, row.interval.lower, row.interval.upper]
        print(",".join(str(f) for f in fields + ([row.pinned] if pinned else [])))
    return EXIT_OK


def cmd_fit(args) -> int:
    dataset = io.load_dataset(args.dataset)
    d = _parse_d(args.d)
    dataset.check_basic_points()
    session = Session(dataset)
    d, policy = resolve_d(session, d)
    model = session.model(d)
    payload = io.model_to_dict(model)
    payload["d_policy"] = policy
    payload["repaired"] = session.repaired
    if args.out is not None:
        io.save_model(model, args.out)
    io.write_json(payload)
    return EXIT_OK


def cmd_predict(args) -> int:
    dataset = io.load_dataset(args.dataset)
    target = SubsetMask.parse(args.target, dataset.num_bgs)
    if args.model is not None:
        if args.alpha is not None or args.d is not None:
            raise ValueError("--model takes neither --alpha nor --d")
        model = io.load_model(args.model)
        estimate = Session(dataset).estimate(model, target, clamp=not args.no_clamp)
    else:
        options = EstimateOptions(
            clamp=not args.no_clamp, alpha=args.alpha, d=_parse_d(args.d)
        )
        estimate = estimate_subset(dataset, target, options)
    payload = {
        "target": target.to_string(),
        "point": estimate.point,
        "interval_100": _interval_dict(estimate.interval_100),
        "d": io.json_float(estimate.d),
        "d_policy": estimate.d_policy,
        "universe_size": estimate.universe_size,
        "repaired": estimate.repaired,
    }
    if args.alpha is not None:
        if estimate.interval_alpha is None:
            payload["interval_alpha"] = None
            payload["alpha_note"] = NO_SPARE_POINTS
        else:
            payload["interval_alpha"] = _interval_dict(estimate.interval_alpha)
            payload["alpha"] = estimate.alpha
    io.write_json(payload)
    return EXIT_OK


def cmd_select(args) -> int:
    if args.budget < 0:
        raise ValueError(f"budget must be non-negative, got {args.budget}")
    dataset = io.load_dataset(args.dataset)
    allocation = io.load_allocation(args.truth)
    if allocation.num_bgs != dataset.num_bgs:
        raise ValueError(f"truth has {allocation.num_bgs} BGs, dataset {dataset.num_bgs}")
    exclude = _parse_masks(args.exclude, dataset.num_bgs)
    track = _parse_masks(args.track, dataset.num_bgs)
    state = SelectionState.initial(dataset, exclude=exclude)
    rounds = []
    warning = None
    for round_index in range(1, args.budget + 1):
        try:
            state = select_next_point(
                state, lambda m: subset_reach_from_allocation(m, allocation)
            )
        except UnavailableError:
            warning = f"candidates exhausted after {round_index - 1} selections"
            break
        selected = state.chosen[-1]
        entry = {
            "round": round_index,
            "selected": selected.to_string(),
            "measured_reach": state.measurements.reach_of(selected),
        }
        if track:
            intervals = state.solver.bounds_many(track)
            entry["tracked"] = {
                m.to_string(): _interval_dict(iv) for m, iv in zip(track, intervals)
            }
        rounds.append(entry)
    payload = {"rounds": rounds, "chosen": [m.to_string() for m in state.chosen]}
    if warning:
        payload["warning"] = warning
    io.write_json(payload)
    return EXIT_OK


def cmd_experiment(args) -> int:
    spec = GeneratorSpec(
        kind="ci_groups" if args.generator == "ci" else "dirichlet",
        num_bgs=args.p,
        universe_size=args.universe,
        seed=args.seed,
        num_groups=args.groups,
        reach_beta_a=args.beta_a,
        reach_beta_b=args.beta_b,
        alpha=args.alpha,
    )
    report = run_experiment(
        spec, replicates=args.replicates, seed=args.seed, max_workers=args.workers
    )
    payload = io.report_to_dict(report)
    if args.out is not None:
        io.write_json(payload, args.out)
        del payload["errors"]
    io.write_json(payload)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="reachvenn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate reach consistency")
    p.add_argument("dataset", help="dataset JSON file")
    p.add_argument("--repair", metavar="OUT", help="write a repaired dataset here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bounds", help="tightest reach bounds for subsets")
    p.add_argument("dataset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="subset string, e.g. 101")
    group.add_argument("--all", action="store_true", help="bound every non-zero subset")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("curve", help="incremental reach curve bounds (CSV)")
    p.add_argument("dataset")
    p.add_argument("--order", required=True, help="BG permutation, e.g. 1,2,3,4,5")
    p.add_argument("--mode", choices=CURVE_MODES, default="free")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("fit", help="fit the conditional-independence model")
    p.add_argument("dataset")
    p.add_argument("--d", default="auto", help="'auto', 'inf', or a number >= 1")
    p.add_argument("--out", help="also write the model JSON here")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="estimate one subset's reach")
    p.add_argument("dataset")
    p.add_argument("--target", required=True)
    p.add_argument("--d", help="'auto' (the default), 'inf', or a number >= 1")
    p.add_argument("--alpha", type=float, help="confidence level for the error bar")
    p.add_argument("--no-clamp", action="store_true", help="skip clamping into bounds")
    p.add_argument("--model", help="reuse a saved model instead of fitting")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("select", help="adaptively pick subsets to measure")
    p.add_argument("dataset")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--truth", required=True, help="ground-truth JSON with allocation")
    p.add_argument("--exclude", help="comma-separated masks kept out of selection")
    p.add_argument("--track", help="comma-separated masks whose bounds are logged")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("experiment", help="synthetic benchmark harness")
    p.add_argument("--generator", choices=["ci", "dirichlet"], required=True)
    p.add_argument("--p", type=int, required=True, help="number of BGs")
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--universe", type=float, default=1_000_000.0)
    defaults = GeneratorSpec  # the generator parameters' defaults are the spec's
    p.add_argument("--groups", type=int, default=defaults.num_groups, help="ci groups")
    p.add_argument("--beta-a", type=float, default=defaults.reach_beta_a)
    p.add_argument("--beta-b", type=float, default=defaults.reach_beta_b)
    p.add_argument(
        "--alpha", type=float, default=defaults.alpha, help="dirichlet concentration"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes to run replicates in, at most one per replicate",
    )
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (UnavailableError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
