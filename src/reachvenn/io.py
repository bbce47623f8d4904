"""JSON file formats: datasets, ground truths, fitted models, experiment reports.

A dataset document looks like::

    {"num_bgs": 3,
     "universe_size": 10000.0,          # optional
     "observations": [{"subset": "110", "reach": 4000.0}, ...]}

Subset strings follow the canonical convention: character k (from the left)
is BG k+1's flag.  Observations may come in any order; a dataset is written
in ascending canonical-index order, the order ``ReachDataset`` keeps.
Ground-truth files add an ``allocation`` array of 2**P region reaches (used
by test oracles and the selection harness) and, when produced by a
generator, its parameters.  A model document holds a ``CiModel``'s fields,
with an infinite d written as the string "inf"::

    {"num_bgs": 2, "d": 2.5, "universe_size": 10.0,
     "single_bg_proportions": [0.3, 0.3], "weights": [0.0, 0.2, 0.2, 0.3],
     "training_residual": 0.0}

Every file's ``num_bgs`` lies in [2, ``core.MAX_BGS``], a subset string is
read by ``SubsetMask.parse``, a dataset or model universe by ``check_positive``.
Every file is read by ``read_json``; every JSON document the package writes,
to a file or stdout, by ``write_json``: strict JSON, where a number JSON cannot
spell (an infinite d, q90 or error) is the string "inf" (``json_float``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .core import ReachDataset, RegionAllocation, SubsetMask, basic_masks
from .experiment import ExperimentReport
from .model import CiModel
from .synth import GroundTruth, true_reach


def read_json(path: str | Path):
    """The JSON document in ``path``; one nested too deep to parse is a ValueError."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def write_json(payload: dict, path: str | Path | None = None) -> None:
    """Write ``payload`` to ``path`` (stdout when None) as strict JSON indented
    by 2, with a final newline; a NaN or infinity in it is a ValueError."""
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def json_float(value: float) -> float | str:
    """``value`` as JSON: the string "inf" for infinity, which JSON cannot spell."""
    return "inf" if value == math.inf else value


def _document(payload, keys: tuple[str, ...], what: str) -> dict:
    """``payload``, checked to be a JSON object holding every key in ``keys``."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")
    return payload


def _number(value, what: str) -> float:
    """``value`` as a float, checked to be a JSON number a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be within the float range") from None


def _integer(value, what: str) -> int:
    """``value``, checked to be a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def dataset_to_dict(dataset: ReachDataset) -> dict:
    payload: dict = {"num_bgs": dataset.num_bgs}
    if dataset.universe_size is not None:
        payload["universe_size"] = dataset.universe_size
    payload["observations"] = [
        {"subset": o.subset.to_string(), "reach": o.reach} for o in dataset.observations
    ]
    return payload


def dataset_from_dict(payload: dict) -> ReachDataset:
    _document(payload, ("num_bgs", "observations"), "a dataset document")
    num_bgs = _integer(payload["num_bgs"], "num_bgs")
    universe = payload.get("universe_size")
    if universe is not None:
        universe = _number(universe, "universe_size")
    if not isinstance(payload["observations"], list):
        raise ValueError("a dataset's observations must be a JSON array")
    pairs = []
    for entry in payload["observations"]:
        _document(entry, ("subset", "reach"), "an observation")
        subset = entry["subset"]
        if not isinstance(subset, str):
            raise ValueError(f"subset must be a string, got {json.dumps(subset)}")
        mask = SubsetMask.parse(subset, num_bgs)
        pairs.append((mask, _number(entry["reach"], "reach")))
    return ReachDataset.from_pairs(num_bgs, pairs, universe_size=universe)


def load_dataset(path: str | Path) -> ReachDataset:
    return dataset_from_dict(read_json(path))


def save_dataset(dataset: ReachDataset, path: str | Path) -> None:
    write_json(dataset_to_dict(dataset), path)


def ground_truth_to_dict(truth: GroundTruth) -> dict:
    """Dataset-format document (basic observations included) with the extra
    ``allocation`` field that test oracles and the selection harness read."""
    spec = truth.generator
    return {
        "num_bgs": spec.num_bgs,
        "universe_size": spec.universe_size,
        "observations": [
            {"subset": m.to_string(), "reach": true_reach(truth, m)}
            for m in basic_masks(spec.num_bgs)
        ],
        "allocation": truth.allocation.values.tolist(),
        "generator": asdict(spec),
    }


def save_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    write_json(ground_truth_to_dict(truth), path)


def load_allocation(path: str | Path) -> RegionAllocation:
    """A ground-truth file's allocation; its other fields are not read."""
    payload = _document(read_json(path), ("num_bgs", "allocation"), "a truth file")
    num_bgs = _integer(payload["num_bgs"], "num_bgs")
    values = _numbers(payload["allocation"], "allocation")
    return RegionAllocation.from_values(num_bgs, values)


def _numbers(values, what: str) -> list[float]:
    """``values`` as floats, checked to be a JSON array of numbers."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a JSON array, got {json.dumps(values)}")
    return [_number(value, what) for value in values]


def model_to_dict(model: CiModel) -> dict:
    return {
        "num_bgs": model.num_bgs,
        "d": json_float(model.d),
        "universe_size": model.universe_size,
        "single_bg_proportions": model.single_bg_proportions.tolist(),
        "weights": model.weights.tolist(),
        "training_residual": model.training_residual,
    }


def load_model(path: str | Path) -> CiModel:
    keys = tuple(f.name for f in fields(CiModel))
    payload = _document(read_json(path), keys, "a model")
    d = payload["d"]
    return CiModel(
        num_bgs=_integer(payload["num_bgs"], "num_bgs"),
        d=math.inf if d == "inf" else _number(d, "d"),
        universe_size=_number(payload["universe_size"], "universe_size"),
        training_residual=_number(payload["training_residual"], "training_residual"),
        single_bg_proportions=_numbers(
            payload["single_bg_proportions"], "single_bg_proportions"
        ),
        weights=_numbers(payload["weights"], "weights"),
    )


def save_model(model: CiModel, path: str | Path) -> None:
    write_json(model_to_dict(model), path)


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "generator": asdict(report.generator),
        "num_bgs": report.generator.num_bgs,
        "replicates": report.replicates,
        "seed": report.seed,
        "q90": json_float(report.q90),
        "error_count": report.error_count,
        "runtime_seconds": report.runtime_seconds,
        "errors": [[json_float(e) for e in row] for row in report.errors],
    }
