"""README's Python example runs and gives the values its comments state, and
its public-API block lists exactly ``reachvenn.__all__``."""

import importlib
import re
from pathlib import Path
from types import ModuleType

import pytest

import reachvenn
from reachvenn import SubsetMask, check_consistency, subset_bounds

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    ds, est = namespace["ds"], namespace["est"]
    assert check_consistency(ds).consistent is True
    interval = subset_bounds(ds, SubsetMask.from_string("101"))
    assert abs(interval.lower - 5000.0) <= 1e-6 * ds.scale
    assert abs(interval.upper - 6000.0) <= 1e-6 * ds.scale
    assert interval.lower <= est.point <= interval.upper


# Internal names: each is imported from its own module, never from the top level.
INTERNAL = {
    "reachvenn.core": [
        "dataset_from_allocation",
        "incidence_vector",
        "subset_reach_from_allocation",
    ],
    "reachvenn.model": [
        "SegmentMatrix",
        "build_segment_matrix",
        "fit",
        "fit_leave_one_out",
        "fit_segments",
        "min_perfect_fit_d",
        "predict",
        "predict_row",
        "segment_row",
        "segment_rows",
    ],
    "reachvenn.pipeline": ["nearest_rank_percentile", "relative_errors"],
}


def documented_api() -> list[str]:
    """The names listed in README's marked public-API block, in order."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"<!-- public-api:begin -->\n(.*?)<!-- public-api:end -->", text, re.S)
    assert block is not None
    return re.findall(r"^- `(\w+)", block.group(1), re.M)


def test_all_is_the_documented_api():
    documented = documented_api()
    assert len(documented) == len(set(documented))
    assert sorted(documented) == sorted(reachvenn.__all__)


def test_top_level_holds_the_api_and_submodules_only():
    public = [name for name in dir(reachvenn) if not name.startswith("_")]
    modules = {name for name in public if isinstance(getattr(reachvenn, name), ModuleType)}
    for name in modules:
        assert getattr(reachvenn, name).__name__ == f"reachvenn.{name}"
    assert set(public) - modules == set(reachvenn.__all__)


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in INTERNAL.items() for name in names]
)
def test_internal_names_import_from_their_modules(module, name):
    assert callable(getattr(importlib.import_module(module), name))
    with pytest.raises(ImportError):
        exec(f"from reachvenn import {name}", {})
