"""README's Python example runs and gives the values its comments state."""

import re
from pathlib import Path

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
