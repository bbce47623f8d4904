"""Every input-rule case: one owner and one message per rule, at every entry point.

Six rules on the inputs each have one owner: the basic points
(``ReachDataset.check_basic_points``), a non-empty subset of P BGs
(``SubsetMask.check_observable``), a positive finite size
(``core.check_positive``), alpha in (0, 100] (``pipeline.check_alpha``), d in
[1, inf] (``model.check_d``) and the spare points n > P + 1
(``pipeline.NO_SPARE_POINTS``).  Every library call and
CLI command that reads such an input goes through the owner, so they all give
its one message, and the CLI exits 64 with it.  A check that runs up front
runs no solver: no phase 1 and no least-squares fit.

The document rules that ``io`` owns (UTF-8 text, a JSON object with its keys,
numbers, integers and arrays, the BG count, nesting depth and a saved model's
own checks) have one table per document kind: dataset, truth file and saved
model.  Each case runs through the kind's loader and its command.
"""

import json
import math

import numpy as np
import pytest

from reachvenn import bounds, io, lp, lsq, model
from reachvenn.bounds import BoundsSolver
from reachvenn.cli import main
from reachvenn.core import (
    ReachDataset,
    ReachObservation,
    RegionAllocation,
    SubsetMask,
    UnavailableError,
    check_positive,
    incidence_vector,
    subset_reach_from_allocation,
)
from reachvenn.model import CiModel, build_segment_matrix, estimate_universe, fit
from reachvenn.pipeline import (
    NO_SPARE_POINTS,
    EstimateOptions,
    SelectionState,
    Session,
    check_alpha,
    error_bar,
    estimate_subset,
    nearest_rank_percentile,
    resolve_d,
    tune_d,
)
from reachvenn.synth import GeneratorSpec

from conftest import triangle_dataset


def forbid(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} ran before an input rule failed")

    return refused


@pytest.fixture
def no_solver(monkeypatch):
    """Fail any phase 1, LP optimisation or simplex least-squares solve."""

    def arm():
        monkeypatch.setattr(lp.EqualityFormSolver, "__init__", forbid("phase 1"))
        monkeypatch.setattr(lp.EqualityFormSolver, "optimize", forbid("an LP solve"))
        for module in (lsq, model, bounds):
            monkeypatch.setattr(module, "simplex_lstsq", forbid("simplex_lstsq"))

    return arm


class Run:
    """Runs one entry point and returns the message it failed with."""

    def __init__(self, tmp_path, capsys):
        self.tmp_path = tmp_path
        self.capsys = capsys

    def lib(self, call, error=ValueError) -> str:
        with pytest.raises(error) as info:
            call()
        return str(info.value)

    def cli(self, *argv) -> str:
        code = main([str(arg) for arg in argv])
        out, err = self.capsys.readouterr()
        assert (code, out) == (64, "")
        assert err.startswith("error: ") and err.endswith("\n")
        return err[len("error: ") : -1]

    def note(self, *argv) -> str:
        """The alpha note of a predict run that succeeds."""
        assert main([str(arg) for arg in argv]) == 0
        payload = json.loads(self.capsys.readouterr().out)
        assert payload["interval_alpha"] is None
        return payload["alpha_note"]

    def file(self, name: str, payload: dict | str | bytes):
        """``payload`` written to ``name``: a dict as JSON, text or bytes as they are."""
        path = self.tmp_path / name
        text = json.dumps(payload) if isinstance(payload, dict) else payload
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        return path

    def dataset_file(self, dataset: ReachDataset):
        return self.file("dataset.json", io.dataset_to_dict(dataset))


@pytest.fixture
def run(tmp_path, capsys):
    return Run(tmp_path, capsys)


def triangle_truth():
    """A truth-file document of 3 BGs."""
    return {"num_bgs": 3, "allocation": [1.0] * 8}


# -- Basic points: every single-BG reach and the union reach ---------------

BASICS = "dataset lacks a basic point: a single-BG or union reach"


def lacking_basics(universe):
    """The triangle without its union (a spare point, but not every basic
    one), and the triangle without its third single."""
    no_union = [("100", 3000), ("010", 3000), ("001", 3000), ("011", 5000)]
    no_single = [("100", 3000), ("010", 3000), ("111", 7000), ("011", 5000)]
    return [ReachDataset.from_pairs(3, p, universe) for p in (no_union, no_single)]


# name -> (entry, up front: runs no solver before the rule fails)
BASICS_ENTRIES = {
    "estimate_universe": (lambda run, ds: run.lib(lambda: estimate_universe(ds)), True),
    "build_segment_matrix": (
        lambda run, ds: run.lib(lambda: build_segment_matrix(ds, 2.0)),
        True,
    ),
    "fit": (lambda run, ds: run.lib(lambda: fit(ds, 2.0)), True),
    "SelectionState.initial": (
        lambda run, ds: run.lib(lambda: SelectionState.initial(ds)),
        True,
    ),
    "estimate_subset": (
        lambda run, ds: run.lib(lambda: estimate_subset(ds, SubsetMask(5, 3))),
        True,
    ),
    "Session.model": (lambda run, ds: run.lib(lambda: Session(ds).model(2.0)), False),
    "cli fit": (lambda run, ds: run.cli("fit", run.dataset_file(ds)), True),
    "cli fit --d 2": (
        lambda run, ds: run.cli("fit", run.dataset_file(ds), "--d", "2"),
        True,
    ),
    "cli predict": (
        lambda run, ds: run.cli("predict", run.dataset_file(ds), "--target", "101"),
        True,
    ),
    "cli select": (
        lambda run, ds: run.cli(
            "select", run.dataset_file(ds), "--budget", "1",
            "--truth", run.file("truth.json", triangle_truth()),
        ),
        True,
    ),
}


class TestOneBasicsRule:
    @pytest.mark.parametrize("entry", BASICS_ENTRIES)
    @pytest.mark.parametrize("universe", [None, 10000.0])
    def test_rejected_with_one_message(self, run, no_solver, entry, universe):
        call, up_front = BASICS_ENTRIES[entry]
        if up_front:
            no_solver()
        for dataset in lacking_basics(universe):
            assert call(run, dataset) == BASICS


# -- A non-empty subset of the dataset's P BGs ------------------------------


# name -> entry(run, mask, solver of the triangle)
SUBSET_LIBRARY = {
    "check_observable": lambda run, bad, _: run.lib(lambda: bad.check_observable(3)),
    "ReachObservation in a dataset": lambda run, bad, _: run.lib(
        lambda: ReachDataset(3, None, (ReachObservation(bad, 1.0),))
    ),
    "from_pairs": lambda run, bad, _: run.lib(
        lambda: ReachDataset.from_pairs(3, [(bad, 1.0)])
    ),
    "with_observation": lambda run, bad, _: run.lib(
        lambda: triangle_dataset().with_observation(bad, 1.0)
    ),
    "subset_reach_from_allocation": lambda run, bad, _: run.lib(
        lambda: subset_reach_from_allocation(bad, RegionAllocation(3, np.ones(8)))
    ),
    "segment_rows": lambda run, bad, _: run.lib(
        lambda: model.segment_rows([bad], np.full(3, 0.3), 2.0)
    ),
    "BoundsSolver.bounds": lambda run, bad, solver: run.lib(lambda: solver.bounds(bad)),
    "BoundsSolver.bounds_many": lambda run, bad, solver: run.lib(
        lambda: solver.bounds_many([bad])
    ),
    "BoundsSolver.bounds_without": lambda run, bad, solver: run.lib(
        lambda: solver.bounds_without(bad)
    ),
    "estimate_subset": lambda run, bad, _: run.lib(
        lambda: estimate_subset(triangle_dataset(), bad)
    ),
    "SelectionState.initial exclude": lambda run, bad, _: run.lib(
        lambda: SelectionState.initial(triangle_dataset(), exclude=[bad])
    ),
}

# The CLI reads only strings, whose length ``SubsetMask.parse`` checks first,
# and ``incidence_vector`` knows no P but the mask's own: these entries take
# the empty mask alone.
SUBSET_EMPTY_ONLY = {
    "incidence_vector": lambda run, bad, _: run.lib(lambda: incidence_vector(bad)),
    "cli bounds": lambda run, *_: run.cli(
        "bounds", run.dataset_file(triangle_dataset()), "--target", "000"
    ),
    "cli predict": lambda run, *_: run.cli(
        "predict", run.dataset_file(triangle_dataset()), "--target", "000"
    ),
    "cli select --exclude": lambda run, *_: run.cli(
        "select", run.dataset_file(triangle_dataset()), "--budget", "1",
        "--truth", run.file("truth.json", triangle_truth()), "--exclude", "110,000",
    ),
    "cli select --track": lambda run, *_: run.cli(
        "select", run.dataset_file(triangle_dataset()), "--budget", "1",
        "--truth", run.file("truth.json", triangle_truth()), "--track", "000",
    ),
}


class TestOneSubsetRule:
    """The empty mask and a mask of 2 BGs, against a dataset of 3 BGs.  A
    string of the wrong length is ``SubsetMask.parse``'s own length rule."""

    @pytest.mark.parametrize(
        "entry, bad",
        [(entry, bad) for entry in SUBSET_LIBRARY for bad in ("000", "10")]
        + [(entry, "000") for entry in SUBSET_EMPTY_ONLY],
    )
    def test_rejected_with_one_message(self, run, no_solver, entry, bad):
        solver = BoundsSolver(triangle_dataset())  # its phase 1 runs before the spy
        no_solver()
        call = {**SUBSET_LIBRARY, **SUBSET_EMPTY_ONLY}[entry]
        message = call(run, SubsetMask.from_string(bad), solver)
        assert message == f"subset '{bad}' is not a non-empty subset of 3 BGs"

    def test_string_masks_read_as_files_read_them(self):
        # A library caller's string and a file's string go through one parse.
        with pytest.raises(ValueError, match=r"^subset '000' is not a non-empty"):
            ReachDataset.from_pairs(3, [("000", 1.0)])
        with pytest.raises(ValueError, match=r"^subset '10' does not have 3 characters"):
            ReachDataset.from_pairs(3, [("10", 1.0)])


# -- A positive finite size ------------------------------------------------

BAD_SIZES = [0.0, -1.0, math.nan, math.inf]


def model_payload(universe=10.0, d=2.0):
    """A model document of 2 BGs."""
    return {
        "num_bgs": 2,
        "d": io.json_float(d),
        "universe_size": universe,
        "single_bg_proportions": [0.3, 0.3],
        "weights": [0.0, 0.2, 0.2, 0.3],
        "training_residual": 0.0,
    }


BASICS_2 = [("10", 3.0), ("01", 3.0), ("11", 5.0)]


def basics_2():
    """The basics of 2 BGs in a universe of 10."""
    return ReachDataset.from_pairs(2, BASICS_2, universe_size=10.0)


def basics_payload(universe=None):
    """A dataset document of the basics of 2 BGs."""
    return {
        "num_bgs": 2,
        "universe_size": universe,
        "observations": [{"subset": s, "reach": r} for s, r in BASICS_2],
    }


# name -> (entry, the name of the size it checks)
SIZE_ENTRIES = {
    "check_positive": (
        lambda run, v: run.lib(lambda: check_positive("universe_size", v)),
        "universe_size",
    ),
    "ReachDataset": (
        lambda run, v: run.lib(
            lambda: ReachDataset.from_pairs(2, [("10", 1.0)], universe_size=v)
        ),
        "universe_size",
    ),
    "CiModel": (
        lambda run, v: run.lib(
            lambda: CiModel(2, 2.0, v, np.full(2, 0.3), np.zeros(4), 0.0)
        ),
        "universe_size",
    ),
    "GeneratorSpec universe": (
        lambda run, v: run.lib(lambda: GeneratorSpec("ci_groups", 4, v, seed=0)),
        "universe_size",
    ),
    "GeneratorSpec beta": (
        lambda run, v: run.lib(
            lambda: GeneratorSpec("ci_groups", 4, 1e6, seed=0, reach_beta_a=v)
        ),
        "reach_beta_a",
    ),
    "io.load_dataset": (
        lambda run, v: run.lib(
            lambda: io.load_dataset(run.file("ds.json", basics_payload(v)))
        ),
        "universe_size",
    ),
    "io.load_model": (
        lambda run, v: run.lib(
            lambda: io.load_model(run.file("model.json", model_payload(universe=v)))
        ),
        "universe_size",
    ),
    "cli fit": (
        lambda run, v: run.cli("fit", run.file("ds.json", basics_payload(v))),
        "universe_size",
    ),
    "cli predict --model": (
        lambda run, v: run.cli(
            "predict", run.file("ds.json", basics_payload(None)), "--target", "11",
            "--model", run.file("model.json", model_payload(universe=v)),
        ),
        "universe_size",
    ),
    "cli experiment --universe": (
        lambda run, v: run.cli(
            "experiment", "--generator", "ci", "--p", "4", "--replicates", "1",
            "--universe", v,
        ),
        "universe_size",
    ),
    "cli experiment --beta-a": (
        lambda run, v: run.cli(
            "experiment", "--generator", "ci", "--p", "4", "--replicates", "1",
            "--beta-a", v,
        ),
        "reach_beta_a",
    ),
    "cli experiment --beta-b": (
        lambda run, v: run.cli(
            "experiment", "--generator", "ci", "--p", "4", "--replicates", "1",
            "--beta-b", v,
        ),
        "reach_beta_b",
    ),
    "cli experiment --alpha": (
        lambda run, v: run.cli(
            "experiment", "--generator", "dirichlet", "--p", "4", "--replicates", "1",
            "--alpha", v,
        ),
        "alpha",
    ),
}


class TestOneSizeRule:
    @pytest.mark.parametrize("entry", SIZE_ENTRIES)
    @pytest.mark.parametrize("value", BAD_SIZES)
    def test_rejected_with_one_message(self, run, no_solver, entry, value):
        call, name = SIZE_ENTRIES[entry]
        no_solver()
        assert call(run, value) == f"{name} must be positive and finite, got {value}"


# -- alpha in (0, 100] -------------------------------------------------------

BAD_ALPHAS = [0.0, -5.0, 150.0, math.nan, math.inf]


def spare_session_estimate():
    """(session, d, estimate) on the triangle, which has a spare point."""
    session = Session(triangle_dataset())
    estimate = session.estimate(session.model(2.0), SubsetMask(5, 3), clamp=False)
    return session, 2.0, estimate


ALPHA_ENTRIES = {
    "check_alpha": (lambda run, a: run.lib(lambda: check_alpha(a)), True),
    "EstimateOptions": (lambda run, a: run.lib(lambda: EstimateOptions(alpha=a)), True),
    "nearest_rank_percentile": (
        lambda run, a: run.lib(lambda: nearest_rank_percentile([1.0], a)),
        True,
    ),
    "error_bar": (
        lambda run, a: run.lib(lambda: error_bar(*spare_session_estimate(), a)),
        False,
    ),
    "cli predict, spare points": (
        lambda run, a: run.cli(
            "predict", run.dataset_file(triangle_dataset()), "--target", "101",
            "--alpha", a,
        ),
        True,
    ),
    "cli predict, basics only": (
        lambda run, a: run.cli(
            "predict", run.file("ds.json", basics_payload(10.0)), "--target", "11",
            "--alpha", a,
        ),
        True,
    ),
}


class TestOneAlphaRule:
    @pytest.mark.parametrize("entry", ALPHA_ENTRIES)
    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_rejected_with_one_message(self, run, no_solver, entry, alpha):
        call, up_front = ALPHA_ENTRIES[entry]
        if up_front:
            no_solver()
        assert call(run, alpha) == f"alpha must lie in (0, 100], got {alpha}"


# -- d in [1, inf] -----------------------------------------------------------

BAD_DS = [math.nan, -3.0, 0.5]

# name -> call(run, d, session of ``basics_2``)
D_LIBRARY = {
    "segment_rows": lambda run, d, _: model.segment_rows(
        basics_2().masks(), np.full(2, 0.3), d
    ),
    "segment_row": lambda run, d, _: model.segment_row(SubsetMask(1, 2), np.full(2, 0.3), d),
    "build_segment_matrix": lambda run, d, _: build_segment_matrix(basics_2(), d),
    "fit": lambda run, d, _: fit(basics_2(), d),
    "CiModel": lambda run, d, _: CiModel(2, d, 10.0, np.full(2, 0.3), np.zeros(4), 0.0),
    "resolve_d": lambda run, d, session: resolve_d(session, d),
    "Session.model": lambda run, d, session: session.model(d),
    "Session.loo_table": lambda run, d, session: session.loo_table([d]),
    "EstimateOptions": lambda run, d, _: EstimateOptions(d=d),
    "estimate_subset": lambda run, d, _: estimate_subset(
        triangle_dataset(), SubsetMask(5, 3), EstimateOptions(d=d)
    ),
    "io.load_model": lambda run, d, _: io.load_model(
        run.file("model.json", model_payload(d=d))
    ),
}

D_CLI = {
    "cli predict --d": lambda run, d: run.cli(
        "predict", run.dataset_file(triangle_dataset()), "--target", "101", "--d", d
    ),
    "cli fit --d": lambda run, d: run.cli(
        "fit", run.dataset_file(triangle_dataset()), "--d", d
    ),
    "cli predict --model": lambda run, d: run.cli(
        "predict", run.file("ds.json", basics_payload(None)), "--target", "11",
        "--model", run.file("model.json", model_payload(d=d)),
    ),
}


class TestOneDRule:
    @pytest.mark.parametrize("entry", {**D_LIBRARY, **D_CLI})
    @pytest.mark.parametrize("d", BAD_DS)
    def test_rejected_with_one_message(self, run, no_solver, entry, d):
        session = Session(basics_2())  # its phase 1 runs before the spy
        no_solver()
        if entry in D_LIBRARY:
            message = run.lib(lambda: D_LIBRARY[entry](run, d, session))
        else:
            message = D_CLI[entry](run, d)
        assert message == f"d must be at least 1 (or inf), got {d}"

    @pytest.mark.parametrize("entry", D_LIBRARY)
    @pytest.mark.parametrize("d", [1.0, math.inf])
    def test_one_and_inf_accepted(self, run, entry, d):
        D_LIBRARY[entry](run, d, Session(basics_2()))


# -- Spare points: n > P + 1 -------------------------------------------------

SPARE = "unavailable without spare points: leave-one-out needs n > P + 1"


def basics_session_estimate():
    """A session on the basics alone, and an estimate it made."""
    session = Session(basics_2())
    return session, session.estimate(session.model(math.inf), SubsetMask(1, 2))


# name -> (entry, up front: runs no solver before the rule fails)
SPARE_ENTRIES = {
    "tune_d": (
        lambda run, session, _: run.lib(lambda: tune_d(session), UnavailableError),
        True,
    ),
    "error_bar": (
        lambda run, session, estimate: run.lib(
            lambda: error_bar(session, math.inf, estimate, 90.0), UnavailableError
        ),
        True,
    ),
    # The CLI still answers; it notes the rule where the interval would be.
    "cli predict --alpha": (
        lambda run, *_: run.note(
            "predict", run.file("ds.json", basics_payload(10.0)), "--target", "11",
            "--alpha", "90",
        ),
        False,
    ),
}


class TestOneSparePointsRule:
    @pytest.mark.parametrize("entry", SPARE_ENTRIES)
    def test_rejected_with_one_message(self, run, no_solver, entry):
        call, up_front = SPARE_ENTRIES[entry]
        session, estimate = basics_session_estimate()
        if up_front:
            no_solver()
        assert call(run, session, estimate) == NO_SPARE_POINTS == SPARE


# -- Documents: the file rules ``io`` owns, one table per document kind -------


def edited(payload: dict, value, *path) -> dict:
    """``payload`` with its item at ``path`` (keys and indexes) set to ``value``."""
    item = payload
    for key in path[:-1]:
        item = item[key]
    item[path[-1]] = value
    return payload


def data(value, *path):
    return edited(basics_payload(), value, *path)


def truth(value, *path):
    return edited(triangle_truth(), value, *path)


def saved(value, *path):
    return edited(model_payload(), value, *path)


# ``json.load`` raises RecursionError, a RuntimeError, on a document nested
# this deep; ``io.read_json`` makes it a ValueError naming the file.
DEEP = "[" * 100_000 + "]" * 100_000


def too_deep(path):
    return f"{path}: JSON nested too deeply"


def empty(path):
    return f"{path}: Expecting value: line 1 column 1 (char 0)"


# A UTF-16 byte order mark: byte 0xff never occurs in UTF-8.
NOT_UTF8 = b"\xff\xfe"


def not_utf8(path):
    return f"{path}: not UTF-8: invalid start byte at byte 0"


# case -> (document: a dict, raw JSON text or raw bytes; its message, or the
# message given the file's path)
DATASET_CASES = {
    "a JSON array": ('[{"subset": "10", "reach": 1.0}]',
                     "a dataset document must be a JSON object"),
    "no observations": ({"num_bgs": 2}, "a dataset document lacks observations"),
    "subset missing": (data({"reach": 1.0}, "observations", 0), "an observation lacks subset"),
    "observations 5": (data(5, "observations"), "observations must be a JSON array, got 5"),
    "num_bgs null": (data(None, "num_bgs"), "num_bgs must be an integer, got null"),
    "num_bgs 2.5": (data(2.5, "num_bgs"), "num_bgs must be an integer, got 2.5"),
    "reach null": (data(None, "observations", 0, "reach"), "reach must be a number, got null"),
    "universe object": (data({"value": 5.0}, "universe_size"),
                        'universe_size must be a number, got {"value": 5.0}'),
    "subset 100": (data(100, "observations", 0, "subset"), "subset must be a string, got 100"),
    "subset null": (data(None, "observations", 0, "subset"),
                    "subset must be a string, got null"),
    "subset '100'": (data("100", "observations", 0, "subset"),
                     "subset '100' does not have 2 characters (num_bgs=2)"),
    "reach 1e400": (data(10**400, "observations", 0, "reach"),
                    "reach must be within the float range"),
    "universe 1e400": (data(10**400, "universe_size"),
                       "universe_size must be within the float range"),
    "nested too deeply": (DEEP, too_deep),
    "empty file": ("", empty),
    "not UTF-8": (NOT_UTF8, not_utf8),
}

# json.dumps writes math.nan and math.inf as NaN and Infinity, which json.load
# reads back.
TRUTH_CASES = {
    "no allocation": ({"num_bgs": 3}, "a truth file lacks allocation"),
    "num_bgs null": (truth(None, "num_bgs"), "num_bgs must be an integer, got null"),
    "allocation true": (truth(True, "allocation", 1), "allocation must be a number, got true"),
    "allocation null": (truth(None, "allocation", 0), "allocation must be a number, got null"),
    "allocation NaN": (truth(math.nan, "allocation", 1),
                       "allocation entries must be finite and non-negative"),
    "allocation Infinity": (truth(math.inf, "allocation", 7),
                            "allocation entries must be finite and non-negative"),
    "num_bgs 21": (truth(21, "num_bgs"), "num_bgs must be in [2, 20], got 21"),
    "num_bgs 10**6": (truth(10**6, "num_bgs"), "num_bgs must be in [2, 20], got 1000000"),
    "4 entries": (truth([1.0] * 4, "allocation"), "allocation needs 8 entries, got 4"),
    "nested too deeply": (DEEP, too_deep),
    "empty file": ("", empty),
    "not UTF-8": (NOT_UTF8, not_utf8),
}

MODEL_CASES = {
    "no d": (
        {"num_bgs": 3},
        "a model lacks d, universe_size, single_bg_proportions, weights, training_residual",
    ),
    "d null": (saved(None, "d"), "d must be a number, got null"),
    "num_bgs 3.5": (saved(3.5, "num_bgs"), "num_bgs must be an integer, got 3.5"),
    "universe string": (saved("1000", "universe_size"),
                        'universe_size must be a number, got "1000"'),
    "residual null": (saved(None, "training_residual"),
                      "training_residual must be a number, got null"),
    "weights null": (saved(None, "weights"), "weights must be a JSON array, got null"),
    "proportion null": (saved([0.1, None, 0.2], "single_bg_proportions"),
                        "single_bg_proportions must be a number, got null"),
    "proportion 3": (saved(3.0, "single_bg_proportions", 1),
                     "single_bg_proportions must lie in [0, 1]"),
    "proportion NaN": (saved(math.nan, "single_bg_proportions", 0),
                       "single_bg_proportions must lie in [0, 1]"),
    "weight NaN": (saved(math.nan, "weights", 2),
                   "weights must be finite and non-negative with sum <= 1"),
    "residual NaN": (saved(math.nan, "training_residual"),
                     "training_residual must be finite and non-negative"),
    "3 weights": (saved([0.0, 0.2, 0.2], "weights"), "model dimensions do not match num_bgs"),
    # The BG-count rule runs before anything sized by 2**num_bgs is built.
    "num_bgs 21": (saved(21, "num_bgs"), "num_bgs must be in [2, 20], got 21"),
    "num_bgs 10**6": (saved(10**6, "num_bgs"), "num_bgs must be in [2, 20], got 1000000"),
    "nested too deeply": (DEEP, too_deep),
    "empty file": ("", empty),
    "not UTF-8": (NOT_UTF8, not_utf8),
}

# kind -> (its cases, its loader, the argv of the command that reads the file)
DOCUMENT_KINDS = {
    "dataset": (DATASET_CASES, io.load_dataset, lambda run, path: ("bounds", path, "--all")),
    "truth": (TRUTH_CASES, io.load_allocation, lambda run, path: (
        "select", run.dataset_file(triangle_dataset()), "--budget", "1", "--truth", path)),
    "model": (MODEL_CASES, io.load_model, lambda run, path: (
        "predict", run.file("ds.json", basics_payload()), "--target", "11", "--model", path)),
}


class TestDocumentRules:
    @pytest.mark.parametrize(
        "kind, case",
        [(kind, case) for kind, (cases, *_) in DOCUMENT_KINDS.items() for case in cases],
    )
    def test_rejected_with_one_message(self, run, no_solver, kind, case):
        cases, load, command = DOCUMENT_KINDS[kind]
        document, message = cases[case]
        path = run.file(f"{kind}.json", document)
        if callable(message):
            message = message(path)
        no_solver()
        assert run.lib(lambda: load(path)) == message
        assert run.cli(*command(run, path)) == message
