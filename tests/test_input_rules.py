"""One owner and one message per input rule, at every entry point.

Five rules on the inputs each have one owner: the basic points
(``ReachDataset.check_basic_points``), a non-empty subset of P BGs
(``SubsetMask.check_observable``), a positive finite size
(``core.check_positive``), alpha in (0, 100] (``pipeline.check_alpha``) and the
spare points n > P + 1 (``pipeline.NO_SPARE_POINTS``).  Every library call and
CLI command that reads such an input goes through the owner, so they all give
its one message, and the CLI exits 64 with it.  A check that runs up front
runs no solver: no phase 1 and no least-squares fit.
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

    def file(self, name: str, payload: dict):
        path = self.tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def dataset_file(self, dataset: ReachDataset):
        return self.file("dataset.json", io.dataset_to_dict(dataset))


@pytest.fixture
def run(tmp_path, capsys):
    return Run(tmp_path, capsys)


def triangle_truth(run):
    return run.file("truth.json", {"num_bgs": 3, "allocation": [1.0] * 8})


# -- Basic points: every single-BG reach and the union reach ---------------

BASICS = "dataset lacks a basic point: a single-BG or union reach"


def no_union(universe):
    """The triangle without its union: a spare point, but not every basic one."""
    pairs = [("100", 3000), ("010", 3000), ("001", 3000), ("011", 5000)]
    return ReachDataset.from_pairs(3, pairs, universe_size=universe)


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
    "cli fit": (lambda run, ds: run.cli("fit", run.dataset_file(ds)), False),
    "cli fit --d 2": (
        lambda run, ds: run.cli("fit", run.dataset_file(ds), "--d", "2"),
        False,
    ),
    "cli predict": (
        lambda run, ds: run.cli("predict", run.dataset_file(ds), "--target", "101"),
        True,
    ),
    "cli select": (
        lambda run, ds: run.cli(
            "select", run.dataset_file(ds), "--budget", "1", "--truth", triangle_truth(run)
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
        assert call(run, no_union(universe)) == BASICS


# -- A non-empty subset of the dataset's P BGs ------------------------------


# name -> entry(run, mask, solver of the triangle); the CLI reads only strings,
# so its entries take the empty mask alone.
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
}

SUBSET_CLI = {
    "cli bounds": lambda run, *_: run.cli(
        "bounds", run.dataset_file(triangle_dataset()), "--target", "000"
    ),
    "cli predict": lambda run, *_: run.cli(
        "predict", run.dataset_file(triangle_dataset()), "--target", "000"
    ),
    "cli select --exclude": lambda run, *_: run.cli(
        "select", run.dataset_file(triangle_dataset()), "--budget", "1",
        "--truth", triangle_truth(run), "--exclude", "110,000",
    ),
    "cli select --track": lambda run, *_: run.cli(
        "select", run.dataset_file(triangle_dataset()), "--budget", "1",
        "--truth", triangle_truth(run), "--track", "000",
    ),
}


class TestOneSubsetRule:
    """The empty mask and a mask of 2 BGs, against a dataset of 3 BGs.  A
    string of the wrong length is ``SubsetMask.parse``'s own length rule."""

    @pytest.mark.parametrize(
        "entry, bad",
        [(entry, bad) for entry in SUBSET_LIBRARY for bad in ("000", "10")]
        + [(entry, "000") for entry in SUBSET_CLI],
    )
    def test_rejected_with_one_message(self, run, no_solver, entry, bad):
        solver = BoundsSolver(triangle_dataset())  # its phase 1 runs before the spy
        no_solver()
        call = {**SUBSET_LIBRARY, **SUBSET_CLI}[entry]
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


def model_payload(universe):
    """A model document of 2 BGs at d = 2."""
    return {
        "num_bgs": 2,
        "d": 2.0,
        "universe_size": universe,
        "single_bg_proportions": [0.3, 0.3],
        "weights": [0.0, 0.2, 0.2, 0.3],
        "training_residual": 0.0,
    }


BASICS_2 = [("10", 3.0), ("01", 3.0), ("11", 5.0)]


def basics_payload(universe):
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
            lambda: io.load_model(run.file("model.json", model_payload(v)))
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
            "--model", run.file("model.json", model_payload(v)),
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


# -- Spare points: n > P + 1 -------------------------------------------------


def basics_session_estimate():
    """A session on the basics alone, and an estimate it made."""
    session = Session(ReachDataset.from_pairs(2, BASICS_2, universe_size=10.0))
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
        assert call(run, session, estimate) == NO_SPARE_POINTS
        assert "n > P + 1" in NO_SPARE_POINTS
