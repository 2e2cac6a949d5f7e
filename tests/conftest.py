import json
from typing import NamedTuple

import pytest

from bagkit.dataset import Dataset, Example


def make_dataset(labels, num_classes=2, name="tiny", text=None):
    """Dataset with one distinct token per example (plus optional fixed text)."""
    examples = tuple(
        Example(id=f"{name}-{i}", text_a=text or f"tok{i} filler", label=lab)
        for i, lab in enumerate(labels)
    )
    return Dataset(name=name, examples=examples, num_classes=num_classes)


@pytest.fixture
def jsonl_file(tmp_path):
    def write(records, filename="data.jsonl"):
        path = tmp_path / filename
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        return path

    return write


@pytest.fixture(scope="session")
def toy_workspace(tmp_path_factory):
    from bagkit.toy import write_toy_workspace

    return write_toy_workspace(tmp_path_factory.mktemp("toyws"))


class Loop(NamedTuple):
    """One lockstep loop as `record_loops` saw it."""

    members: tuple  # the predictor._Member tuples it trained
    specs: frozenset  # their feature spaces
    sources: int  # their distinct design matrices
    params: int  # parameters stacked: the sum of the members' own counts
    search: bool  # whether a grid search ran it


def solo(member):
    """A predictor._Member trained alone: `_fit_many` of one, its Model or its TrainingDiverged."""
    from bagkit.predictor import _fit_many

    (outcome,) = _fit_many([member])
    return outcome


def record_loops(monkeypatch):
    """Record, in order, each lockstep loop that experiment runs (a list of `Loop`)."""
    from bagkit import experiment

    loops, searching = [], []
    real_fit_many, real_search = experiment._fit_many, experiment._search

    def fit_many(members):
        loops.append(Loop(
            tuple(members),
            frozenset(m.spec for m in members),
            len({id(m.x) for m in members}),
            sum(experiment._shape(m.spec, m.hyper, len(m.rows), m.num_classes)[1]
                for m in members),
            bool(searching),
        ))
        return real_fit_many(members)

    def search(*args):
        searching.append(True)
        try:
            return real_search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(experiment, "_fit_many", fit_many)
    monkeypatch.setattr(experiment, "_search", search)
    return loops
