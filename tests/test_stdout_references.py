"""Canonical stdout of the CLI against the benchmark's reference digests.

benchmarks/references.json records the exit code and the sha256 of the
stdout of every fixed-input benchmark call: exact on the six-vertex
graph, line with the gap, series and Gaussian checks, and verify-theorem
on the family graphs and path5 (first vertex to last).  This runs each
of them through the CLI and compares both, so a change to the kernel,
the tripartition sweep, the line recursion or the report encoding that
alters one output byte fails here.  The file is only read.

tests/sweep_references.json does the same, with each call's argv, for
sweeps the benchmark does not run: verify-theorem and expand on the
six-vertex graph, and on the triangle with a doubled edge, where two
both-open sets contract to one partition; and verify-theorem on path9,
whose 17 up/down items are more than one lane holds, so its posts past
the first 16 items are fixed per prefix shard.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from bunkbed.cli import run
from conftest import FAMILY_TEXT, SIX_VERTEX_TEXT

REFERENCES = Path(__file__).resolve().parent.parent / "benchmarks" / "references.json"
SWEEP_REFERENCES = Path(__file__).resolve().parent / "sweep_references.json"
GRAPHS = {**FAMILY_TEXT, "path5": "a b\nb c\nc d\nd e\ne f"}
PATH9_TEXT = "\n".join(f"{a} {b}" for a, b in zip("abcdefgh", "bcdefghi"))


def _first_last(text: str) -> tuple[str, str]:
    order = list(dict.fromkeys(text.split()))
    return order[0], order[-1]


def _theorem_argv(name: str) -> list[str]:
    u, v = _first_last(GRAPHS[name])
    return ["verify-theorem", "--graph", f"{name}.txt", "--u", u, "--v", v]


# Reference key -> CLI argv.  stdout echoes the --graph argument, so
# graph files go by their bare names.
CALLS = {
    "exact-six": ["exact", "--graph", "six.txt", "--u", "u", "--v", "v"],
    "line-gauss": ["line", "--n", "60", "--gap", "--series", "--lambda", "1"],
    **{f"theorem-family/{name}": _theorem_argv(name) for name in GRAPHS},
}


@pytest.fixture(scope="module")
def references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _assert_run_matches(argv, entry, tmp_path, monkeypatch, capsys):
    for name, text in {**GRAPHS, "six": SIX_VERTEX_TEXT, "path9": PATH9_TEXT}.items():
        (tmp_path / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code = run(argv + ["--workers", "1"])
    stdout = capsys.readouterr().out
    assert code == entry["exit"]
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == entry["sha256"]


def test_every_fixed_input_reference_is_run(references):
    recorded = {key for key, entry in references.items() if "sha256" in entry}
    assert recorded == set(CALLS)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_verify_theorem_stdout_matches_reference(name, references, tmp_path,
                                                 monkeypatch, capsys):
    key = f"theorem-family/{name}"
    _assert_run_matches(CALLS[key], references[key], tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("key", ["exact-six", "line-gauss"])
def test_fixed_input_stdout_matches_reference(key, references, tmp_path, monkeypatch, capsys):
    _assert_run_matches(CALLS[key], references[key], tmp_path, monkeypatch, capsys)


SWEEPS = json.loads(SWEEP_REFERENCES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(SWEEPS))
def test_sweep_stdout_matches_reference(key, tmp_path, monkeypatch, capsys):
    _assert_run_matches(SWEEPS[key]["argv"], SWEEPS[key], tmp_path, monkeypatch, capsys)
