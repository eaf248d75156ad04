"""Canonical stdout of verify-theorem against the benchmark's reference digests.

benchmarks/references.json records the exit code and the sha256 of the
stdout of every fixed-input benchmark call.  This runs the verify-theorem
calls (the family graphs and path5, first vertex to last) through the CLI
and compares both, so a change to the tripartition sweep or the report
encoding that alters one output byte fails here.  The file is only read.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from bunkbed.cli import run
from conftest import FAMILY_TEXT

REFERENCES = Path(__file__).resolve().parent.parent / "benchmarks" / "references.json"
GRAPHS = {**FAMILY_TEXT, "path5": "a b\nb c\nc d\nd e\ne f"}


def _first_last(text: str) -> tuple[str, str]:
    order = list(dict.fromkeys(text.split()))
    return order[0], order[-1]


@pytest.fixture(scope="module")
def references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def test_every_theorem_reference_is_run(references):
    recorded = {key for key in references if key.startswith("theorem-family/")}
    assert recorded == {f"theorem-family/{name}" for name in GRAPHS}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_verify_theorem_stdout_matches_reference(name, references, tmp_path,
                                                 monkeypatch, capsys):
    text = GRAPHS[name]
    # stdout echoes the --graph argument, so the file goes by its bare name
    (tmp_path / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    u, v = _first_last(text)
    capsys.readouterr()
    code = run(["verify-theorem", "--graph", f"{name}.txt", "--u", u, "--v", v,
                "--workers", "1"])
    stdout = capsys.readouterr().out
    expected = references[f"theorem-family/{name}"]
    assert code == expected["exit"]
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == expected["sha256"]
