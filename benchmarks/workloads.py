"""The four benchmark workloads: their inputs, CLI calls and output checks.

Every workload is a list of ``bunkbed`` CLI invocations (one "pass").
The benchmark appends ``--workers N`` to each one.  Graph files are
written by the benchmark and named by bare file names, because the
canonical stdout echoes the ``--graph`` argument and the reference
digests must not depend on where the checkout lives.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES_PATH = HERE / "references.json"
# Scratch space for inputs, inside the checkout and ignored by git.
WORK_BASE = HERE.parent / ".bench_work"

# Same texts as the test suite's FAMILY_TEXT and SIX_VERTEX_TEXT.
SIX_VERTEX_TEXT = "u b\nb c\nc v\nd e\ne v\nu d\nb d\nb e"
FAMILY_TEXT = {
    "k2": "u v",
    "path2": "a b\nb c",
    "path3": "a b\nb c\nc d",
    "path4": "a b\nb c\nc d\nd e",
    "triangle": "u v\nv w\nw u",
    "cycle4": "a b\nb c\nc d\nd a",
    "star3": "c x\nc y\nc z",
    "star4": "c x\nc y\nc z\nc w",
    "chair": "a b\nb c\nc d\nc e",
    "paw": "u v\nv w\nw u\nw x",
    "double_edge": "u v\nu v",
    "double_plus_pendant": "a b\na b\nb c",
    "triangle_doubled": "u v\nu v\nv w\nw u",
    "path3_doubled_end": "a b\na b\nb c\nc d",
}
PATH5_TEXT = "a b\nb c\nc d\nd e\ne f"

GRAPH_FILES = {
    "six.txt": SIX_VERTEX_TEXT,
    **{f"{name}.txt": text for name, text in FAMILY_TEXT.items()},
    "path5.txt": PATH5_TEXT,
}

MC_SAMPLES = 200_000


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``key`` names its entry in references.json."""

    key: str
    argv: tuple


def _first_last(text: str) -> tuple[str, str]:
    order: list[str] = []
    for token in text.split():
        if token not in order:
            order.append(token)
    return order[0], order[-1]


def _theorem_calls() -> list[Call]:
    calls = []
    for name, text in list(FAMILY_TEXT.items()) + [("path5", PATH5_TEXT)]:
        u, v = _first_last(text)
        calls.append(Call(f"theorem-family/{name}",
                          ("verify-theorem", "--graph", f"{name}.txt", "--u", u, "--v", v)))
    return calls


def calls(workload: str, seed: int) -> list[Call]:
    """The CLI calls of one pass; only ``mc-six`` depends on the seed."""
    if workload == "exact-six":
        return [Call("exact-six", ("exact", "--graph", "six.txt", "--u", "u", "--v", "v"))]
    if workload == "theorem-family":
        return _theorem_calls()
    if workload == "line-gauss":
        return [Call("line-gauss", ("line", "--n", "60", "--gap", "--series", "--lambda", "1"))]
    if workload == "mc-six":
        return [Call("mc-six", ("mc", "--graph", "six.txt", "--u", "u", "--v", "v",
                                "--p", "7/8", "--samples", str(MC_SAMPLES),
                                "--pinned", "b,e", "--seed", str(seed)))]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("exact-six", "theorem-family", "line-gauss", "mc-six")


def write_inputs(directory: Path) -> None:
    for name, text in GRAPH_FILES.items():
        (directory / name).write_text(text + "\n", encoding="utf-8")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))


def check(call: Call, code: int, stdout: str, references: dict) -> tuple[bool, bool]:
    """Return (correct, sampling_fail) for one call's exit code and stdout.

    Fixed-input calls must reproduce the reference digest and exit code.
    A Monte Carlo call must carry the exact difference recorded at the
    reference commit; its FAIL verdict (exit 1) is a sampling outcome,
    reported but not counted as a program failure.
    """
    ref = references[call.key]
    if "sha256" in ref:
        return code == ref["exit"] and digest(stdout) == ref["sha256"], False
    try:
        report = json.loads(stdout)["reports"][0]
        exact = report["quantities"].get("exact_difference")
        sampling_fail = report["verdict"] == "FAIL"
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return False, False
    code_ok = code == (1 if sampling_fail else 0)
    return exact == ref["exact_difference"] and code_ok, sampling_fail
