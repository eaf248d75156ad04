"""Self-check of the benchmark itself.  Run from the repository root:

    python3 benchmarks/selfcheck.py

It checks three things and exits 1 if any fails:

1. In a traced run, the self times of every span tree sum to the root
   span's duration.
2. While the tracer is installed no ``bunkbed`` module still binds an
   unpatched target, and after it is removed every binding is the
   original object again.
3. Every workload reproduces ``references.json`` with the code in
   ``src`` (fixed-input digests and exit codes; the exact difference and
   worker-count determinism for ``mc-six``).

``--emit-references`` prints the reference table computed from the code
in ``src`` instead; ``references.json`` was written that way from the
commit named in ``trajectory.json``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import tracer as tracing
import workloads
import worker

ROOT = Path(__file__).resolve().parent.parent
MC_SEED = 1


def _span_trees_balance(tracer: tracing.Tracer) -> bool:
    own = tracer.self_times()
    root_of = []
    totals: dict[int, float] = {}
    for sid, par in enumerate(tracer.parent):
        root = sid if par < 0 else root_of[par]
        root_of.append(root)
        totals[root] = totals.get(root, 0.0) + own[sid]
    return all(abs(totals[r] - (tracer.end[r] - tracer.start[r])) <= 1e-6 for r in totals)


def check_tracer(cli) -> list[str]:
    problems = []
    before = tracing.bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        originals = {id(o) for o in tracer.originals()}
        stale = [k for k, v in tracing.bindings().items() if id(v) in originals]
        if stale:
            problems.append(f"targets still bound unpatched: {stale}")
        if tracer.missing:
            problems.append(f"targets not found: {tracer.missing}")
        for call in (workloads.calls("theorem-family", 0)[2], workloads.calls("mc-six", 0)[0]):
            worker._run_call(cli, call, 1)
        if not tracer.span_count():
            problems.append("no spans recorded")
        if not _span_trees_balance(tracer):
            problems.append("self times of a span tree do not sum to its root")
    finally:
        tracer.uninstall()
    after = tracing.bindings()
    if before.keys() != after.keys() or any(after[k] is not v for k, v in before.items()):
        problems.append("bindings differ after the tracer was removed")
    return problems


def compute_references(cli) -> dict:
    refs = {}
    for name in workloads.WORKLOADS:
        for call in workloads.calls(name, MC_SEED):
            _, code, stdout = worker._run_call(cli, call, 1)
            if name == "mc-six":
                exact = json.loads(stdout)["reports"][0]["quantities"]["exact_difference"]
                refs[call.key] = {"exact_difference": exact}
            else:
                refs[call.key] = {"exit": code, "sha256": workloads.digest(stdout)}
    return refs


def check_references(cli) -> list[str]:
    problems = []
    references = workloads.load_references()
    for name in workloads.WORKLOADS:
        for call in workloads.calls(name, MC_SEED):
            code, stdout = worker._run_call(cli, call, 1)[1:]
            ok, _ = workloads.check(call, code, stdout, references)
            if not ok:
                problems.append(f"{call.key}: output differs from references.json")
            if name == "mc-six":
                parallel = worker._run_call(cli, call, len(os.sched_getaffinity(0)))[2]
                if parallel != stdout:
                    problems.append(f"{call.key}: stdout depends on the worker count")
    return problems


def main(argv: list[str]) -> int:
    cli = worker._import_bunkbed(ROOT)
    workloads.WORK_BASE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.WORK_BASE) as tmp:
        workloads.write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            if argv == ["--emit-references"]:
                print(json.dumps(compute_references(cli), indent=2, sort_keys=True))
                return 0
            problems = check_tracer(cli) + check_references(cli)
        finally:
            os.chdir(ROOT)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
