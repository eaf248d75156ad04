"""Child process of the benchmark; ``run.py`` starts it, one mode per process.

    worker.py setup ROOT WORKDIR
        Import ``bunkbed`` from ROOT/src, write the input files into
        WORKDIR and parse them.  Prints the seconds this took.
    worker.py time ROOT WORKDIR WORKLOAD SEED SECONDS WORKERS[,WORKERS...]
        Run passes of the workload through ``bunkbed.cli.run`` with stdout
        captured, cycling through the worker counts, until SECONDS are
        used.  Prints one JSON line: per-pass wall times, checks, peak RSS.
    worker.py trace ROOT WORKDIR WORKLOAD SEED SECONDS
        The same at ``--workers 1`` with the tracer installed; prints the
        per-layer figures of every pass, removes the patches again and
        writes the spans of the last pass under .bench_work/spans/.

Traced and timed passes never share a process, so timed passes never
execute patched code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads


def _import_bunkbed(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import bunkbed.cli
    where = Path(bunkbed.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"imported bunkbed from {where}, not from {src}")
    return bunkbed.cli


def _run_call(cli, call: workloads.Call, workers: int) -> tuple[float, int, str]:
    buf = io.StringIO()
    argv = list(call.argv) + ["--workers", str(workers)]
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return time.perf_counter() - start, code, buf.getvalue()


def _run_pass(cli, calls, workers: int, references: dict) -> dict:
    wall = 0.0
    sampling_fails = stdout_bytes = 0
    checks, outputs = [], []
    for call in calls:
        seconds, code, stdout = _run_call(cli, call, workers)
        wall += seconds
        ok, sampling_fail = workloads.check(call, code, stdout, references)
        checks.append(ok)
        sampling_fails += sampling_fail
        stdout_bytes += len(stdout.encode("utf-8"))
        outputs.append(workloads.digest(stdout))
    return {"workers": workers, "wall_s": wall, "checks": checks,
            "sampling_fails": sampling_fails, "stdout_bytes": stdout_bytes,
            "outputs": outputs}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(root: Path, workdir: Path) -> float:
    start = time.perf_counter()
    _import_bunkbed(root)
    from bunkbed import parse_edge_list
    workloads.write_inputs(workdir)
    for name in workloads.GRAPH_FILES:
        parse_edge_list((workdir / name).read_text(encoding="utf-8"))
    return time.perf_counter() - start


def timed(root: Path, workdir: Path, workload: str, seed: int, seconds: float,
          worker_counts: list[int]) -> dict:
    """Cycle through the worker counts pass by pass until the budget is used.

    A new cycle starts only if the last cycle's duration still fits, so a
    run ends near its budget; at least one full cycle always runs.
    """
    cli = _import_bunkbed(root)
    references = workloads.load_references()
    calls = workloads.calls(workload, seed)
    os.chdir(workdir)
    passes = []
    began = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for workers in worker_counts:
            passes.append(_run_pass(cli, calls, workers, references))
        now = time.perf_counter()
        if now - began + (now - cycle_start) > seconds:
            break
    return {"passes": passes, "peak_rss_mb": _peak_rss_mb()}


def traced(root: Path, workdir: Path, workload: str, seed: int, seconds: float) -> dict:
    import tracer as tracing
    cli = _import_bunkbed(root)
    references = workloads.load_references()
    calls = workloads.calls(workload, seed)
    os.chdir(workdir)
    tracer = tracing.Tracer()
    tracer.install()
    patched = len(tracer.originals())
    passes = []
    try:
        began = time.perf_counter()
        while True:
            tracer.reset()
            record = _run_pass(cli, calls, 1, references)
            record["layers"] = tracing.layer_metrics(tracer)
            record["layers"]["reports.stdout_bytes"] = record["stdout_bytes"]
            record["spans"] = tracer.span_count()
            passes.append(record)
            if time.perf_counter() - began + record["wall_s"] > seconds:
                break
    finally:
        tracer.uninstall()
    spans = workloads.WORK_BASE / "spans" / f"{workload}-seed{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans)
    return {"passes": passes, "patched": patched, "missing": tracer.missing,
            "spans_file": str(spans.relative_to(root))}


def main(argv: list[str]) -> int:
    mode, root, workdir = argv[0], Path(argv[1]), Path(argv[2])
    if mode == "setup":
        sys.stdout.write(json.dumps({"setup_s": setup(root, workdir)}) + "\n")
        return 0
    workload, seed, seconds = argv[3], int(argv[4]), float(argv[5])
    if mode == "time":
        result = timed(root, workdir, workload, seed, seconds,
                       [int(w) for w in argv[6].split(",")])
    elif mode == "trace":
        result = traced(root, workdir, workload, seed, seconds)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
