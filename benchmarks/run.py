"""Benchmark of the ``bunkbed`` CLI.  Run from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-six, theorem-family, line-gauss, mc-six (see README.md).

--trace 0 measures the end-to-end figures: ``setup_s`` inside fresh
set-up processes, then one child process that runs passes of the
workload through ``bunkbed.cli.run`` at ``--workers 1`` for S seconds
(``wall_s``, ``peak_rss_mb``).  --trace 1 runs untraced passes at
``--workers 1`` and ``--workers nproc`` in turn in one child and traced
passes in another, S/2 seconds each, and reports the per-layer figures,
the thread-pool figures and the tracing overhead.  Every call's stdout
and exit code are checked.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# A child gets this much longer than its budget before it is killed, which
# keeps a whole run under three minutes.
CHILD_GRACE_S = 60
# A ratio is printed with the count it is a share of.
RATIO_BASES = {"tripartitions.updown_distinct_ratio": "tripartitions.updown_calls"}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run worker.py to completion; the child is killed and reaped on timeout."""
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                          check=True)


def _child_json(args: list[str], timeout: float) -> dict:
    return json.loads(_child(args, timeout).stdout.strip().splitlines()[-1])


def _setup_seconds(workdir: Path) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes that import bunkbed and write and parse the inputs.

    Returns the times measured inside each process, from before the import
    to after the parse, and the wall times of the whole processes, which
    add interpreter start and exit.
    """
    inside, whole = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inside.append(_child_json(["setup", str(ROOT), str(workdir)], CHILD_GRACE_S)["setup_s"])
        whole.append(time.perf_counter() - start)
    return inside, whole


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def _facts(seed: int) -> dict:
    return {"nproc": _nproc(), "python": platform.python_version(),
            "numpy": _version("numpy"), "commit": _commit(), "seed": seed,
            "machine": platform.machine()}


def _count(passes: list[dict]) -> tuple[int, int]:
    """Calls attempted and failed.

    A call fails if its check fails or if its stdout differs from the same
    call in the first pass: passes at --workers 1 and --workers nproc (and
    traced passes) must print the same bytes; for mc-six they share one seed.
    """
    first = passes[0]["outputs"]
    results = [ok and out == ref for p in passes
               for ok, out, ref in zip(p["checks"], p["outputs"], first, strict=True)]
    return len(results), results.count(False)


def _describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.4f} max={max(values):.4f}"


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    setup, setup_process = _setup_seconds(workdir)
    result = _child_json(["time", str(ROOT), str(workdir), workload, str(seed),
                          str(seconds), "1"], seconds + CHILD_GRACE_S)
    passes = result["passes"]
    serial = [p["wall_s"] for p in passes]
    attempted, failed = _count(passes)
    metrics = {
        "wall_s": (statistics.median(serial), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "wall_s": f"median of passes at --workers 1, {_describe(serial)}",
        "setup_s": f"median over fresh processes, {_describe(setup)}; "
                   f"whole process {statistics.median(setup_process):.4f}",
        "peak_rss_mb": "peak RSS of the measuring child",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<14} {value:.4f} {unit:<5} {notes[name]}")
    print(f"{'fail_ratio':<14} {failed / attempted:.4f} ratio {failed} of {attempted} calls failed")
    print(f"{'sampling_fails':<14} {sum(p['sampling_fails'] for p in passes)} count  "
          "Monte Carlo FAIL verdicts, not program failures")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    workloads.write_inputs(workdir)
    nproc = _nproc()
    args = [str(ROOT), str(workdir), workload, str(seed), str(seconds / 2)]
    plain = _child_json(["time", *args, f"1,{nproc}"], seconds / 2 + CHILD_GRACE_S)
    traced = _child_json(["trace", *args], seconds / 2 + CHILD_GRACE_S)
    passes = traced["passes"]
    attempted, failed = _count(plain["passes"] + passes)
    serial_wall = statistics.median(p["wall_s"] for p in plain["passes"] if p["workers"] == 1)
    par_wall = statistics.median(p["wall_s"] for p in plain["passes"] if p["workers"] == nproc)
    traced_wall = statistics.median(p["wall_s"] for p in passes)
    metrics = {}
    for name in passes[0]["layers"]:
        values = [p["layers"][name] for p in passes]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        elif name.endswith("_ratio"):
            metrics[name] = (statistics.median(values), "ratio")
        else:
            metrics[name] = (statistics.median_low(values), "B" if name.endswith("_bytes") else "count")
    metrics["workers.par_wall_s"] = (par_wall, "s")
    metrics["workers.speedup_ratio"] = (serial_wall / par_wall, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / serial_wall - 1.0, "ratio")
    metrics["trace.spans"] = (statistics.median_low(p["spans"] for p in passes), "count")
    for name, (value, unit) in metrics.items():
        base = RATIO_BASES.get(name)
        note = f"   of {metrics[base][0]:g} ({base})" if base else ""
        print(f"{name:<38} {value:.6g} {unit}{note}")
    print(f"traced passes {len(passes)}, untraced passes {len(plain['passes'])} "
          f"(--workers 1 and {nproc}), patched bindings {traced['patched']}, "
          f"missing targets {traced['missing']}, spans of the last pass in {traced['spans_file']}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "bunkbed" / "cli.py").is_file():
        print(f"error: no bunkbed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not workloads.REFERENCES_PATH.is_file():
        print(f"error: missing {workloads.REFERENCES_PATH}", file=sys.stderr)
        return 2

    workdir = workloads.WORK_BASE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        print(f"workload {args.workload}  trace {args.trace}  seconds {args.seconds:g}")
        print("facts " + json.dumps(_facts(args.seed), sort_keys=True))
        measure = per_layer if args.trace else end_to_end
        outcome = measure(args.workload, args.seed, args.seconds, workdir)
    except subprocess.CalledProcessError as exc:
        print(f"error: worker failed with exit {exc.returncode}:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: worker timed out after {exc.timeout:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workloads.WORK_BASE.rmdir()
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
