"""Outside-in tracer: spans around the public functions of each layer.

The program is not edited.  A function is patched under every name that
binds it in any ``bunkbed`` module, because ``from .x import y`` gives
the importer its own binding: patching ``bunkbed.exact.difference_polynomial``
alone would miss the copy that ``bunkbed.tripartitions`` calls.  Class
attributes are patched the same way (``__mul__`` and ``__rmul__`` are one
function under two names).

Spans live in flat arrays (start, end, parent, name) and are turned into
per-layer figures after the pass; ``dump`` writes them out.  A span's self time is its duration
minus the durations of its direct children, so the self times of a tree
sum to its root's duration.  Direct recursion into the same span name
(``encode_value`` calls itself) is folded into the outer span.

A name that no longer exists is skipped and listed in ``missing``; the
layer then reads 0, so the benchmark keeps working across refactors.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

# (span name, module, attribute path).  An attribute path with a dot is a
# class attribute ("RationalPoly.__mul__").
TARGETS = (
    ("cli.run", "bunkbed.cli", "run"),
    ("enumeration.connection_counts", "bunkbed.enumeration", "connection_counts"),
    ("exact.query", "bunkbed.exact", "connection_query_polynomials"),
    ("exact.entry", "bunkbed.exact", "connection_polynomial"),
    ("exact.entry", "bunkbed.exact", "endpoint_polynomials"),
    ("exact.entry", "bunkbed.exact", "difference_polynomial"),
    ("exact.entry", "bunkbed.exact", "geodesic_check"),
    ("exact.entry", "bunkbed.exact", "connected_avoiding"),
    ("exact.to_poly", "bunkbed.exact", "counts_to_polynomial"),
    ("polynomials.mul", "bunkbed.polynomials", "RationalPoly.__mul__"),
    ("polynomials.add", "bunkbed.polynomials", "RationalPoly.__add__"),
    ("polynomials.eval", "bunkbed.polynomials", "RationalPoly.evaluate"),
    ("tripartitions.table_build", "bunkbed.tripartitions", "TripartitionTable.build"),
    ("tripartitions.analyze", "bunkbed.tripartitions", "analyze_tripartitions"),
    ("tripartitions.updown", "bunkbed.tripartitions", "updown_f_values"),
    ("tripartitions.check", "bunkbed.tripartitions", "verify_theorem"),
    ("tripartitions.check", "bunkbed.tripartitions", "verify_conditioning"),
    ("tripartitions.check", "bunkbed.tripartitions", "expansion_identity_check"),
    ("tripartitions.check", "bunkbed.tripartitions", "bound_report"),
    ("tripartitions.check", "bunkbed.tripartitions", "theorem_sign_check"),
    ("graphs.minor", "bunkbed.graphs", "minor"),
    ("graphs.distance", "bunkbed.graphs", "vertical_free_distance"),
    ("line.quantities", "bunkbed.line", "line_quantities"),
    ("line.gap", "bunkbed.line", "gap_polynomial"),
    ("line.gauss", "bunkbed.line", "gaussian_limit"),
    ("montecarlo.estimate", "bunkbed.montecarlo", "estimate_difference"),
    ("reports.json", "bunkbed.reports", "canonical_json"),
    ("reports.encode", "bunkbed.reports", "encode_value"),
)


def _updown_key(bound: inspect.BoundArguments) -> Optional[tuple]:
    """Key of an up/down problem: non-loop reduced edges, endpoint and pinned images."""
    model = bound.arguments.get("model")
    if model is None:
        return None
    edges = tuple((a, b) for _, a, b in model.graph.edges if a != b)
    return edges, model.pu, model.pv, model.pinned


class Tracer:
    """Patches the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.counters: Counter = Counter()
        self.updown_keys: set = set()
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._signatures: dict[Callable, inspect.Signature] = {}

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        for arr in (self.start, self.end, self.parent, self.name_id):
            del arr[:]
        self.counters.clear()
        self.updown_keys.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        observe = _OBSERVERS.get(name)
        stack, start, end = self._stack, self.start, self.end
        parent, name_id = self.parent, self.name_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:
                return fn(*args, **kwargs)
            sid = len(start)
            parent.append(top)
            name_id.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result

        return traced

    def bind(self, fn: Callable, args, kwargs) -> inspect.BoundArguments:
        sig = self._signatures.get(fn)
        if sig is None:
            sig = self._signatures[fn] = inspect.signature(fn)
        return sig.bind(*args, **kwargs)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [module for _, module in _bunkbed_modules()]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or member not in vars(owner):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = vars(owner)[member]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__))
            else:
                wrapper = self._wrap(name, original)
            for scope in ([owner] if owner_name else modules):
                for key, value in list(vars(scope).items()):
                    if value is original:
                        self._set(scope, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def originals(self) -> list[object]:
        """The objects the installed patches replaced."""
        return [original for _, _, original in self._undo]

    # -- analysis --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        duration = [e - s for s, e in zip(self.start, self.end)]
        own = list(duration)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= duration[sid]
        return own

    def dump(self, path) -> None:
        """Write the recorded spans as columns; span i has parent[i] (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name_id": self.name_id.tolist(),
                       "parent": self.parent.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist()}, fh)

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        own = self.self_times()
        for sid, nid in enumerate(self.name_id):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += self.end[sid] - self.start[sid]
            row["self_s"] += own[sid]
        return out


def _bunkbed_modules() -> list[tuple[str, object]]:
    return [(n, m) for n, m in sorted(sys.modules.items())
            if m is not None and (n == "bunkbed" or n.startswith("bunkbed."))]


def bindings() -> dict[tuple[str, str], object]:
    """Every name bound in a ``bunkbed`` module or in a class that a target names."""
    out = {}
    for module_name, module in _bunkbed_modules():
        owners = [(module_name, module)]
        for _, target_module, attr in TARGETS:
            owner_name = attr.rpartition(".")[0]
            if target_module == module_name and owner_name and hasattr(module, owner_name):
                owners.append((f"{module_name}.{owner_name}", getattr(module, owner_name)))
        for owner_name, owner in owners:
            for key, value in vars(owner).items():
                out[(owner_name, key)] = value
    return out


def _observe_enumeration(tracer, fn, args, kwargs, result) -> None:
    items = tracer.bind(fn, args, kwargs).arguments["items"]
    tracer.counters["enumeration.configs"] += 1 << len(items)


def _observe_table(tracer, fn, args, kwargs, result) -> None:
    tracer.counters["tripartitions.table_rows"] += len(result.tripartitions)


def _observe_updown(tracer, fn, args, kwargs, result) -> None:
    tracer.counters["tripartitions.updown_assignments"] += len(result[1])
    key = _updown_key(tracer.bind(fn, args, kwargs))
    if key is not None:
        tracer.updown_keys.add(key)


def _observe_montecarlo(tracer, fn, args, kwargs, result) -> None:
    samples = tracer.bind(fn, args, kwargs).arguments["samples"]
    shard = getattr(sys.modules["bunkbed.montecarlo"], "SHARD_SAMPLES", None)
    tracer.counters["montecarlo.samples"] += samples
    if shard:
        tracer.counters["montecarlo.shards"] += -(-samples // shard)


_OBSERVERS = {
    "enumeration.connection_counts": _observe_enumeration,
    "tripartitions.table_build": _observe_table,
    "tripartitions.updown": _observe_updown,
    "montecarlo.estimate": _observe_montecarlo,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced pass.

    ``*self_s`` figures and the leaf figures (mul, add, eval, updown,
    minor, distance, gap, json, encode, estimate) are self times, which
    never count a second of work twice; ``table_build_s``, ``to_poly_s``,
    ``quantities_s`` and ``gauss_s`` are inclusive times of a whole stage.
    """
    rows = tracer.by_name()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name: str) -> dict:
        return rows.get(name, zero)

    c = tracer.counters
    updown_calls = row("tripartitions.updown")["calls"]
    return {
        "enumeration.calls": row("enumeration.connection_counts")["calls"],
        "enumeration.self_s": row("enumeration.connection_counts")["self_s"],
        "enumeration.configs": c["enumeration.configs"],
        "exact.calls": row("exact.query")["calls"],
        "exact.self_s": row("exact.query")["self_s"] + row("exact.entry")["self_s"],
        "exact.to_poly_s": row("exact.to_poly")["total_s"],
        "polynomials.mul_calls": row("polynomials.mul")["calls"],
        "polynomials.mul_s": row("polynomials.mul")["self_s"],
        "polynomials.add_s": row("polynomials.add")["self_s"],
        "polynomials.eval_s": row("polynomials.eval")["self_s"],
        "tripartitions.table_build_s": row("tripartitions.table_build")["total_s"],
        "tripartitions.table_rows": c["tripartitions.table_rows"],
        "tripartitions.analyze_calls": row("tripartitions.analyze")["calls"],
        "tripartitions.analyze_self_s": row("tripartitions.analyze")["self_s"],
        "tripartitions.checks_self_s": row("tripartitions.check")["self_s"],
        "tripartitions.updown_calls": updown_calls,
        "tripartitions.updown_s": row("tripartitions.updown")["self_s"],
        "tripartitions.updown_assignments": c["tripartitions.updown_assignments"],
        "tripartitions.updown_distinct_ratio":
            len(tracer.updown_keys) / updown_calls if updown_calls else 0.0,
        "graphs.minor_calls": row("graphs.minor")["calls"],
        "graphs.minor_s": row("graphs.minor")["self_s"],
        "graphs.distance_calls": row("graphs.distance")["calls"],
        "graphs.distance_s": row("graphs.distance")["self_s"],
        "line.quantities_calls": row("line.quantities")["calls"],
        "line.quantities_s": row("line.quantities")["total_s"],
        "line.gap_calls": row("line.gap")["calls"],
        "line.gap_s": row("line.gap")["self_s"],
        "line.gauss_s": row("line.gauss")["total_s"],
        "montecarlo.estimate_s": row("montecarlo.estimate")["self_s"],
        "montecarlo.shards": c["montecarlo.shards"],
        "montecarlo.samples": c["montecarlo.samples"],
        "reports.json_s": row("reports.json")["self_s"],
        "reports.encode_s": row("reports.encode")["self_s"],
        "cli.self_s": row("cli.run")["self_s"],
    }
