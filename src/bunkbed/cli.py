"""Command-line front end.

Subcommands mirror the library: exact polynomials, the tripartition
expansion, the full theorem sweep over pinned sets, the path-graph
closed forms, Monte Carlo estimates, and the geodesic leading-term
check.  Canonical JSON goes to stdout; --verbose adds a human-readable
table on stderr.  Exit status: 0 when no check failed (expected
discrepancies and partial checks do not fail), 1 when any check FAILed,
2 for usage or cap errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from fractions import Fraction
from typing import Optional

from .enumeration import Caps, DEFAULT_CAPS, CapExceededError
from .exact import endpoint_polynomials, geodesic_check, threshold_point
from .graphs import GraphParseError, Multigraph, parse_edge_list
from .line import gap_holds, gap_polynomial, gaussian_limit, line_quantities, series_report
from .montecarlo import (
    agreement_check,
    estimate_difference,
    estimate_to_json_obj,
)
from .polynomials import format_fraction
from .reports import (
    FAIL,
    PASS,
    VerificationReport,
    aggregate_verdict,
    dump_json,
    encode_value,
)
from .tripartitions import verify_conditioning, verify_theorem


class UsageError(Exception):
    """Bad invocation: wrong flags, unknown vertices, unreadable input."""


# Caps field -> flag help.  The flag is the field name with dashes, and
# its default the field's value in DEFAULT_CAPS.
_CAP_HELP = {
    "max_config_bits": "largest 2^k enumeration allowed (default 26)",
    "max_tripartitions": "largest tripartition count allowed (default 3^16)",
    "max_updown_bits": "largest up-down assignment width allowed (default 24)",
}
_CONFIG_CAP = ("max_config_bits",)


def _add_common(sp: argparse.ArgumentParser, caps: tuple[str, ...]) -> None:
    """--workers, --verbose, and the flags of the caps the subcommand reads."""
    sp.add_argument("--workers", type=int, default=1,
                    help="mc sampling threads; other subcommands run on one "
                         "(default 1; results do not depend on it)")
    for name in caps:
        sp.add_argument("--" + name.replace("_", "-"), type=int,
                        default=getattr(DEFAULT_CAPS, name), help=_CAP_HELP[name])
    sp.add_argument("--verbose", action="store_true",
                    help="also print a summary table to stderr")


def _add_graph_pair(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--graph", required=True, help="edge-list file, 'u v' per line")
    sp.add_argument("--u", required=True, help="first endpoint")
    sp.add_argument("--v", required=True, help="second endpoint")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bunkbed",
        description="Exact checks for two-level connection probabilities near p = 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exact", help="connection polynomials and their difference")
    _add_graph_pair(sp)
    sp.add_argument("--pinned", default=None,
                    help="comma-separated open posts; empty string for none; "
                         "omit to randomize the vertical edges too")
    sp.add_argument("--out", choices=("json", "csv"), default="json")
    _add_common(sp, _CONFIG_CAP)

    sp = sub.add_parser("expand", help="tripartition expansion for one pinned set")
    _add_graph_pair(sp)
    sp.add_argument("--pinned", required=True,
                    help="comma-separated open posts; empty string for none")
    _add_common(sp, tuple(_CAP_HELP))

    sp = sub.add_parser("verify-theorem",
                        help="expansion, bounds, and sign over every pinned set")
    _add_graph_pair(sp)
    _add_common(sp, tuple(_CAP_HELP))

    sp = sub.add_parser("line", help="closed forms on the two-level path")
    sp.add_argument("--n", type=int, required=True, help="number of path edges")
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="rational lambda for the q = lambda/sqrt(n) evaluation")
    sp.add_argument("--series", action="store_true",
                    help="check the pinned low-order series coefficients")
    sp.add_argument("--gap", action="store_true",
                    help="check the closed-form gap between the end quantities")
    _add_common(sp, ())

    sp = sub.add_parser("mc", help="seeded Monte Carlo difference estimate")
    _add_graph_pair(sp)
    sp.add_argument("--p", required=True, help="rational retention probability")
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--pinned", default=None,
                    help="comma-separated open posts; empty string for none")
    sp.add_argument("--k", type=float, default=4.0,
                    help="agreement width in standard errors (default 4)")
    _add_common(sp, _CONFIG_CAP)

    sp = sub.add_parser("geodesic-check",
                        help="leading term of the connection polynomial")
    _add_graph_pair(sp)
    _add_common(sp, _CONFIG_CAP)

    return parser


def _settings(args: argparse.Namespace) -> Caps:
    """The caps the subcommand registered, each from its flag."""
    if args.workers < 1:  # only mc reads it, but a bad value is an error everywhere
        raise UsageError("--workers must be at least 1")
    return Caps(**{name: getattr(args, name) for name in _CAP_HELP if hasattr(args, name)})


def _load_graph(path: str) -> Multigraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read graph file {path}: {exc}") from exc
    try:
        return parse_edge_list(text)
    except GraphParseError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _vertex(g: Multigraph, token: str) -> str:
    if token not in g.adjacency:
        raise UsageError(f"unknown vertex {token!r}")
    return token


def _graph_pair(args) -> tuple[Caps, Multigraph, str, str]:
    """Caps, graph and endpoints of a subcommand that takes --graph/--u/--v."""
    caps = _settings(args)
    g = _load_graph(args.graph)
    return caps, g, _vertex(g, args.u), _vertex(g, args.v)


def _parse_pinned(g: Multigraph, raw: Optional[str]) -> Optional[frozenset]:
    if raw is None:
        return None
    tokens = [t for t in (piece.strip() for piece in raw.split(",")) if t]
    for t in tokens:
        _vertex(g, t)
    return frozenset(tokens)


def _parse_fraction(raw: str, what: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{what} is not a rational: {raw!r}") from exc


def _cmd_exact(args) -> tuple[dict, list[VerificationReport], Optional[str]]:
    caps, g, u, v = _graph_pair(args)
    pinned = _parse_pinned(g, args.pinned)
    same, cross = endpoint_polynomials(g, u, v, pinned, caps=caps)
    difference = same - cross
    p0 = threshold_point(g.edge_count)
    inputs = {
        "graph": args.graph,
        "u": u,
        "v": v,
        "pinned": sorted(pinned) if pinned is not None else None,
    }
    report = VerificationReport(
        check="exact_polynomials",
        verdict=PASS,
        inputs=inputs,
        quantities={
            "same_level": same,
            "cross_level": cross,
            "difference": difference,
            "p0": p0,
            "same_level_at_p0": same.evaluate(p0),
            "cross_level_at_p0": cross.evaluate(p0),
            "difference_at_p0": difference.evaluate(p0),
        },
    )
    table = None
    if args.out == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "name", "index", "value"])
        for name, poly in (("same_level", same), ("cross_level", cross),
                           ("difference", difference)):
            coeffs = poly.coeffs if poly.coeffs else (Fraction(0),)
            for k, c in enumerate(coeffs):
                writer.writerow(["polynomial", name, k, format_fraction(c)])
        writer.writerow(["scalar", "p0", "", format_fraction(p0)])
        writer.writerow(["scalar", "difference_at_p0", "",
                         format_fraction(report.quantities["difference_at_p0"])])
        table = buf.getvalue()
    return inputs, [report], table


def _cmd_expand(args) -> tuple[dict, list[VerificationReport], None]:
    caps, g, u, v = _graph_pair(args)
    pinned = _parse_pinned(g, args.pinned)
    assert pinned is not None
    reports = verify_conditioning(g, pinned, u, v, caps=caps)
    inputs = {"graph": args.graph, "u": u, "v": v, "pinned": sorted(pinned)}
    return inputs, reports, None


def _cmd_verify_theorem(args) -> tuple[dict, list[VerificationReport], None]:
    caps, g, u, v = _graph_pair(args)
    verdict, reports = verify_theorem(g, u, v, caps=caps)
    counts: dict[str, int] = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    inputs = {"graph": args.graph, "u": u, "v": v}
    summary = VerificationReport(
        check="theorem_summary",
        verdict=verdict,
        inputs=inputs,
        quantities={"pinned_sets": 1 << g.vertex_count, "verdict_counts": counts},
    )
    return inputs, [summary] + reports, None


def _cmd_line(args) -> tuple[dict, list[VerificationReport], None]:
    _settings(args)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    lq = line_quantities(args.n)
    inputs = {"n": args.n}
    base = VerificationReport(
        check="line_quantities",
        verdict=PASS,
        inputs=inputs,
        quantities={
            "to_bottom": lq.to_bottom,
            "to_top": lq.to_top,
            "to_both": lq.to_both,
            "to_exactly_one": lq.to_exactly_one,
            "to_bottom_only": lq.to_bottom_only,
            "to_top_only": lq.to_top_only,
        },
    )
    reports = [base]
    if args.gap:
        gap = gap_polynomial(args.n)
        reports.append(VerificationReport(
            check="line_gap",
            verdict=PASS if gap_holds(lq, gap) else FAIL,
            inputs=inputs,
            quantities={"gap": gap},
        ))
    if args.series:
        reports.append(series_report(lq))
    if args.lam is not None:
        lam = _parse_fraction(args.lam, "--lambda")
        try:
            result = gaussian_limit(args.n, lam)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        reports.append(VerificationReport(
            check="line_gaussian_point",
            verdict=PASS,
            inputs={"n": args.n, "lambda": lam},
            quantities={
                "q": result.q,
                "value": result.value,
                "target": result.target,
                "absolute_error": result.absolute_error,
                "gap_bound": result.gap_bound,
            },
        ))
    return inputs, reports, None


def _cmd_mc(args) -> tuple[dict, list[VerificationReport], None]:
    caps, g, u, v = _graph_pair(args)
    pinned = _parse_pinned(g, args.pinned)
    p = _parse_fraction(args.p, "--p")
    if not 0 <= p <= 1:
        raise UsageError("--p must lie in [0, 1]")
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    if not 0 < args.k < math.inf:
        raise UsageError("--k must be finite and positive")
    estimates = estimate_difference(
        g, u, v, p, args.samples, args.seed, pinned, workers=args.workers
    )
    quantities = {
        "p": p,
        "same_level": estimate_to_json_obj(estimates.same_level),
        "cross_level": estimate_to_json_obj(estimates.cross_level),
        "difference": estimate_to_json_obj(estimates.difference),
    }
    verdict = PASS
    try:
        same, cross = endpoint_polynomials(g, u, v, pinned, caps=caps)
    except CapExceededError:
        quantities["exact_available"] = False
    else:
        quantities["exact_available"] = True
        difference = (same - cross).evaluate(p)
        exact_pairs = (
            (estimates.same_level, same.evaluate(p)),
            (estimates.cross_level, cross.evaluate(p)),
            (estimates.difference, difference),
        )
        agree = all(agreement_check(est, val, args.k) for est, val in exact_pairs)
        quantities["exact_difference"] = difference
        quantities["agreement_k"] = args.k
        verdict = PASS if agree else FAIL
    inputs = {
        "graph": args.graph,
        "u": u,
        "v": v,
        "p": p,
        "samples": args.samples,
        "seed": args.seed,
        "pinned": sorted(pinned) if pinned is not None else None,
    }
    return inputs, [VerificationReport(
        check="monte_carlo",
        verdict=verdict,
        inputs=inputs,
        quantities=quantities,
    )], None


def _cmd_geodesic(args) -> tuple[dict, list[VerificationReport], None]:
    caps, g, u, v = _graph_pair(args)
    result = geodesic_check(g, u, v, caps=caps)
    inputs = {"graph": args.graph, "u": u, "v": v}
    return inputs, [VerificationReport(
        check="geodesic_leading_term",
        verdict=PASS if result.verdict else FAIL,
        inputs=inputs,
        quantities={
            "distance": result.distance,
            "geodesic_count": result.geodesic_count,
            "polynomial": result.polynomial,
        },
    )], None


_HANDLERS = {
    "exact": _cmd_exact,
    "expand": _cmd_expand,
    "verify-theorem": _cmd_verify_theorem,
    "line": _cmd_line,
    "mc": _cmd_mc,
    "geodesic-check": _cmd_geodesic,
}


def _verbose_table(reports: list[VerificationReport]) -> str:
    lines = []
    width = max((len(r.check) for r in reports), default=0)
    for r in reports:
        lines.append(f"{r.check:<{width}}  {r.verdict}")
    return "\n".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser, once per process: every build leaves strings behind."""
    return build_parser()


def run(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        inputs, reports, raw_output = _HANDLERS[args.command](args)
    except (UsageError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if raw_output is not None:
        sys.stdout.write(raw_output)
    else:
        memo: dict = {}  # reports share values, such as the graph; lower each once
        envelope = {
            "command": args.command,
            "inputs": encode_value(inputs),
            "reports": [r.to_json_obj(memo) for r in reports],
        }
        sys.stdout.write(dump_json(envelope) + "\n")
    if args.verbose:
        print(_verbose_table(reports), file=sys.stderr)
    return 1 if aggregate_verdict(r.verdict for r in reports) == FAIL else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
