"""Shared fixtures: the small-graph family used across the suite, the
n-edge path, and an independent p <-> q = 1 - p converter."""

from __future__ import annotations

import sys
from math import comb

import pytest

from bunkbed import Multigraph, RationalPoly, VAR_P, VAR_Q, parse_edge_list


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line acceptance verdicts collected during the run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ANNOUNCED", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

# Connected graphs with at most four edges: paths, cycles, stars, the
# triangle with a pendant, the four-edge spider, and multigraphs with
# one doubled edge.  Keyed by name; value is edge-list text.
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

# Endpoint pair per family member for the sampling checks: first and
# last vertex in first-mention order.
SIX_VERTEX_TEXT = "u b\nb c\nc v\nd e\ne v\nu d\nb d\nb e"


def family_graphs() -> dict[str, Multigraph]:
    return {name: parse_edge_list(text) for name, text in FAMILY_TEXT.items()}


@pytest.fixture(scope="session")
def family() -> dict[str, Multigraph]:
    return family_graphs()


@pytest.fixture(scope="session")
def six_vertex() -> Multigraph:
    return parse_edge_list(SIX_VERTEX_TEXT)


@pytest.fixture(scope="session")
def k2() -> Multigraph:
    return parse_edge_list("u v")


def path_graph(n: int) -> Multigraph:
    """The path with n edges on vertices '0' .. 'n'."""
    vertices = tuple(str(i) for i in range(n + 1))
    return Multigraph(vertices, tuple((i, str(i), str(i + 1)) for i in range(n)))


def reparam_by_binomial(poly: RationalPoly) -> RationalPoly:
    """Substitute x -> 1 - x and flip the variable tag, via explicit binomial sums."""
    var = VAR_Q if poly.var == VAR_P else VAR_P
    out = RationalPoly.zero(var)
    for k, c in enumerate(poly.coeffs):
        out = out + RationalPoly([(-1) ** j * comb(k, j) for j in range(k + 1)], var) * c
    return out
