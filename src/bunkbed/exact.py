"""Exact bunkbed connection polynomials by exhaustive enumeration.

The bunkbed over a base graph has two copies of every vertex joined by a
vertical edge, and two horizontal copies of every base edge.  Connection
probabilities between bunkbed vertices are computed as exact polynomials
in the retention probability p by enumerating every open/closed
assignment of the randomized edges; optionally the vertical edges are
conditioned to a fixed set of open posts instead of being randomized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .enumeration import (
    Caps,
    DEFAULT_CAPS,
    CapExceededError,
    _bunkbed_items,
    _frontier_counts,
    connection_counts,
)
from .graphs import INFINITY, Multigraph, Vertex, _geodesics, vertical_free_distance
from .polynomials import VAR_P, RationalPoly

BunkbedVertex = tuple  # (base vertex, level 0 or 1)

LEVELS = (0, 1)


def bunkbed_vertex(v: Vertex, level: int) -> BunkbedVertex:
    if level not in LEVELS:
        raise ValueError("level must be 0 or 1")
    return (v, level)


def horizontal_edge_id(eid, level: int):
    return ("h", eid, level)


def vertical_edge_id(v: Vertex):
    return ("v", v)


def bunkbed(g: Multigraph) -> Multigraph:
    """The two-level graph: 2|V| vertices, 2|E| horizontal + |V| vertical edges."""
    vertices = tuple((v, level) for v in g.vertices for level in LEVELS)
    edges = []
    for eid, a, b in g.edges:
        for level in LEVELS:
            edges.append((horizontal_edge_id(eid, level), (a, level), (b, level)))
    for v in g.vertices:
        edges.append((vertical_edge_id(v), (v, 0), (v, 1)))
    return Multigraph(vertices, tuple(edges))


def _bunkbed_layout(g: Multigraph, pinned: Optional[Iterable[Vertex]]) -> tuple[dict, list, list]:
    """Kernel index of each bunkbed vertex, and the kernel's base pairs and items.

    The vertex at position r of g.vertices has copies 2r and 2r + 1.
    pinned=None randomizes the posts; otherwise the posts at pinned are open.
    """
    rank = {v: r for r, v in enumerate(g.vertices)}
    if pinned is not None:
        pinned = set(pinned)
        for v in pinned:
            g.require_vertex(v)
        pinned = sum(1 << rank[v] for v in pinned)
    edges = [(rank[a], rank[b]) for _, a, b in g.edges]
    base_pairs, items = _bunkbed_items(len(rank), edges, pinned)
    index = {(v, level): 2 * r + level for v, r in rank.items() for level in LEVELS}
    return index, base_pairs, items


def _check_cap(bits: int, caps: Caps) -> None:
    if bits > caps.max_config_bits:
        raise CapExceededError(
            f"enumeration needs 2^{bits} configurations; "
            f"raise max_config_bits to at least {bits} (currently {caps.max_config_bits})"
        )


def counts_to_polynomial(counts: Sequence[int], bits: int) -> RationalPoly:
    """Sum of counts[j] * p^j * (1-p)^(bits-j), expanded exactly.

    The coefficient of p^i is the integer sum over j of
    counts[j] * C(bits-j, i-j) * (-1)^(i-j), each term the last one
    times -(bits-i)/(i+1-j), an exact division.
    """
    coeffs = [0] * (bits + 1)
    for j, c in enumerate(counts):
        if c:
            for i in range(j, bits + 1):
                coeffs[i] += c
                c = c * (i - bits) // (i + 1 - j)
    return RationalPoly(coeffs, VAR_P)


def connection_query_polynomials(
    g: Multigraph,
    queries: Sequence[Sequence[tuple[BunkbedVertex, BunkbedVertex]]],
    pinned: Optional[Iterable[Vertex]] = None,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> list[RationalPoly]:
    """Exact probability, per query, that all its vertex pairs connect.

    Each query is a conjunction of bunkbed vertex pairs.  pinned=None
    randomizes the vertical edges along with the horizontal ones;
    pinned=t fixes verticals open exactly at the vertices of t.
    """
    index, base_pairs, items = _bunkbed_layout(g, pinned)
    _check_cap(len(items), caps)
    idx_queries = []
    for query in queries:
        pairs = []
        for a, b in query:
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise ValueError(f"unknown bunkbed vertex {missing!r}")
            pairs.append((index[a], index[b]))
        idx_queries.append(tuple(pairs))
    counts = connection_counts(2 * g.vertex_count, base_pairs, items, idx_queries)
    return [counts_to_polynomial(row, len(items)) for row in counts]


def connection_polynomial(
    g: Multigraph,
    a: BunkbedVertex,
    b: BunkbedVertex,
    pinned: Optional[Iterable[Vertex]] = None,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> RationalPoly:
    """Exact polynomial in p for the event that a and b are connected."""
    return connection_query_polynomials(g, [((a, b),)], pinned, caps=caps)[0]


def endpoint_polynomials(
    g: Multigraph,
    u: Vertex,
    v: Vertex,
    pinned: Optional[Iterable[Vertex]] = None,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[RationalPoly, RationalPoly]:
    """Connection polynomials for (u bottom, v bottom) and (u bottom, v top).

    Both are computed from one shared enumeration so the pair is exactly
    coupled configuration by configuration.
    """
    u0 = bunkbed_vertex(u, 0)
    polys = connection_query_polynomials(
        g,
        [((u0, bunkbed_vertex(v, 0)),), ((u0, bunkbed_vertex(v, 1)),)],
        pinned,
        caps=caps,
    )
    return polys[0], polys[1]


def difference_polynomial(
    g: Multigraph,
    u: Vertex,
    v: Vertex,
    pinned: Optional[Iterable[Vertex]] = None,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> RationalPoly:
    """P(u bottom <-> v bottom) - P(u bottom <-> v top), exactly."""
    same, cross = endpoint_polynomials(g, u, v, pinned, caps=caps)
    return same - cross


def _pinned_differences(g: Multigraph, u: Vertex, v: Vertex) -> Iterator[RationalPoly]:
    """difference_polynomial for each pinned set t in turn, from one frontier pass.

    Bit r of t opens the post of g.vertices[r].  With H = 2|E| horizontal
    items and buckets of B = H + 1 bits, an open horizontal copy shifts
    by B and open post r by 2^r (H + 1) B, so t's buckets start at bit
    t (H + 1) B and each state carries 2^|V| (2|E| + 1)^2 bits.  The
    caller checks the vertices and the caps, 2|E| + |V| items, first.
    """
    index, _, items = _bunkbed_layout(g, None)
    bits = 2 * g.edge_count
    block, u0 = (bits + 1) ** 2, index[(u, 0)]
    shifts = [bits + 1] * bits + [block << r for r in range(g.vertex_count)]
    steps = [[(edges0, 0), (edges1, shift)] for (edges0, edges1), shift in zip(items, shifts)]
    queries = [((u0, index[(v, 0)]),), ((u0, index[(v, 1)]),)]
    same, cross = _frontier_counts(2 * g.vertex_count, steps, queries)
    bucket, polys = (1 << (bits + 1)) - 1, {}
    for low in range(0, block << g.vertex_count, block):
        counts = tuple([(same >> j & bucket) - (cross >> j & bucket)
                        for j in range(low, low + block, bits + 1)])
        if counts not in polys:  # most pinned sets repeat an earlier one's vector
            polys[counts] = counts_to_polynomial(counts, bits)
        yield polys[counts]


def threshold_point(edge_count: int) -> Fraction:
    """Dyadic point 1 - 2^(-ceil(|E|/2) - 2), at or above the proof threshold."""
    if edge_count < 0:
        raise ValueError("edge count must be nonnegative")
    return Fraction(1) - Fraction(1, 2 ** ((edge_count + 1) // 2 + 2))


def connected_avoiding(g: Multigraph, u: Vertex, v: Vertex, pinned: Iterable[Vertex]) -> bool:
    """True iff u and v are joined by a path avoiding the pinned set entirely."""
    return vertical_free_distance(g, u, v, pinned) != INFINITY


@dataclass(frozen=True)
class GeodesicCheck:
    """Lowest-order behavior of a connection polynomial near p = 0."""

    distance: float
    geodesic_count: int
    polynomial: RationalPoly
    verdict: bool


def geodesic_check(
    g: Multigraph,
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> GeodesicCheck:
    """Check that the connection polynomial starts at the geodesic term.

    For the fully randomized bunkbed, the lowest nonzero coefficient of
    the (u bottom, v bottom) connection polynomial must sit at degree
    d(u bottom, v bottom) and equal the number of geodesics.  A
    disconnected pair must come back as INFINITY with the zero
    polynomial, which makes the verdict vacuously true.
    """
    g.require_vertex(u)
    g.require_vertex(v)
    distance, count = _geodesics(bunkbed(g), bunkbed_vertex(u, 0), bunkbed_vertex(v, 0))
    poly = connection_polynomial(
        g, bunkbed_vertex(u, 0), bunkbed_vertex(v, 0), None, caps=caps
    )
    if distance == INFINITY:
        verdict = poly.is_zero()
    else:
        lowest = next((k for k, c in enumerate(poly.coeffs) if c != 0), None)
        verdict = lowest == distance and poly.coeff(distance) == count
    return GeodesicCheck(distance, count, poly, verdict)
