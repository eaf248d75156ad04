"""Multigraph parsing, components, minors, vertical-free distance, geodesics."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunkbed import (
    GraphParseError,
    INFINITY,
    Multigraph,
    bunkbed,
    connected_components,
    geodesic_check,
    minor,
    parse_edge_list,
    vertical_free_distance,
)
from bunkbed.graphs import _geodesics

from conftest import FAMILY_TEXT, family_graphs


class TestParse:
    def test_basic(self):
        g = parse_edge_list("a b\nb c\n")
        assert g.vertices == ("a", "b", "c")
        assert g.edges == ((0, "a", "b"), (1, "b", "c"))

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n\na b\n  # inline-only line\nb c")
        assert g.edge_count == 2

    def test_first_mention_order(self):
        g = parse_edge_list("z y\nx z")
        assert g.vertices == ("z", "y", "x")

    def test_parallel_edges_and_loops(self):
        g = parse_edge_list("a b\na b\nc c")
        assert g.edge_count == 3
        assert g.edges[2] == (2, "c", "c")

    def test_malformed_line_number(self):
        with pytest.raises(GraphParseError) as err:
            parse_edge_list("a b\n\noops\na c")
        assert err.value.line_number == 3

    def test_too_many_tokens(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("a b c")

    def test_empty_input(self):
        g = parse_edge_list("")
        assert g.vertices == () and g.edges == ()


class TestComponents:
    def test_two_components(self):
        g = parse_edge_list("a b\nc d")
        comps = connected_components(g)
        assert comps == (frozenset({"a", "b"}), frozenset({"c", "d"}))

    def test_allowed_restriction(self):
        g = parse_edge_list("a b\nb c")
        comps = connected_components(g, allowed=frozenset({"a", "c"}))
        assert comps == (frozenset({"a"}), frozenset({"c"}))

    def test_isolated_vertex_direct_construction(self):
        # The edge-list format cannot express isolated vertices, so the
        # constructor is exercised directly.
        g = Multigraph(vertices=("a", "b", "c"), edges=((0, "a", "b"),))
        comps = connected_components(g)
        assert frozenset({"c"}) in comps

    @given(st.integers(min_value=0, max_value=4))
    def test_path_is_connected(self, n):
        text = "\n".join(f"{i} {i + 1}" for i in range(n)) or "#"
        g = parse_edge_list(text)
        if n == 0:
            assert connected_components(g) == ()
        else:
            assert len(connected_components(g)) == 1


class TestMinor:
    def test_contract_edge(self):
        g = parse_edge_list("a b\nb c")
        h, proj = minor(g, delete=frozenset(), contract=frozenset({0}))
        assert proj["a"] == proj["b"] != proj["c"]
        assert h.edge_count == 1
        assert h.edges[0][0] == 1

    def test_delete_edge(self):
        g = parse_edge_list("a b\nb c")
        h, proj = minor(g, delete=frozenset({1}), contract=frozenset())
        assert h.edge_count == 1
        assert set(proj.values()) == set(h.vertices)

    def test_contraction_creates_loop(self):
        g = parse_edge_list("a b\na b")
        h, _ = minor(g, delete=frozenset(), contract=frozenset({0}))
        assert h.edge_count == 1
        eid, x, y = h.edges[0]
        assert x == y

    def test_overlapping_sets_rejected(self):
        g = parse_edge_list("a b")
        with pytest.raises(ValueError):
            minor(g, delete=frozenset({0}), contract=frozenset({0}))

    def test_unknown_edge_rejected(self):
        g = parse_edge_list("a b")
        with pytest.raises(ValueError):
            minor(g, delete=frozenset({5}), contract=frozenset())

    def test_projection_matches_components(self):
        # Contracted-vertex classes must equal components of the
        # contracted-edge subgraph, exhaustively over the family.
        for g in family_graphs().values():
            ids = list(g.edge_ids)
            for r in range(len(ids) + 1):
                for contract in map(frozenset, itertools.combinations(ids, r)):
                    _, proj = minor(g, delete=frozenset(), contract=contract)
                    sub = Multigraph(
                        vertices=g.vertices,
                        edges=tuple(e for e in g.edges if e[0] in contract),
                    )
                    for comp in connected_components(sub):
                        images = {proj[v] for v in comp}
                        assert len(images) == 1
                    for x, y in itertools.combinations(g.vertices, 2):
                        same_comp = any(
                            x in c and y in c for c in connected_components(sub)
                        )
                        assert (proj[x] == proj[y]) == same_comp


class TestVerticalFreeDistance:
    def test_simple_path(self):
        g = parse_edge_list("a b\nb c")
        assert vertical_free_distance(g, "a", "c", frozenset()) == 2
        assert vertical_free_distance(g, "a", "b", frozenset()) == 1
        assert vertical_free_distance(g, "a", "a", frozenset()) == 0

    def test_pinned_blocks(self):
        g = parse_edge_list("a b\nb c")
        assert vertical_free_distance(g, "a", "c", frozenset({"b"})) == INFINITY

    def test_pinned_endpoint_is_infinite(self):
        g = parse_edge_list("a b")
        assert vertical_free_distance(g, "a", "b", frozenset({"a"})) == INFINITY
        assert vertical_free_distance(g, "a", "a", frozenset({"a"})) == INFINITY

    def test_disconnected(self):
        g = parse_edge_list("a b\nc d")
        assert vertical_free_distance(g, "a", "c", frozenset()) == INFINITY

    def test_loops_ignored(self):
        g = parse_edge_list("a a\na b")
        assert vertical_free_distance(g, "a", "b", frozenset()) == 1

    def test_symmetry_over_family(self):
        for g in family_graphs().values():
            vs = g.vertices
            for t_bits in range(1 << len(vs)):
                t = frozenset(v for i, v in enumerate(vs) if t_bits >> i & 1)
                for x, y in itertools.combinations(vs, 2):
                    assert vertical_free_distance(g, x, y, t) == (
                        vertical_free_distance(g, y, x, t)
                    )

    def test_pinning_monotone(self):
        # Adding pinned vertices can only increase the distance.
        for g in family_graphs().values():
            vs = g.vertices
            for x, y in itertools.combinations(vs, 2):
                base = vertical_free_distance(g, x, y, frozenset())
                for w in vs:
                    more = vertical_free_distance(g, x, y, frozenset({w}))
                    assert more >= base


@st.composite
def multigraph_pairs(draw):
    """A multigraph on 1-5 vertices with loops and parallel edges, and two endpoints."""
    vertices = tuple("abcde"[:draw(st.integers(1, 5))])
    vertex = st.sampled_from(vertices)
    ends = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    g = Multigraph(vertices, tuple((i, a, b) for i, (a, b) in enumerate(ends)))
    return g, draw(vertex), draw(vertex)


def walk_geodesics(g, start, goal, avoid=frozenset()) -> tuple:
    """(least L with a start-goal walk of length L, the number of such walks).

    Walks stay on the vertices outside avoid and use the loop-free
    adjacency matrix A, parallel edges as multiplicities; the count is
    entry (start, goal) of A^L.  A shortest walk is a path.
    """
    allowed = [x for x in g.vertices if x not in avoid]
    if start not in allowed or goal not in allowed:
        return INFINITY, 0
    pos = {x: i for i, x in enumerate(allowed)}
    adj = [[0] * len(allowed) for _ in allowed]
    for _, a, b in g.edges:
        if a != b and a in pos and b in pos:
            adj[pos[a]][pos[b]] += 1
            adj[pos[b]][pos[a]] += 1
    row = [int(x == start) for x in allowed]  # row start of A^length
    for length in range(len(allowed)):
        if row[pos[goal]]:
            return length, row[pos[goal]]
        row = [sum(r * a[j] for r, a in zip(row, adj)) for j in range(len(allowed))]
    return INFINITY, 0


class TestGeodesics:
    @given(multigraph_pairs())
    def test_matches_walk_counts(self, case):
        g, u, v = case
        for bits in range(1 << g.vertex_count):  # every avoid set
            avoid = frozenset(x for i, x in enumerate(g.vertices) if bits >> i & 1)
            expected = walk_geodesics(g, u, v, avoid)
            assert _geodesics(g, u, v, avoid) == expected
            assert vertical_free_distance(g, u, v, avoid) == expected[0]

    @given(multigraph_pairs())
    @settings(max_examples=40, deadline=None)
    def test_geodesic_check_matches_walk_counts(self, case):
        g, u, v = case
        r = geodesic_check(g, u, v)
        assert (r.distance, r.geodesic_count) == walk_geodesics(bunkbed(g), (u, 0), (v, 0))
        assert r.verdict is True
