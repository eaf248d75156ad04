"""Exact connection polynomials against a brute-force subset oracle."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunkbed import (
    CapExceededError,
    Caps,
    INFINITY,
    Multigraph,
    RationalPoly,
    VAR_P,
    bunkbed,
    bunkbed_vertex,
    connected_avoiding,
    connection_counts,
    connection_polynomial,
    connection_query_polynomials,
    counts_to_polynomial,
    difference_polynomial,
    endpoint_polynomials,
    geodesic_check,
    parse_edge_list,
    threshold_point,
)

from bunkbed.exact import _bunkbed_layout, _pinned_differences
from conftest import family_graphs
from test_enumeration import (
    reference_counts_dfs,
    reference_counts_lanes,
    reference_counts_scratch,
)


def brute_connection_poly(g, a, b, pinned):
    """Direct 2^k enumeration with per-subset breadth-first search.

    Shares no traversal or counting code with the library kernel: every
    subset of the random edges is materialized and searched on its own.
    """
    bb = bunkbed(g)
    if pinned is None:
        random_ids = [e[0] for e in bb.edges]
        base_open = set()
    else:
        random_ids = [e[0] for e in bb.edges if e[0][0] == "h"]
        base_open = {e[0] for e in bb.edges if e[0][0] == "v" and e[1][0] in pinned}
    k = len(random_ids)
    counts = [0] * (k + 1)
    for mask in range(1 << k):
        open_ids = base_open | {
            random_ids[i] for i in range(k) if mask >> i & 1
        }
        adj = {v: [] for v in bb.vertices}
        for eid, x, y in bb.edges:
            if eid in open_ids:
                adj[x].append(y)
                adj[y].append(x)
        seen = {a}
        stack = [a]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if b in seen:
            counts[bin(mask).count("1")] += 1
    p = RationalPoly.variable(VAR_P)
    one = RationalPoly.one(VAR_P)
    total = RationalPoly.zero(VAR_P)
    for j, c in enumerate(counts):
        if c:
            total = total + (p ** j) * ((one - p) ** (k - j)) * Fraction(c)
    return total


def reference_counts_to_polynomial(counts, bits):
    """Sum of counts[j] * p^j * (1-p)^(bits-j) as a chain of polynomial products.

    The conversion the library used before the integer binomial expansion.
    """
    one_minus = RationalPoly((1, -1), VAR_P)
    powers = [RationalPoly.one(VAR_P)]
    for _ in range(bits):
        powers.append(powers[-1] * one_minus)
    acc = RationalPoly.zero(VAR_P)
    for j, c in enumerate(counts):
        if c:
            acc = acc + RationalPoly.monomial(j, c, VAR_P) * powers[bits - j]
    return acc


poly = lambda coeffs: RationalPoly(coeffs, VAR_P)


class TestFrozenValues:
    def test_k2_unconditioned(self, k2):
        same, cross = endpoint_polynomials(k2, "u", "v", None)
        assert same == poly([0, 1, 0, 1, -1])
        assert cross == poly([0, 0, 2, 0, -1])
        assert same - cross == poly([0, 1, -2, 1])

    def test_k2_no_posts(self, k2):
        same, cross = endpoint_polynomials(k2, "u", "v", frozenset())
        assert same == poly([0, 1])
        assert cross.is_zero

    def test_k2_one_post(self, k2):
        same, cross = endpoint_polynomials(k2, "u", "v", frozenset({"u"}))
        assert same == cross == poly([0, 1])

    def test_k2_both_posts(self, k2):
        same, cross = endpoint_polynomials(k2, "u", "v", frozenset({"u", "v"}))
        assert same == cross == poly([0, 2, -1])

    def test_single_vertex_post(self):
        g = Multigraph(vertices=("u",), edges=())
        got = connection_polynomial(
            g, bunkbed_vertex("u", 0), bunkbed_vertex("u", 1), None
        )
        assert got == poly([0, 1])


class TestOracleAgreement:
    CASES = [
        ("u v", None),
        ("u v", frozenset()),
        ("u v", frozenset({"v"})),
        ("a b\nb c", None),
        ("a b\nb c", frozenset({"b"})),
        ("a b\nb c", frozenset({"a", "b", "c"})),
        ("u v\nu v", None),
        ("a a\na b", None),
        ("u v\nv w\nw u", frozenset({"w"})),
    ]

    @pytest.mark.parametrize("text,pinned", CASES)
    def test_endpoint_polynomials_match_brute_force(self, text, pinned):
        g = parse_edge_list(text)
        first, last = g.vertices[0], g.vertices[-1]
        same, cross = endpoint_polynomials(g, first, last, pinned)
        b0 = bunkbed_vertex(first, 0)
        assert same == brute_connection_poly(
            g, b0, bunkbed_vertex(last, 0), pinned
        )
        assert cross == brute_connection_poly(
            g, b0, bunkbed_vertex(last, 1), pinned
        )

    def test_difference_polynomial_is_the_difference(self, k2):
        same, cross = endpoint_polynomials(k2, "u", "v", None)
        assert difference_polynomial(k2, "u", "v", None) == same - cross


class TestInvariances:
    def test_pair_symmetry(self, family):
        for g in family.values():
            x, y = g.vertices[0], g.vertices[-1]
            assert difference_polynomial(g, x, y, None) == (
                difference_polynomial(g, y, x, None)
            )

    def test_level_swap_when_pinned(self, family):
        for name in ("path2", "triangle", "double_edge"):
            g = family[name]
            x, y = g.vertices[0], g.vertices[-1]
            for t in (frozenset(), frozenset({x}), frozenset(g.vertices)):
                top, bottom = connection_query_polynomials(
                    g,
                    [
                        ((bunkbed_vertex(x, 1), bunkbed_vertex(y, 1)),),
                        ((bunkbed_vertex(x, 0), bunkbed_vertex(y, 0)),),
                    ],
                    pinned=t,
                )
                assert top == bottom

    def test_probability_at_endpoints(self, family):
        for g in family.values():
            x, y = g.vertices[0], g.vertices[-1]
            same, cross = endpoint_polynomials(g, x, y, None)
            assert same.evaluate(Fraction(1)) == 1
            assert cross.evaluate(Fraction(1)) == 1
            assert same.evaluate(Fraction(0)) == 0

    def test_values_are_probabilities_on_grid(self, family):
        for name in ("k2", "path3", "paw", "triangle_doubled"):
            g = family[name]
            x, y = g.vertices[0], g.vertices[-1]
            same, cross = endpoint_polynomials(g, x, y, None)
            for k in range(9):
                p = Fraction(k, 8)
                for val in (same.evaluate(p), cross.evaluate(p)):
                    assert 0 <= val <= 1
                assert same.evaluate(p) >= cross.evaluate(p)

    def test_kernel_matches_oracles(self, family, six_vertex):
        graphs = dict(family, six_vertex=six_vertex)
        for name, g in graphs.items():
            x, y = ("u", "v") if name == "six_vertex" else (g.vertices[0], g.vertices[-1])
            some = {"b", "e"} if {"b", "e"} <= set(g.vertices) else g.vertices[1::2]
            x0, y0, y1 = (bunkbed_vertex(x, 0), bunkbed_vertex(y, 0), bunkbed_vertex(y, 1))
            for pinned in (None, frozenset(), frozenset(some), frozenset(g.vertices)):
                index, base_pairs, items = _bunkbed_layout(g, pinned)
                bits = len(items)
                queries = [((x0, y0),), ((x0, y1),)]
                if bits <= 16:
                    # The oracles take seconds per query on the 22-bit
                    # case, so conjunctions and the scratch oracle run on
                    # the smaller ones.
                    queries.append(((x0, y0), (y1, x0)))
                index_queries = [tuple((index[a], index[b]) for a, b in q) for q in queries]
                args = (2 * g.vertex_count, base_pairs, items, index_queries)
                expected = reference_counts_dfs(*args)
                if bits <= 16:
                    assert reference_counts_scratch(*args) == expected, (name, pinned)
                assert reference_counts_lanes(*args) == expected, (name, pinned)
                assert connection_counts(*args) == expected, (name, pinned)
                polys = connection_query_polynomials(g, queries, pinned)
                assert polys == [counts_to_polynomial(row, bits) for row in expected]


def per_set_differences(g, u, v):
    """difference_polynomial for each pinned set, bit r pinning g.vertices[r]."""
    n = g.vertex_count
    return [difference_polynomial(g, u, v, [g.vertices[r] for r in range(n) if t >> r & 1])
            for t in range(1 << n)]


@st.composite
def multigraph_pairs(draw):
    """Random multigraphs with loops and parallel edges, and an endpoint pair."""
    n = draw(st.integers(min_value=1, max_value=4), label="n")
    names = [f"x{i}" for i in range(n)]
    ends = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=5), label="edges")
    g = Multigraph(tuple(names), tuple((i, a, b) for i, (a, b) in enumerate(pairs)))
    u = draw(ends, label="u")
    return g, u, draw(ends | st.just(u), label="v")


class TestPinnedDifferences:
    """The one-pass differences of every pinned set against per-set calls."""

    @given(multigraph_pairs())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_set_calls(self, case):
        g, u, v = case
        assert list(_pinned_differences(g, u, v)) == per_set_differences(g, u, v)

    def test_widest_graphs(self, six_vertex):
        k5 = parse_edge_list("\n".join(f"{a} {b}" for a, b in itertools.combinations("abcde", 2)))
        for g, u, v in ((six_vertex, "u", "v"), (six_vertex, "b", "b"), (k5, "a", "c")):
            assert list(_pinned_differences(g, u, v)) == per_set_differences(g, u, v), (u, v)


class TestCountsToPolynomial:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_product_expansion(self, data):
        bits = data.draw(st.integers(min_value=0, max_value=26), label="bits")
        # Zero entries are skipped and negative ones flip every sign of
        # the running binomial term; draw both often.
        entries = st.one_of(
            st.just(0),
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-(1 << 60), max_value=1 << 60),
        )
        counts = data.draw(
            st.lists(entries, min_size=bits + 1, max_size=bits + 1), label="counts"
        )
        assert counts_to_polynomial(counts, bits) == (
            reference_counts_to_polynomial(counts, bits)
        )

    @pytest.mark.parametrize("bits", [0, 1, 2, 22])
    def test_zero_and_unit_rows(self, bits):
        assert counts_to_polynomial([0] * (bits + 1), bits).is_zero()
        for j in range(bits + 1):
            row = [0] * (bits + 1)
            row[j] = 1
            assert counts_to_polynomial(row, bits) == (
                reference_counts_to_polynomial(row, bits)
            )
        binomial = [math.comb(bits, j) for j in range(bits + 1)]
        assert counts_to_polynomial(binomial, bits) == RationalPoly.one(VAR_P)


class TestBunkbedShape:
    def test_doubling(self):
        g = parse_edge_list("a b\nb c")
        bb = bunkbed(g)
        assert bb.vertex_count == 6
        assert bb.edge_count == 2 * 2 + 3

    def test_self_loop(self):
        g = parse_edge_list("a a")
        bb = bunkbed(g)
        assert bb.vertex_count == 2
        assert bb.edge_count == 3


class TestThresholdPoint:
    def test_values(self):
        assert threshold_point(1) == Fraction(7, 8)
        assert threshold_point(2) == Fraction(7, 8)
        assert threshold_point(3) == Fraction(15, 16)
        assert threshold_point(4) == Fraction(15, 16)
        assert threshold_point(8) == 1 - Fraction(1, 2 ** 6)

    def test_dominates_fractional_exponent(self):
        for m in range(1, 12):
            assert threshold_point(m) >= 1 - Fraction(1, 2) ** Fraction(m + 4, 2)


class TestConnectedAvoiding:
    def test_matches_distance(self, family):
        for g in family.values():
            vs = g.vertices
            for x, y in itertools.combinations(vs, 2):
                assert connected_avoiding(g, x, y, frozenset()) is True
            assert connected_avoiding(g, vs[0], vs[0], frozenset({vs[0]})) is False


class TestGeodesic:
    def test_k2(self, k2):
        r = geodesic_check(k2, "u", "v")
        assert (r.distance, r.geodesic_count, r.verdict) == (1, 1, True)

    def test_path2(self):
        g = parse_edge_list("a b\nb c")
        r = geodesic_check(g, "a", "c")
        assert (r.distance, r.geodesic_count, r.verdict) == (2, 1, True)

    def test_cycle4_has_two_geodesics(self):
        g = parse_edge_list("a b\nb c\nc d\nd a")
        r = geodesic_check(g, "a", "c")
        assert (r.distance, r.geodesic_count, r.verdict) == (2, 2, True)

    def test_parallel_edges_multiply(self):
        g = parse_edge_list("a b\na b\nb c")
        r = geodesic_check(g, "a", "c")
        assert (r.distance, r.geodesic_count, r.verdict) == (2, 2, True)

    def test_same_vertex(self, k2):
        r = geodesic_check(k2, "u", "u")
        assert (r.distance, r.geodesic_count, r.verdict) == (0, 1, True)

    def test_disconnected_pair_is_vacuous(self):
        g = Multigraph(
            vertices=("a", "b", "c"), edges=((0, "a", "b"),)
        )
        r = geodesic_check(g, "a", "c")
        assert r.distance == INFINITY
        assert r.geodesic_count == 0
        assert r.polynomial.is_zero
        assert r.verdict is True


class TestCaps:
    def test_cap_exceeded_reports_requirement(self, family):
        tight = Caps(max_config_bits=4)
        with pytest.raises(CapExceededError) as err:
            endpoint_polynomials(family["path4"], "a", "e", None, caps=tight)
        assert "max_config_bits" in str(err.value)

    def test_cap_boundary_allows_exact_fit(self, k2):
        # Unconditioned K2 needs exactly 4 random edges.
        caps = Caps(max_config_bits=4)
        same, _ = endpoint_polynomials(k2, "u", "v", None, caps=caps)
        assert same == poly([0, 1, 0, 1, -1])
