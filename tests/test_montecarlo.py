"""Seeded sampling: determinism, worker invariance, exact agreement."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunkbed import (
    DifferenceEstimates,
    Estimate,
    Multigraph,
    agreement_check,
    bunkbed,
    bunkbed_vertex,
    difference_polynomial,
    endpoint_polynomials,
    estimate_difference,
    estimate_to_json_obj,
    horizontal_edge_id,
    parse_edge_list,
    sample_bunkbed,
    vertical_edge_id,
)
from bunkbed.exact import _bunkbed_layout
from bunkbed.montecarlo import (
    SHARD_SAMPLES,
    _estimate,
    _shard_bits,
    _threshold,
)
from conftest import FAMILY_TEXT, SIX_VERTEX_TEXT


def reference_estimate(g, u, v, p, samples, seed, pinned=None) -> DifferenceEstimates:
    """Per-sample union-find over the same shards and Philox streams.

    This is the estimator the bit-lane spreading replaced.  It reuses the
    library's bunkbed layout, Philox shards, threshold and moment formula,
    so only the reachability step differs and the results must be equal.
    """
    index, base_pairs, items = _bunkbed_layout(g, pinned)
    random_pairs = [pair for _, (pair,) in items]
    threshold = _threshold(p)
    columns = len(random_pairs)
    u0, v0, v1 = index[(u, 0)], index[(v, 0)], index[(v, 1)]
    base_parent = list(range(2 * g.vertex_count))
    for a, b in base_pairs:
        base_parent[b] = base_parent[a]

    def root(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    same = cross = diff = diff_sq = 0
    for shard in range((samples + SHARD_SAMPLES - 1) // SHARD_SAMPLES):
        count = min(SHARD_SAMPLES, samples - shard * SHARD_SAMPLES)
        bits = _shard_bits(seed, shard, count, max(1, columns), threshold)
        for row in bits:
            parent = list(base_parent)
            for j in np.flatnonzero(row[:columns]):
                a, b = random_pairs[j]
                a, b = root(parent, a), root(parent, b)
                if a != b:
                    parent[b] = a
            x = root(parent, u0)
            s = int(x == root(parent, v0))
            c = int(x == root(parent, v1))
            same += s
            cross += c
            diff += s - c
            diff_sq += (s - c) ** 2
    return _from_totals((same, cross, diff, diff_sq), samples, seed)


def _from_totals(totals, samples, seed) -> DifferenceEstimates:
    same, cross, diff, diff_sq = totals
    return DifferenceEstimates(
        same_level=_estimate(same, same, samples, seed),
        cross_level=_estimate(cross, cross, samples, seed),
        difference=_estimate(diff, diff_sq, samples, seed),
    )


def _reached(bb, open_ids, start) -> set:
    """Vertices of bb that the open edge ids join to start."""
    adjacent = {x: [] for x in bb.vertices}
    for eid, a, b in bb.edges:
        if eid in open_ids:
            adjacent[a].append(b)
            adjacent[b].append(a)
    seen, stack = {start}, [start]
    while stack:
        for y in adjacent[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


ORACLE_GRAPHS = {**FAMILY_TEXT, "six_vertex": SIX_VERTEX_TEXT}
P_VALUES = (Fraction(0), Fraction(1, 4), Fraction(7, 8), Fraction(1))
# Partial bytes, exact and partial 64-bit words, one full shard, a
# one-sample second shard, and three full shards plus a partial one.
SAMPLE_COUNTS = (1, 63, 64, 65, 16384, 16385, 50_000)
SIX_PINNED = frozenset({"b", "e"})


def _pinned_sets(g):
    some = SIX_PINNED if SIX_PINNED <= set(g.vertices) else g.vertices[1::2]
    return (None, frozenset(), frozenset(some), frozenset(g.vertices))


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_graph_family(self, name):
        g = parse_edge_list(ORACLE_GRAPHS[name])
        u, v = g.vertices[0], g.vertices[-1]
        if name == "six_vertex":
            u, v = "u", "v"
        for pinned in _pinned_sets(g):
            for p in P_VALUES:
                got = estimate_difference(g, u, v, p, 300, 5, pinned)
                assert got == reference_estimate(g, u, v, p, 300, 5, pinned), (
                    pinned, p)

    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    def test_sample_counts_on_six_vertex(self, six_vertex, samples):
        for pinned, p in [(SIX_PINNED, q) for q in P_VALUES] + [(None, Fraction(1, 2))]:
            got = estimate_difference(six_vertex, "u", "v", p, samples, 21, pinned)
            want = reference_estimate(six_vertex, "u", "v", p, samples, 21, pinned)
            assert got == want, (pinned, p)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_multigraphs(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4), label="n")
        vertices = tuple(f"x{i}" for i in range(n))
        ends = st.sampled_from(vertices)
        pairs = data.draw(st.lists(st.tuples(ends, ends), max_size=5), label="edges")
        g = Multigraph(vertices, tuple((i, a, b) for i, (a, b) in enumerate(pairs)))
        u, v = data.draw(ends, label="u"), data.draw(ends, label="v")
        pinned = data.draw(st.none() | st.frozensets(ends), label="pinned")
        p = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=8), label="p")
        samples = data.draw(st.integers(min_value=1, max_value=200), label="samples")
        seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1), label="seed")
        got = estimate_difference(g, u, v, p, samples, seed, pinned)
        assert got == reference_estimate(g, u, v, p, samples, seed, pinned)


class TestGoldenTotals:
    """same/cross/diff/diff_sq on the six-vertex graph at p = 7/8 with
    200,000 samples and posts b, e pinned (the benchmark's mc-six call),
    as the union-find estimator computed them.  They pin the Philox
    stream, the shard layout and the bit -> edge column order."""

    @pytest.mark.parametrize(
        "seed, totals",
        [(3, (190760, 190930, -170, 11248)), (11, (190768, 190827, -59, 11245))],
    )
    def test_six_vertex_pinned_posts(self, six_vertex, seed, totals):
        got = estimate_difference(
            six_vertex, "u", "v", Fraction(7, 8), 200_000, seed, SIX_PINNED
        )
        assert got == _from_totals(totals, 200_000, seed)


class TestSampleConfigurations:
    def test_p_zero_opens_nothing(self, k2):
        assert sample_bunkbed(k2, Fraction(0), 1, None) == frozenset()

    def test_p_one_opens_everything(self, k2):
        got = sample_bunkbed(k2, Fraction(1), 1, None)
        assert got == frozenset(
            {
                horizontal_edge_id(0, 0),
                horizontal_edge_id(0, 1),
                vertical_edge_id("u"),
                vertical_edge_id("v"),
            }
        )

    def test_pinned_posts_forced(self, k2):
        got = sample_bunkbed(k2, Fraction(1), 1, frozenset({"u"}))
        assert vertical_edge_id("u") in got
        assert vertical_edge_id("v") not in got

    def test_pinned_posts_from_one_shot_iterable(self, k2):
        got = sample_bunkbed(k2, Fraction(0), 1, (v for v in ["u"]))
        assert got == frozenset({vertical_edge_id("u")})

    def test_same_seed_same_sample(self, k2):
        a = sample_bunkbed(k2, Fraction(1, 2), 123, None)
        b = sample_bunkbed(k2, Fraction(1, 2), 123, None)
        assert a == b

    def test_sampled_ids_are_the_estimate_columns(self):
        # A one-sample estimate draws the same shard-0 row as
        # sample_bunkbed, so its two indicators must read the connections
        # of the sampled open edges.  This pins column j of the estimate
        # to the edge id that sample_bunkbed names for it.  The one-vertex
        # edgeless graph draws a single padding column.
        graphs = {name: parse_edge_list(text) for name, text in ORACLE_GRAPHS.items()}
        graphs["lone"] = Multigraph(("x",), ())
        for name, g in graphs.items():
            u, v = ("u", "v") if name == "six_vertex" else (g.vertices[0], g.vertices[-1])
            bb = bunkbed(g)
            for pinned in (None, frozenset(), frozenset(g.vertices[::2])):
                for seed in range(20):
                    open_ids = sample_bunkbed(g, Fraction(1, 2), seed, pinned)
                    est = estimate_difference(g, u, v, Fraction(1, 2), 1, seed, pinned)
                    reached = _reached(bb, open_ids, (u, 0))
                    assert (est.same_level.mean, est.cross_level.mean) == (
                        float((v, 0) in reached), float((v, 1) in reached)
                    ), (name, pinned, seed)


class TestDeterminism:
    def test_same_seed_reproduces(self, k2):
        a = estimate_difference(k2, "u", "v", Fraction(1, 2), 50_000, 9, None)
        b = estimate_difference(k2, "u", "v", Fraction(1, 2), 50_000, 9, None)
        assert a == b

    def test_worker_count_is_invisible(self, k2):
        # 50000 samples span three full shards plus a partial one.
        reference = estimate_difference(k2, "u", "v", Fraction(1, 2), 50_000, 9, None)
        for workers in (2, 3, 8):
            got = estimate_difference(
                k2, "u", "v", Fraction(1, 2), 50_000, 9, None, workers=workers
            )
            assert got == reference

    def test_different_seeds_differ(self, k2):
        a = estimate_difference(k2, "u", "v", Fraction(1, 2), 50_000, 9, None)
        b = estimate_difference(k2, "u", "v", Fraction(1, 2), 50_000, 10, None)
        assert a.difference.mean != b.difference.mean


class TestAgreement:
    def test_k2_unconditioned(self, k2):
        est = estimate_difference(k2, "u", "v", Fraction(1, 2), 100_000, 7, None)
        exact = difference_polynomial(k2, "u", "v", None).evaluate(Fraction(1, 2))
        assert agreement_check(est.difference, exact, 4)

    def test_k2_pinned(self, k2):
        est = estimate_difference(
            k2, "u", "v", Fraction(3, 4), 100_000, 7, frozenset({"u", "v"})
        )
        same, cross = endpoint_polynomials(k2, "u", "v", frozenset({"u", "v"}))
        p = Fraction(3, 4)
        assert agreement_check(est.same_level, same.evaluate(p), 4)
        assert agreement_check(est.cross_level, cross.evaluate(p), 4)
        assert agreement_check(est.difference, 0, 4)

    def test_zero_stderr_requires_exact_equality(self):
        flat = Estimate(mean=1.0, stderr=0.0, samples=100, seed=1)
        assert agreement_check(flat, Fraction(1), 4) is True
        assert agreement_check(flat, Fraction(1, 2), 4) is False

    def test_window_scales_with_k(self):
        est = Estimate(mean=0.5, stderr=0.01, samples=100, seed=1)
        assert agreement_check(est, Fraction(52, 100), 4) is True
        assert agreement_check(est, Fraction(52, 100), 1) is False

    def test_boundary_is_inclusive(self):
        est = Estimate(mean=0.5, stderr=0.125, samples=100, seed=1)
        assert agreement_check(est, Fraction(1), 4) is True
        assert agreement_check(est, Fraction(1000001, 1000000), 4) is False


class TestEstimates:
    def test_same_vertex_is_certain(self, k2):
        for pinned in (None, frozenset(), frozenset({"u"})):
            for samples in (1, 65, 4096, 16385):
                est = estimate_difference(
                    k2, "u", "u", Fraction(1, 3), samples, 3, pinned
                )
                assert est.same_level.mean == 1.0
                assert est.same_level.stderr == 0.0
                assert est == reference_estimate(
                    k2, "u", "u", Fraction(1, 3), samples, 3, pinned
                )

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("samples", [1, 65, 16385])
    def test_no_random_columns(self, p, samples):
        # With no edges and fixed posts nothing is sampled; the single
        # padding column drawn per shard must not open anything.
        g = Multigraph(("x", "y"), ())
        for u, v, pinned, same, cross in [
            ("x", "y", frozenset({"x", "y"}), 0, 0),
            ("x", "x", frozenset(), samples, 0),
            ("x", "x", frozenset({"x"}), samples, samples),
        ]:
            est = estimate_difference(g, u, v, p, samples, 8, pinned)
            diff = same - cross
            assert est == _from_totals((same, cross, diff, abs(diff)), samples, 8)
            assert est == reference_estimate(g, u, v, p, samples, 8, pinned)
            assert est.difference.stderr == 0.0

    def test_pairing_does_not_hurt_precision(self, k2):
        est = estimate_difference(k2, "u", "v", Fraction(1, 2), 100_000, 7, None)
        unpaired = math.hypot(est.same_level.stderr, est.cross_level.stderr)
        assert est.difference.stderr <= unpaired

    def test_sample_and_seed_recorded(self, k2):
        est = estimate_difference(k2, "u", "v", Fraction(1, 2), 12345, 42, None)
        for leg in (est.same_level, est.cross_level, est.difference):
            assert leg.samples == 12345
            assert leg.seed == 42

    def test_json_obj_names_generator(self, k2):
        est = estimate_difference(k2, "u", "v", Fraction(1, 2), 1000, 1, None)
        obj = estimate_to_json_obj(est.difference)
        assert obj["generator"] == "philox4x64-raw"
        assert obj["samples"] == 1000
