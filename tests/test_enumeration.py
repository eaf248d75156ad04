"""Bit-sliced enumeration kernel against three independent counters.

reference_counts_dfs and reference_counts_scratch are the two kernels the
bit lanes replaced; naive_counts shares no code with either.  Tests that
must cross the boundary between lane items and prefix shards on small
instances shrink the kernel's lane width with a monkeypatch.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunkbed import connection_counts, enumeration


def _find(parent: list[int], x: int) -> int:
    while True:
        p = parent[x]
        if p == x:
            return x
        x = p


def _union_all(parent: list[int], pairs) -> None:
    for a, b in pairs:
        ra = _find(parent, a)
        rb = _find(parent, b)
        if ra != rb:
            parent[rb] = ra


def _satisfied(parent: list[int], query) -> bool:
    for a, b in query:
        if _find(parent, a) != _find(parent, b):
            return False
    return True


def _base_parent(num_vertices, base_pairs) -> list[int]:
    parent = list(range(num_vertices))
    _union_all(parent, base_pairs)
    return parent


def reference_counts_dfs(num_vertices, base_pairs, items, queries):
    """Prefix-sharing DFS over configurations.

    Union-find state is copied only when a branch adds edges, so common
    prefixes share their union work.  A query already satisfied at a node
    holds in the whole subtree (edges are only ever added), so the
    subtree is credited with a binomial row at once; a query that fails
    even with every remaining edge present is dropped without credit.
    Subtrees of fewer than eight items skip that feasibility test.
    """
    k = len(items)
    pascal = [[1]]
    for _ in range(k):
        prev = pascal[-1]
        pascal.append([1] + [prev[j] + prev[j + 1] for j in range(len(prev) - 1)] + [1])
    suffix = [()] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = tuple(items[i][0]) + tuple(items[i][1]) + suffix[i + 1]
    counts = [[0] * (k + 1) for _ in queries]

    def recurse(parent, idx, ones, active):
        rem = k - idx
        m = active
        while m:
            low = m & (-m)
            qi = low.bit_length() - 1
            if _satisfied(parent, queries[qi]):
                row = pascal[rem]
                cq = counts[qi]
                for offset in range(rem + 1):
                    cq[ones + offset] += row[offset]
                active &= ~low
            m ^= low
        if not active or idx == k:
            return
        if rem >= 8:
            optimistic = list(parent)
            _union_all(optimistic, suffix[idx])
            m = active
            while m:
                low = m & (-m)
                qi = low.bit_length() - 1
                if not _satisfied(optimistic, queries[qi]):
                    active &= ~low
                m ^= low
            if not active:
                return
        edges0, edges1 = items[idx]
        for bit, edges in ((0, edges0), (1, edges1)):
            if edges:
                child = list(parent)
                _union_all(child, edges)
                recurse(child, idx + 1, ones + bit, active)
            else:
                recurse(parent, idx + 1, ones + bit, active)

    recurse(_base_parent(num_vertices, base_pairs), 0, 0, (1 << len(queries)) - 1)
    return counts


def reference_counts_scratch(num_vertices, base_pairs, items, queries):
    """Plain counter loop rebuilding union-find per configuration."""
    k = len(items)
    base_parent = _base_parent(num_vertices, base_pairs)
    counts = [[0] * (k + 1) for _ in queries]
    for mask in range(1 << k):
        parent = list(base_parent)
        for i, item in enumerate(items):
            _union_all(parent, item[(mask >> i) & 1])
        for qi, query in enumerate(queries):
            if _satisfied(parent, query):
                counts[qi][mask.bit_count()] += 1
    return counts


def naive_counts(num_vertices, base_pairs, items, queries):
    """Third implementation: label propagation per configuration."""
    k = len(items)
    results = [[0] * (k + 1) for _ in queries]
    for mask in range(1 << k):
        pairs = list(base_pairs)
        for i, (off_pairs, on_pairs) in enumerate(items):
            pairs.extend(on_pairs if mask >> i & 1 else off_pairs)
        labels = list(range(num_vertices))
        changed = True
        while changed:
            changed = False
            for a, b in pairs:
                low = min(labels[a], labels[b])
                if labels[a] != low or labels[b] != low:
                    # Propagate the smaller label until stable.
                    high = max(labels[a], labels[b])
                    labels = [low if x == high else x for x in labels]
                    changed = True
        ones = bin(mask).count("1")
        for qi, query in enumerate(queries):
            if all(labels[a] == labels[b] for a, b in query):
                results[qi][ones] += 1
    return results


def counts_with_lane_bits(lane_bits, *args):
    """The kernel's counts with its lane width forced to lane_bits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_LANE_BITS", lane_bits)
        return connection_counts(*args)


def pair_strategy(n):
    vertex = st.integers(min_value=0, max_value=n - 1)
    return st.tuples(vertex, vertex)


instances = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(pair_strategy(n), max_size=2),
        st.lists(
            st.tuples(
                st.lists(pair_strategy(n), max_size=2).map(tuple),
                st.lists(pair_strategy(n), max_size=2).map(tuple),
            ),
            max_size=6,
        ),
        st.lists(st.lists(pair_strategy(n), max_size=3).map(tuple),
                 min_size=1, max_size=3),
    )
)

lane_widths = st.sampled_from([1, 2, 3, enumeration._LANE_BITS])


class TestAgainstNaive:
    @given(instances, lane_widths)
    @settings(max_examples=150, deadline=None)
    def test_matches_dfs_oracle(self, instance, lane_bits):
        expected = reference_counts_dfs(*instance)
        assert counts_with_lane_bits(lane_bits, *instance) == expected
        assert naive_counts(*instance) == expected

    @given(instances, lane_widths)
    @settings(max_examples=150, deadline=None)
    def test_matches_scratch_oracle(self, instance, lane_bits):
        expected = reference_counts_scratch(*instance)
        assert counts_with_lane_bits(lane_bits, *instance) == expected


# Queries with the empty conjunction, a pair (a, a) and conjunctions.
BOUNDARY_QUERIES = [(), ((0, 0),), ((0, 3),), ((0, 1), (2, 3)), ((1, 3), (0, 2), (2, 2))]


def _boundary_items(k: int, seed: int) -> list:
    """k items on four vertices, each with edges on both bits."""
    rng = random.Random(seed)

    def pair():
        return rng.randrange(4), rng.randrange(4)

    return [
        (tuple(pair() for _ in range(rng.randint(0, 2))), (pair(),))
        for _ in range(k)
    ]


class TestShardBoundaries:
    @pytest.mark.parametrize("lane_bits", [1, 2, 3])
    def test_item_counts_around_lane_width(self, lane_bits):
        for k in sorted({0, lane_bits - 1, lane_bits, lane_bits + 1}):
            for seed in range(8):
                args = (4, [(1, 2)] if seed % 2 else [], _boundary_items(k, seed),
                        BOUNDARY_QUERIES)
                expected = reference_counts_dfs(*args)
                assert reference_counts_scratch(*args) == expected
                got = counts_with_lane_bits(lane_bits, *args)
                assert got == expected, (k, seed)


class TestEdgeCases:
    def test_no_items(self):
        got = connection_counts(2, [(0, 1)], [], [((0, 1),)])
        assert got == [[1]]

    def test_unsatisfiable_query(self):
        items = [((), ((0, 1),))]
        got = connection_counts(3, [], items, [((0, 2),)])
        assert got == [[0, 0]]

    def test_empty_query_is_always_satisfied(self):
        items = [((), ((0, 1),))]
        got = connection_counts(2, [], items, [()])
        assert got == [[1, 1]]

    def test_bucket_totals_are_binomial(self):
        # A query satisfied by every configuration must produce the
        # full Pascal row.
        items = [((), ((0, 1),)) for _ in range(5)]
        got = connection_counts(2, [(0, 1)], items, [((0, 1),)])
        assert got == [[1, 5, 10, 10, 5, 1]]

    def test_edge_cases_match_oracles(self):
        cases = [
            (2, [(0, 1)], [], [((0, 1),)]),
            (3, [], [((), ((0, 1),))], [((0, 2),)]),
            (2, [], [((), ((0, 1),))], [()]),
            (2, [(0, 1)], [((), ((0, 1),))] * 5, [((0, 1),)]),
            (3, [], [(((0, 1),), ((1, 2),)), (((1, 1),), ())], [((0, 2),), ((1, 1),)]),
        ]
        for args in cases:
            expected = reference_counts_dfs(*args)
            assert reference_counts_scratch(*args) == expected
            for lane_bits in (1, 2, enumeration._LANE_BITS):
                assert counts_with_lane_bits(lane_bits, *args) == expected, args

    def test_multiple_queries_one_pass(self):
        items = [
            ((), ((0, 1),)),
            ((), ((1, 2),)),
        ]
        got = connection_counts(
            3, [], items, [((0, 1),), ((0, 2),), ((0, 1), (1, 2))]
        )
        assert got[0] == [0, 1, 1]
        assert got[1] == [0, 0, 1]
        assert got[2] == [0, 0, 1]
