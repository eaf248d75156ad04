"""The counting kernel's frontier pass against four independent counters.

reference_counts_dfs and reference_counts_scratch are the two kernels
the bit lanes replaced, reference_counts_lanes is the bit-lane counter
the frontier pass replaced (one lane up to 16 items, prefix shards
above), and naive_counts shares no code with any of them.  Tests that
must cross the boundary between lane items and prefix shards on small
instances shrink the lane oracle's width with a monkeypatch.
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


def _weight_masks(lanes: int) -> list[int]:
    """Mask j has bit x set iff x has exactly j ones, for x < 2^lanes."""
    masks = [1]
    for i in range(lanes):
        masks = [low | (high << (1 << i)) for low, high in zip(masks + [0], [0] + masks)]
    return masks


def reference_item_lanes(lanes: int) -> tuple[int, ...]:
    """The item lanes by division, as the library built them before doubling.

    full // (2^(2 half) - 1) has one bit at the start of every period of
    2 half bits; the block fills that period's upper half.
    """
    full = (1 << (1 << lanes)) - 1
    out = []
    for i in range(lanes):
        half = 1 << i
        block = ((1 << half) - 1) << half
        out.append(full // ((1 << 2 * half) - 1) * block)
    return tuple(out)


def reference_counts_lanes(num_vertices, base_pairs, items, queries):
    """Bit-sliced counter over prefix shards, as the up/down model runs them.

    The first L items are the bits of one 2^L-bit lane and the others are
    fixed per prefix shard, their chosen edges joining the base pairs; a
    query's count in bucket h + j is the popcount of its lane over the
    bits with j ones, h being the number of ones in the shard's prefix.
    """
    items = [tuple(map(tuple, item)) for item in items]
    k = len(items)
    lanes = min(k, enumeration._LANE_BITS)
    sources = sorted({a for query in queries for a, _ in query})
    full = (1 << (1 << lanes)) - 1
    weights = _weight_masks(lanes)
    counts = [[0] * (k + 1) for _ in queries]
    for prefix in range(1 << (k - lanes)):
        fixed = [pair for i, item in enumerate(items[lanes:])
                 for pair in item[(prefix >> i) & 1]]
        reach = enumeration._lane_reach(
            num_vertices, [*base_pairs, *fixed], items[:lanes], sources)
        h = prefix.bit_count()
        for row, query in zip(counts, queries):
            sat = full
            for a, b in query:
                sat &= reach[a][b]
            for j, mask in enumerate(weights):
                row[h + j] += (sat & mask).bit_count()
    return counts


def counts_with_lane_bits(lane_bits, *args):
    """The lane oracle's counts with its lane width forced to lane_bits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_LANE_BITS", lane_bits)
        return reference_counts_lanes(*args)


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
        assert connection_counts(*instance) == expected

    @given(instances, lane_widths)
    @settings(max_examples=150, deadline=None)
    def test_matches_scratch_oracle(self, instance, lane_bits):
        expected = reference_counts_scratch(*instance)
        assert counts_with_lane_bits(lane_bits, *instance) == expected
        assert connection_counts(*instance) == expected

    @given(instances, st.data())
    @settings(max_examples=150, deadline=None)
    def test_item_order_does_not_change_counts(self, instance, data):
        n, base_pairs, items, queries = instance
        shuffled = data.draw(st.permutations(items), label="items")
        expected = reference_counts_scratch(*instance)
        assert connection_counts(n, base_pairs, shuffled, queries) == expected


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
                assert connection_counts(*args) == expected

    def test_every_item_count_runs_the_frontier_pass(self, monkeypatch):
        # No item count, small or past one lane, takes another path.
        calls = []
        frontier = enumeration._frontier_counts

        def spy(*args):
            calls.append(len(args[1]))
            return frontier(*args)

        def no_lanes(*args):
            raise AssertionError("connection_counts spread reach on bit lanes")

        monkeypatch.setattr(enumeration, "_frontier_counts", spy)
        monkeypatch.setattr(enumeration, "_lane_reach", no_lanes)
        monkeypatch.setattr(enumeration, "_spread", no_lanes)
        for k in (0, 1, 13, 14, 16):
            args = (4, [(1, 2)], _boundary_items(k, k), BOUNDARY_QUERIES)
            expected = reference_counts_dfs(*args)
            calls.clear()
            assert connection_counts(*args) == expected
            assert calls == [k + 1], k


class TestItemLanes:
    def test_lane_i_holds_the_configurations_with_bit_i(self):
        for lanes in range(11):
            got = enumeration._item_lanes(lanes)
            assert len(got) == lanes
            for i, lane in enumerate(got):
                assert lane < 1 << (1 << lanes)
                assert all((lane >> x) & 1 == (x >> i) & 1 for x in range(1 << lanes))

    def test_matches_division_oracle(self):
        for lanes in range(15):
            assert enumeration._item_lanes(lanes) == reference_item_lanes(lanes)


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
            # Vertices no item touches, and base pairs alone.
            (5, [(0, 1)], [((), ((1, 2),))], [((0, 2),), ((3, 3),), ((3, 4),), ((0, 4),)]),
            (4, [(0, 1), (1, 2), (3, 3)], [], [((0, 2),), ((2, 3),), (), ((3, 3), (0, 1))]),
            (3, [], [((), ())] * 3, [(), ((0, 0),), ((0, 1),)]),
        ]
        for args in cases:
            expected = reference_counts_dfs(*args)
            assert reference_counts_scratch(*args) == expected
            assert naive_counts(*args) == expected
            for lane_bits in (1, 2, enumeration._LANE_BITS):
                assert counts_with_lane_bits(lane_bits, *args) == expected, args
            assert connection_counts(*args) == expected, args

    @pytest.mark.parametrize("args", [
        (2, [(0, 1)], [((), ((0, 1),))], [((0, -1),)]),
        (2, [(0, 2)], [((), ((0, 1),))], [((0, 1),)]),
        (2, [], [((), ((0, 1),)), (((1, -2),), ())], [((0, 1),)]),
        (2, [], [((), ((0, 1),))], [((0, 1), (1, 2))]),
        (0, [], [], [((0, 0),)]),
    ])
    def test_vertex_index_outside_range_is_refused(self, args):
        # Unchecked, a negative index aliases another vertex and one past
        # the end fails deep inside a pass.
        with pytest.raises(ValueError, match="outside"):
            connection_counts(*args)

    def test_k5_posts_randomized_matches_lane_oracle(self):
        # 10 edges on two levels and 5 posts: 25 items, past one lane.
        edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        items = [((), ((2 * a + level, 2 * b + level),))
                 for a, b in edges for level in (0, 1)]
        items += [((), ((2 * v, 2 * v + 1),)) for v in range(5)]
        queries = [((0, 8),), ((0, 9),), ((0, 8), (0, 9))]
        expected = reference_counts_lanes(10, [], items, queries)
        assert connection_counts(10, [], items, queries) == expected
        assert sum(expected[2]) > 0

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
