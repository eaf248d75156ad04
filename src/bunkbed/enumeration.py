"""Exhaustive enumeration kernel for percolation-style counting.

A configuration assigns a bit to each of k binary items; an item
contributes one small edge set for bit 0 and another for bit 1 (plain
percolation uses no edges / one edge, the up-down model uses the lower
copy / the upper copy).  For each query, a conjunction of vertex pairs,
the kernel counts satisfying configurations bucketed by the number of
1-bits.  Those integer buckets are the whole interface: they are order
independent, so worker partitioning cannot change the result.

The kernel is bit-sliced.  The first L = min(k, 16) items become lanes
of 2^L bits, bit x standing for the configuration whose low L item bits
spell x: an edge chosen by bit 1 of item i is open on the lane "bit i of
x is 1", an edge chosen by bit 0 on its complement.  The other k - L
items are fixed per prefix shard, one shard for each of their 2^(k-L)
settings, and their chosen edges are open on every bit.  Within a shard,
reachability from each query source spreads as (reach[a] | reach[b]) &
lane until a sweep changes nothing; a query's lane is the AND of its
pairs' reach lanes, and its count in bucket h + j is the popcount of
that lane restricted to the bits x with j ones, h being the number of
ones in the shard's prefix.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

VertexIndex = int
Pair = tuple[VertexIndex, VertexIndex]
ChoiceItem = tuple[tuple[Pair, ...], tuple[Pair, ...]]
Query = tuple[Pair, ...]


@dataclass(frozen=True)
class Caps:
    """Refusal thresholds for the exhaustive engines."""

    max_config_bits: int = 26
    max_tripartitions: int = 3 ** 16
    max_updown_bits: int = 24


DEFAULT_CAPS = Caps()

# Items enumerated inside one lane; a lane is a 2^16-bit (8 KB) integer.
_LANE_BITS = 16


class CapExceededError(RuntimeError):
    """Requested enumeration exceeds a configured cap."""


def _spread(reach: list[int], edges) -> None:
    """Grow reach in place over (a, b, lane) edges until a sweep changes nothing.

    reach[x] has bit i set when x is reached in configuration i; an edge
    is open in the configurations whose bits its lane has set.
    """
    changed = True
    while changed:
        changed = False
        for a, b, lane in edges:
            ra, rb = reach[a], reach[b]
            both = (ra | rb) & lane
            if both & ~(ra & rb):
                reach[a] = ra | both
                reach[b] = rb | both
                changed = True


def _item_lanes(lanes: int, full: int) -> list[int]:
    """Lane i has bit x set iff bit i of x is 1."""
    out = []
    for i in range(lanes):
        half = 1 << i
        # full // (2^(2 half) - 1) has one bit at the start of every
        # period of 2 half bits; the block fills that period's upper half.
        block = ((1 << half) - 1) << half
        out.append(full // ((1 << 2 * half) - 1) * block)
    return out


def _weight_masks(lanes: int) -> list[int]:
    """Mask j has bit x set iff x has exactly j ones, for x < 2^lanes."""
    masks = [1]
    for i in range(lanes):
        masks = [low | (high << (1 << i)) for low, high in zip(masks + [0], [0] + masks)]
    return masks


def _shard_reach(num_vertices: int, base_pairs, items, sources):
    """The lane layout of the kernel, shared with the up/down model.

    Returns L, the number of items whose settings are the bits of one
    2^L-bit lane, and a function from a prefix shard (the settings of
    the other items) to the reach lanes of each source in that shard.
    """
    lanes = min(len(items), _LANE_BITS)
    full = (1 << (1 << lanes)) - 1
    lane_edges = [(a, b, full) for a, b in base_pairs]
    for (edges0, edges1), ones in zip(items, _item_lanes(lanes, full)):
        lane_edges += [(a, b, full ^ ones) for a, b in edges0]
        lane_edges += [(a, b, ones) for a, b in edges1]
    fixed = items[lanes:]

    def reach_of(prefix: int) -> dict[int, list[int]]:
        edges = list(lane_edges)
        for i, item in enumerate(fixed):
            edges += [(a, b, full) for a, b in item[(prefix >> i) & 1]]
        reach = {}
        for s in sources:
            reach[s] = [0] * num_vertices
            reach[s][s] = full
            _spread(reach[s], edges)
        return reach

    return lanes, reach_of


def connection_counts(
    num_vertices: int,
    base_pairs,
    items,
    queries,
    *,
    workers: int = 1,
) -> list[list[int]]:
    """Count configurations satisfying each query, bucketed by 1-bits.

    base_pairs are edges present in every configuration.  Returns one
    list of k+1 integers per query; entry j counts configurations with
    exactly j items set to 1 in which all of the query's vertex pairs
    are connected.  Totals are identical for every worker count.
    """
    items = [tuple(map(tuple, item)) for item in items]
    queries = [tuple(query) for query in queries]
    k = len(items)
    sources = sorted({a for query in queries for a, _ in query})
    lanes, reach_of = _shard_reach(num_vertices, base_pairs, items, sources)
    full = (1 << (1 << lanes)) - 1
    weights = _weight_masks(lanes)

    def shard(prefix: int) -> list[list[int]]:
        reach = reach_of(prefix)
        rows = []
        for query in queries:
            sat = full
            for a, b in query:
                sat &= reach[a][b]
            rows.append([(sat & mask).bit_count() for mask in weights])
        return rows

    prefixes = range(1 << (k - lanes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(shard, prefixes))
    else:
        parts = [shard(prefix) for prefix in prefixes]

    counts = [[0] * (k + 1) for _ in queries]
    for prefix, part in zip(prefixes, parts):
        h = prefix.bit_count()
        for row, extra in zip(counts, part):
            for j, value in enumerate(extra):
                row[h + j] += value
    return counts
