"""Exhaustive enumeration kernel for percolation-style counting.

A configuration assigns a bit to each of k binary items; an item
contributes one small edge set for bit 0 and another for bit 1 (plain
percolation uses no edges / one edge, the up-down model uses the lower
copy / the upper copy).  For each query, a conjunction of vertex pairs,
the kernel counts satisfying configurations bucketed by the number of
1-bits.  Those integer buckets are the whole interface.

_bunkbed_items is the one place that lays a bunkbed out as base pairs
and items: base vertex r has copies 2r and 2r + 1.  The exact
polynomials, the Monte Carlo shards and the up/down model all use it.

The kernel is a frontier (transfer-matrix) pass, its cost following the
width of the graph instead of 2^k.  Base pairs and items are steps whose
branches add edges, in the order of the BFS rank of their highest
vertex.  A state is a set partition of the frontier vertices and maps to
one int that packs the counts of the configurations reaching it; each
branch shifts that int by its own amount, so the caller chooses the
bucket layout.  connection_counts shifts by one bucket per 1-bit; the
exact module gives each set of open posts a block of buckets of its own.
A vertex joins the frontier at its first step and leaves after its
last; query vertices stay to the end.

The up/down model of tripartitions and the Monte Carlo shards spread
reachability on bit lanes instead (_lane_reach, _spread): bit x of a
lane stands for one configuration, and reach spreads as
(reach[a] | reach[b]) & lane until a sweep changes nothing.  The up/down
model keeps its whole domain and the posts up to _LANE_BITS items on one
lane, and each prefix shard fixes the posts past them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional


@dataclass(frozen=True)
class Caps:
    """The refusal threshold of the exhaustive engines: 2^max_config_bits.

    One exact call over k random items visits 2^k configurations.  A
    tripartition sweep over |E| edges is bounded by 2^(2|E|): each edge
    is none-, one- or both-open with weights 1, 2 and 1, so the 3^|E|
    tripartitions' up/down models have at most sum_s 2^|one_open(s)| =
    4^|E| assignments.  verify_theorem's batched posts add |V| bits.
    """

    max_config_bits: int = 26


DEFAULT_CAPS = Caps()

# Up/down items enumerated inside one lane, 2^16 bits (8 KB), unless the
# domain alone is wider: a domain is never split across lanes.
_LANE_BITS = 16


class CapExceededError(RuntimeError):
    """Requested enumeration exceeds a configured cap."""


def _check_cap(bits: int, caps: Caps) -> None:
    if bits > caps.max_config_bits:
        raise CapExceededError(
            f"enumeration needs 2^{bits} configurations; "
            f"raise max_config_bits to at least {bits} (currently {caps.max_config_bits})"
        )


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


@cache
def _item_lanes(lanes: int) -> tuple[int, ...]:
    """Lane i has bit x set iff bit i of x is 1, for x < 2^lanes."""
    out = []
    for i in range(lanes):
        half = 1 << i
        # One period of 2 half bits, ones in its upper half, doubled up to
        # 2^lanes bits: linear in the lane, where dividing is quadratic.
        lane, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << lanes:
            lane |= lane << width
            width *= 2
        out.append(lane)
    return tuple(out)


def _bunkbed_items(n: int, edges, pinned: Optional[int], updown: bool = False):
    """The kernel's base pairs and items for the bunkbed over n base vertices.

    Base vertex r has copies 2r (level 0) and 2r + 1 (level 1).  Each
    base edge (a, b) gives two percolation items, level 0 then level 1,
    or with updown one item choosing the level-0 copy on bit 0 and the
    level-1 copy on bit 1.  pinned=None appends one percolation item per
    post; otherwise the posts whose bits pinned sets are base pairs.
    """
    items = []
    for a, b in edges:
        lower, upper = (2 * a, 2 * b), (2 * a + 1, 2 * b + 1)
        items += [((lower,), (upper,))] if updown else [((), (lower,)), ((), (upper,))]
    posts = [(2 * r, 2 * r + 1) for r in range(n)]
    if pinned is None:
        return [], items + [((), (post,)) for post in posts]
    return [post for r, post in enumerate(posts) if (pinned >> r) & 1], items


def _lane_reach(num_vertices: int, base_pairs, items, sources) -> dict[int, list[int]]:
    """Reach lanes of each source, the settings of all items on one lane.

    Bit x of a lane stands for the configuration whose item bits spell
    x; reach[s][y] has bit x set when s reaches y in that configuration.
    """
    full = (1 << (1 << len(items))) - 1
    edges = [(a, b, full) for a, b in base_pairs]
    for (edges0, edges1), ones in zip(items, _item_lanes(len(items))):
        edges += [(a, b, full ^ ones) for a, b in edges0]
        edges += [(a, b, ones) for a, b in edges1]
    reach = {}
    for s in sources:
        reach[s] = [0] * num_vertices
        reach[s][s] = full
        _spread(reach[s], edges)
    return reach


def _frontier_counts(num_vertices: int, steps, queries) -> list[int]:
    """The frontier pass: one packed total per query.

    Each step is a sequence of (edges, shift) branches.  A configuration
    takes one branch of every step and adds 1 << (the sum of their
    shifts) to each query it satisfies; the caller's shifts never carry.

    A state is a str whose character j is the block of frontier vertex j,
    blocks numbered by first appearance (a str, not a tuple, so that the
    states do not pile up in the interpreter's tuple free lists).  It maps
    to the int of packed counts of the configurations reaching it.
    """
    adjacent = [set() for _ in range(num_vertices)]
    for a, b in (pair for step in steps for edges, _ in step for pair in edges):
        adjacent[a].add(b)
        adjacent[b].add(a)
    rank: dict[int, int] = {}
    for root in range(num_vertices):
        queue = [] if root in rank else [root]
        rank.setdefault(root, len(rank))
        for x in queue:
            for y in sorted(adjacent[x] - rank.keys()):
                rank[y] = len(rank)
                queue.append(y)
    steps = [(tuple(dict.fromkeys(x for edges, _ in step for pair in edges for x in pair)), step)
             for step in steps]
    steps.sort(key=lambda step: max(map(rank.__getitem__, step[0]), default=-1))
    last = {x: i for i, (touched, _) in enumerate(steps) for x in touched}
    kept = {x for query in queries for pair in query for x in pair}

    frontier: list[int] = []
    states = {"": 1}
    for i, (touched, step) in enumerate(steps):
        new = [x for x in touched if x not in frontier]
        frontier += new
        position = {x: j for j, x in enumerate(frontier)}
        moves = [([(position[a], position[b]) for a, b in edges if a != b], shift)
                 for edges, shift in step]
        keep = [j for j, x in enumerate(frontier) if x in kept or last[x] > i]
        if len(keep) == len(frontier):
            keep = None
        else:
            frontier = [frontier[j] for j in keep]
        out: dict[str, int] = {}
        for state, counts in states.items():
            if new:
                top = ord(max(state)) + 1 if state else 0
                state += "".join(map(chr, range(top, top + len(new))))
            for pairs, shift in moves:
                labels = state
                for a, b in pairs:
                    la, lb = labels[a], labels[b]
                    if la != lb:
                        labels = [la if x == lb else x for x in labels]
                if keep is not None:
                    labels = [labels[j] for j in keep]
                if labels is not state:
                    first = {x: chr(n) for n, x in enumerate(dict.fromkeys(labels))}
                    labels = "".join(map(first.__getitem__, labels))
                out[labels] = out.get(labels, 0) + (counts << shift)
        states = out

    position = {x: j for j, x in enumerate(frontier)}
    totals = [0] * len(queries)
    for state, counts in states.items():
        for q, query in enumerate(queries):
            if all(a == b or a in position and b in position
                   and state[position[a]] == state[position[b]] for a, b in query):
                totals[q] += counts
    return totals


def connection_counts(
    num_vertices: int,
    base_pairs,
    items,
    queries,
) -> list[list[int]]:
    """Count configurations satisfying each query, bucketed by 1-bits.

    base_pairs are edges present in every configuration.  Returns one
    list of k+1 integers per query; entry j counts configurations with
    exactly j items set to 1 in which all of the query's vertex pairs
    are connected.  Raises ValueError if a pair names a vertex index
    outside [0, num_vertices).
    """
    base_pairs = [tuple(pair) for pair in base_pairs]
    items = [tuple(map(tuple, item)) for item in items]
    queries = [tuple(query) for query in queries]
    pairs = [*base_pairs, *(p for item in items for edges in item for p in edges),
             *(p for query in queries for p in query)]
    for x in {x for pair in pairs for x in pair}:
        if not 0 <= x < num_vertices:
            raise ValueError(f"vertex index {x!r} is outside [0, {num_vertices})")
    # Bucket j sits at bits j(k+1) up: no bucket reaches 2^(k+1), so a
    # 1-bit is a shift by k+1.
    width = len(items) + 1
    steps = [[((pair,), 0)] for pair in base_pairs]
    steps += [[(edges0, 0), (edges1, width)] for edges0, edges1 in items]
    bucket = (1 << width) - 1
    return [[total >> (j * width) & bucket for j in range(width)]
            for total in _frontier_counts(num_vertices, steps, queries)]
