"""Finite multigraphs with stable edge identities.

Edges carry ids that survive minor operations (deletion and contraction),
so a tripartition of the original edge set can still be named after the
graph has been reduced.  Self-loops and parallel edges are kept; loops
are ignored by connectivity and distance queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping

INFINITY = math.inf

Vertex = Hashable
EdgeId = Hashable
Edge = tuple  # (edge_id, endpoint_a, endpoint_b)


class GraphParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Multigraph:
    """Immutable multigraph: ordered vertices, ordered (id, a, b) edges."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen_v = set(self.vertices)
        if len(seen_v) != len(self.vertices):
            raise ValueError("duplicate vertex")
        seen_e = set()
        for eid, a, b in self.edges:
            if eid in seen_e:
                raise ValueError(f"duplicate edge id {eid!r}")
            seen_e.add(eid)
            if a not in seen_v or b not in seen_v:
                raise ValueError(f"edge {eid!r} has an endpoint that is not a vertex")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_ids(self) -> frozenset:
        return frozenset(eid for eid, _, _ in self.edges)

    @cached_property
    def adjacency(self) -> Mapping[Vertex, tuple[tuple[Vertex, EdgeId], ...]]:
        """Neighbor lists in edge order, parallel edges repeated, loops kept."""
        adj: dict[Vertex, list[tuple[Vertex, EdgeId]]] = {v: [] for v in self.vertices}
        for eid, a, b in self.edges:
            adj[a].append((b, eid))
            if a != b:
                adj[b].append((a, eid))
        return {v: tuple(n) for v, n in adj.items()}

    def require_vertex(self, v: Vertex) -> None:
        if v not in self.adjacency:
            raise ValueError(f"unknown vertex {v!r}")


def parse_edge_list(text: str) -> Multigraph:
    """Parse 'u v' lines into a multigraph.

    Blank lines and '#' comments are ignored.  Vertices are recorded in
    first-mention order; edge ids are 0-based positions among edge lines.
    """
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[Edge] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphParseError(
                line_number, f"expected two vertex tokens, got {len(tokens)}"
            )
        for t in tokens:
            if t not in seen:
                seen.add(t)
                vertices.append(t)
        edges.append((len(edges), tokens[0], tokens[1]))
    return Multigraph(tuple(vertices), tuple(edges))


def connected_components(g: Multigraph) -> tuple[frozenset, ...]:
    """Partition of the vertices into components.

    Blocks are ordered by first mention of their earliest vertex.
    """
    blocks: list[frozenset] = []
    unseen = set(g.vertices)
    for start in g.vertices:
        if start not in unseen:
            continue
        stack = [start]
        unseen.discard(start)
        block = {start}
        while stack:
            x = stack.pop()
            for y, _ in g.adjacency[x]:
                if y in unseen:
                    unseen.discard(y)
                    block.add(y)
                    stack.append(y)
        blocks.append(frozenset(block))
    return tuple(blocks)


def minor(
    g: Multigraph, delete: Iterable[EdgeId], contract: Iterable[EdgeId]
) -> tuple[Multigraph, dict]:
    """Delete one edge set and contract another, disjoint, edge set.

    Returns the minor and the projection map original vertex -> minor
    vertex.  Surviving edges keep their ids; contraction can create
    self-loops and parallel edges, which are kept.  Each merged vertex is
    named after the original vertex of its block that comes first in
    g.vertices, so minor names can never collide.
    """
    delete = frozenset(delete)
    contract = frozenset(contract)
    if delete & contract:
        raise ValueError("delete and contract sets must be disjoint")
    unknown = (delete | contract) - g.edge_ids
    if unknown:
        raise ValueError(f"unknown edge ids: {sorted(map(repr, unknown))}")

    contract_graph = Multigraph(
        g.vertices, tuple(e for e in g.edges if e[0] in contract)
    )
    blocks = connected_components(contract_graph)
    names = tuple(next(v for v in g.vertices if v in block) for block in blocks)
    projection = {v: name for name, block in zip(names, blocks) for v in block}

    new_edges = tuple(
        (eid, projection[a], projection[b])
        for eid, a, b in g.edges
        if eid not in delete and eid not in contract
    )
    return Multigraph(names, new_edges), projection


def _geodesics(g: Multigraph, start: Vertex, goal: Vertex, avoid=()) -> tuple[float, int]:
    """Distance and number of shortest start-goal paths through vertices outside avoid.

    Loops are ignored and parallel edges counted; a start or goal in
    avoid gives (INFINITY, 0).
    """
    if start in avoid or goal in avoid:
        return INFINITY, 0
    if start == goal:
        return 0, 1
    seen = {start}
    count = {start: 1}  # shortest-path counts of the frontier
    d = 0
    while count:
        d += 1
        found: dict = {}
        for x, c in count.items():
            for y, _ in g.adjacency[x]:
                if y not in seen and y not in avoid:  # x is seen, so loops are skipped
                    found[y] = found.get(y, 0) + c
        if goal in found:
            return d, found[goal]
        seen.update(found)
        count = found
    return INFINITY, 0


def vertical_free_distance(
    g: Multigraph, pu: Vertex, pv: Vertex, pinned: Iterable[Vertex]
) -> float:
    """Shortest path length between pu and pv through unpinned vertices only.

    Endpoints count: if either lies in the pinned set the distance is
    INFINITY.  Self-loops are ignored.  Zero iff pu == pv and unpinned.
    """
    g.require_vertex(pu)
    g.require_vertex(pv)
    pinned = set(pinned)
    for v in pinned:
        g.require_vertex(v)
    return _geodesics(g, pu, pv, pinned)[0]
