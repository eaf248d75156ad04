"""Tripartition expansion of the conditional bunkbed difference.

Conditioned on the open vertical posts t, each base edge independently
has both, exactly one, or neither of its two horizontal copies open.
Grouping configurations by that tripartition s of the edge set turns the
difference P(u bottom <-> v bottom | t) - P(u bottom <-> v top | t) into
a sum over s of an exactly computable factor times the probability of s.
The factor lives on a reduced graph: both-open edges contracted,
none-open edges deleted, and each surviving edge UP or DOWN with equal
probability while verticals are open exactly at the pinned images.

Everything here is exact; the classes split by the pinned-free distance
between the endpoint images, because that distance decides whether the
factor vanishes (mirroring), is uniformly positive (short distance), or
is merely small (all other cases).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .enumeration import Caps, DEFAULT_CAPS, CapExceededError
from .exact import (
    connected_avoiding,
    counts_to_polynomial,
    difference_polynomial,
    threshold_point,
)
from .graphs import INFINITY, Multigraph, Vertex, minor, vertical_free_distance
from .polynomials import RationalPoly
from .reports import DISCREPANCY, FAIL, PASS, VerificationReport, aggregate_verdict


class DistanceClass(str, Enum):
    """Pinned-free distance between the endpoint images, coarsened."""

    UNREACHABLE = "unreachable"
    AT_MOST_ONE = "at_most_one"
    AT_LEAST_TWO = "at_least_two"


@dataclass(frozen=True)
class Tripartition:
    """Split of the base edge ids by how many horizontal copies are open."""

    none_open: frozenset
    one_open: frozenset
    both_open: frozenset

    def to_json_obj(self) -> dict:
        return {
            "none_open": sorted(self.none_open),
            "one_open": sorted(self.one_open),
            "both_open": sorted(self.both_open),
        }


def validate_tripartition(g: Multigraph, s: Tripartition) -> None:
    parts = (s.none_open, s.one_open, s.both_open)
    total = sum(len(p) for p in parts)
    union = frozenset().union(*parts)
    if total != len(union) or union != g.edge_ids:
        raise ValueError("tripartition must partition the edge ids of the graph")


def enumerate_tripartitions(
    g: Multigraph, caps: Caps = DEFAULT_CAPS
) -> Iterator[Tripartition]:
    """All 3^|E| tripartitions, in ternary counter order over edge ids.

    The cap is checked eagerly; the sequence itself is generated lazily
    because at the cap it is far too large to materialize.
    """
    m = g.edge_count
    total = 3 ** m
    if total > caps.max_tripartitions:
        raise CapExceededError(
            f"3^{m} = {total} tripartitions exceed max_tripartitions "
            f"({caps.max_tripartitions})"
        )
    ids = [eid for eid, _, _ in g.edges]

    def generate() -> Iterator[Tripartition]:
        for code in range(total):
            parts: tuple[list, list, list] = ([], [], [])
            c = code
            for eid in ids:
                parts[c % 3].append(eid)
                c //= 3
            yield Tripartition(
                frozenset(parts[0]), frozenset(parts[1]), frozenset(parts[2])
            )

    return generate()


@dataclass(frozen=True)
class ReducedModel:
    """Reduced graph with endpoint and pinned images for one tripartition."""

    graph: Multigraph
    projection: dict
    pu: Vertex
    pv: Vertex
    pinned: frozenset


def reduced_model(
    g: Multigraph, s: Tripartition, t: Iterable[Vertex], u: Vertex, v: Vertex
) -> ReducedModel:
    """Contract the both-open edges, delete the none-open edges, project."""
    validate_tripartition(g, s)
    g.require_vertex(u)
    g.require_vertex(v)
    t = frozenset(t)
    for w in t:
        g.require_vertex(w)
    reduced, projection = minor(g, s.none_open, s.both_open)
    return ReducedModel(
        graph=reduced,
        projection=projection,
        pu=projection[u],
        pv=projection[v],
        pinned=frozenset(projection[w] for w in t),
    )


def classify(
    g: Multigraph,
    s: Tripartition,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    model: Optional[ReducedModel] = None,
) -> tuple[DistanceClass, float]:
    """Distance class of the tripartition and the distance itself."""
    model = model if model is not None else reduced_model(g, s, t, u, v)
    d = vertical_free_distance(model.graph, model.pu, model.pv, model.pinned)
    if d == INFINITY:
        return DistanceClass.UNREACHABLE, d
    if d <= 1:
        return DistanceClass.AT_MOST_ONE, d
    return DistanceClass.AT_LEAST_TWO, d


def _updown_arena(model: ReducedModel, caps: Caps):
    g = model.graph
    index = {}
    for i, v in enumerate(g.vertices):
        index[(v, 0)] = 2 * i
        index[(v, 1)] = 2 * i + 1
    parent = list(range(2 * g.vertex_count))
    for v in model.pinned:
        a, b = index[(v, 0)], index[(v, 1)]
        parent[b] = a
    domain = [(eid, a, b) for eid, a, b in g.edges if a != b]
    if len(domain) > caps.max_updown_bits:
        raise CapExceededError(
            f"up-down enumeration needs 2^{len(domain)} assignments; "
            f"raise max_updown_bits to at least {len(domain)} "
            f"(currently {caps.max_updown_bits})"
        )
    return index, parent, domain


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def updown_difference(
    g: Multigraph,
    s: Tripartition,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
    model: Optional[ReducedModel] = None,
) -> Fraction:
    """Exact factor of the tripartition in the expansion.

    In the reduced model each non-loop edge opens its upper or lower
    copy with probability 1/2; the factor is the probability the
    endpoint images connect on the bottom level minus the probability
    the bottom image of u connects to the top image of v.  Swapping the
    levels of every edge preserves the measure, so this is half the mean
    of the symmetrized indicator from updown_f_values.
    """
    domain, values = updown_f_values(g, s, t, u, v, caps=caps, model=model)
    return Fraction(sum(values), 1 << (len(domain) + 1))


def updown_f_values(
    g: Multigraph,
    s: Tripartition,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
    model: Optional[ReducedModel] = None,
) -> tuple[tuple, list[int]]:
    """Per-assignment symmetrized indicator over the up-down model.

    Returns the assignment domain (non-loop surviving edge ids, bit i of
    a mask choosing UP for domain[i]) and, for every mask, the value
    of [both bottoms connect] + [both tops connect] - [bottom-to-top]
    - [top-to-bottom] between the endpoint images.
    """
    model = model if model is not None else reduced_model(g, s, t, u, v)
    index, base_parent, domain = _updown_arena(model, caps)
    pu0 = index[(model.pu, 0)]
    pu1 = index[(model.pu, 1)]
    pv0 = index[(model.pv, 0)]
    pv1 = index[(model.pv, 1)]
    k = len(domain)
    values = []
    for mask in range(1 << k):
        parent = list(base_parent)
        for i, (_, a, b) in enumerate(domain):
            level = (mask >> i) & 1
            ra = _root(parent, index[(a, level)])
            rb = _root(parent, index[(b, level)])
            if ra != rb:
                parent[rb] = ra
        ru0 = _root(parent, pu0)
        ru1 = _root(parent, pu1)
        rv0 = _root(parent, pv0)
        rv1 = _root(parent, pv1)
        values.append((ru0 == rv0) + (ru1 == rv1) - (ru0 == rv1) - (ru1 == rv0))
    return tuple(eid for eid, _, _ in domain), values


@dataclass
class TripartitionTable:
    """Per-graph cache of tripartitions and their reduced graphs."""

    graph: Multigraph
    tripartitions: list
    reduced: list
    projections: list

    @classmethod
    def build(cls, g: Multigraph, caps: Caps = DEFAULT_CAPS) -> "TripartitionTable":
        tripartitions = list(enumerate_tripartitions(g, caps))
        reduced = []
        projections = []
        for s in tripartitions:
            rg, projection = minor(g, s.none_open, s.both_open)
            reduced.append(rg)
            projections.append(projection)
        return cls(g, tripartitions, reduced, projections)

    def model(self, i: int, t: frozenset, u: Vertex, v: Vertex) -> ReducedModel:
        projection = self.projections[i]
        return ReducedModel(
            graph=self.reduced[i],
            projection=projection,
            pu=projection[u],
            pv=projection[v],
            pinned=frozenset(projection[w] for w in t),
        )


@dataclass
class TripartitionAnalysis:
    """One pass over every tripartition for a fixed conditioning and pair."""

    class_counts: dict
    class_mass: dict
    expansion_sum: RationalPoly
    factors: list
    classes: list
    min_factor: Optional[Fraction]
    min_factor_witness: Optional[Tripartition]
    safe_bound_failures: list
    stated_bound_failures: list
    pointwise_failures: list
    mirror_failures: list


def analyze_tripartitions(
    g: Multigraph,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
    table: Optional[TripartitionTable] = None,
) -> TripartitionAnalysis:
    """Classify every tripartition and collect factors, masses, and bounds.

    Masses and the expansion sum are accumulated as integer vectors in
    the basis p^j (1-p)^(2|E|-j) of the counting kernel: tripartition s
    has weight 2^|one_open| p^j (1-p)^(2|E|-j) with j = |one_open| +
    2 |both_open|.  They become polynomials once, at the end.
    """
    t = frozenset(t)
    g.require_vertex(u)
    g.require_vertex(v)
    for w in t:
        g.require_vertex(w)
    if table is None:
        table = TripartitionTable.build(g, caps)

    bits = 2 * g.edge_count
    class_counts = {cls: 0 for cls in DistanceClass}
    class_mass = {cls: [0] * (bits + 1) for cls in DistanceClass}
    expansion = [0] * (bits + 1)
    factors: list[Fraction] = []
    classes: list[DistanceClass] = []
    min_factor: Optional[Fraction] = None
    min_factor_witness: Optional[Tripartition] = None
    safe_failures: list[Tripartition] = []
    stated_failures: list[Tripartition] = []
    pointwise_failures: list[Tripartition] = []
    mirror_failures: list[Tripartition] = []

    for i, s in enumerate(table.tripartitions):
        model = table.model(i, t, u, v)
        cls, _ = classify(g, s, t, u, v, model=model)
        ones = len(s.one_open)
        j = ones + 2 * len(s.both_open)
        class_counts[cls] += 1
        class_mass[cls][j] += 1 << ones

        domain, f_values = updown_f_values(g, s, t, u, v, caps=caps, model=model)
        total = sum(f_values)
        factor = Fraction(total, 1 << (len(domain) + 1))
        factors.append(factor)
        classes.append(cls)
        # factor * 2^ones = (total / 2) * 2^(ones - |domain|), an integer:
        # the domain is the non-loop part of one_open, and total is even
        # because flipping every edge's level maps a mask to its
        # complement without changing f.
        expansion[j] += (total >> 1) << (ones - len(domain))

        if cls is DistanceClass.UNREACHABLE:
            flip, _ = _mirror_flip(model, domain)
            if factor != 0 or not _mirror_holds(f_values, flip):
                mirror_failures.append(s)
        elif cls is DistanceClass.AT_MOST_ONE:
            if min_factor is None or factor < min_factor:
                min_factor = factor
                min_factor_witness = s
            if any(value < 0 for value in f_values):
                pointwise_failures.append(s)
            if factor < Fraction(1, 2 ** len(s.one_open)):
                safe_failures.append(s)
            if factor < Fraction(2, 2 ** len(s.one_open)):
                stated_failures.append(s)

    return TripartitionAnalysis(
        class_counts={cls.value: n for cls, n in class_counts.items()},
        class_mass={
            cls.value: counts_to_polynomial(m, bits) for cls, m in class_mass.items()
        },
        expansion_sum=counts_to_polynomial(expansion, bits),
        factors=factors,
        classes=classes,
        min_factor=min_factor,
        min_factor_witness=min_factor_witness,
        safe_bound_failures=safe_failures,
        stated_bound_failures=stated_failures,
        pointwise_failures=pointwise_failures,
        mirror_failures=mirror_failures,
    )


def _pinned_free_side(model: ReducedModel) -> set:
    """Vertices reachable from the u image without touching a pinned vertex."""
    if model.pu in model.pinned:
        return set()
    side = {model.pu}
    stack = [model.pu]
    while stack:
        x = stack.pop()
        for y, _ in model.graph.adjacency[x]:
            if y in model.pinned or y in side:
                continue
            side.add(y)
            stack.append(y)
    return side


def _mirror_flip(model: ReducedModel, domain: tuple) -> tuple[int, list]:
    """Mask bits and ids of the domain edges with no end on the u side."""
    side = _pinned_free_side(model)
    endpoints = model.graph.endpoints
    flip = 0
    flipped_ids = []
    for i, eid in enumerate(domain):
        a, b = endpoints[eid]
        if a not in side and b not in side:
            flip |= 1 << i
            flipped_ids.append(eid)
    return flip, flipped_ids


def _mirror_holds(f_values: list[int], flip: int) -> bool:
    """Flipping the edges in the flip mask negates f pointwise."""
    return all(f_values[mask ^ flip] == -value for mask, value in enumerate(f_values))


def mirroring_involution_check(
    g: Multigraph,
    s: Tripartition,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> VerificationReport:
    """Exhaustively verify the measure-preserving flip that kills the factor.

    Only meaningful when the endpoint images cannot reach each other
    avoiding the pinned set; raises ValueError otherwise.  The check
    confirms that flipping every edge on the far side of the pinned
    boundary is an involution that negates the symmetrized indicator,
    and that the factor is exactly zero.
    """
    t = frozenset(t)
    model = reduced_model(g, s, t, u, v)
    cls, d = classify(g, s, t, u, v, model=model)
    if cls is not DistanceClass.UNREACHABLE:
        raise ValueError(
            "mirroring involution applies only to unreachable tripartitions"
        )
    domain, f_values = updown_f_values(g, s, t, u, v, caps=caps, model=model)
    factor = Fraction(sum(f_values), 1 << (len(domain) + 1))
    flip, flipped_ids = _mirror_flip(model, domain)
    negates = _mirror_holds(f_values, flip)
    involution = all((m ^ flip) ^ flip == m for m in range(len(f_values)))
    verdict = PASS if (negates and involution and factor == 0) else FAIL
    inputs = {
        "graph": _graph_inputs(g),
        "tripartition": s,
        "pinned": sorted(map(str, t)),
        "u": str(u),
        "v": str(v),
    }
    return VerificationReport(
        check="mirroring_involution",
        verdict=verdict,
        inputs=inputs,
        quantities={
            "factor": factor,
            "flip_negates": negates,
            "is_involution": involution,
            "u_side_size": len(_pinned_free_side(model)),
            "flipped_edges": sorted(flipped_ids),
        },
        witnesses={},
    )


def _graph_inputs(g: Multigraph) -> dict:
    return {
        "vertices": [str(v) for v in g.vertices],
        "edges": [[eid, str(a), str(b)] for eid, a, b in g.edges],
    }


def expansion_identity_check(
    g: Multigraph,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
    workers: int = 1,
    table: Optional[TripartitionTable] = None,
    analysis: Optional[TripartitionAnalysis] = None,
    difference: Optional[RationalPoly] = None,
) -> VerificationReport:
    """Exact equality of the conditional difference and its expansion."""
    t = frozenset(t)
    if analysis is None:
        analysis = analyze_tripartitions(g, t, u, v, caps=caps, table=table)
    if difference is None:
        difference = difference_polynomial(
            g, u, v, pinned=t, caps=caps, workers=workers
        )
    equal = difference == analysis.expansion_sum
    inputs = {
        "graph": _graph_inputs(g),
        "pinned": sorted(map(str, t)),
        "u": str(u),
        "v": str(v),
    }
    return VerificationReport(
        check="expansion_identity",
        verdict=PASS if equal else FAIL,
        inputs=inputs,
        quantities={
            "difference": difference,
            "expansion_sum": analysis.expansion_sum,
            "class_counts": analysis.class_counts,
            "class_mass": analysis.class_mass,
        },
        witnesses={},
    )


def bound_report(
    g: Multigraph,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
    workers: int = 1,
    table: Optional[TripartitionTable] = None,
    analysis: Optional[TripartitionAnalysis] = None,
    difference: Optional[RationalPoly] = None,
) -> VerificationReport:
    """Uniform factor bounds on short tripartitions and mass domination.

    Two lower bounds are tracked for the short class: the safe bound
    2^(-|one_open|), which the flip argument actually yields and which
    must hold, and the nominally stated stronger bound 2^(1-|one_open|),
    whose failures are reported as DISCREPANCY rather than FAIL.  At the
    dyadic point p0 the far-class mass must be dominated by the short
    mass at factor 2^-|E| (strictly when the short mass is positive).
    The sharper factor 2^(-|E|-1) is recorded the same way as the
    stronger per-tripartition bound: it can genuinely fail (the path
    with four edges, endpoints three apart, no open posts, has far/short
    mass ratio 634500/15946875 > 1/32 at p0 = 15/16), so violations
    downgrade the verdict to DISCREPANCY, never FAIL.  When u and v are
    connected avoiding t, the evaluated difference must be at least
    p0^|E| (1-p0)^|E|.
    """
    t = frozenset(t)
    if analysis is None:
        analysis = analyze_tripartitions(g, t, u, v, caps=caps, table=table)
    if difference is None:
        difference = difference_polynomial(
            g, u, v, pinned=t, caps=caps, workers=workers
        )
    m = g.edge_count
    p0 = threshold_point(m)
    mass_short = analysis.class_mass[DistanceClass.AT_MOST_ONE.value].evaluate(p0)
    mass_far = analysis.class_mass[DistanceClass.AT_LEAST_TWO.value].evaluate(p0)

    domination = mass_far <= Fraction(1, 2 ** m) * mass_short
    domination_strict = mass_short == 0 or mass_far < Fraction(1, 2 ** m) * mass_short
    domination_sharp = mass_far <= Fraction(1, 2 ** (m + 1)) * mass_short
    if mass_short == 0:
        # No short tripartitions at all forces the far class to vanish too.
        domination = domination and mass_far == 0

    connected = connected_avoiding(g, u, v, t)
    difference_at_p0 = difference.evaluate(p0)
    floor = (p0 * (1 - p0)) ** m
    floor_ok = (not connected) or difference_at_p0 >= floor

    safe_ok = not analysis.safe_bound_failures
    pointwise_ok = not analysis.pointwise_failures
    mirror_ok = not analysis.mirror_failures
    hard_ok = (
        safe_ok
        and pointwise_ok
        and mirror_ok
        and domination
        and domination_strict
        and floor_ok
    )
    if not hard_ok:
        verdict = FAIL
    elif analysis.stated_bound_failures or not domination_sharp:
        verdict = DISCREPANCY
    else:
        verdict = PASS

    inputs = {
        "graph": _graph_inputs(g),
        "pinned": sorted(map(str, t)),
        "u": str(u),
        "v": str(v),
    }
    return VerificationReport(
        check="tripartition_bounds",
        verdict=verdict,
        inputs=inputs,
        quantities={
            "p0": p0,
            "class_counts": analysis.class_counts,
            "class_mass": analysis.class_mass,
            "short_mass_at_p0": mass_short,
            "far_mass_at_p0": mass_far,
            "mass_domination": domination,
            "mass_domination_strict": domination_strict,
            "mass_domination_sharp": domination_sharp,
            "min_factor": analysis.min_factor,
            "safe_bound_holds": safe_ok,
            "stated_bound_holds": not analysis.stated_bound_failures,
            "pointwise_nonnegative": pointwise_ok,
            "mirror_factor_zero": mirror_ok,
            "connected_avoiding_pinned": connected,
            "difference_at_p0": difference_at_p0,
            "difference_floor_at_p0": floor,
            "difference_floor_holds": floor_ok,
        },
        witnesses={
            "min_factor_tripartition": analysis.min_factor_witness,
            "stated_bound_failures": analysis.stated_bound_failures,
            "safe_bound_failures": analysis.safe_bound_failures,
        },
    )


def theorem_sign_check(
    g: Multigraph,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
    workers: int = 1,
    difference: Optional[RationalPoly] = None,
) -> VerificationReport:
    """Sign of the conditional difference at the dyadic point.

    Nonnegative always; strictly positive exactly when u and v are
    connected avoiding the pinned set (which requires both endpoints to
    be unpinned).
    """
    t = frozenset(t)
    if difference is None:
        difference = difference_polynomial(
            g, u, v, pinned=t, caps=caps, workers=workers
        )
    p0 = threshold_point(g.edge_count)
    value = difference.evaluate(p0)
    connected = connected_avoiding(g, u, v, t)
    ok = value >= 0 and ((value > 0) == connected)
    inputs = {
        "graph": _graph_inputs(g),
        "pinned": sorted(map(str, t)),
        "u": str(u),
        "v": str(v),
    }
    return VerificationReport(
        check="difference_sign",
        verdict=PASS if ok else FAIL,
        inputs=inputs,
        quantities={
            "p0": p0,
            "difference_at_p0": value,
            "connected_avoiding_pinned": connected,
        },
        witnesses={},
    )


def verify_conditioning(
    g: Multigraph,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
    workers: int = 1,
    table: Optional[TripartitionTable] = None,
) -> list[VerificationReport]:
    """Expansion, bounds, and sign reports for one pinned set."""
    t = frozenset(t)
    analysis = analyze_tripartitions(g, t, u, v, caps=caps, table=table)
    difference = difference_polynomial(g, u, v, pinned=t, caps=caps, workers=workers)
    return [
        expansion_identity_check(
            g, t, u, v, caps=caps, workers=workers,
            analysis=analysis, difference=difference,
        ),
        bound_report(
            g, t, u, v, caps=caps, workers=workers,
            analysis=analysis, difference=difference,
        ),
        theorem_sign_check(
            g, t, u, v, caps=caps, workers=workers, difference=difference
        ),
    ]


def verify_theorem(
    g: Multigraph,
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
    workers: int = 1,
    table: Optional[TripartitionTable] = None,
) -> tuple[str, list[VerificationReport]]:
    """Run every per-conditioning check over all subsets of the vertices."""
    if table is None:
        table = TripartitionTable.build(g, caps)
    reports: list[VerificationReport] = []
    n = g.vertex_count
    for code in range(1 << n):
        t = frozenset(
            g.vertices[i] for i in range(n) if (code >> i) & 1
        )
        reports.extend(
            verify_conditioning(g, t, u, v, caps=caps, workers=workers, table=table)
        )
    return aggregate_verdict(r.verdict for r in reports), reports
