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
from typing import Iterable, Iterator, NamedTuple, Optional

from . import enumeration
from .enumeration import Caps, DEFAULT_CAPS, CapExceededError, _item_lanes
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


def _domain(rg: Multigraph, caps: Caps) -> tuple[dict, list]:
    """Vertex indices of a reduced graph and its (id, a, b) non-loop edges.

    Bit i of an up/down assignment chooses UP for edge i of the domain.
    """
    index = {x: r for r, x in enumerate(rg.vertices)}
    domain = [(eid, index[a], index[b]) for eid, a, b in rg.edges if a != b]
    if len(domain) > caps.max_updown_bits:
        raise CapExceededError(
            f"up-down enumeration needs 2^{len(domain)} assignments; "
            f"raise max_updown_bits to at least {len(domain)} "
            f"(currently {caps.max_updown_bits})"
        )
    return index, domain


def _f_parts(n: int, pu: int, pv: int, domain: list, pinned: Optional[int]):
    """Yield the f lanes of the up/down model, 2^min(k, _LANE_BITS) bits a part.

    Vertex r has bunkbed copies 2r and 2r + 1.  The kernel's items are
    the k = |domain| edges (lower copy on bit 0, upper on bit 1) and, if
    pinned is None, the n posts above them; else the pinned posts are
    always open.  Spreads from both copies of u give A = u0~v0, B = u1~v1,
    C = u0~v1, D = u1~v0, so f = A + B - C - D.  Parts come in assignment
    order: image set P owns the 2^k bits from P << k on.
    """
    items = [(((2 * a, 2 * b),), ((2 * a + 1, 2 * b + 1),)) for _, a, b in domain]
    posts = [(2 * r, 2 * r + 1) for r in range(n)]
    if pinned is None:
        items += [((), (post,)) for post in posts]
        base = []
    else:
        base = [post for r, post in enumerate(posts) if (pinned >> r) & 1]
    u0, u1, v0, v1 = 2 * pu, 2 * pu + 1, 2 * pv, 2 * pv + 1
    lanes, reach_of = enumeration._shard_reach(2 * n, base, items, (u0, u1))
    width = 1 << min(len(domain), lanes)
    mask = (1 << width) - 1
    for prefix in range(1 << (len(items) - lanes)):
        reach = reach_of(prefix)
        f = (reach[u0][v0], reach[u1][v1], reach[u0][v1], reach[u1][v0])
        for shift in range(0, 1 << lanes, width):
            yield tuple(x >> shift & mask for x in f)


def _sum4(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """Bitwise a + b + c + d as three bit lanes, lowest first."""
    s1, c1, s2, c2 = a ^ b, a & b, c ^ d, c & d
    carry = s1 & s2
    return s1 ^ s2, c1 ^ c2 ^ carry, c1 & c2 | carry & (c1 ^ c2)


def _below(a: int, b: int, c: int, d: int) -> int:
    """Bits where f < 0, that is where c + d > a + b as two-bit sums."""
    return c & d & ~(a & b) | (c ^ d) & ~(a ^ b) & ~(c & d ^ a & b)


def _negates(parts: list, flip: int, w: int) -> bool:
    """f(x ^ flip) == -f(x) at every assignment x of one block.

    Parts have 2^w bits.  The low w bits of flip permute within a part,
    each flipped bit swapping sub-blocks; the high bits pair up parts.
    """
    if all(a ^ b == c ^ d and a & b == c & d for a, b, c, d in parts):
        return True  # f is zero at every x, so every flip negates it
    items = _item_lanes(w, (1 << (1 << w)) - 1)
    low, high = flip & ((1 << w) - 1), flip >> w
    for h, (a, b, c, d) in enumerate(parts):
        mirror = []
        for x in parts[h ^ high]:
            for i, ones in enumerate(items):
                if (low >> i) & 1:
                    x = (x & ones) >> (1 << i) | (x << (1 << i)) & ones
            mirror.append(x)
        if _sum4(a, b, *mirror[:2]) != _sum4(c, d, *mirror[2:]):
            return False
    return True


class _Outcome(NamedTuple):
    """Up/down model of one reduced graph under one pinned-image set."""

    cls: DistanceClass
    total: int  # sum of f over the assignments
    side: int  # vertices reachable from the u image avoiding pinned images
    flip: int  # domain edges with no end on that side
    negative: bool  # AT_MOST_ONE only: some f < 0
    negates: bool  # UNREACHABLE only: the flip negates f everywhere
    factor: Fraction  # total / 2^(|domain| + 1)


def _outcomes(
    n: int, pu: int, pv: int, domain: list, pinned: Optional[int]
) -> list[_Outcome]:
    """Class, f-sum, factor and checks for every image set of _f_parts.

    The class matches classify: unreachable when the v image is off the
    pinned-free side of the u image, at most one when the images are
    equal or adjacent, at least two otherwise.
    """
    k = len(domain)
    w = min(k, enumeration._LANE_BITS)
    adjacent = [0] * n
    for _, a, b in domain:
        adjacent[a] |= 1 << b
        adjacent[b] |= 1 << a
    parts = _f_parts(n, pu, pv, domain, pinned)
    out: list[_Outcome] = []
    seen: dict = {}  # many image sets share one outcome; build it once
    # 2^(k - w) consecutive parts make up the block of one image set
    for code, block in enumerate(zip(*[parts] * (1 << (k - w)))):
        blocked = code if pinned is None else pinned
        side = grown = 0 if (blocked >> pu) & 1 else 1 << pu
        while grown:
            side |= grown
            near = 0
            for r in range(n):
                if (grown >> r) & 1:
                    near |= adjacent[r]
            grown = near & ~(side | blocked)
        total = sum(a.bit_count() + b.bit_count() - c.bit_count() - d.bit_count()
                    for a, b, c, d in block)
        flip, negative, negates = 0, False, True
        if not (side >> pv) & 1:
            cls = DistanceClass.UNREACHABLE
            for i, (_, a, b) in enumerate(domain):
                if not ((side >> a) | (side >> b)) & 1:
                    flip |= 1 << i
            negates = _negates(block, flip, w)
        elif pu == pv or (adjacent[pu] >> pv) & 1:
            cls = DistanceClass.AT_MOST_ONE
            negative = any(_below(*part) for part in block)
        else:
            cls = DistanceClass.AT_LEAST_TWO
        key = (cls, total, side, flip, negative, negates)
        if key not in seen:
            seen[key] = _Outcome(*key, Fraction(total, 2 << k))
        out.append(seen[key])
    return out


def _model_args(model: ReducedModel, caps: Caps) -> tuple[list, tuple]:
    """Domain of a model and its _f_parts/_outcomes arguments, posts fixed."""
    index, domain = _domain(model.graph, caps)
    pinned = sum(1 << index[x] for x in model.pinned)
    return domain, (len(index), index[model.pu], index[model.pv], domain, pinned)


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
    model = model if model is not None else reduced_model(g, s, t, u, v)
    return _outcomes(*_model_args(model, caps)[1])[0].factor


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
    domain, args = _model_args(model, caps)
    values = [
        ((a >> m) & 1) + ((b >> m) & 1) - ((c >> m) & 1) - ((d >> m) & 1)
        for a, b, c, d in _f_parts(*args)
        for m in range(1 << min(len(domain), enumeration._LANE_BITS))
    ]
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
    return next(_analyses(g, u, v, [frozenset(t)], caps, table))


def _analyses(
    g: Multigraph,
    u: Vertex,
    v: Vertex,
    sets: list[frozenset],
    caps: Caps,
    table: Optional[TripartitionTable],
) -> Iterator[TripartitionAnalysis]:
    """One lane pass per tripartition, then the analysis of each pinned set.

    A single pinned set gets fixed post lanes; several share one pass
    over every pinned-image set.  Each (tripartition, image set) is
    solved once however many pinned sets project onto it, and the
    analyses are built lazily, one pinned set at a time.
    """
    for w in (u, v, *sets[0]):
        g.require_vertex(w)
    table = table if table is not None else TripartitionTable.build(g, caps)
    domains = [_domain(rg, caps) for rg in table.reduced]  # every cap, no lane yet
    passes = []
    for (index, domain), projection in zip(domains, table.projections):
        images = {w: 1 << index[projection[w]] for w in g.vertices}
        ends = (len(index), index[projection[u]], index[projection[v]], domain)
        if len(sets) > 1:
            passes.append((images, _outcomes(*ends, None)))
        else:
            fixed = _image(images, sets[0])
            passes.append((images, {fixed: _outcomes(*ends, fixed)[0]}))
    for t in sets:
        outcomes = [results[_image(images, t)] for images, results in passes]
        yield _analysis(table, domains, outcomes)


def _image(images: dict, t: frozenset) -> int:
    """Bitmask of the reduced vertices that the pinned set projects onto."""
    bits = 0
    for w in t:
        bits |= images[w]
    return bits


def _analysis(
    table: TripartitionTable, domains: list, outcomes: list[_Outcome]
) -> TripartitionAnalysis:
    """Fold one outcome per tripartition into masses, factors and failures."""
    bits = 2 * table.graph.edge_count
    class_mass = {cls: [0] * (bits + 1) for cls in DistanceClass}
    expansion = [0] * (bits + 1)
    for s, (_, domain), out in zip(table.tripartitions, domains, outcomes):
        ones = len(s.one_open)
        j = ones + 2 * len(s.both_open)
        class_mass[out.cls][j] += 1 << ones
        # factor * 2^ones = (total / 2) * 2^(ones - |domain|), an integer:
        # the domain is the non-loop part of one_open, and total is even
        # because flipping every edge's level maps a mask to its
        # complement without changing f.
        expansion[j] += (out.total >> 1) << (ones - len(domain))

    rows = list(zip(table.tripartitions, outcomes))
    short = [(s, out) for s, out in rows if out.cls is DistanceClass.AT_MOST_ONE]
    # min keeps the first tripartition of least factor
    witness, lowest = min(short, key=lambda row: row[1].factor, default=(None, None))
    classes = [out.cls for out in outcomes]
    return TripartitionAnalysis(
        class_counts={cls.value: classes.count(cls) for cls in DistanceClass},
        class_mass={
            cls.value: counts_to_polynomial(m, bits) for cls, m in class_mass.items()
        },
        expansion_sum=counts_to_polynomial(expansion, bits),
        factors=[out.factor for out in outcomes],
        classes=classes,
        min_factor=lowest.factor if short else None,
        min_factor_witness=witness,
        safe_bound_failures=[
            s for s, out in short if out.factor < Fraction(1, 2 ** len(s.one_open))
        ],
        stated_bound_failures=[
            s for s, out in short if out.factor < Fraction(2, 2 ** len(s.one_open))
        ],
        pointwise_failures=[s for s, out in short if out.negative],
        mirror_failures=[
            s for s, out in rows
            if out.cls is DistanceClass.UNREACHABLE and (out.total or not out.negates)
        ],
    )


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
    domain, args = _model_args(model, caps)
    out = _outcomes(*args)[0]
    flip = out.flip
    involution = all((m ^ flip) ^ flip == m for m in range(1 << len(domain)))
    verdict = PASS if (out.negates and involution and out.factor == 0) else FAIL
    return VerificationReport(
        check="mirroring_involution",
        verdict=verdict,
        inputs={**_inputs(g, t, u, v), "tripartition": s},
        quantities={
            "factor": out.factor,
            "flip_negates": out.negates,
            "is_involution": involution,
            "u_side_size": out.side.bit_count(),
            "flipped_edges": sorted(
                eid for i, (eid, _, _) in enumerate(domain) if (flip >> i) & 1
            ),
        },
        witnesses={},
    )


def _inputs(g: Multigraph, t: frozenset, u: Vertex, v: Vertex) -> dict:
    graph = {
        "vertices": [str(x) for x in g.vertices],
        "edges": [[eid, str(a), str(b)] for eid, a, b in g.edges],
    }
    return {"graph": graph, "pinned": sorted(map(str, t)), "u": str(u), "v": str(v)}


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
    return VerificationReport(
        check="expansion_identity",
        verdict=PASS if equal else FAIL,
        inputs=_inputs(g, t, u, v),
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

    return VerificationReport(
        check="tripartition_bounds",
        verdict=verdict,
        inputs=_inputs(g, t, u, v),
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
    return VerificationReport(
        check="difference_sign",
        verdict=PASS if ok else FAIL,
        inputs=_inputs(g, t, u, v),
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
    return _conditioning_reports(g, t, u, v, analysis, caps, workers)


def _conditioning_reports(
    g: Multigraph,
    t: frozenset,
    u: Vertex,
    v: Vertex,
    analysis: TripartitionAnalysis,
    caps: Caps,
    workers: int,
) -> list[VerificationReport]:
    difference = difference_polynomial(g, u, v, pinned=t, caps=caps, workers=workers)
    return [
        expansion_identity_check(g, t, u, v, analysis=analysis, difference=difference),
        bound_report(g, t, u, v, analysis=analysis, difference=difference),
        theorem_sign_check(g, t, u, v, difference=difference),
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
    n = g.vertex_count
    sets = [
        frozenset(g.vertices[i] for i in range(n) if (code >> i) & 1)
        for code in range(1 << n)
    ]
    reports: list[VerificationReport] = []
    for t, analysis in zip(sets, _analyses(g, u, v, sets, caps, table)):
        reports.extend(_conditioning_reports(g, t, u, v, analysis, caps, workers))
    return aggregate_verdict(r.verdict for r in reports), reports
