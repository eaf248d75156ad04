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
from .enumeration import Caps, DEFAULT_CAPS, _bunkbed_items, _check_cap, _item_lanes
from .exact import (
    _pinned_differences,
    connected_avoiding,
    counts_to_polynomial,
    difference_polynomial,
    threshold_point,
)
from .graphs import Multigraph, Vertex, connected_components
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
    """All 3^|E| tripartitions, in ternary counter order: _tripartition of each code.

    The cap is checked eagerly on 2|E| bits: 3^|E| <= 4^|E|, and 4^|E|
    is also the sum over s of 2^|one_open(s)|, which bounds the up/down
    assignments of the whole sweep.  The sequence itself is generated
    lazily because at the cap it is far too large to materialize.
    """
    _check_cap(2 * g.edge_count, caps)
    return (_tripartition(g, code) for code in range(3 ** g.edge_count))


def _tripartition(g: Multigraph, code: int) -> Tripartition:
    """Tripartition number code: ternary digit i, lowest first, counts edge i's open copies."""
    parts: tuple[list, list, list] = ([], [], [])
    for eid, _, _ in g.edges:
        code, digit = divmod(code, 3)
        parts[digit].append(eid)
    return Tripartition(*map(frozenset, parts))


def _contraction(g: Multigraph, both_open: frozenset) -> tuple[int, dict]:
    """Vertex count of g with both_open contracted, and vertex -> its block's number.

    One component pass over the both-open edges; blocks are numbered in
    the vertex order of graphs.minor.  Deleting edges keeps the vertices,
    so one contraction serves a both-open set.
    """
    both = Multigraph(g.vertices, tuple(e for e in g.edges if e[0] in both_open))
    blocks = connected_components(both)
    return len(blocks), {w: i for i, block in enumerate(blocks) for w in block}


def _f_parts(n: int, pu: int, pv: int, domain: tuple, pinned: Optional[int]):
    """Yield the f lanes of the up/down model, one 2^k-bit part per image set.

    The kernel's items are the k = |domain| edges as up/down choices and,
    if pinned is None, the n posts after them.  The first L = max(k,
    min(items, _LANE_BITS)) items are the bits of one lane, so a domain
    is never split; each prefix shard fixes the posts past them, adding
    the copies they choose as base pairs.  Spreads from both copies of u
    give A = u0~v0, B = u1~v1, C = u0~v1, D = u1~v0, so f = A + B - C - D.
    Parts come in image-set order, bit x of a part the assignment x.
    """
    base, items = _bunkbed_items(n, domain, pinned, updown=True)
    lanes = max(len(domain), min(len(items), enumeration._LANE_BITS))
    u0, u1, v0, v1 = 2 * pu, 2 * pu + 1, 2 * pv, 2 * pv + 1
    width = 1 << len(domain)
    mask = (1 << width) - 1
    for prefix in range(1 << (len(items) - lanes)):
        fixed = [pair for i, item in enumerate(items[lanes:])
                 for pair in item[(prefix >> i) & 1]]
        reach = enumeration._lane_reach(2 * n, base + fixed, items[:lanes], (u0, u1))
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


def _negates(part: tuple, flip: int, k: int) -> bool:
    """f(x ^ flip) == -f(x) at every assignment x < 2^k of one part.

    Each set bit i of flip swaps the halves of every 2^(i+1)-bit period.
    """
    a, b, c, d = part
    if a ^ b == c ^ d and a & b == c & d:
        return True  # f is zero at every x, so every flip negates it
    mirror = []
    for x in part:
        for i, ones in enumerate(_item_lanes(k)):
            if (flip >> i) & 1:
                x = (x & ones) >> (1 << i) | (x << (1 << i)) & ones
        mirror.append(x)
    return _sum4(a, b, *mirror[:2]) == _sum4(c, d, *mirror[2:])


class _Outcome(NamedTuple):
    """Up/down model of one reduced graph under one pinned-image set."""

    cls: DistanceClass
    total: int  # sum of f over the assignments
    negative: bool  # AT_MOST_ONE only: some f < 0
    negates: bool  # UNREACHABLE only: flipping the far side negates f everywhere
    factor: Fraction  # total / 2^(|domain| + 1)


def _outcomes(
    n: int, pu: int, pv: int, domain: tuple, pinned: Optional[int]
) -> list[_Outcome]:
    """Class, f-sum, factor and checks for every image set of _f_parts.

    The class coarsens the pinned-free distance between the endpoint
    images: unreachable when the v image is off the pinned-free side of
    the u image, at most one when the images are equal or adjacent, at
    least two otherwise.  The factor is P(u0~v0) - P(u0~v1), half the
    mean of f because swapping every edge's level preserves the measure.
    An unreachable set's flip takes the domain edges with no end on the
    u image's pinned-free side: the mirroring involution.
    """
    k = len(domain)
    adjacent = [0] * n
    for a, b in domain:
        adjacent[a] |= 1 << b
        adjacent[b] |= 1 << a
    out: list[_Outcome] = []
    seen: dict = {}  # many image sets share one outcome; build it once
    for code, part in enumerate(_f_parts(n, pu, pv, domain, pinned)):
        blocked = code if pinned is None else pinned
        side = grown = 0 if (blocked >> pu) & 1 else 1 << pu
        while grown:
            side |= grown
            near = 0
            while grown:
                low = grown & -grown
                near |= adjacent[low.bit_length() - 1]
                grown ^= low
            grown = near & ~(side | blocked)
        total = (part[0].bit_count() + part[1].bit_count()
                 - part[2].bit_count() - part[3].bit_count())
        negative, negates = False, True
        if not (side >> pv) & 1:
            cls = DistanceClass.UNREACHABLE
            flip = 0
            for i, (a, b) in enumerate(domain):
                if not ((side >> a) | (side >> b)) & 1:
                    flip |= 1 << i
            negates = _negates(part, flip, k)
        elif pu == pv or (adjacent[pu] >> pv) & 1:
            cls = DistanceClass.AT_MOST_ONE
            negative = _below(*part) != 0
        else:
            cls = DistanceClass.AT_LEAST_TWO
        key = (cls, total, negative, negates)
        if key not in seen:
            seen[key] = _Outcome(*key, Fraction(total, 2 << k))
        out.append(seen[key])
    return out


def updown_f_values(
    g: Multigraph,
    s: Tripartition,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[tuple, list[int]]:
    """Per-assignment symmetrized indicator over the up-down model.

    Returns the assignment domain (non-loop surviving edge ids, bit i of
    a mask choosing UP for domain[i]) and, for every mask, the value
    of [both bottoms connect] + [both tops connect] - [bottom-to-top]
    - [top-to-bottom] between the endpoint images.
    """
    validate_tripartition(g, s)
    t = frozenset(t)
    for w in (u, v, *t):
        g.require_vertex(w)
    n, index = _contraction(g, s.both_open)
    ids = tuple(eid for eid, a, b in g.edges if eid in s.one_open and index[a] != index[b])
    _check_cap(len(ids), caps)
    domain = tuple((index[a], index[b]) for eid, a, b in g.edges if eid in ids)
    (part,) = _f_parts(n, index[u], index[v], domain, _image(index, t))
    # Each lane decoded once, bit m as the ASCII digit at m; the four 48s cancel.
    a, b, c, d = (format(x, f"0{1 << len(ids)}b")[::-1].encode() for x in part)
    return ids, [p + q - r - z for p, q, r, z in zip(a, b, c, d)]


@dataclass
class TripartitionTable:
    """Per-graph cache of every tripartition's reduced model, by ternary code.

    Row c is the tripartition _tripartition(graph, c), so tripartitions is
    range(3^|E|).  contractions[mask] is the _contraction of the both-open
    set whose edge i is in it iff bit i of mask is set.  rows[c] is (mask,
    domain, |one_open|, j), with j = |one_open| + 2 |both_open| and the
    domain the sorted index pairs (a < b) of the non-loop one-open edges:
    the up/down model depends on neither edge order nor orientation.
    """

    graph: Multigraph
    tripartitions: range
    contractions: list
    rows: list

    @classmethod
    def build(cls, g: Multigraph, caps: Caps = DEFAULT_CAPS) -> "TripartitionTable":
        _check_cap(2 * g.edge_count, caps)
        m = g.edge_count
        contractions = [
            _contraction(g, frozenset(e[0] for i, e in enumerate(g.edges) if mask >> i & 1))
            for mask in range(1 << m)
        ]
        # per contraction, each edge's block pair, lower first, or None for a loop
        pairs = [[(x, y) if x < y else (y, x) if y < x else None
                  for x, y in ((index[a], index[b]) for _, a, b in g.edges)]
                 for _, index in contractions]
        # the both-open mask and the one-open edge positions of every code, in counter order
        both, one = [0], [()]
        for i in range(m):
            both = both + both + [x | 1 << i for x in both]
            one = one + [x + (i,) for x in one] + one
        rows = []
        for mask, ids in zip(both, one):
            domain = tuple(sorted(filter(None, map(pairs[mask].__getitem__, ids))))
            rows.append((mask, domain, len(ids), len(ids) + 2 * mask.bit_count()))
        return cls(g, range(3 ** m), contractions, rows)


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
    table: Optional[TripartitionTable] = None,
) -> Iterator[TripartitionAnalysis]:
    """One lane pass per distinct reduced model, then each pinned set's analysis.

    A single pinned set gets fixed post lanes; several share one pass
    over every pinned-image set.  Tripartitions with one reduced model
    (vertex count, endpoint images and domain, which are all that
    _outcomes reads, plus the image of a single set) share its outcome
    list, so each distinct model is solved once per call, and a pinned
    set's image code is computed once per contraction.  Pinned sets whose
    outcomes agree, tripartition by tripartition, on all that _analysis
    reads (the total fixes the factor) share one analysis, folded lazily
    once per call.
    """
    for w in (u, v, *sets[0]):
        g.require_vertex(w)
    _check_cap(2 * g.edge_count, caps)  # bounds the table and every up/down model (Caps)
    table = table if table is not None else TripartitionTable.build(g, caps)
    batched, passes, shared, ids = len(sets) > 1, [], {}, {}
    heads = [(n, index[u], index[v]) for n, index in table.contractions]
    fixed = [None if batched else _image(index, sets[0]) for _, index in table.contractions]
    for mask, domain, _, _ in table.rows:
        key = (*heads[mask], domain, fixed[mask])
        if key not in shared:
            found = _outcomes(*key)
            shared[key] = found, [ids.setdefault((out.cls, out.total, out.negative, out.negates),
                                                 len(ids)) for out in found]
        passes.append((mask, *shared[key]))
    folded = {}
    for t in sets:
        codes = [_image(index, t) if batched else 0 for _, index in table.contractions]
        key = tuple([found_ids[codes[c]] for c, _, found_ids in passes])
        if key not in folded:
            folded[key] = _analysis(table, [found[codes[c]] for c, found, _ in passes])
        yield folded[key]


def _image(index: dict, t: frozenset) -> int:
    """Bitmask of the reduced vertices that the pinned set projects onto."""
    bits = 0
    for w in t:
        bits |= 1 << index[w]
    return bits


def _analysis(table: TripartitionTable, outcomes: list[_Outcome]) -> TripartitionAnalysis:
    """Fold one outcome per tripartition into masses, factors and failures.

    The fold keeps tripartitions as codes; only the witnesses it reports
    are decoded.
    """
    g = table.graph
    bits = 2 * g.edge_count
    class_mass = {cls: [0] * (bits + 1) for cls in DistanceClass}
    expansion = [0] * (bits + 1)
    witness = best_e = best_ones = None
    safe, stated, pointwise, mirror = [], [], [], []
    classes = [out.cls for out in outcomes]
    # an enum member lookup costs more than the rest of a step: do it once
    short, unreachable = DistanceClass.AT_MOST_ONE, DistanceClass.UNREACHABLE
    for code, (_, domain, ones, j), out, cls in zip(table.tripartitions, table.rows, outcomes,
                                                    classes):
        class_mass[cls][j] += 1 << ones
        # e = factor * 2^ones = (total / 2) * 2^(ones - |domain|), an integer:
        # the domain is the non-loop part of one_open, and total is even
        # because flipping every edge's level maps a mask to its
        # complement without changing f.
        e = (out.total >> 1) << (ones - len(domain))
        expansion[j] += e
        if cls is short:
            if witness is None or e << best_ones < best_e << ones:  # the first of least factor
                witness, best_e, best_ones = code, e, ones
            if e < 1:  # factor < 2^-ones
                safe.append(code)
            if e < 2:  # factor < 2^(1 - ones)
                stated.append(code)
            if out.negative:
                pointwise.append(code)
        elif cls is unreachable and (out.total or not out.negates):
            mirror.append(code)
    safe, stated, pointwise, mirror = ([_tripartition(g, code) for code in codes]
                                       for codes in (safe, stated, pointwise, mirror))
    return TripartitionAnalysis(
        class_counts={cls.value: classes.count(cls) for cls in DistanceClass},
        class_mass={
            cls.value: counts_to_polynomial(m, bits) for cls, m in class_mass.items()
        },
        expansion_sum=counts_to_polynomial(expansion, bits),
        factors=[out.factor for out in outcomes],
        classes=classes,
        min_factor=None if witness is None else Fraction(best_e, 1 << best_ones),
        min_factor_witness=None if witness is None else _tripartition(g, witness),
        safe_bound_failures=safe,
        stated_bound_failures=stated,
        pointwise_failures=pointwise,
        mirror_failures=mirror,
    )


def _inputs(g: Multigraph, t: frozenset, u: Vertex, v: Vertex) -> dict:
    graph = {
        "vertices": [str(x) for x in g.vertices],
        "edges": [[eid, str(a), str(b)] for eid, a, b in g.edges],
    }
    return {"graph": graph, "pinned": sorted(map(str, t)), "u": str(u), "v": str(v)}


def _identity_body(analysis: TripartitionAnalysis, difference: RationalPoly) -> dict:
    """The fields of expansion_identity_check's report, except inputs."""
    verdict = PASS if difference == analysis.expansion_sum else FAIL
    return dict(check="expansion_identity", verdict=verdict, quantities={
        "difference": difference,
        "expansion_sum": analysis.expansion_sum,
        "class_counts": analysis.class_counts,
        "class_mass": analysis.class_mass,
    })


def expansion_identity_check(
    g: Multigraph,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> VerificationReport:
    """Exact equality of the conditional difference and its expansion."""
    return verify_conditioning(g, t, u, v, caps=caps)[0]


def _bound_body(
    analysis: TripartitionAnalysis, value: Fraction, connected: bool, p0: Fraction, m: int
) -> dict:
    """bound_report's fields, except inputs, from the difference at p0 = threshold_point(m)."""
    mass_short = analysis.class_mass[DistanceClass.AT_MOST_ONE.value].evaluate(p0)
    mass_far = analysis.class_mass[DistanceClass.AT_LEAST_TWO.value].evaluate(p0)

    bound = Fraction(1, 2 ** m) * mass_short
    domination = mass_far <= bound
    domination_strict = mass_short == 0 or mass_far < bound
    domination_sharp = mass_far <= bound / 2

    floor = (p0 * (1 - p0)) ** m
    floor_ok = (not connected) or value >= floor
    safe_ok = not analysis.safe_bound_failures
    pointwise_ok = not analysis.pointwise_failures
    mirror_ok = not analysis.mirror_failures
    if not (safe_ok and pointwise_ok and mirror_ok and domination and domination_strict
            and floor_ok):
        verdict = FAIL
    elif analysis.stated_bound_failures or not domination_sharp:
        verdict = DISCREPANCY
    else:
        verdict = PASS

    return dict(check="tripartition_bounds", verdict=verdict, quantities={
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
        "difference_at_p0": value,
        "difference_floor_at_p0": floor,
        "difference_floor_holds": floor_ok,
    }, witnesses={
        "min_factor_tripartition": analysis.min_factor_witness,
        "stated_bound_failures": analysis.stated_bound_failures,
        "safe_bound_failures": analysis.safe_bound_failures,
    })


def bound_report(
    g: Multigraph,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
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
    mass ratio 188/4725 > 1/32 at p0 = 15/16), so violations downgrade
    the verdict to DISCREPANCY, never FAIL.  When u and v are connected
    avoiding t, the evaluated difference must be at least
    p0^|E| (1-p0)^|E|.
    """
    return verify_conditioning(g, t, u, v, caps=caps)[1]


def _sign_body(value: Fraction, connected: bool, p0: Fraction) -> dict:
    """theorem_sign_check's fields, except inputs, from the difference at p0."""
    ok = value >= 0 and ((value > 0) == connected)
    return dict(check="difference_sign", verdict=PASS if ok else FAIL, quantities={
        "p0": p0,
        "difference_at_p0": value,
        "connected_avoiding_pinned": connected,
    })


def theorem_sign_check(
    g: Multigraph,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> VerificationReport:
    """Sign of the conditional difference at the dyadic point.

    Nonnegative always; strictly positive exactly when u and v are
    connected avoiding the pinned set (which requires both endpoints to
    be unpinned).  The same as verify_conditioning's third report, but
    without the tripartition sweep.
    """
    t = frozenset(t)
    p0 = threshold_point(g.edge_count)
    value = difference_polynomial(g, u, v, pinned=t, caps=caps).evaluate(p0)
    body = _sign_body(value, connected_avoiding(g, u, v, t), p0)
    return VerificationReport(inputs=_inputs(g, t, u, v), **body)


def verify_conditioning(
    g: Multigraph,
    t: Iterable[Vertex],
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> list[VerificationReport]:
    """Expansion, bounds, and sign reports for one pinned set.

    These are the reports of expansion_identity_check, bound_report and
    theorem_sign_check, in that order, from one sweep and one difference.
    """
    t = frozenset(t)
    analysis = analyze_tripartitions(g, t, u, v, caps=caps)
    return _reports(g, u, v, [(t, analysis, difference_polynomial(g, u, v, pinned=t, caps=caps))])


def _reports(g: Multigraph, u: Vertex, v: Vertex, rows: Iterable) -> list[VerificationReport]:
    """Expansion, bounds and sign reports of each (pinned set, analysis, difference) row.

    Rows with one analysis, difference and connectivity share report fields, built once.
    """
    m, common, shared, reports = g.edge_count, _inputs(g, frozenset(), u, v), {}, []
    p0 = threshold_point(m)
    for t, analysis, difference in rows:
        connected = connected_avoiding(g, u, v, t)
        key = (id(analysis), id(difference), connected)
        if key not in shared:  # holding both objects keeps their ids from being reused
            value = difference.evaluate(p0)
            shared[key] = analysis, difference, [
                _identity_body(analysis, difference),
                _bound_body(analysis, value, connected, p0, m),
                _sign_body(value, connected, p0),
            ]
        inputs = {**common, "pinned": sorted(map(str, t))}
        reports.extend(VerificationReport(inputs=inputs, **body) for body in shared[key][2])
    return reports


def verify_theorem(
    g: Multigraph,
    u: Vertex,
    v: Vertex,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[str, list[VerificationReport]]:
    """Run every per-conditioning check over all subsets of the vertices.

    One frontier pass gives every pinned set's difference.  The cap is
    checked on the total work before anything is built: that pass covers
    2^(2|E| + |V|) configurations, and the batched up/down models, at
    most 2^|V| post settings times 2^|one_open| assignments for each
    tripartition, have no more, since 2^|one_open| sums to 4^|E| over
    the 3^|E| tripartitions.  Pinned sets with like outcomes share
    report fields, built once per call, so one quantities or witnesses
    dict (and the inputs' graph) may belong to many reports: treat the
    reports as read-only.
    """
    n = g.vertex_count
    _check_cap(2 * g.edge_count + n, caps)
    sets = [
        frozenset(g.vertices[i] for i in range(n) if (code >> i) & 1)
        for code in range(1 << n)
    ]
    # The lazy kernel pass starts after the first analysis checks the vertices and cap.
    rows = zip(sets, _analyses(g, u, v, sets, caps), _pinned_differences(g, u, v))
    reports = _reports(g, u, v, rows)
    return aggregate_verdict(r.verdict for r in reports), reports
