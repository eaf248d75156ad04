"""Tripartition expansion, factor bounds, and the conditioned theorem."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunkbed import (
    CapExceededError,
    Caps,
    DEFAULT_CAPS,
    DISCREPANCY,
    DistanceClass,
    FAIL,
    INFINITY,
    Multigraph,
    PASS,
    RationalPoly,
    Tripartition,
    TripartitionTable,
    VAR_P,
    analyze_tripartitions,
    bound_report,
    counts_to_polynomial,
    difference_polynomial,
    enumerate_tripartitions,
    expansion_identity_check,
    minor,
    parse_edge_list,
    theorem_sign_check,
    threshold_point,
    updown_f_values,
    validate_tripartition,
    verify_conditioning,
    verify_theorem,
    vertical_free_distance,
)
import bunkbed.enumeration
import bunkbed.exact
import bunkbed.tripartitions
from bunkbed.graphs import Vertex
from bunkbed.tripartitions import (
    TripartitionAnalysis,
    _analyses,
    _below,
    _negates,
)
from conftest import FAMILY_TEXT, SIX_VERTEX_TEXT

poly = lambda coeffs: RationalPoly(coeffs, VAR_P)

PATH5_TEXT = "a b\nb c\nc d\nd e\ne f"


# Reference oracles: the reduced model with its BFS distance class, the
# per-mask union-find and the per-pinned-set loop the library ran before
# it solved every tripartition on bit lanes.


@dataclass(frozen=True)
class ReducedModel:
    """Reduced graph with endpoint and pinned images for one tripartition."""

    graph: Multigraph
    projection: dict
    pu: Vertex
    pv: Vertex
    pinned: frozenset


def reduced_model(g, s, t, u, v) -> ReducedModel:
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


def classify(g, s, t, u, v, *, model=None) -> tuple[DistanceClass, float]:
    """Distance class of the tripartition and the BFS distance itself."""
    model = model if model is not None else reduced_model(g, s, t, u, v)
    d = vertical_free_distance(model.graph, model.pu, model.pv, model.pinned)
    if d == INFINITY:
        return DistanceClass.UNREACHABLE, d
    if d <= 1:
        return DistanceClass.AT_MOST_ONE, d
    return DistanceClass.AT_LEAST_TWO, d


def _updown_arena(model, caps):
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
        raise CapExceededError(f"up-down enumeration needs 2^{len(domain)} assignments")
    return index, parent, domain


def _root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def _table_model(table, i, t, u, v) -> ReducedModel:
    projection = table.projections[i]
    return ReducedModel(
        graph=table.reduced[i],
        projection=projection,
        pu=projection[u],
        pv=projection[v],
        pinned=frozenset(projection[w] for w in t),
    )


def reference_updown_f_values(g, s, t, u, v, *, caps=DEFAULT_CAPS, model=None):
    """Domain ids and the symmetrized indicator per mask, by union-find."""
    model = model if model is not None else reduced_model(g, s, t, u, v)
    index, base_parent, domain = _updown_arena(model, caps)
    pu0 = index[(model.pu, 0)]
    pu1 = index[(model.pu, 1)]
    pv0 = index[(model.pv, 0)]
    pv1 = index[(model.pv, 1)]
    values = []
    for mask in range(1 << len(domain)):
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


def _pinned_free_side(model) -> set:
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


def _mirror_flip(model, domain) -> int:
    side = _pinned_free_side(model)
    endpoints = {eid: (a, b) for eid, a, b in model.graph.edges}
    flip = 0
    for i, eid in enumerate(domain):
        a, b = endpoints[eid]
        if a not in side and b not in side:
            flip |= 1 << i
    return flip


def reference_analyze_tripartitions(g, t, u, v, *, caps=DEFAULT_CAPS, table=None):
    """The per-pinned-set, per-tripartition loop over the union-find oracle."""
    t = frozenset(t)
    if table is None:
        table = TripartitionTable.build(g, caps)
    bits = 2 * g.edge_count
    class_counts = {cls: 0 for cls in DistanceClass}
    class_mass = {cls: [0] * (bits + 1) for cls in DistanceClass}
    expansion = [0] * (bits + 1)
    factors, classes = [], []
    min_factor = min_factor_witness = None
    safe, stated, pointwise, mirror = [], [], [], []
    for i, s in enumerate(table.tripartitions):
        model = _table_model(table, i, t, u, v)
        cls, _ = classify(g, s, t, u, v, model=model)
        ones = len(s.one_open)
        j = ones + 2 * len(s.both_open)
        class_counts[cls] += 1
        class_mass[cls][j] += 1 << ones
        domain, f_values = reference_updown_f_values(g, s, t, u, v, caps=caps, model=model)
        total = sum(f_values)
        factor = Fraction(total, 1 << (len(domain) + 1))
        factors.append(factor)
        classes.append(cls)
        expansion[j] += (total >> 1) << (ones - len(domain))
        if cls is DistanceClass.UNREACHABLE:
            flip = _mirror_flip(model, domain)
            holds = all(f_values[m ^ flip] == -f for m, f in enumerate(f_values))
            if factor != 0 or not holds:
                mirror.append(s)
        elif cls is DistanceClass.AT_MOST_ONE:
            if min_factor is None or factor < min_factor:
                min_factor, min_factor_witness = factor, s
            if any(f < 0 for f in f_values):
                pointwise.append(s)
            if factor < Fraction(1, 2 ** ones):
                safe.append(s)
            if factor < Fraction(2, 2 ** ones):
                stated.append(s)
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
        safe_bound_failures=safe,
        stated_bound_failures=stated,
        pointwise_failures=pointwise,
        mirror_failures=mirror,
    )


def reference_updown_difference(g, s, t, u, v, *, caps=DEFAULT_CAPS) -> Fraction:
    """Bottom-bottom minus bottom-top connection probability, per mask.

    Counts only the two bottom-anchored events, so it shares nothing
    with the symmetrized indicator past the reduced model and the
    oracle's index arena.
    """
    model = reduced_model(g, s, t, u, v)
    index, base_parent, domain = _updown_arena(model, caps)
    pu0 = index[(model.pu, 0)]
    pv0 = index[(model.pv, 0)]
    pv1 = index[(model.pv, 1)]
    total = 0
    for mask in range(1 << len(domain)):
        parent = list(base_parent)
        for i, (_, a, b) in enumerate(domain):
            level = (mask >> i) & 1
            ra = _root(parent, index[(a, level)])
            rb = _root(parent, index[(b, level)])
            if ra != rb:
                parent[rb] = ra
        ru = _root(parent, pu0)
        total += (ru == _root(parent, pv0)) - (ru == _root(parent, pv1))
    return Fraction(total, 1 << len(domain))


def _pinned_sets(g):
    n = g.vertex_count
    for code in range(1 << n):
        yield frozenset(g.vertices[i] for i in range(n) if (code >> i) & 1)


class TestEnumeration:
    def test_counts(self, family):
        assert len(list(enumerate_tripartitions(family["k2"]))) == 3
        assert len(list(enumerate_tripartitions(family["path2"]))) == 9
        assert len(list(enumerate_tripartitions(family["cycle4"]))) == 81

    def test_partition_property(self, family):
        g = family["path2"]
        seen = set()
        for s in enumerate_tripartitions(g):
            validate_tripartition(g, s)
            assert s.none_open | s.one_open | s.both_open == set(g.edge_ids)
            key = (s.none_open, s.one_open, s.both_open)
            assert key not in seen
            seen.add(key)

    def test_cap(self, family):
        with pytest.raises(CapExceededError):
            enumerate_tripartitions(family["path2"], Caps(max_tripartitions=8))

    def test_validate_rejects_overlap(self, k2):
        bad = Tripartition(
            none_open=frozenset({0}), one_open=frozenset({0}), both_open=frozenset()
        )
        with pytest.raises(ValueError):
            validate_tripartition(k2, bad)

    def test_validate_rejects_unknown_edge(self, k2):
        bad = Tripartition(
            none_open=frozenset(), one_open=frozenset({7}), both_open=frozenset()
        )
        with pytest.raises(ValueError):
            validate_tripartition(k2, bad)


class TestWeights:
    def test_single_edge_weights(self, k2):
        # Tripartition s has weight 2^|one_open| at index
        # |one_open| + 2 |both_open| of the count basis p^j (1-p)^(2|E|-j).
        states = [
            ([1, 0, 0], poly([1, -2, 1])),  # none open
            ([0, 2, 0], poly([0, 2, -2])),  # one open
            ([0, 0, 1], poly([0, 0, 1])),  # both open
        ]
        for row, expected in states:
            assert counts_to_polynomial(row, 2) == expected
        masses = analyze_tripartitions(k2, frozenset(), "u", "v").class_mass
        assert masses[DistanceClass.UNREACHABLE.value] == poly([1, -2, 1])
        assert masses[DistanceClass.AT_MOST_ONE.value] == poly([0, 2, -1])
        assert masses[DistanceClass.AT_LEAST_TWO.value].is_zero()

    def test_weights_sum_to_one(self, family):
        for name, g in family.items():
            bits = 2 * g.edge_count
            row = [0] * (bits + 1)
            for s in enumerate_tripartitions(g):
                row[len(s.one_open) + 2 * len(s.both_open)] += 1 << len(s.one_open)
            assert row == [comb(bits, j) for j in range(bits + 1)], name
            assert counts_to_polynomial(row, bits) == RationalPoly.one(VAR_P)


class TestFactors:
    def test_k2_factors(self, k2):
        t = frozenset()
        expected = {
            (frozenset({0}), frozenset(), frozenset()): Fraction(0),
            (frozenset(), frozenset({0}), frozenset()): Fraction(1, 2),
            (frozenset(), frozenset(), frozenset({0})): Fraction(1),
        }
        factors = analyze_tripartitions(k2, t, "u", "v").factors
        for s, factor in zip(enumerate_tripartitions(k2), factors, strict=True):
            key = (s.none_open, s.one_open, s.both_open)
            assert reference_updown_difference(k2, s, t, "u", "v") == expected[key]
            assert factor == expected[key]

    def test_factor_equals_half_mean_of_f(self, family):
        for name in ("path2", "triangle", "double_edge"):
            g = family[name]
            x, y = g.vertices[0], g.vertices[-1]
            for t in (frozenset(), frozenset({g.vertices[0]}), frozenset(g.vertices)):
                factors = analyze_tripartitions(g, t, x, y).factors
                tripartitions = enumerate_tripartitions(g)
                for s, factor in zip(tripartitions, factors, strict=True):
                    F = reference_updown_difference(g, s, t, x, y)
                    _, values = updown_f_values(g, s, t, x, y)
                    assert F == Fraction(sum(values), 2 * len(values))
                    assert factor == F

    def test_f_sum_is_even(self, family):
        # Flipping every edge's level maps a mask to its complement and
        # keeps f, so the integer expansion may halve the sum exactly.
        for name, g in family.items():
            table = TripartitionTable.build(g)
            x, y = g.vertices[0], g.vertices[-1]
            for t in _pinned_sets(g):
                for s in table.tripartitions:
                    _, values = updown_f_values(g, s, t, x, y)
                    assert sum(values) % 2 == 0, (name, t, s)

    def test_f_values_bounded(self, family):
        g = family["triangle"]
        for s in enumerate_tripartitions(g):
            _, values = updown_f_values(g, s, frozenset(), "u", "w")
            assert all(-2 <= f <= 2 for f in values)

    def test_updown_cap(self, family):
        g = family["cycle4"]
        all_one = Tripartition(
            none_open=frozenset(),
            one_open=frozenset(g.edge_ids),
            both_open=frozenset(),
        )
        with pytest.raises(CapExceededError):
            updown_f_values(g, all_one, frozenset(), "a", "c", caps=Caps(max_updown_bits=3))


class TestClassify:
    def test_k2_classes(self, k2):
        by_key = {}
        classes = analyze_tripartitions(k2, frozenset(), "u", "v").classes
        for s, lane_cls in zip(enumerate_tripartitions(k2), classes, strict=True):
            cls, d = classify(k2, s, frozenset(), "u", "v")
            assert lane_cls is cls
            by_key[(len(s.none_open), len(s.one_open), len(s.both_open))] = (cls, d)
        assert by_key[(1, 0, 0)][0] == DistanceClass.UNREACHABLE
        assert by_key[(0, 1, 0)] == (DistanceClass.AT_MOST_ONE, 1)
        assert by_key[(0, 0, 1)] == (DistanceClass.AT_MOST_ONE, 0)

    def test_pinned_image_is_unreachable(self, family):
        # Contracting the whole path pins the merged endpoint images.
        g = family["path2"]
        s = Tripartition(
            none_open=frozenset(),
            one_open=frozenset(),
            both_open=frozenset(g.edge_ids),
        )
        cls, d = classify(g, s, frozenset({"b"}), "a", "c")
        assert cls == DistanceClass.UNREACHABLE

    def test_distance_two(self, family):
        g = family["path2"]
        s = Tripartition(
            none_open=frozenset(),
            one_open=frozenset(g.edge_ids),
            both_open=frozenset(),
        )
        cls, d = classify(g, s, frozenset(), "a", "c")
        assert (cls, d) == (DistanceClass.AT_LEAST_TWO, 2)


class TestExpansionIdentity:
    def test_k2_no_posts_sum_is_p(self, k2):
        report = expansion_identity_check(k2, frozenset(), "u", "v")
        assert report.verdict == PASS
        assert report.quantities["expansion_sum"] == poly([0, 1])
        assert report.quantities["difference"] == poly([0, 1])

    def test_k2_one_post_sum_is_zero(self, k2):
        report = expansion_identity_check(k2, frozenset({"u"}), "u", "v")
        assert report.verdict == PASS
        assert report.quantities["expansion_sum"].is_zero()

    def test_same_vertex_pair(self, family):
        g = family["path2"]
        report = expansion_identity_check(g, frozenset(), "a", "a")
        assert report.verdict == PASS

    def test_family_spot_checks(self, family):
        for name in ("double_edge", "star3", "triangle"):
            g = family[name]
            x, y = g.vertices[0], g.vertices[-1]
            for t in (frozenset(), frozenset({x}), frozenset(g.vertices)):
                report = expansion_identity_check(g, t, x, y)
                assert report.verdict == PASS, (name, t)


class TestMirroring:
    def test_blocked_path_all_unreachable(self, family):
        # Pinning the middle vertex cuts every tripartition's endpoint
        # images apart, so the flip must kill all nine factors.
        g = family["path2"]
        t = frozenset({"b"})
        analysis = analyze_tripartitions(g, t, "a", "c")
        for s in enumerate_tripartitions(g):
            assert classify(g, s, t, "a", "c")[0] is DistanceClass.UNREACHABLE
        assert analysis.classes == [DistanceClass.UNREACHABLE] * 9
        assert analysis.factors == [0] * 9
        assert analysis.mirror_failures == []


class TestBoundReport:
    def test_k2_discrepancy_on_stated_constant(self, k2):
        report = bound_report(k2, frozenset(), "u", "v")
        assert report.verdict == DISCREPANCY
        assert report.quantities["safe_bound_holds"] is True
        assert report.quantities["stated_bound_holds"] is False
        assert report.quantities["min_factor"] == Fraction(1, 2)
        assert report.quantities["mass_domination"] is True
        witnesses = report.witnesses["stated_bound_failures"]
        assert any(s.one_open == frozenset({0}) for s in witnesses)

    def test_k2_pinned_case_passes(self, k2):
        report = bound_report(k2, frozenset({"u", "v"}), "u", "v")
        assert report.verdict == PASS

    def test_mass_domination_falsified_on_path_ends(self, family):
        # Four-edge path, endpoints, no open posts: the far-class mass
        # at p0 = 15/16 exceeds 2^-4 times the short-class mass, so the
        # claimed domination genuinely fails and must be reported FAIL.
        report = bound_report(family["path4"], frozenset(), "a", "e")
        assert report.verdict == FAIL
        assert report.quantities["mass_domination"] is False
        assert report.quantities["short_mass_at_p0"] == Fraction(
            3929765625, 4294967296
        )
        assert report.quantities["far_mass_at_p0"] == Fraction(
            37310625, 536870912
        )
        # The theorem itself still holds there.
        assert report.quantities["difference_at_p0"] == Fraction(50625, 65536)

    def test_sharp_variant_discrepancy_without_main_failure(self, family):
        # One step in from the end, the main bound holds but the sharper
        # half-factor variant fails; that is a recorded discrepancy.
        report = bound_report(family["path4"], frozenset(), "a", "d")
        assert report.verdict == DISCREPANCY
        assert report.quantities["mass_domination"] is True
        assert report.quantities["mass_domination_strict"] is True
        assert report.quantities["mass_domination_sharp"] is False
        far, short = (report.quantities[k] for k in ("far_mass_at_p0", "short_mass_at_p0"))
        assert far / short == Fraction(188, 4725)

    def test_class_masses_partition_unity(self, family):
        for name, g in family.items():
            x, y = g.vertices[0], g.vertices[-1]
            report = bound_report(g, frozenset(), x, y)
            masses = report.quantities["class_mass"]
            total = sum(masses.values(), RationalPoly.zero(VAR_P))
            assert total == RationalPoly.one(VAR_P), name


class TestSignCheck:
    def test_connected_strictly_positive(self, k2):
        report = theorem_sign_check(k2, frozenset(), "u", "v")
        assert report.verdict == PASS
        assert report.quantities["difference_at_p0"] == Fraction(7, 8)

    def test_pinned_endpoint_gives_zero(self, k2):
        report = theorem_sign_check(k2, frozenset({"u"}), "u", "v")
        assert report.verdict == PASS
        assert report.quantities["difference_at_p0"] == 0
        assert report.quantities["connected_avoiding_pinned"] is False

    def test_blocked_interior_gives_zero(self, family):
        report = theorem_sign_check(family["path2"], frozenset({"b"}), "a", "c")
        assert report.verdict == PASS
        assert report.quantities["difference_at_p0"] == 0


class TestSweeps:
    def test_single_checks_are_verify_conditioning_rows(self, family):
        checks = (expansion_identity_check, bound_report, theorem_sign_check)
        for name, g in family.items():
            x, y = g.vertices[0], g.vertices[-1]
            for t in (frozenset(), frozenset({x}), frozenset(g.vertices)):
                rows = verify_conditioning(g, t, x, y)
                for check, row in zip(checks, rows, strict=True):
                    got = check(g, t, x, y)
                    for field in ("check", "verdict", "inputs", "quantities", "witnesses"):
                        assert getattr(got, field) == getattr(row, field), (name, t, field)
                    assert got.to_json_obj() == row.to_json_obj(), (name, t)

    def test_sign_check_skips_the_tripartition_sweep(self, monkeypatch, k2):
        def no_table(*args, **kwargs):
            raise AssertionError("the sign check built a tripartition table")

        monkeypatch.setattr(TripartitionTable, "build", no_table)
        with pytest.raises(AssertionError, match="tripartition table"):
            bound_report(k2, frozenset(), "u", "v")
        report = theorem_sign_check(k2, frozenset(), "u", "v")
        assert report.verdict == PASS
        assert report.quantities["difference_at_p0"] == Fraction(7, 8)

    def test_verify_conditioning_shares_results(self, k2):
        reports = verify_conditioning(k2, frozenset(), "u", "v")
        assert [r.check for r in reports] == [
            "expansion_identity",
            "tripartition_bounds",
            "difference_sign",
        ]

    def test_verify_theorem_k2(self, k2):
        verdict, reports = verify_theorem(k2, "u", "v")
        assert verdict == DISCREPANCY
        assert len(reports) == 3 * 4

    def test_verify_theorem_flags_path4_ends(self, family):
        verdict, reports = verify_theorem(family["path4"], "a", "e")
        assert verdict == FAIL
        failing = [r for r in reports if r.verdict == FAIL]
        assert len(failing) == 1
        assert failing[0].check == "tripartition_bounds"
        assert failing[0].inputs["pinned"] == []

    def test_verify_theorem_makes_one_kernel_pass(self, monkeypatch, family):
        # One frontier pass gives the differences of all 2^|V| pinned sets.
        calls = []
        frontier = bunkbed.enumeration._frontier_counts

        def spy(*args):
            calls.append(args)
            return frontier(*args)

        for module in (bunkbed.enumeration, bunkbed.exact):
            monkeypatch.setattr(module, "_frontier_counts", spy, raising=False)
        for name in ("k2", "path4", "cycle4", "triangle_doubled"):
            g = family[name]
            calls.clear()
            verify_theorem(g, g.vertices[0], g.vertices[-1])
            assert len(calls) == 1, name

    def test_verify_theorem_merged_name_cannot_collide(self):
        # The block {a, b} must not be named after the real vertex "a+b".
        verdict, reports = verify_theorem(parse_edge_list("a b\na+b c"), "a", "c")
        renamed_verdict, renamed = verify_theorem(parse_edge_list("a b\nx c"), "a", "c")
        assert verdict == renamed_verdict == PASS
        assert len(reports) == len(renamed) == 3 * 2 ** 4
        for r, s in zip(reports, renamed):
            assert (r.check, r.verdict) == (s.check, s.verdict)
            assert r.quantities == s.quantities


class TestAnalysis:
    def test_class_counts_path4_interior(self, family):
        ana = analyze_tripartitions(family["path4"], frozenset(), "a", "d")
        counts = ana.class_counts
        assert counts[DistanceClass.UNREACHABLE.value] == 57
        assert counts[DistanceClass.AT_MOST_ONE.value] == 12
        assert counts[DistanceClass.AT_LEAST_TWO.value] == 12

    def test_expansion_sum_matches_direct_difference(self, family):
        for name in ("k2", "path2", "double_edge"):
            g = family[name]
            x, y = g.vertices[0], g.vertices[-1]
            ana = analyze_tripartitions(g, frozenset(), x, y)
            assert ana.expansion_sum == difference_polynomial(
                g, x, y, frozenset()
            )

    def test_table_reuse_is_consistent(self, family):
        g = family["triangle"]
        table = TripartitionTable.build(g)
        direct = analyze_tripartitions(g, frozenset(), "u", "w")
        cached = analyze_tripartitions(g, frozenset(), "u", "w", table=table)
        assert direct.expansion_sum == cached.expansion_sum
        assert direct.class_counts == cached.class_counts


def _lane_graphs():
    graphs = {name: parse_edge_list(text) for name, text in FAMILY_TEXT.items()}
    graphs["path5"] = parse_edge_list(PATH5_TEXT)
    return graphs


def _oracle_rows(g, u, v, table):
    sets = list(_pinned_sets(g))
    return sets, [reference_analyze_tripartitions(g, t, u, v, table=table) for t in sets]


@pytest.fixture(scope="module")
def lane_cases():
    """Oracle analyses of every pair and pinned set of the family and path5."""
    cases = []
    for name, g in _lane_graphs().items():
        table = TripartitionTable.build(g)
        for u, v in itertools.combinations(g.vertices, 2):
            sets, expected = _oracle_rows(g, u, v, table)
            cases.append((name, g, table, u, v, sets, expected))
    return cases


def _batched(g, u, v, sets, table=None):
    return list(_analyses(g, u, v, sets, DEFAULT_CAPS, table))


class TestLanePass:
    def test_batched_pass_matches_oracle(self, lane_cases):
        for name, g, table, u, v, sets, expected in lane_cases:
            assert _batched(g, u, v, sets, table) == expected, (name, u, v)

    def test_single_pass_matches_oracle(self, lane_cases):
        for name, g, table, u, v, sets, expected in lane_cases:
            if name == "path5" and (u, v) != ("a", "f"):
                continue  # the batched test covers every path5 pair
            for t, analysis in zip(sets, expected):
                got = analyze_tripartitions(g, t, u, v, table=table)
                assert got == analysis, (name, u, v, sorted(t))

    def test_six_vertex_matches_oracle(self):
        g = parse_edge_list(SIX_VERTEX_TEXT)
        table = TripartitionTable.build(g)
        sets = [frozenset(), frozenset({"b", "e"}), frozenset(g.vertices)]
        expected = [
            reference_analyze_tripartitions(g, t, "u", "v", table=table) for t in sets
        ]
        for t, analysis in zip(sets, expected):
            assert analyze_tripartitions(g, t, "u", "v", table=table) == analysis
        assert _batched(g, "u", "v", sets, table) == expected

    def test_f_values_match_oracle_per_mask(self, family):
        for name in ("path4", "cycle4", "paw", "triangle_doubled", "chair"):
            g = family[name]
            x, y = g.vertices[0], g.vertices[-1]
            for t in (frozenset(), frozenset({g.vertices[1]}), frozenset(g.vertices)):
                for s in enumerate_tripartitions(g):
                    got = updown_f_values(g, s, t, x, y)
                    assert got == reference_updown_f_values(g, s, t, x, y), (name, t, s)

    @pytest.mark.parametrize("lane_bits", [1, 2, 3])
    def test_narrow_lanes_spill_into_outer_blocks(self, monkeypatch, family, lane_bits):
        # Domain and post bits past the lane width are fixed per outer
        # block; flip bits past it pair up parts of one block.
        monkeypatch.setattr(bunkbed.enumeration, "_LANE_BITS", lane_bits)
        for name, (u, v) in (("path4", ("a", "e")), ("path4", ("b", "d")),
                             ("triangle_doubled", ("u", "w")), ("chair", ("a", "e"))):
            g = family[name]
            table = TripartitionTable.build(g)
            sets, expected = _oracle_rows(g, u, v, table)
            assert _batched(g, u, v, sets, table) == expected, (name, u, v)
            for t, analysis in zip(sets[::5], expected[::5]):
                assert analyze_tripartitions(g, t, u, v, table=table) == analysis
            for s in table.tripartitions:
                t = frozenset({g.vertices[2]})
                got = updown_f_values(g, s, t, u, v)
                assert got == reference_updown_f_values(g, s, t, u, v), (name, s)

    def test_lane_checks_reach_the_analysis(self, monkeypatch, family):
        # The pointwise and mirror checks never fail on real inputs, so
        # force each lane check to fail and watch the analysis report it.
        g = family["path2"]
        monkeypatch.setattr(bunkbed.tripartitions, "_below", lambda *part: 1)
        monkeypatch.setattr(bunkbed.tripartitions, "_negates", lambda *args: False)
        for t in (frozenset(), frozenset({"b"})):
            analysis = analyze_tripartitions(g, t, "a", "c")
            (batched,) = [a for s, a in zip(_pinned_sets(g), _batched(
                g, "a", "c", list(_pinned_sets(g)))) if s == t]
            for got in (analysis, batched):
                short = [s for s, cls in zip(enumerate_tripartitions(g), got.classes)
                         if cls is DistanceClass.AT_MOST_ONE]
                far_off = [s for s, cls in zip(enumerate_tripartitions(g), got.classes)
                           if cls is DistanceClass.UNREACHABLE]
                assert got.pointwise_failures == short
                assert got.mirror_failures == far_off
                assert short or far_off

    def test_fold_applies_each_failure_rule(self, family):
        # Outcomes no real input produces, one per rule of the fold: a
        # nonzero total with a negating flip, a factor between the safe
        # bound and a slightly weaker one, and a factor at the safe bound.
        g = family["k2"]
        table = TripartitionTable.build(g)
        none, one, both = table.tripartitions
        domains = [
            bunkbed.tripartitions._row(g, rg, projection, "u", "v")[0]
            for rg, projection in zip(table.reduced, table.projections)
        ]
        def outcome(cls, total, factor, negative):
            return bunkbed.tripartitions._Outcome(
                cls, total, negative=negative, negates=True, factor=factor
            )

        outcomes = [
            outcome(DistanceClass.UNREACHABLE, 2, Fraction(1), False),
            outcome(DistanceClass.AT_MOST_ONE, 1, Fraction(2, 5), True),
            outcome(DistanceClass.AT_MOST_ONE, 2, Fraction(1), False),
        ]
        got = bunkbed.tripartitions._analysis(table, domains, outcomes)
        assert got.mirror_failures == [none]
        assert got.safe_bound_failures == [one]
        assert got.stated_bound_failures == [one, both]
        assert got.pointwise_failures == [one]
        assert (got.min_factor, got.min_factor_witness) == (Fraction(2, 5), one)
        # Two short tripartitions tie for the least factor: the first wins.
        tied = [
            outcomes[0],
            outcome(DistanceClass.AT_MOST_ONE, 2, Fraction(1, 2), False),
            outcome(DistanceClass.AT_MOST_ONE, 2, Fraction(2, 4), False),
        ]
        got = bunkbed.tripartitions._analysis(table, domains, tied)
        assert (got.min_factor, got.min_factor_witness) == (Fraction(1, 2), one)

    def test_cap_is_checked_before_any_lane(self, monkeypatch, family):
        def no_lanes(*args, **kwargs):
            raise AssertionError("a lane was built before the cap was checked")

        monkeypatch.setattr(bunkbed.tripartitions, "_item_lanes", no_lanes)
        monkeypatch.setattr(bunkbed.enumeration, "_lane_reach", no_lanes)
        monkeypatch.setattr(bunkbed.enumeration, "_spread", no_lanes)
        g = family["cycle4"]
        caps = Caps(max_updown_bits=3)
        # Tripartitions with at most three one-open edges come first in
        # counter order, so every cap is checked before the first lane.
        with pytest.raises(CapExceededError, match="max_updown_bits"):
            analyze_tripartitions(g, frozenset(), "a", "c", caps=caps)
        with pytest.raises(CapExceededError, match="max_updown_bits"):
            verify_theorem(g, "a", "c", caps=caps)
        all_one = Tripartition(frozenset(), frozenset(g.edge_ids), frozenset())
        with pytest.raises(CapExceededError, match="max_updown_bits"):
            updown_f_values(g, all_one, frozenset(), "a", "c", caps=caps)

    def test_theorem_total_work_is_checked_before_building(self, monkeypatch, family):
        def no_build(*args, **kwargs):
            raise AssertionError("tripartitions were built before the caps were checked")

        monkeypatch.setattr(bunkbed.tripartitions, "enumerate_tripartitions", no_build)
        monkeypatch.setattr(bunkbed.tripartitions, "minor", no_build)
        g = family["path4"]
        # 2^5 pinned sets of 2^8 configurations each: 13 bits of kernel
        # work, though each single enumeration fits in 10.
        with pytest.raises(CapExceededError, match="max_config_bits"):
            verify_theorem(g, "a", "e", caps=Caps(max_config_bits=10))
        with pytest.raises(CapExceededError, match="max_tripartitions"):
            verify_theorem(g, "a", "e", caps=Caps(max_tripartitions=3 ** 4 - 1))

    def test_updown_cap_names_enough_before_building(self, monkeypatch):
        # The widest up/down model is the all-one-open tripartition's, on
        # every non-loop edge; the refusal must name that width, before
        # any minor or table is built.
        def no_build(*args, **kwargs):
            raise AssertionError("a minor was built before the up/down cap was checked")

        g = parse_edge_list(PATH5_TEXT)
        with monkeypatch.context() as patch:
            patch.setattr(bunkbed.tripartitions, "minor", no_build)
            patch.setattr(TripartitionTable, "build", no_build)
            for caps in (Caps(max_updown_bits=3), Caps(max_updown_bits=4)):
                with pytest.raises(CapExceededError, match="at least 5 "):
                    verify_theorem(g, "a", "f", caps=caps)
                with pytest.raises(CapExceededError, match="at least 5 "):
                    analyze_tripartitions(g, frozenset(), "a", "f", caps=caps)
        verdict, _ = verify_theorem(g, "a", "f", caps=Caps(max_updown_bits=5))
        assert verdict == FAIL  # the documented path5 mass-domination failure


def _model_keys(table, u, v, t=None):
    """Distinct reduced up/down models of the table's tripartitions.

    A model is the reduced vertex count, the endpoint images and the
    ends of the non-loop edges as vertex ranks; with a pinned set t it
    also holds the image of t.
    """
    keys = set()
    for rg, projection in zip(table.reduced, table.projections):
        rank = {x: r for r, x in enumerate(rg.vertices)}
        ends = tuple((rank[a], rank[b]) for _, a, b in rg.edges if a != b)
        image = None if t is None else sum({1 << rank[projection[w]] for w in t})
        keys.add((len(rank), rank[projection[u]], rank[projection[v]], ends, image))
    return keys


class TestModelSharing:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The (model, pinned) argument of every _outcomes call."""
        seen = []
        solve = bunkbed.tripartitions._outcomes

        def spy(n, pu, pv, domain, pinned):
            seen.append((n, pu, pv, tuple((a, b) for _, a, b in domain), pinned))
            return solve(n, pu, pv, domain, pinned)

        monkeypatch.setattr(bunkbed.tripartitions, "_outcomes", spy)
        return seen

    @pytest.mark.parametrize("text, u, v, distinct", [
        (PATH5_TEXT, "a", "f", 63),
        (SIX_VERTEX_TEXT, "u", "v", 1675),
    ])
    def test_batched_pass_solves_each_model_once(self, calls, text, u, v, distinct):
        g = parse_edge_list(text)
        table = TripartitionTable.build(g)
        keys = _model_keys(table, u, v)
        assert (len(keys), len(table.tripartitions)) == (distinct, 3 ** g.edge_count)
        list(_analyses(g, u, v, list(_pinned_sets(g)), DEFAULT_CAPS, table))
        assert len(calls) == len(set(calls)) == distinct
        assert set(calls) == keys

    def test_single_pass_solves_each_model_and_image_once(self, calls):
        for text, u, v, sets in (
            (PATH5_TEXT, "a", "f", [frozenset(), frozenset("c"), frozenset("bdf")]),
            (SIX_VERTEX_TEXT, "u", "v", [frozenset("be"), frozenset("ubcdev")]),
        ):
            g = parse_edge_list(text)
            table = TripartitionTable.build(g)
            for t in sets:
                calls.clear()
                analyze_tripartitions(g, t, u, v, table=table)
                keys = _model_keys(table, u, v, t)
                assert len(calls) == len(set(calls)) == len(keys), (text, sorted(t))
                assert set(calls) == keys


class TestPinnedSetSharing:
    """verify_theorem folds and reports each distinct pinned-set outcome once."""

    @pytest.fixture
    def folds(self, monkeypatch):
        """The number of _analysis calls so far."""
        count = [0]
        fold = bunkbed.tripartitions._analysis

        def spy(*args):
            count[0] += 1
            return fold(*args)

        monkeypatch.setattr(bunkbed.tripartitions, "_analysis", spy)
        return count

    @pytest.mark.parametrize("text, u, v, distinct", [
        (PATH5_TEXT, "a", "f", 2),
        (SIX_VERTEX_TEXT, "u", "v", 9),
    ])
    def test_folds_once_per_distinct_key(self, folds, text, u, v, distinct):
        g = parse_edge_list(text)
        verify_theorem(g, u, v)
        assert folds[0] == distinct
        verify_theorem(g, u, v)  # no cache outlives a call
        assert folds[0] == 2 * distinct

    def test_family_pass_folds_47_times(self, folds):
        for g in _lane_graphs().values():
            verify_theorem(g, g.vertices[0], g.vertices[-1])
        assert folds[0] == 47

    @staticmethod
    def _assert_reports_match(got, expected, label):
        assert len(got) == len(expected), label
        for r, s in zip(got, expected):
            for field in ("check", "verdict", "inputs", "quantities", "witnesses"):
                assert getattr(r, field) == getattr(s, field), (label, field)
            assert r.to_json_obj() == s.to_json_obj(), label

    def test_reports_match_per_set_oracle(self):
        for name, g in _lane_graphs().items():
            u, v = g.vertices[0], g.vertices[-1]
            _, reports = verify_theorem(g, u, v)
            expected = [r for t in _pinned_sets(g) for r in verify_conditioning(g, t, u, v)]
            self._assert_reports_match(reports, expected, name)
            # One memo over the call, as the CLI lowers it, gives the same data.
            memo: dict = {}
            assert [r.to_json_obj(memo) for r in reports] == [
                r.to_json_obj() for r in expected], name

    def test_sets_that_differ_only_in_an_f_sum_fold_apart(self, folds):
        # On a four-cycle with a pendant edge and u == v, two pinned sets
        # give every tripartition the same class and checks but differ in
        # one f-sum, so the key must hold the f-sums too.
        g = parse_edge_list("a b\nb c\nc d\nd a\nb e")
        _, reports = verify_theorem(g, "a", "a")
        assert folds[0] == 13
        expected = [r for t in _pinned_sets(g) for r in verify_conditioning(g, t, "a", "a")]
        self._assert_reports_match(reports, expected, "four-cycle with pendant")

    def test_six_vertex_reports_match_per_set_oracle(self):
        g = parse_edge_list(SIX_VERTEX_TEXT)
        _, reports = verify_theorem(g, "u", "v")
        for t in (frozenset(), frozenset({"b", "e"}), frozenset(g.vertices)):
            code = sum(1 << i for i, x in enumerate(g.vertices) if x in t)
            self._assert_reports_match(reports[3 * code:3 * code + 3],
                                       verify_conditioning(g, t, "u", "v"), sorted(t))


@st.composite
def multigraphs_with_loops(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    names = [f"x{i}" for i in range(n)]
    ends = st.tuples(st.sampled_from(names), st.sampled_from(names))
    edges = draw(st.lists(ends, min_size=1, max_size=4))
    g = Multigraph(tuple(names), tuple((i, a, b) for i, (a, b) in enumerate(edges)))
    u = draw(st.sampled_from(names))
    v = draw(st.sampled_from(names))
    return g, u, v


class TestLanePassRandom:
    @given(multigraphs_with_loops())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_with_loops_and_parallel_edges(self, case):
        g, u, v = case
        table = TripartitionTable.build(g)
        sets, expected = _oracle_rows(g, u, v, table)
        assert _batched(g, u, v, sets, table) == expected
        for t, analysis in zip(sets, expected):
            assert analyze_tripartitions(g, t, u, v, table=table) == analysis


@st.composite
def lane_blocks(draw):
    """Random f lanes of one block: parts of 2^w bits, a flip over the block."""
    w = draw(st.integers(min_value=0, max_value=3))
    spill = draw(st.integers(min_value=0, max_value=2))
    lane = st.integers(min_value=0, max_value=(1 << (1 << w)) - 1)
    parts = draw(st.lists(st.tuples(lane, lane, lane, lane),
                          min_size=1 << spill, max_size=1 << spill))
    flip = draw(st.integers(min_value=0, max_value=(1 << (w + spill)) - 1))
    return w, parts, flip


def _decoded(parts, w):
    f = []
    for a, b, c, d in parts:
        for m in range(1 << w):
            f.append(((a >> m) & 1) + ((b >> m) & 1) - ((c >> m) & 1) - ((d >> m) & 1))
    return f


class TestLaneArithmetic:
    @given(lane_blocks())
    @settings(max_examples=300, deadline=None)
    def test_below_marks_negative_f(self, case):
        w, parts, _ = case
        for part, values in zip(parts, zip(*[iter(_decoded(parts, w))] * (1 << w))):
            below = _below(*part)
            assert [(below >> m) & 1 == 1 for m in range(1 << w)] == [f < 0 for f in values]

    @given(lane_blocks())
    @settings(max_examples=300, deadline=None)
    def test_negates_matches_decoded_masks(self, case):
        w, parts, flip = case
        f = _decoded(parts, w)
        expected = all(f[x ^ flip] == -f[x] for x in range(len(f)))
        assert _negates(parts, flip, w) == expected

    def test_negates_holds_on_mirrored_lanes(self):
        # A block built so that the flip swaps (A, B) with (C, D).
        w, flip = 2, 0b101
        f = [0, 1, -2, 2, -1, 0, 2, -2]
        f = [f[x] if x < x ^ flip else -f[x ^ flip] for x in range(8)]
        lanes = [[0, 0, 0, 0], [0, 0, 0, 0]]
        for x, value in enumerate(f):
            bits = {2: (1, 1, 0, 0), 1: (1, 0, 0, 0), 0: (0, 0, 0, 0),
                    -1: (0, 0, 1, 0), -2: (0, 0, 1, 1)}[value]
            for lane, bit in enumerate(bits):
                lanes[x >> w][lane] |= bit << (x & 3)
        parts = [tuple(part) for part in lanes]
        assert _decoded(parts, w) == f
        assert _negates(parts, flip, w)
        assert not _negates(parts, flip ^ 0b10, w)
