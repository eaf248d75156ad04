"""Tripartition expansion, factor bounds, and the conditioned theorem."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import pytest

from bunkbed import (
    CapExceededError,
    Caps,
    DEFAULT_CAPS,
    DISCREPANCY,
    DistanceClass,
    FAIL,
    PASS,
    RationalPoly,
    Tripartition,
    TripartitionTable,
    VAR_P,
    analyze_tripartitions,
    bound_report,
    classify,
    counts_to_polynomial,
    difference_polynomial,
    enumerate_tripartitions,
    expansion_identity_check,
    mirroring_involution_check,
    parse_edge_list,
    reduced_model,
    theorem_sign_check,
    threshold_point,
    updown_difference,
    updown_f_values,
    validate_tripartition,
    verify_conditioning,
    verify_theorem,
)
from bunkbed.tripartitions import _updown_arena

poly = lambda coeffs: RationalPoly(coeffs, VAR_P)


def reference_updown_difference(g, s, t, u, v, *, caps=DEFAULT_CAPS) -> Fraction:
    """Bottom-bottom minus bottom-top connection probability, per mask.

    The union-find loop the library used before it derived the factor
    from the symmetrized indicator of updown_f_values; it counts only
    the two bottom-anchored events, so the two routes share nothing
    past the reduced model and its index arena.
    """
    model = reduced_model(g, s, t, u, v)
    index, base_parent, domain = _updown_arena(model, caps)

    def root(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    pu0 = index[(model.pu, 0)]
    pv0 = index[(model.pv, 0)]
    pv1 = index[(model.pv, 1)]
    k = len(domain)
    total = 0
    for mask in range(1 << k):
        parent = list(base_parent)
        for i, (_, a, b) in enumerate(domain):
            level = (mask >> i) & 1
            ra = root(parent, index[(a, level)])
            rb = root(parent, index[(b, level)])
            if ra != rb:
                parent[rb] = ra
        ru = root(parent, pu0)
        total += (ru == root(parent, pv0)) - (ru == root(parent, pv1))
    return Fraction(total, 1 << k)


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
        for s in enumerate_tripartitions(k2):
            key = (s.none_open, s.one_open, s.both_open)
            assert reference_updown_difference(k2, s, t, "u", "v") == expected[key]
            assert updown_difference(k2, s, t, "u", "v") == expected[key]

    def test_factor_equals_half_mean_of_f(self, family):
        for name in ("path2", "triangle", "double_edge"):
            g = family[name]
            x, y = g.vertices[0], g.vertices[-1]
            for t in (frozenset(), frozenset({g.vertices[0]}), frozenset(g.vertices)):
                for s in enumerate_tripartitions(g):
                    F = reference_updown_difference(g, s, t, x, y)
                    _, values = updown_f_values(g, s, t, x, y)
                    assert F == Fraction(sum(values), 2 * len(values))
                    assert updown_difference(g, s, t, x, y) == F

    def test_f_sum_is_even(self, family):
        # Flipping every edge's level maps a mask to its complement and
        # keeps f, so the integer expansion may halve the sum exactly.
        for name, g in family.items():
            table = TripartitionTable.build(g)
            x, y = g.vertices[0], g.vertices[-1]
            for t in _pinned_sets(g):
                for i, s in enumerate(table.tripartitions):
                    model = table.model(i, t, x, y)
                    _, values = updown_f_values(g, s, t, x, y, model=model)
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
            updown_difference(
                g, all_one, frozenset(), "a", "c", caps=Caps(max_updown_bits=3)
            )


class TestClassify:
    def test_k2_classes(self, k2):
        by_key = {}
        for s in enumerate_tripartitions(k2):
            cls, d = classify(k2, s, frozenset(), "u", "v")
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
        assert report.quantities["expansion_sum"].is_zero

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
        g = family["path2"]
        t = frozenset({"b"})
        checked = 0
        for s in enumerate_tripartitions(g):
            cls, _ = classify(g, s, t, "a", "c")
            assert cls == DistanceClass.UNREACHABLE
            report = mirroring_involution_check(g, s, t, "a", "c")
            assert report.verdict == PASS
            assert report.quantities["factor"] == 0
            checked += 1
        assert checked == 9

    def test_rejects_reachable_tripartition(self, k2):
        s = Tripartition(
            none_open=frozenset(), one_open=frozenset({0}), both_open=frozenset()
        )
        with pytest.raises(ValueError):
            mirroring_involution_check(k2, s, frozenset(), "u", "v")


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
