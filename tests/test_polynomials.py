"""Exact polynomial arithmetic: ring laws, evaluation, reparameterization."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunkbed import (
    RationalPoly,
    VAR_P,
    VAR_Q,
    VariableMismatchError,
    format_fraction,
    parse_fraction,
)

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
polys = st.lists(fractions, max_size=6).map(
    lambda cs: RationalPoly(cs, VAR_P)
)
int_lists = st.lists(st.integers(min_value=-10 ** 30, max_value=10 ** 30), max_size=8)
points = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=16
)


def expand_one_minus_x_power(k: int) -> RationalPoly:
    """Binomial expansion of (1-x)^k, written without RationalPoly.**."""
    from math import comb

    coeffs = [Fraction((-1) ** j * comb(k, j)) for j in range(k + 1)]
    return RationalPoly(coeffs, VAR_Q)


def reparam_by_binomial(poly: RationalPoly) -> RationalPoly:
    """Independent substitution p -> 1-q via explicit binomial sums."""
    out = RationalPoly.zero(VAR_Q)
    for k, c in enumerate(poly.coeffs):
        out = out + expand_one_minus_x_power(k) * c
    return out


class TestRingLaws:
    @given(polys, polys)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys, polys)
    @settings(max_examples=50)
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys)
    def test_additive_inverse(self, a):
        assert a - a == RationalPoly.zero(VAR_P)

    @given(polys)
    def test_one_is_identity(self, a):
        assert a * RationalPoly.one(VAR_P) == a

    @given(polys, points)
    def test_evaluation_is_ring_homomorphism(self, a, x):
        b = RationalPoly([Fraction(1), Fraction(-2), Fraction(3)], VAR_P)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


class TestStructure:
    def test_zero_has_degree_minus_one(self):
        assert RationalPoly.zero(VAR_P).degree == -1
        assert RationalPoly.zero(VAR_P).is_zero()

    def test_trailing_zeros_normalized(self):
        a = RationalPoly([Fraction(1), Fraction(0), Fraction(0)], VAR_P)
        assert a.degree == 0
        assert a == RationalPoly.constant(Fraction(1), VAR_P)

    def test_variable_and_monomial(self):
        x = RationalPoly.variable(VAR_P)
        assert x ** 3 == RationalPoly.monomial(3, Fraction(1), VAR_P)
        assert (x ** 3).degree == 3

    def test_mixed_variables_rejected(self):
        a = RationalPoly.variable(VAR_P)
        b = RationalPoly.variable(VAR_Q)
        with pytest.raises(VariableMismatchError):
            a + b
        with pytest.raises(VariableMismatchError):
            a * b

    def test_scalar_mixing(self):
        x = RationalPoly.variable(VAR_P)
        assert (x * 2).coeff(1) == 2
        assert (x + Fraction(1, 2)).coeff(0) == Fraction(1, 2)

    def test_immutable(self):
        a = RationalPoly.one(VAR_P)
        with pytest.raises(AttributeError):
            a.coeffs = ()

    @given(polys)
    def test_hash_consistent_with_eq(self, a):
        b = RationalPoly(list(a.coeffs), a.var)
        assert a == b and hash(a) == hash(b)


class TestCoefficientRepresentation:
    """Int coefficients stay int, and are indistinguishable from equal Fractions."""

    @given(int_lists, st.sampled_from((VAR_P, VAR_Q)))
    def test_int_and_fraction_coefficients_agree(self, cs, var):
        a = RationalPoly(cs, var)
        b = RationalPoly([Fraction(c) for c in cs], var)
        assert a == b and hash(a) == hash(b)
        assert str(a) == str(b)
        assert repr(a) == repr(b)
        assert a.to_json_obj() == b.to_json_obj()
        for k in range(len(cs) + 2):
            assert type(a.coeff(k)) is Fraction and type(b.coeff(k)) is Fraction
            assert a.coeff(k) == b.coeff(k)

    @given(int_lists, int_lists)
    def test_ring_operations_keep_ints(self, xs, ys):
        a, b = RationalPoly(xs, VAR_Q), RationalPoly(ys, VAR_Q)
        for result in (a + b, a - b, -a, a * b, 3 * a, a.reparam().reparam()):
            assert all(type(c) is int for c in result.coeffs)

    @given(int_lists, polys)
    def test_mixed_arithmetic_matches_fractions(self, cs, b):
        a = RationalPoly(cs, VAR_P)
        f = RationalPoly([Fraction(c) for c in cs], VAR_P)
        assert a + b == f + b
        assert a * b == f * b
        assert a * Fraction(1, 3) == f * Fraction(1, 3)


class TestReparam:
    @given(polys)
    def test_involution(self, a):
        assert a.reparam().reparam() == a

    @given(polys)
    def test_agrees_with_binomial_expansion(self, a):
        assert a.reparam() == reparam_by_binomial(a)

    @given(polys, polys)
    def test_ring_homomorphism(self, a, b):
        assert (a + b).reparam() == a.reparam() + b.reparam()
        assert (a * b).reparam() == a.reparam() * b.reparam()

    @given(polys, points)
    def test_evaluation_swap(self, a, x):
        assert a.reparam().evaluate(1 - x) == a.evaluate(x)

    def test_variable_tag_flips(self):
        a = RationalPoly.variable(VAR_P)
        assert a.reparam().var == VAR_Q

    def test_frozen_example(self):
        # p - 2p^2 + p^3 = p(1-p)^2 becomes (1-q)q^2 = q^2 - q^3.
        a = RationalPoly([0, 1, -2, 1], VAR_P)
        expected = RationalPoly([0, 0, 1, -1], VAR_Q)
        assert a.reparam() == expected
        assert reparam_by_binomial(a) == expected


class TestSerialization:
    def test_format_and_parse_round_trip(self):
        for f in (Fraction(0), Fraction(-3, 7), Fraction(22, 4)):
            assert parse_fraction(format_fraction(f)) == f

    def test_format_is_canonical(self):
        assert format_fraction(Fraction(22, 4)) == "11/2"
        assert format_fraction(Fraction(0)) == "0/1"
        assert format_fraction(Fraction(-1, 2)) == "-1/2"

    def test_json_obj(self):
        a = RationalPoly([Fraction(1, 2), Fraction(-1)], VAR_P)
        assert a.to_json_obj() == {
            "variable": "p",
            "coefficients": ["1/2", "-1/1"],
        }
