"""Closed forms on the two-level path: recursion, gap, series, limit."""

from __future__ import annotations

import decimal
import itertools
from decimal import Decimal
from fractions import Fraction
from math import isqrt
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunkbed import (
    PARTIAL,
    PASS,
    RationalPoly,
    VAR_Q,
    bunkbed_vertex,
    connection_query_polynomials,
    gap_check,
    gap_polynomial,
    gaussian_limit,
    iter_line_quantities,
    line_quantities,
    series_check,
)
from bunkbed.line import LineQuantities, _exact_point, gap_holds
from conftest import path_graph, reparam_by_binomial

qpoly = lambda coeffs: RationalPoly(coeffs, VAR_Q)


# Reference oracle: the line recursion in Fraction/RationalPoly arithmetic,
# sharing no code with the library's integer route.  It runs on the
# polynomial variable or on one Fraction q, and carries the gap as a product.
def reference_line_recursion(q) -> Iterator[tuple]:
    """Yield (both, exactly_one, bottom_only, top_only, gap) for n = 0, 1, ...

    q is either the variable polynomial in q or an exact Fraction; the
    recursion uses only ring operations, so the scalar route yields the
    polynomials evaluated at that point, exactly.  The gap is carried in
    the product form gap_{n+1} = gap_n * q(1-q) of its closed form.
    """
    p = 1 - q
    step_only = q * p          # survive one rung reaching the same side
    step_cross = q * q * p     # enter from the both-reached state
    both_keep = (1 + 2 * q) * p * p
    both_from_one = p * p
    one_from_both = 2 * q * q * p
    one_keep = q * p

    bottom_only, top_only, both, exactly_one, gap = q, 0 * q, p, q, q
    while True:
        yield both, exactly_one, bottom_only, top_only, gap
        bottom_only, top_only, both, exactly_one = (
            step_only * bottom_only + step_cross * both,
            step_only * top_only + step_cross * both,
            both_keep * both + both_from_one * exactly_one,
            one_from_both * both + one_keep * exactly_one,
        )
        gap = gap * step_only


def reference_ends(both, exactly_one, gap) -> tuple:
    """Reconstruct (to_bottom, to_top) from the both/exactly-one pair and the gap."""
    half = Fraction(1, 2)
    total = 2 * both + exactly_one
    return (total + gap) * half, (total - gap) * half


def reference_line_quantities(max_n: int) -> Iterator[tuple[LineQuantities, RationalPoly]]:
    """(LineQuantities, gap) for n = 0, ..., max_n on the oracle recursion."""
    recursion = reference_line_recursion(RationalPoly.variable(VAR_Q))
    for n, (both, exactly_one, bottom_only, top_only, gap) in zip(range(max_n + 1), recursion):
        to_bottom, to_top = reference_ends(both, exactly_one, gap)
        yield LineQuantities(n, to_bottom, to_top, both, exactly_one, bottom_only, top_only), gap


def reference_point(n: int, q: Fraction) -> tuple[Fraction, Fraction]:
    """(to_bottom, gap) at the scalar q on the oracle recursion."""
    both, exactly_one, _, _, gap = next(itertools.islice(reference_line_recursion(q), n, None))
    return reference_ends(both, exactly_one, gap)[0], gap


def decimal50(x: Fraction) -> Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return Decimal(x.numerator) / Decimal(x.denominator)


class TestBaseCase:
    def test_n0_values(self):
        lq = line_quantities(0)
        assert lq.to_bottom_only == qpoly([0, 1])
        assert lq.to_top_only.is_zero()
        assert lq.to_both == qpoly([1, -1])
        assert lq.to_exactly_one == qpoly([0, 1])
        assert lq.to_bottom == qpoly([1])
        assert lq.to_top == qpoly([1, -1])

    def test_n1_frozen(self):
        lq = line_quantities(1)
        assert lq.to_bottom == qpoly([1, 0, -3, 3, -1])
        assert lq.to_top == qpoly([1, 0, -4, 4, -1])


class TestInternalIdentities:
    MAX_N = 64

    def test_decompositions_hold_along_the_recursion(self):
        for n, lq in zip(range(self.MAX_N + 1), iter_line_quantities(self.MAX_N)):
            assert lq.n == n
            assert lq.to_bottom == lq.to_both + lq.to_bottom_only
            assert lq.to_top == lq.to_both + lq.to_top_only
            assert lq.to_exactly_one == lq.to_bottom_only + lq.to_top_only
            assert lq.to_bottom - lq.to_top == gap_polynomial(n)

    def test_gap_is_end_exclusivity_difference(self):
        # Second route to the same closed form, so the identity is not
        # circular: the two reconstruction formulas must agree.
        for lq in iter_line_quantities(16):
            assert lq.to_bottom_only - lq.to_top_only == gap_polynomial(lq.n)

    def test_quantities_and_gap_equal_oracle(self):
        for (ref, ref_gap), lq in zip(reference_line_quantities(60), iter_line_quantities(60)):
            assert lq == ref
            assert line_quantities(lq.n) == ref
            assert gap_polynomial(lq.n) == ref_gap

    def test_iterator_matches_single_call(self):
        from_iter = list(iter_line_quantities(6))
        for n in range(7):
            assert line_quantities(n) == from_iter[n]

    def test_values_are_probabilities(self):
        for n in (0, 1, 5, 12):
            lq = line_quantities(n)
            for k in range(17):
                q = Fraction(k, 16)
                for quantity in (
                    lq.to_bottom,
                    lq.to_top,
                    lq.to_both,
                    lq.to_exactly_one,
                    lq.to_bottom_only,
                    lq.to_top_only,
                ):
                    assert 0 <= quantity.evaluate(q) <= 1, (n, k)


class TestGapCheck:
    @pytest.mark.parametrize("n", range(7))
    def test_holds(self, n):
        assert gap_check(n) is True

    def test_gap_holds_rejects_wrong_quantities(self):
        lq = line_quantities(6)
        assert gap_holds(lq, gap_polynomial(6))
        assert not gap_holds(lq, gap_polynomial(5))
        assert not gap_holds(
            LineQuantities(6, lq.to_bottom, lq.to_top, lq.to_both, lq.to_exactly_one,
                           lq.to_bottom_only, lq.to_bottom_only), gap_polynomial(6))

    def test_gap_polynomial_shape(self):
        assert gap_polynomial(0) == qpoly([0, 1])
        assert gap_polynomial(1) == qpoly([0, 0, 1, -1])
        assert gap_polynomial(2).degree == 5


class TestEnumerationAgreement:
    @pytest.mark.parametrize("n", range(5))
    def test_all_six_quantities_match_exact_engine(self, n):
        lq = line_quantities(n)
        g = path_graph(n)
        start = bunkbed_vertex(g.vertices[0], 0)
        end0 = bunkbed_vertex(g.vertices[-1], 0)
        end1 = bunkbed_vertex(g.vertices[-1], 1)
        to_bottom, to_top, to_both = (
            reparam_by_binomial(poly)
            for poly in connection_query_polynomials(
                g,
                [((start, end0),), ((start, end1),), ((start, end0), (start, end1))],
                pinned=None,
            )
        )
        assert lq.to_bottom == to_bottom
        assert lq.to_top == to_top
        assert lq.to_both == to_both
        assert lq.to_exactly_one == to_bottom + to_top - to_both * 2
        assert lq.to_bottom_only == to_bottom - to_both
        assert lq.to_top_only == to_top - to_both


class TestSeries:
    def test_known_orders_pass(self):
        for n in (5, 8, 12):
            assert series_check(n).verdict == PASS

    def test_small_n_is_partial(self):
        assert series_check(3).verdict == PARTIAL

    def test_frozen_coefficients_n5(self):
        lq = line_quantities(5)
        assert [lq.to_bottom.coeff(k) for k in range(6)] == [1, 0, -7, -8, 35, 54]
        assert [lq.to_both.coeff(k) for k in range(6)] == [1, 0, -8, -8, 43, 60]
        assert [lq.to_exactly_one.coeff(k) for k in range(6)] == [0, 0, 2, 0, -16, -12]


class TestGaussianLimit:
    def test_exact_square_argument(self):
        r = gaussian_limit(4, Fraction(1))
        assert r.q == Fraction(1, 2)
        lq = line_quantities(4)
        exact = lq.to_bottom.evaluate(Fraction(1, 2))
        assert abs(Decimal(exact.numerator) / Decimal(exact.denominator) - r.value) < (
            Decimal(10) ** -30
        )

    def test_error_is_consistent(self):
        import decimal

        r = gaussian_limit(9, Fraction(1))
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            assert r.absolute_error == abs(r.value - r.target)
        assert r.gap_bound >= 0

    def test_rejects_argument_outside_unit_interval(self, monkeypatch):
        def no_recursion(q):
            raise AssertionError("recursion ran before the range check")

        monkeypatch.setattr("bunkbed.line._line_recursion", no_recursion)
        with pytest.raises(ValueError):
            gaussian_limit(1, Fraction(2))
        with pytest.raises(ValueError):
            gaussian_limit(4, Fraction(0))

    @pytest.mark.parametrize("n", [2, 4, 5, 9, 12, 50])
    def test_scalar_route_equals_polynomial_route(self, n):
        # The oracle's polynomials are the reference: the integer scalar
        # recursion must give the very same rationals, hence the same
        # 50-digit decimals.
        lq, gap = list(reference_line_quantities(n))[n]
        for lam in (Fraction(1), Fraction(1, 2)):
            r = gaussian_limit(n, lam)
            root = isqrt(n)
            if root * root == n:
                assert r.q == lam / root
            else:
                assert r.q.denominator <= 10 ** 40
                with decimal.localcontext() as ctx:
                    ctx.prec = 60
                    exact = Decimal(lam.numerator) / Decimal(lam.denominator) / Decimal(n).sqrt()
                    assert abs(decimal50(r.q) - exact) < exact * Decimal(10) ** -30
            assert r.value == decimal50(lq.to_bottom.evaluate(r.q))
            assert r.gap_bound == decimal50(gap.evaluate(r.q))

    @pytest.mark.parametrize("n, lam", [
        *((n, lam) for n in (1, 2, 4, 5, 9, 12, 50, 60, 200)
          for lam in ("1", "1/2") if Fraction(lam) ** 2 < n),
        (2, "7/5"),  # q close to 1
    ])
    def test_exact_point_equals_scalar_oracle(self, n, lam):
        r = gaussian_limit(n, Fraction(lam))
        value, gap = _exact_point(n, r.q)
        assert (value, gap) == reference_point(n, r.q)
        assert (r.value, r.gap_bound) == (decimal50(value), decimal50(gap))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 20), q=st.fractions(min_value=0, max_value=1, max_denominator=10 ** 12)
           .filter(lambda q: 0 < q < 1))
    def test_exact_point_on_random_rationals(self, n, q):
        assert _exact_point(n, q) == reference_point(n, q)
