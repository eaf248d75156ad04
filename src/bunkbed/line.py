"""Closed-form connection quantities on the two-level path.

For the path with n edges, six connection probabilities from the bottom
start vertex admit an exact recursion in q = 1 - p: reaching the bottom
end, the top end, both, exactly one, and the two only-one variants.
The recursion tracks the both/exactly-one pair and the two only-one
quantities; the plain end-to-end probabilities are reconstructed from
the closed-form gap, whose correctness is checked against the
independently tracked only-one recursion and against full enumeration.

Near q = 0 the reconstructed quantities have pinned series coefficients,
and along q = lambda/sqrt(n) the bottom-to-bottom probability tends to
exp(-lambda^2); both facts are exposed as checks here.  One recursion
serves both, on plain integers: it runs on RationalPoly in q, whose
coefficients stay int, for the closed forms, and for the Gaussian point
q = a/b on integer numerators over a power of b, so no gcd is taken
until the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from math import comb, isqrt
from typing import Iterator

from .polynomials import VAR_Q, RationalPoly
from .reports import FAIL, PARTIAL, PASS, VerificationReport

_DECIMAL_PRECISION = 50
# Continued-fraction approximation budget for irrational sqrt(n).
_APPROX_DENOMINATOR = 10 ** 40


@dataclass(frozen=True)
class LineQuantities:
    """Connection probabilities from the bottom start of the length-n path.

    All polynomials are in q = 1 - p.  to_bottom and to_top are the
    probabilities of reaching the bottom and top copies of the far end;
    to_both and to_exactly_one refine them; to_bottom_only and
    to_top_only are the corresponding exclusive events.
    """

    n: int
    to_bottom: RationalPoly
    to_top: RationalPoly
    to_both: RationalPoly
    to_exactly_one: RationalPoly
    to_bottom_only: RationalPoly
    to_top_only: RationalPoly


# (a, b, c) = (q, 1, 1 - q): _line_recursion on the polynomials themselves.
_POLY_POINT = tuple(RationalPoly(c, VAR_Q) for c in ((0, 1), (1,), (1, -1)))


def gap_polynomial(n: int) -> RationalPoly:
    """Closed form q^(n+1) (1-q)^n for to_bottom - to_top, by the binomial theorem."""
    return RationalPoly([0] * (n + 1) + [(-1) ** k * comb(n, k) for k in range(n + 1)], VAR_Q)


def _line_recursion(a, b, c) -> Iterator[tuple]:
    """Yield (both, exactly_one, bottom_only, top_only) for n = 0, 1, ...

    With q = a/b and 1 - q = c/b every step multiplies by polynomials of
    degree at most three in q, written here as cubic forms in a, b, c, so
    the state at step n is the numerators over b^(3n+1).  Integers give
    the scalar route; _POLY_POINT gives the polynomials themselves.
    """
    step_only = a * b * c      # q(1-q): survive one rung reaching the same side
    step_cross = a * a * c     # q^2(1-q): enter from the both-reached state
    both_keep = (b + 2 * a) * c * c
    both_from_one = b * c * c
    one_keep = step_only

    bottom_only, top_only, both, exactly_one = a, 0 * a, c, a
    while True:
        yield both, exactly_one, bottom_only, top_only
        cross = step_cross * both  # from both reached to one side reached
        bottom_only, top_only, both, exactly_one = (
            step_only * bottom_only + cross,
            step_only * top_only + cross,
            both_keep * both + both_from_one * exactly_one,
            2 * cross + one_keep * exactly_one,
        )


def _doubled_ends(both, exactly_one, gap) -> tuple:
    """(2 to_bottom, 2 to_top) from the both/exactly-one pair and the gap."""
    total = 2 * both + exactly_one
    return total + gap, total - gap


def _quantities(n: int, both, exactly_one, bottom_only, top_only) -> LineQuantities:
    """LineQuantities from the polynomial route's state at step n."""
    ends = _doubled_ends(both, exactly_one, gap_polynomial(n))
    to_bottom, to_top = (e * Fraction(1, 2) for e in ends)
    return LineQuantities(n, to_bottom, to_top, both, exactly_one, bottom_only, top_only)


def iter_line_quantities(max_n: int) -> Iterator[LineQuantities]:
    """Yield LineQuantities for n = 0, 1, ..., max_n at incremental cost."""
    for n, state in zip(range(max_n + 1), _line_recursion(*_POLY_POINT)):
        yield _quantities(n, *state)


def line_quantities(n: int) -> LineQuantities:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _quantities(n, *next(islice(_line_recursion(*_POLY_POINT), n, None)))


def gap_check(n: int) -> bool:
    """The reconstruction gap agrees with the only-one recursion difference."""
    return gap_holds(line_quantities(n), gap_polynomial(n))


def gap_holds(lq: LineQuantities, gap: RationalPoly) -> bool:
    """gap_check on already computed quantities and gap."""
    return (
        lq.to_bottom - lq.to_top == gap
        and lq.to_bottom_only - lq.to_top_only == gap
    )


def _series_table(n: int) -> dict[str, list[Fraction]]:
    """Pinned series coefficients through order five, exact for n >= 5."""
    f = Fraction
    return {
        "to_bottom": [f(1), f(0), f(-(n + 2)), f(-2 * (n - 1)),
                      f(n * n + 7 * n + 10, 2), f(2 * (n * n + 2 * n - 8))],
        "to_top": [f(1), f(0), f(-(n + 2)), f(-2 * (n - 1)),
                   f(n * n + 7 * n + 10, 2), f(2 * (n * n + 2 * n - 8))],
        "to_both": [f(1), f(0), f(-(n + 3)), f(-2 * (n - 1)),
                    f(n * n + 9 * n + 16, 2), f(2 * (n * n + 3 * n - 10))],
        "to_exactly_one": [f(0), f(0), f(2), f(0),
                           f(-2 * (n + 3)), f(-4 * (n - 2))],
    }


def series_check(n: int) -> VerificationReport:
    """Compare computed low-order coefficients against the pinned table.

    The table is exact only up to order n, so for n < 5 the comparison
    stops at order n and the verdict is PARTIAL.
    """
    return series_report(line_quantities(n))


def series_report(lq: LineQuantities) -> VerificationReport:
    """series_check on already computed quantities."""
    n = lq.n
    table = _series_table(n)
    limit = min(5, n)
    mismatches = []
    checked = {}
    for name, expected in table.items():
        poly: RationalPoly = getattr(lq, name)
        got = [poly.coeff(k) for k in range(limit + 1)]
        checked[name] = got
        for k in range(limit + 1):
            if got[k] != expected[k]:
                mismatches.append({"quantity": name, "order": k,
                                   "expected": expected[k], "got": got[k]})
    if mismatches:
        verdict = FAIL
    elif n < 5:
        verdict = PARTIAL
    else:
        verdict = PASS
    return VerificationReport(
        check="line_series",
        verdict=verdict,
        inputs={"n": n},
        quantities={"orders_checked": limit, "coefficients": checked},
        witnesses={"mismatches": mismatches},
    )


def _approx_lambda_over_sqrt(lam: Fraction, n: int) -> Fraction:
    """Rational lambda/sqrt(n) with relative error well under 1e-30."""
    if n <= 0:
        raise ValueError("n must be positive")
    root = isqrt(n)
    if root * root == n:
        return lam / root
    # lambda/sqrt(n) = lambda*sqrt(n)/n; floor sqrt at 40 digits, then
    # take the best continued-fraction approximant under the budget.
    scale = 10 ** 40
    r = isqrt(n * scale * scale)
    approx = Fraction(lam.numerator * r, lam.denominator * n * scale)
    return approx.limit_denominator(_APPROX_DENOMINATOR)


@dataclass(frozen=True)
class GaussianLimitResult:
    """Evaluation of the bottom connection probability at q ~ lambda/sqrt(n)."""

    n: int
    lam: Fraction
    q: Fraction
    value: Decimal
    target: Decimal
    gap_bound: Decimal
    absolute_error: Decimal


def _exact_point(n: int, q: Fraction) -> tuple[Fraction, Fraction]:
    """Exact (to_bottom, gap) of the length-n path at the rational q.

    With q = a/b the recursion runs on integer numerators over b^(3n+1)
    and the gap is a^(n+1) (b-a)^n / b^(2n+1); one Fraction is built for
    each result, so no gcd is taken along the way.
    """
    a, b = q.numerator, q.denominator
    c = b - a
    both, exactly_one, _, _ = next(islice(_line_recursion(a, b, c), n, None))
    gap = a ** (n + 1) * c ** n
    twice_bottom, _ = _doubled_ends(both, exactly_one, gap * b ** n)
    return Fraction(twice_bottom, 2 * b ** (3 * n + 1)), Fraction(gap, b ** (2 * n + 1))


def gaussian_limit(n: int, lam: Fraction) -> GaussianLimitResult:
    """Exact evaluation against the limiting value exp(-lambda^2).

    value and gap_bound equal line_quantities(n).to_bottom and
    gap_polynomial(n) evaluated at q (see _exact_point), rounded to 50
    significant digits.  lambda/sqrt(n) outside (0, 1) raises ValueError
    before the recursion starts.
    """
    lam = Fraction(lam)
    q = _approx_lambda_over_sqrt(lam, n)
    if not 0 < q < 1:
        raise ValueError(f"lambda/sqrt(n) = {q} falls outside (0, 1)")
    value_exact, gap_exact = _exact_point(n, q)
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_PRECISION
        value = Decimal(value_exact.numerator) / Decimal(value_exact.denominator)
        gap_bound = Decimal(gap_exact.numerator) / Decimal(gap_exact.denominator)
        lam2 = lam * lam
        target = (-Decimal(lam2.numerator) / Decimal(lam2.denominator)).exp()
        error = abs(value - target)
    return GaussianLimitResult(
        n=n, lam=lam, q=q, value=value, target=target,
        gap_bound=gap_bound, absolute_error=error,
    )
