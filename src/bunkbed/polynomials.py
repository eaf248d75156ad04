"""Exact univariate polynomials over the rationals, tagged by variable.

Every identity checked by this package reduces to equality of such
polynomials, so each coefficient is an int or a fractions.Fraction,
equal by value, and no floating point ever enters an identity path.
The variable tag records whether a polynomial is written in the
retention probability p or in q = 1 - p; mixing tags is an error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

VAR_P = "p"
VAR_Q = "q"
_VARS = (VAR_P, VAR_Q)

Coefficient = Union[Fraction, int]


class VariableMismatchError(ValueError):
    """Combination of polynomials carrying different variable tags."""


def format_fraction(value: Coefficient) -> str:
    """Canonical num/den string, lowest terms, positive denominator."""
    if type(value) is int:
        return f"{value}/1"
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _strip(coeffs: list[Coefficient]) -> tuple[Coefficient, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly(coeffs: list[Coefficient], var: str) -> "RationalPoly":
    """A RationalPoly from coefficients that are already int or Fraction."""
    poly = object.__new__(RationalPoly)
    object.__setattr__(poly, "coeffs", _strip(coeffs))
    object.__setattr__(poly, "var", var)
    return poly


class RationalPoly:
    """Dense polynomial with exact rational coefficients.

    coeffs[k] is the coefficient of x**k where x is the tagged variable.
    Each coefficient is an int or a Fraction: int inputs stay int, any
    other input becomes Fraction(c), and the two are equal by value, so
    equality, hashing and every printed form do not depend on which one
    a coefficient is.  Trailing zero coefficients are stripped, so the
    zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Coefficient] = (), var: str = VAR_P):
        if var not in _VARS:
            raise ValueError(f"unknown variable tag {var!r}")
        object.__setattr__(
            self, "coeffs", _strip([c if type(c) is int else Fraction(c) for c in coeffs])
        )
        object.__setattr__(self, "var", var)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalPoly is immutable")

    @classmethod
    def zero(cls, var: str = VAR_P) -> "RationalPoly":
        return cls((), var)

    @classmethod
    def one(cls, var: str = VAR_P) -> "RationalPoly":
        return cls((1,), var)

    @classmethod
    def constant(cls, value: Coefficient, var: str = VAR_P) -> "RationalPoly":
        return cls((value,), var)

    @classmethod
    def variable(cls, var: str = VAR_P) -> "RationalPoly":
        """The monomial x."""
        return cls((0, 1), var)

    @classmethod
    def monomial(cls, degree: int, value: Coefficient = 1, var: str = VAR_P) -> "RationalPoly":
        return cls([0] * degree + [value], var)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k; zero beyond the degree."""
        if k < 0:
            raise ValueError("coefficient index must be nonnegative")
        if k < len(self.coeffs):
            return Fraction(self.coeffs[k])
        return Fraction(0)

    def _check_var(self, other: "RationalPoly") -> None:
        if self.var != other.var:
            raise VariableMismatchError(
                f"cannot combine a {self.var}-polynomial with a {other.var}-polynomial"
            )

    def __add__(self, other: object) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.constant(other, self.var)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _poly([x + y for x, y in zip(a, b)] + list(a[len(b):]), self.var)

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return _poly([-c for c in self.coeffs], self.var)

    def __sub__(self, other: object) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.constant(other, self.var)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "RationalPoly":
        return (-self) + other

    def __mul__(self, other: object) -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return _poly([c * other for c in self.coeffs], self.var)
        self._check_var(other)
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        if not a:
            return RationalPoly.zero(self.var)
        # One pass over the longer factor per nonzero coefficient of the shorter.
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                end = i + len(b)
                out[i:end] = [o + ca * cb for o, cb in zip(out[i:end], b)]
        return _poly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPoly":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = RationalPoly.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.constant(other, self.var)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.var, self.coeffs))

    def evaluate(self, x: Coefficient) -> Fraction:
        """Exact evaluation at a rational point, by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json_obj(self) -> dict:
        return {
            "variable": self.var,
            "coefficients": [format_fraction(c) for c in self.coeffs],
        }

    def __repr__(self) -> str:
        return f"RationalPoly({[str(c) for c in self.coeffs]}, {self.var!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                mag = c.numerator if c.denominator == 1 else c
                x = self.var if k == 1 else f"{self.var}^{k}"
                term = x if mag == 1 else f"-{x}" if mag == -1 else f"{mag}*{x}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term.lstrip("-"))
            else:
                parts.append(term)
        return " ".join(parts)

