"""Exact univariate polynomials over the rationals, tagged by variable.

Every identity checked by this package reduces to equality of such
polynomials, so coefficients are fractions.Fraction throughout and no
floating point ever enters an identity path.  The variable tag records
whether a polynomial is written in the retention probability p or in
q = 1 - p; mixing tags is an error, and reparam() converts between them.
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


def format_fraction(value: Fraction) -> str:
    """Canonical num/den string, lowest terms, positive denominator."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class RationalPoly:
    """Dense polynomial with exact rational coefficients.

    coeffs[k] is the coefficient of x**k where x is the tagged variable.
    The representation is canonical: trailing zero coefficients are
    stripped, so the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Coefficient] = (), var: str = VAR_P):
        if var not in _VARS:
            raise ValueError(f"unknown variable tag {var!r}")
        object.__setattr__(self, "coeffs", _strip([Fraction(c) for c in coeffs]))
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
            return self.coeffs[k]
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
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out, self.var)

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other: object) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.constant(other, self.var)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "RationalPoly":
        return (-self) + other

    def __mul__(self, other: object) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            return RationalPoly([c * other for c in self.coeffs], self.var)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPoly.zero(self.var)
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return RationalPoly(out, self.var)

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

    def reparam(self) -> "RationalPoly":
        """Substitute x <- 1 - x and flip the variable tag.

        Writing f(p) in terms of q = 1 - p (or back); an involution and a
        ring homomorphism.
        """
        new_var = VAR_Q if self.var == VAR_P else VAR_P
        # Horner in (1 - x): acc <- acc * (1 - x) + c_k, exactly.
        acc: list[Fraction] = []
        for c in reversed(self.coeffs):
            nxt = [Fraction(0)] * (len(acc) + 1)
            for i, a in enumerate(acc):
                nxt[i] += a
                nxt[i + 1] -= a
            nxt[0] += c
            acc = nxt
            while acc and acc[-1] == 0:
                acc.pop()
        return RationalPoly(acc, new_var)

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

