"""Exact univariate polynomial arithmetic, norms and structural predicates.

Coefficients are stored as `fractions.Fraction` in ascending order (constant
term first).  All arithmetic here is exact except `horner`, the one
machine-float evaluator; approximate quantities (Mahler measure, sup-norm)
live in :mod:`mahlerlab.measure`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "Polynomial",
    "NormBundle",
    "StructureFlags",
    "norms",
    "reciprocal",
    "structural_flags",
    "support_flags",
]


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"coefficient {c!r} is not exact (int, Fraction or string)")


class Polynomial:
    """Dense exact polynomial; immutable, trailing zeros trimmed on construction.

    >>> Polynomial([1, 1, 1])
    Polynomial('x^2 + x + 1')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the true leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_self_reciprocal(self) -> bool:
        """a_j = a_(d-j) for every j: P equals its reciprocal x^d P(1/x)."""
        return self.coeffs == self.coeffs[::-1]

    def __getitem__(self, j: int) -> Fraction:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # rebuild through __init__: unpickling by attribute assignment would
        # hit __setattr__, so records could not come back from worker processes
        return Polynomial, (self.coeffs,)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_roots(cls, roots: Sequence, lead=1) -> "Polynomial":
        """Expand lead * prod (x - r) exactly; roots must be exact rationals."""
        p = cls([lead])
        for r in roots:
            p = p * cls([-_as_fraction(r), 1])
        return p

    @classmethod
    def x_power(cls, d: int) -> "Polynomial":
        return cls([0] * d + [1])

    # -- exact arithmetic --------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[j] + other[j] for j in range(n)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[j] - other[j] for j in range(n)])

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact euclidean division over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial([]), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def divides(self, other: "Polynomial") -> bool:
        return (other % self).is_zero()

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Exact composition self(inner(x)) by Horner over polynomials."""
        out = Polynomial([])
        for c in reversed(self.coeffs):
            out = out * inner + Polynomial([c])
        return out

    def derivative(self) -> "Polynomial":
        return Polynomial([j * c for j, c in enumerate(self.coeffs)][1:])

    def substitute_neg_x(self) -> "Polynomial":
        """P(-x), exact."""
        return Polynomial([c if j % 2 == 0 else -c for j, c in enumerate(self.coeffs)])

    def eval_exact(self, x) -> Fraction:
        """Evaluate at an exact rational point."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        """gcd of integer coefficients (0 for the zero polynomial)."""
        if not self.is_integer():
            raise ValueError("content requires integer coefficients")
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c.numerator))
        return g

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial('0')"
        terms = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                x = "x" if j == 1 else f"x^{j}"
                body = x if mag == 1 else f"{mag}*{x}"
            terms.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(terms)
        s = s[2:] if s.startswith("+ ") else "-" + s[2:]
        return f"Polynomial('{s}')"


@dataclass(frozen=True)
class NormBundle:
    """Exact coefficient norms."""

    H: Fraction
    L: Fraction
    L2sq: Fraction

    @property
    def L2(self) -> float:
        return math.sqrt(self.L2sq)


@dataclass(frozen=True)
class StructureFlags:
    self_reciprocal: bool
    primitive_c1: bool | None
    sign_c2: bool | None
    content: int | None
    vanishes_at_0: bool
    vanishes_at_1: bool
    vanishes_at_minus1: bool
    # largest g >= 2 with P = Q(x^g), or 1 when primitive
    exponent_gcd: int = 1


def horner(cs: Sequence, z):
    """sum of cs[j] z^j by Horner in machine floats: cs (lowest degree first)
    holds floats or complex numbers, z is complex.  Kept out of __all__, which
    the benchmark's tracer wraps, because the machine Aberth pass calls it in
    its inner loop."""
    acc = 0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def norms(p: Polynomial) -> NormBundle:
    """Exact height, length and squared L2 norm."""
    if p.is_zero():
        raise ValueError("norms of the zero polynomial are undefined")
    return NormBundle(
        H=max(abs(c) for c in p.coeffs),
        L=sum(abs(c) for c in p.coeffs),
        L2sq=sum(c * c for c in p.coeffs),
    )


def reciprocal(p: Polynomial) -> Polynomial:
    """P*(x) = x^d P(1/x): the coefficient list reversed."""
    if p.is_zero():
        raise ValueError("reciprocal of the zero polynomial is undefined")
    return Polynomial(list(reversed(p.coeffs)))


def structural_flags(p: Polynomial) -> StructureFlags:
    """Palindrome test, primitivity (c1), sign normalization (c2), content and
    vanishing at 0, 1, -1.  c1/c2/content require integer coefficients and are
    reported as None otherwise."""
    if p.is_zero():
        raise ValueError("flags of the zero polynomial are undefined")
    selfrec = p.is_self_reciprocal()
    v0 = p[0] == 0
    v1 = p.eval_exact(1) == 0
    vm1 = p.eval_exact(-1) == 0
    if not p.is_integer():
        return StructureFlags(selfrec, None, None, None, v0, v1, vm1)
    g, c2 = support_flags(p)
    return StructureFlags(selfrec, g < 2, c2, p.content(), v0, v1, vm1, max(g, 1))


def support_flags(p: Polynomial) -> tuple[int, bool | None]:
    """(g, c2) from the indices j >= 1 with a_j != 0: g is their gcd (0 for a
    constant), and P = Q(x^g) iff g >= 2, so c1 holds iff g < 2; c2 is whether
    the first such a_j is positive (None for a constant)."""
    support = [j for j in range(1, p.degree + 1) if p[j] != 0]
    if not support:
        return 0, None
    return math.gcd(*support), p[support[0]] > 0
