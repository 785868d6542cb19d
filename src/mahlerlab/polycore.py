"""Exact univariate polynomial arithmetic, norms and structural predicates.

Coefficients are stored in ascending order (constant term first): a plain
`int` when integral, else a `fractions.Fraction` (`_exact` decides), so ``/``
between two int coefficients is float division.  `Polynomial` has the ring
operations +, - and * (an int, Fraction or str operand on either side is a
constant), `divmod` over Q, exact evaluation, its integer coefficients and
content; the squarefree decomposition, the exact quotient, the cyclotomic
polynomials and the degree pattern mod q work on int lists.  All arithmetic
here is exact except `horner`, the one machine-float evaluator, and the
float64 screen of `_cyclotomic_divisors`, whose every answer is settled by
exact division; approximate quantities (Mahler measure, sup-norm) live in
:mod:`mahlerlab.measure`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .dyadic import float_nearest

__all__ = [
    "Polynomial",
    "NormBundle",
    "StructureFlags",
    "norms",
    "reciprocal",
    "structural_flags",
    "support_flags",
]


def _constant(c) -> "Polynomial":
    """An operand of +, - or *: a Polynomial as it is, an int, Fraction or
    str as the constant polynomial of that value."""
    return c if isinstance(c, Polynomial) else Polynomial([c])


def _exact(c) -> int | Fraction:
    """c as an int when its value is integral, else as a Fraction."""
    if isinstance(c, int):
        return int(c)  # a bool becomes 0 or 1
    if isinstance(c, str):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is not exact (int, Fraction or string)")


class Polynomial:
    """Dense exact polynomial; immutable, trailing zeros trimmed on construction.

    >>> Polynomial([1, 1, 1])
    Polynomial('x^2 + x + 1')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_exact(c) for c in coeffs]
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
        return all(isinstance(c, int) for c in self.coeffs)

    def is_self_reciprocal(self) -> bool:
        """a_j = a_(d-j) for every j: P equals its reciprocal x^d P(1/x)."""
        return self.coeffs == self.coeffs[::-1]

    def __getitem__(self, j: int) -> int | Fraction:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0

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

    # -- exact arithmetic --------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[j] + other[j] for j in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        return self + -_constant(other)

    def __rsub__(self, other) -> "Polynomial":
        return -self + other

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        other = _constant(other)
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact euclidean division over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial([]), self
        quot = [0] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            c = c // lead if c % lead == 0 else Fraction(c, lead)
            quot[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Polynomial(quot), Polynomial(rem)

    def eval_exact(self, x) -> int | Fraction:
        """Evaluate at an exact rational point."""
        x = _exact(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def integer_coeffs(self) -> list[int]:
        """lcm(denominators) * P's coefficients as ints: P's roots, over Z."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (den // c.denominator) for c in self.coeffs]

    def content(self) -> int:
        """gcd of integer coefficients (0 for the zero polynomial)."""
        if not self.is_integer():
            raise ValueError("content requires integer coefficients")
        return math.gcd(*self.coeffs)

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

    H: int | Fraction
    L: int | Fraction
    L2sq: int | Fraction

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


# ---------------------------------------------------------------------------
# squarefree decomposition on integer coefficient lists, lowest degree first

# the largest primes below 2^15 (a product of two residues fits one CPython
# digit), tried in turn until one does not divide the leading coefficient
_CERTIFICATE_PRIMES = (32749, 32719, 32717)


def squarefree_parts(a: list[int]) -> list[tuple[int, list[int]]]:
    """[(i, P_i)], i ascending, with a = c prod P_i^i for the integer
    coefficients ``a`` of degree >= 1, the P_i nonconstant, squarefree and
    pairwise coprime; a squarefree ``a`` comes back as [(1, a)].  Kept out of
    __all__ like `horner`: `roots` calls it once per polynomial.  A repeated
    factor keeps its degree mod a prime q not dividing the lead, so a constant
    gcd(a, a') mod q proves ``a`` squarefree; otherwise Yun's algorithm runs."""
    q = next((q for q in _CERTIFICATE_PRIMES if a[-1] % q), 0)
    if q and _squarefree_mod(a, q):
        return [(1, a)]
    return _yun(a)


def _squarefree_mod(a: list[int], q: int) -> bool:
    """Whether gcd(a mod q, a' mod q) is constant, by Euclid over GF(q)."""
    f, g = [c % q for c in a], _trim([j * c % q for j, c in enumerate(a)][1:])
    return len(_gcd_mod(f, g, q)) == 1


def _yun(a: list[int]) -> list[tuple[int, list[int]]]:
    """Yun's squarefree decomposition (SYMSAC 1976) over Z; each divisor is a
    primitive gcd, so every division is exact."""
    da = _derivative(a)
    g = _gcd(a, da)
    b, c = _exact_quotient(a, g), _exact_quotient(da, g)
    parts, i = [], 1
    while len(b) > 1:
        d = _trim([x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)])
        g = _gcd(b, d)
        if len(g) > 1:
            parts.append((i, g))
        b, c = _exact_quotient(b, g), _exact_quotient(d, g)
        i += 1
    return parts


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _derivative(a: list[int]) -> list[int]:
    return [j * c for j, c in enumerate(a)][1:]


def _primitive(a: list[int]) -> list[int]:
    """a over its content, with a positive lead."""
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of a != 0 and b by the primitive PRS over Z."""
    a, b = _primitive(a), b and _primitive(b)
    while b:
        r, m = list(a), len(b) - 1
        for top in range(len(r) - 1, m - 1, -1):
            if t := r[top]:  # r <- lead(b) r - t x^(top - m) b
                r[:top] = [b[-1] * c for c in r[:top]]
                for j in range(m):
                    r[top - m + j] -= t * b[j]
        r = _trim(r[:m])
        a, b = b, r and _primitive(r)
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b for a primitive b, or None when b does not divide a: by Gauss's
    lemma b divides a over Q exactly when the quotient is integral, so
    exactly when each long-division step divides and no remainder is left."""
    r, m = list(a), len(b) - 1
    out = [0] * max(len(a) - m, 0)
    for top in range(len(r) - 1, m - 1, -1):
        t, s = divmod(r[top], b[-1])
        if s:
            return None
        out[top - m] = t
        for j in range(m):
            r[top - m + j] -= t * b[j]
    return None if any(r[:m]) else out


# ---------------------------------------------------------------------------
# cyclotomic polynomials on integer coefficient lists, lowest degree first


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Phi_n for n >= 1: x^n - 1 divided exactly by Phi_m for every proper
    divisor m of n."""
    a = [-1] + [0] * (n - 1) + [1]
    for m in range(1, n):
        if n % m == 0:
            a = _exact_quotient(a, list(_cyclotomic_coeffs(m)))
    return tuple(a)


@lru_cache(maxsize=None)
def _cyclotomic_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), the (j, c_j) with c_j != 0 and j < phi(n)) of Phi_n."""
    a = _cyclotomic_coeffs(n)
    return len(a) - 1, tuple((j, c) for j, c in enumerate(a[:-1]) if c)


def _monic_divides(terms, a) -> bool:
    """Whether the monic integer polynomial of `_cyclotomic_terms` divides the
    integer coefficients ``a`` (ascending), by the remainder of exact integer
    long division."""
    m, low = terms
    r = list(a)
    for top in range(len(r) - 1, m - 1, -1):
        q = r[top]
        if q:
            base = top - m
            for j, c in low:
                r[base + j] -= q * c
    return not any(r[:m])


@lru_cache(maxsize=None)
def _cyclotomic_orders(d: int) -> tuple[int, ...]:
    """The n with phi(n) <= d, ordered by (phi(n), n): the orders of the
    cyclotomic polynomials that can divide a polynomial of degree d, those
    of a lower degree first.

    phi(n) is the product of (p - 1) p^(k - 1) over the prime powers p^k
    exactly dividing n, so these n are the products of prime powers, over
    primes p <= d + 1 taken in increasing order, whose factors multiply to
    at most d; a depth-first walk lists them without computing phi of any
    other n."""
    primes = [p for p in range(2, d + 2) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    orders = [(1, 1)] if d >= 1 else []

    def extend(n: int, phi: int, start: int) -> None:
        for i in range(start, len(primes)):
            p = primes[i]
            m, f = n * p, phi * (p - 1)
            if f > d:
                break  # p - 1 only grows with i
            while f <= d:
                orders.append((f, m))
                extend(m, f, i + 1)
                m, f = m * p, f * p

    extend(1, 1, 0)
    return tuple(n for _, n in sorted(orders))


# (D, C, S): cos and sin of 2 pi (j mod n) / n for j = 0..D over the orders
# of `_cyclotomic_orders(D)`, kept for the largest degree D seen so far
_unit_root_table: tuple = ()


def _unit_roots(d: int):
    """(orders, C, S): the orders n of `_cyclotomic_orders(d)` and the
    read-only (d + 1, len(orders)) float64 matrices of cos and sin of
    2 pi (j mod n) / n, the real and imaginary parts of zeta_n^j for
    zeta_n = exp(2 pi i / n).  C and S are views of one table, rebuilt only
    for a degree above any seen before; its columns are ordered as the
    orders, so a lower degree reads a leading block."""
    global _unit_root_table
    import numpy as np  # here, so that importing the CLI does not load numpy

    orders = _cyclotomic_orders(d)
    if not _unit_root_table or _unit_root_table[0] < d:
        n = np.array(orders)
        angle = 2 * np.pi * (np.arange(d + 1)[:, None] % n) / n
        tables = np.cos(angle), np.sin(angle)
        for t in tables:
            t.flags.writeable = False
        _unit_root_table = (d, *tables)
    _, cos, sin = _unit_root_table
    return orders, cos[:d + 1, :len(orders)], sin[:d + 1, :len(orders)]


def _cyclotomic_divisors(rows) -> list:
    """For each row of integer coefficients, ascending and all of one degree
    d >= 1 (int sequences, or an int64 numpy array), an iterator over the
    orders n with Phi_n | row, ordered by (phi(n), n), each confirmed by
    exact division only when the iterator reaches it.  This is the
    library's one cyclotomic test.

    Phi_n | P exactly when P(zeta_n) = 0, so two float64 products of the
    rows with the tables of `_unit_roots` give P(zeta_n) at every order
    with phi(n) <= d at once.  The rounding bound delta: with u = 2^-53,
    the angles carry a relative error of at most 3u, so an absolute one
    below 2 pi 3.01u < 19u, and cos and sin add at most 4 ulp, 4u, so every
    table entry is within 23u of cos or sin of the exact angle.  A
    coefficient a_j becomes the nearest float b_j, within u |b_j|: exactly
    when |a_j| <= 2^53, as in the int64 rows of the search, and as +-inf
    from 2^1024 on.  Each part of P(zeta_n) is a dot product of d + 1 terms
    b_j times a table entry, computed within (d + 1) 1.01u L + 23u L of its
    exact value, L = sum |b_j| (Higham, ch. 3), which the conversion moves
    by at most u L more, so the computed P(zeta_n) is within e = sqrt 2
    (1.01 (d + 1) + 24) u L of the exact one, and its modulus, rounded once
    more, exceeds (1 + u) e only if P(zeta_n) != 0.  The code takes delta =
    2^-50 (d + 26) L, L summed in floats, more than five times that bound.
    A row whose |P(zeta_n)| exceeds delta at an order has no factor Phi_n.
    Every other order, NaN included, as when a coefficient became inf, is
    settled by exact division, so an order is listed only on an exact
    division."""
    import numpy as np

    if isinstance(rows, np.ndarray):
        a, rows = rows.astype(float), rows.tolist()
    else:
        a = np.array([[float_nearest(c, 0) for c in row] for row in rows], dtype=float)
    d = a.shape[1] - 1
    orders, cos, sin = _unit_roots(d)
    with np.errstate(all="ignore"):
        modulus = np.hypot(a @ cos, a @ sin)
        delta = 2.0 ** -50 * (d + 26) * np.abs(a).sum(axis=1)
    near = [[] for _ in rows]
    for i, k in zip(*(ix.tolist() for ix in np.nonzero(~(modulus > delta[:, None])))):
        near[i].append(orders[k])
    return [_confirmed(ns, row) for ns, row in zip(near, rows)]


def _confirmed(orders, a):
    """The n of ``orders`` with Phi_n | ``a``, by exact division."""
    for n in orders:
        if _monic_divides(_cyclotomic_terms(n), a):
            yield n


# ---------------------------------------------------------------------------
# arithmetic over GF(q) on residue lists, lowest degree first


def _divmod_mod(f: list[int], g: list[int], q: int) -> tuple[list[int], list[int]]:
    """(quotient, trimmed remainder) of f by a trimmed g != 0 over GF(q)."""
    r, m = list(f), len(g) - 1
    inv = pow(g[-1], -1, q)
    quot = [0] * max(len(r) - m, 0)
    for top in range(len(r) - 1, m - 1, -1):
        if t := r[top] * inv % q:
            quot[top - m] = t
            base = top - m
            r[base:top] = [(c - t * b) % q for c, b in zip(r[base:top], g)]
    return quot, _trim(r[:m])


def _gcd_mod(f: list[int], g: list[int], q: int) -> list[int]:
    """A gcd of f and a trimmed g over GF(q) by Euclid, not made monic."""
    while g:
        f, g = g, _divmod_mod(f, g, q)[1]
    return f


class _Frobenius:
    """The map h -> h^q mod f over GF(q), where f of degree d >= 2 is the
    integer list ``a`` over its lead, mod a prime q not dividing the lead.
    Since c^q = c in GF(q), h^q = sum h_j x^(qj), so the map is linear: its
    row j, x^(qj) mod f, is kept packed in one int, a slot of ``width`` bits
    per coefficient (lowest degree in the lowest bits, so no byte order is
    involved), and applying it takes d multiply-adds and one unpack.

    No slot can carry into the next.  An applied sum adds d products of two
    residues, so each slot stays at most d (q - 1)^2.  Row j + 1 comes from
    the reduced row j (slots <= q - 1) by q steps of h -> x h mod f: shift by
    one slot, then add c (-f mod q) for the top slot c reduced mod q, which
    adds at most (q - 1)^2 to a slot; so a slot stays at most
    (q - 1) + q (q - 1)^2 <= (q + 1)(q - 1)^2 before the row is reduced.
    ``width`` is the bit length of max(d, q + 1)(q - 1)^2, so both fit."""

    __slots__ = ("f", "q", "d", "width", "rows")

    def __init__(self, a: list[int], q: int):
        inv = pow(a[-1], -1, q)
        self.f, self.q, self.d = [c * inv % q for c in a], q, len(a) - 1
        self.width = width = (max(self.d, q + 1) * (q - 1) ** 2).bit_length()
        top = width * self.d
        low = (1 << top) - 1
        neg = self._pack([-c % q for c in self.f[:-1]])  # x^d = x^d - f mod f
        row, self.rows = 1, [1]
        for _ in range(self.d - 1):
            for _ in range(q):
                row <<= width
                row = (row & low) + (row >> top) % q * neg
            row = self._pack(self._unpack(row))
            self.rows.append(row)

    def __call__(self, h: list[int]) -> list[int]:
        """h^q mod f for a residue list h of length at most d, as d residues."""
        s = 0
        for c, row in zip(h, self.rows):
            if c:
                s += c * row
        return self._unpack(s)

    def _pack(self, cs: list[int]) -> int:
        s, width = 0, self.width
        for c in reversed(cs):
            s = s << width | c
        return s

    def _unpack(self, s: int) -> list[int]:
        q, width = self.q, self.width
        mask = (1 << width) - 1
        return [(s >> i & mask) % q for i in range(0, width * self.d, width)]


def _minus_x(h: list[int], q: int) -> list[int]:
    """h - x over GF(q), trimmed, for a residue list h of length >= 2."""
    g = list(h)
    g[1] = (g[1] - 1) % q
    return _trim(g)


def _degree_pattern(frob: _Frobenius) -> list[int]:
    """The degrees of the irreducible factors of f over GF(q), f squarefree
    mod q, by distinct-degree factorization: gcd(g, x^(q^i) - x) is the
    product of the factors of degree i left in g once those of lower degree
    are divided out.  x^(q^i) is kept mod f, which g divides."""
    g, q = frob.f, frob.q
    h, i, degrees = [0, 1], 0, []
    while 2 * (i + 1) < len(g):  # past this, what is left of g is irreducible
        i += 1
        h = frob(h)
        t = _gcd_mod(g, _minus_x(h, q), q)
        if len(t) > 1:
            degrees += [i] * ((len(t) - 1) // i)
            g = _divmod_mod(g, t, q)[0]
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return degrees
