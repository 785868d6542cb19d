"""Independent checks that the library itself never calls: argument-principle
disk counting, exact real-zero counts and two residuals of a root set for the
root finder, rational roots by divisor enumeration, and plain Fraction-list
arithmetic for `Polynomial`, the exact centre of a root as an mpc, upward
rounding to a float, and the fixed-point Graeffe iterate by the symmetric
half-sum."""
import cmath
import itertools
import math
import operator
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

from mahlerlab.polycore import horner
from mahlerlab.rootfind import PrecisionError


def contour_count(p, center, radius, nodes: int = 4096) -> int:
    """Zeros inside the circle via trapezoidal integration of P'/P, snapped to
    the nearest integer with a residue check.  Node count escalates up to 32x
    when a root close to the contour spoils the quadrature."""
    fc = [complex(c) for c in p.coeffs]
    fdc = [complex(c) for c in fr_derivative(p.coeffs)]
    c0 = complex(center)
    n = nodes
    while True:
        total = 0j
        for k in range(n):
            t = 2 * math.pi * k / n
            z = c0 + radius * cmath.exp(1j * t)
            pv = horner(fc, z)
            if pv == 0:
                raise ValueError("zero on the contour")
            total += horner(fdc, z) / pv * 1j * radius * cmath.exp(1j * t)
        total *= 2 * math.pi / n / (2j * math.pi)
        count = round(total.real)
        if abs(total - count) <= 0.1:
            return count
        if n >= nodes * 32:
            raise PrecisionError(
                f"contour integral {total} too far from an integer at {n} nodes"
            )
        n *= 4


def real_root_counts(p) -> tuple[int, int]:
    """(m, n): the real zeros and the positive real zeros of P, with
    multiplicity, exactly, from sympy's isolating intervals of the real roots
    of P with x^k divided out.  sympy isolates the negative and the positive
    roots apart, so no interval holds 0, and one with lower end >= 0 holds a
    positive root."""
    import sympy

    a = p.integer_coeffs()
    k0 = next(k for k, c in enumerate(a) if c)
    m, n = k0, 0
    for (lo, hi), mult in sympy.Poly(a[k0:][::-1], sympy.Symbol("x")).intervals():
        assert hi <= 0 or lo >= 0, (lo, hi)
        m += mult
        if lo >= 0:
            n += mult
    return m, n


def rational_root(p):
    """A rational root r/q of the integer P as (r, q), or None, by trying
    every q | lead and r | P(0) (both listed by trial division up to their
    square roots) in q^d P(r/q) = 0; (0, 1) when P(0) = 0."""
    a0, ad = abs(p[0]), abs(p.coeffs[-1])
    if a0 == 0:
        return 0, 1

    def divisors(n):
        out = []
        for i in range(1, math.isqrt(n) + 1):
            if n % i == 0:
                out.extend((i, n // i))
        return sorted(set(out))

    d = p.degree
    for q in divisors(ad):
        for r in divisors(a0):
            for sr in (r, -r):
                if sum(c * sr ** j * q ** (d - j) for j, c in enumerate(p.coeffs)) == 0:
                    return sr, q
    return None


def centre_mpc(r) -> mp.mpc:
    """The centre (xm + i ym) 2^e of a `Root` exactly, as an mpc."""
    x, y, e = r.centre
    return mp.make_mpc((libmp.from_man_exp(x, e), libmp.from_man_exp(y, e)))


def float_up(m: int, F: int) -> float:
    """m 2^-F rounded toward +inf to a float by mpmath; inf above the float
    range."""
    x = libmp.from_man_exp(m, -F)
    f = libmp.to_float(x, rnd="c")
    # ldexp rounds to nearest in the subnormal range: one more step there
    return math.nextafter(f, math.inf) if libmp.mpf_cmp(libmp.from_float(f), x) < 0 else f


def vieta_residual(rs) -> float:
    """| prod roots - (-1)^d a0/ad | relative to max(|a0/ad|, 1); zero roots
    are exact, so a0 != 0 whenever the product is compared."""
    p = rs.polynomial
    with mp.workprec(rs.precision_bits + 32):
        prod = mp.mpc(1)
        for r in rs.roots:
            prod *= centre_mpc(r) ** r.multiplicity
        target = mp.mpf((-1) ** p.degree) * (
            mp.mpf(p[0].numerator) / p[0].denominator
        ) / (mp.mpf(p.coeffs[-1].numerator) / p.coeffs[-1].denominator)
        denom = max(abs(target), mp.mpf(1))
        return float(abs(prod - target) / denom)


def reconstruction_residual(rs) -> float:
    """Max relative coefficient error of lead * prod (x - root) vs input,
    each root repeated according to its multiplicity."""
    p = rs.polynomial
    with mp.workprec(rs.precision_bits + 32):
        coeffs = [mp.mpc(1)]
        for r in rs.roots:
            for _ in range(r.multiplicity):
                new = [mp.mpc(0)] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    new[i + 1] += c
                    new[i] -= c * centre_mpc(r)
                coeffs = new
        lead = mp.mpf(p.coeffs[-1].numerator) / p.coeffs[-1].denominator
        scale = max(abs(mp.mpf(c.numerator) / c.denominator) for c in p.coeffs)
        worst = mp.mpf(0)
        for j, c in enumerate(coeffs):
            exact = mp.mpf(p[j].numerator) / p[j].denominator
            worst = max(worst, abs(lead * c - exact))
        return float(worst / scale)


def sup_norm_oracle(p, bits: int = 128) -> float:
    """max |P| on the unit circle, for an integer P of degree d >= 1.

    |P| in floats at n = 64(d + 1) equispaced angles h apart; then
    golden-section search on [t - h, t + h] about every circular local
    maximum t of those samples that reaches (1 - (d h)^2 / 8) times the
    largest, down to an angle bracket of 1e-14, with angles as mpmath numbers
    and P evaluated by Horner in ``bits``-bit fixed point.  |P|^2 is a real
    trigonometric polynomial of degree d, so by Bernstein's inequality its
    second derivative is at most d^2 ||P||^2: a sample h / 2 or less from the
    maximum reaches ||P||^2 (1 - (d h)^2 / 8), and at the end |P| is flat to
    about d^2 1e-28 relative."""
    d = p.degree
    n = 64 * (d + 1)
    h = 2 * math.pi / n
    fc = [complex(c) for c in p.coeffs]
    s = [abs(horner(fc, cmath.exp(1j * k * h))) for k in range(n)]
    floor = max(s) * (1 - (d * h) ** 2 / 8)
    starts = [k for k in range(n) if s[k] >= max(floor, s[k - 1], s[(k + 1) % n])]
    cs = [c << bits for c in reversed(p.integer_coeffs())]
    best = 0
    with mp.workprec(bits):

        def g(t):
            """|P(e^(i t))|^2 in units of 2^(-2 bits)."""
            zr, zi = int(mp.ldexp(mp.cos(t), bits)), int(mp.ldexp(mp.sin(t), bits))
            ar = ai = 0
            for c in cs:
                ar, ai = ((ar * zr - ai * zi) >> bits) + c, (ar * zi + ai * zr) >> bits
            return ar * ar + ai * ai

        gr = (mp.sqrt(5) - 1) / 2
        for k in starts:
            a, b = (k - 1) * 2 * mp.pi / n, (k + 1) * 2 * mp.pi / n
            c, e = b - gr * (b - a), a + gr * (b - a)
            gc, ge = g(c), g(e)
            while b - a > 1e-14:
                if gc > ge:
                    b, e, ge = e, c, gc
                    c = b - gr * (b - a)
                    gc = g(c)
                else:
                    a, c, gc = c, e, ge
                    e = a + gr * (b - a)
                    ge = g(e)
            best = max(best, gc, ge)
        return float(mp.ldexp(mp.sqrt(best), -bits))


# ---------------------------------------------------------------------------
# Fraction lists, lowest degree first with trailing zeros trimmed: every
# coefficient a Fraction, whatever its value


def fr_poly(cs) -> list[Fraction]:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


def fr_add(a, b):
    return fr_poly(x + y for x, y in itertools.zip_longest(a, b, fillvalue=Fraction(0)))


def fr_sub(a, b):
    return fr_add(a, [-c for c in b])


def fr_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return fr_poly(out)


def fr_divmod(a, b):
    """Long division by a nonzero b."""
    rem, m = list(a), len(b) - 1
    quot = [Fraction(0)] * max(len(a) - m, 0)
    for top in range(len(rem) - 1, m - 1, -1):
        quot[top - m] = t = rem[top] / b[-1]
        for j, y in enumerate(b):
            rem[top - m + j] -= t * y
    return fr_poly(quot), fr_poly(rem)


def fr_compose(a, b):
    out = []
    for c in reversed(a):
        out = fr_add(fr_mul(out, b), [c])
    return out


def fr_derivative(a):
    return fr_poly(j * c for j, c in enumerate(a) if j)


def fr_eval(a, x) -> Fraction:
    return sum((c * Fraction(x) ** j for j, c in enumerate(a)), Fraction(0))


def fr_norms(a) -> tuple[Fraction, Fraction, Fraction]:
    """(height, length, squared L2 norm)."""
    return max(map(abs, a)), sum(map(abs, a)), sum(c * c for c in a)


def fr_integer_coeffs(a) -> list[int]:
    den = math.lcm(*(c.denominator for c in a))
    return [int(c * den) for c in a]


def fr_content(a) -> int:
    return math.gcd(*(int(c) for c in a))


def graeffe_iterate_half_sum(a: list[int], k: int, width: int):
    """`measure._graeffe_iterate` as it squared before Kronecker substitution:
    the same floor shifts and carried error, with each coefficient of the
    even part of Q(x) Q(-x) summed directly.  Coefficient j is sum alt_i
    a_(2j-i) over i + (2j - i) = 2j with alt_i = (-1)^i a_i; alt_i and
    alt_(2j-i) have the same sign, so the terms pair up around i = j."""
    d = len(a) - 1
    spread = 2 * (math.isqrt(d) + 1)
    e = err = 0
    for step in range(k + 1):
        big = max(map(abs, a))
        s = max(big.bit_length() - width, 0)
        if s:
            a = [c >> s for c in a]
            err = ((err + (1 << s) - 1) >> s) + 1
            e += s
            big >>= s
        if spread * err >= big:
            return None
        if step == k:
            return a, e, err
        err *= 2 * sum(map(abs, a)) + (d + 1) * err
        e *= 2
        alt = [-c if i % 2 else c for i, c in enumerate(a)]
        rev = a[::-1]
        a = [
            alt[j] * a[j] + 2 * sum(map(operator.mul, alt[max(2 * j - d, 0):j], rev[max(d - 2 * j, 0):d - j]))
            for j in range(d + 1)
        ]
