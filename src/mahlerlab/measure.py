"""Mahler measure by two independent methods, and the sup norm on the circle.

The root-product method multiplies |lead| by max(1, |mu|) over the roots, as
a proved integer interval over their inclusion disks, so a root on or near
|x| = 1 needs no decision about which side it lies on.  Root squaring
(Graeffe) gives an independent bracket from coefficient norms alone: a
fixed-point kernel squares the integer-scaled polynomial exactly in Python
ints, floor-shifting it to a fixed width before each step and carrying a
proved bound on the error of those shifts; the bracket's 2^k-th root is k
integer square roots.  Both intervals reach floats by the outward rounding
of `dyadic`, so that each provably contains M(P).

The sup norm is a sampled estimate, not a bound: one FFT gives |P| at 8d+16
angles, and safeguarded Newton steps on |P|^2, evaluated by `horner`, refine
the largest local maxima of those samples.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .dyadic import as_centre, fixed, float_nearest, float_up, gap_up, modulus_bounds
from .polycore import NormBundle, Polynomial, horner
from .reporting import BoundEntry, entry_from_inequality
from .rootfind import RootSet, roots

__all__ = [
    "MeasureResult",
    "mahler_from_roots",
    "mahler",
    "mahler_graeffe",
    "sup_norm_circle",
    "norm_chain_check",
]


@dataclass(frozen=True)
class MeasureResult:
    value: float
    error_bound: float
    method: str  # "root_product" or "graeffe"
    iterations_or_precision: int


def mahler_from_roots(p: Polynomial, rs: RootSet) -> MeasureResult:
    """Jensen's product M(P) = |a_d| prod max(1, |mu|) over the inclusion
    disks of ``rs``, as `_root_product` bounds it."""
    disks = ((r.centre, r.error_radius, r.multiplicity) for r in rs.roots)
    return _root_product(p.coeffs[-1], disks, rs.precision_bits)


def _root_product(lead, disks, bits: int) -> MeasureResult:
    """|lead| prod max(1, |zeta|)^m over the roots zeta, each in its disk
    (centre, rho, m) of ``disks``, about z = (xm + i ym) 2^e for ``centre`` =
    (xm, ym, e) as on `Root`, as a proved interval in units of 2^-G, G =
    ``bits`` + 32: a root in |zeta - z| <= rho has max(1, |zeta|) between
    max(1, |z| - rho) and max(1, |z| + rho) (`dyadic.modulus_bounds`), whether
    it lies inside, on or outside the unit circle.  The lower end is floored
    and the upper end ceiled at each step.  ``value`` is the float nearest to
    the midpoint and ``error_bound`` its distance to the further end, rounded
    up, so [value - error_bound, value + error_bound] contains the product."""
    G = bits + 32
    one = 1 << G
    lo, hi = fixed(abs(lead), G), fixed(abs(lead), G, up=True)
    for z, rho, m in disks:
        a, b = modulus_bounds(z, rho, G)
        lo = lo * max(one, a) ** m >> G * m
        hi = -(-hi * max(one, b) ** m >> G * m)
    value = float_nearest(lo + hi, -G - 1)
    return MeasureResult(value, gap_up(lo, hi, -G, value), "root_product", bits)


def mahler(p: Polynomial, precision_bits: int = 128) -> MeasureResult:
    """Convenience wrapper: compute roots, then the Jensen product."""
    if p.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    if p.degree < 1:
        return _root_product(p.coeffs[-1], (), precision_bits)
    return mahler_from_roots(p, roots(p, precision_bits))


def _graeffe_steps(a: list[int], width: int):
    """Root-squaring steps on the integer coefficients ``a`` of a polynomial
    of degree d, in fixed point: yields (c, e, err) for the iterates G_0 = P,
    G_1, G_2, .. in turn, G_k being the polynomial whose roots are the 2^k-th
    powers of the roots, up to sign.

    Every coefficient of G_k lies within err * 2^e of c_j * 2^e.  The
    generator stops instead once the error could reach half the iterate's
    L2 norm, ceil(sqrt(d + 1)) err >= max |c_j| / 2, for the caller to double
    the width.  Before each step the coefficients are floor-shifted to
    ``width`` bits, moving each by less than one unit; each step then squares
    exactly, as the even part of Q(x) Q(-x), which turns an error E on every
    coefficient into at most E (2 S + (d + 1) E) with S = sum |c_j|.  A step
    is taken only when the caller asks for the next iterate.

    With Q(x) = U(x^2) + x V(x^2), the even part of Q(x) Q(-x) is
    U(y)^2 - y V(y)^2 at y = x^2, and each step computes it by Kronecker
    substitution: U and V are packed into one int each, coefficient i at bit
    W i, so that U(2^W)^2 - 2^W V(2^W)^2 = sum_j r_j 2^(W j) for the new
    coefficients r_0..r_d.  A slot of W = 8 B bits holds each of them: r_j
    is a sum of at most d + 1 products c_i c_(2j-i), so with b the bit
    length of max |c_i| and l that of d + 1, |r_j| < (d + 1) 2^(2 b) <=
    2^(l + 2 b) <= 2^(W - 1), since B is chosen with 8 B >= l + 2 b + 1.
    Adding 2^(W - 1) to every slot makes each digit r_j + 2^(W - 1) lie in
    [0, 2^W), so they are the base-2^W digits of the sum, and one to_bytes
    call hands each slot over as B bytes."""
    d = len(a) - 1
    spread = 2 * (math.isqrt(d) + 1)  # 2 ceil(sqrt(d + 1))
    e = err = 0
    while True:
        big = max(map(abs, a))
        s = max(big.bit_length() - width, 0)
        if s:
            a = [c >> s for c in a]
            err = ((err + (1 << s) - 1) >> s) + 1
            e += s
            big >>= s
        if spread * err >= big:
            return
        yield a, e, err
        err *= 2 * sum(map(abs, a)) + (d + 1) * err
        e *= 2
        B = ((d + 1).bit_length() + 2 * big.bit_length()) // 8 + 1
        W = 8 * B
        even = odd = 0
        for c in reversed(a[0::2]):
            even = (even << W) + c
        for c in reversed(a[1::2]):
            odd = (odd << W) + c
        half = 1 << W - 1
        offset = int.from_bytes(half.to_bytes(B, "little") * (d + 1), "little")
        buf = (even * even - (odd * odd << W) + offset).to_bytes(B * (d + 1), "little")
        a = [int.from_bytes(buf[i:i + B], "little") - half for i in range(0, B * (d + 1), B)]


def _graeffe_iterate(a: list[int], k: int, width: int):
    """The k-th item (c, e, err) of `_graeffe_steps`, or None when the
    steps stop before it, for the caller to double the width."""
    return next(itertools.islice(_graeffe_steps(a, width), k, None), None)


def _root_bound(m: int, x: int, k: int, den: int, width: int, up: bool) -> float:
    """(m 2^x)^(1/2^k) / den, m > 0, rounded up to a float when ``up`` and
    down otherwise, so a proved bound: k integer square roots, then one
    division, each of an operand shifted to at least 2 ``width`` bits (with
    an even exponent for a root) and rounded the same way."""
    for _ in range(k):
        s = max(2 * width - m.bit_length(), 0)
        s += (x - s) & 1
        # isqrt(n - 1) + 1 is the ceiling of sqrt(n) for n >= 1
        m, x = math.isqrt((m << s) - up) + up, (x - s) // 2
    s = max(2 * width + den.bit_length() - m.bit_length(), 0)  # 2 width bits of quotient
    q = ((m << s) - up) // den + up
    return float_up(q, x - s) if up else -float_up(-q, x - s)


def mahler_graeffe(p: Polynomial, k: int = 16, precision_bits: int = 128) -> MeasureResult:
    """Root-squaring bracket on M(P) from the L2 norm of the k-th Graeffe
    iterate G_k: M(G_k) = M(P)^(2^k) and M <= L2 <= L <= 2^d M, so M(P) lies
    in [L2^(1/2^k) 2^(-d/2^k), L2^(1/2^k)].

    P is scaled to integers by the lcm of its denominators and iterated by
    `_graeffe_iterate` at ``precision_bits`` + 32 bits, doubled until its
    carried rounding error stays below half the coefficients.  That error
    widens the L2 norm to an interval, whose ends `_root_bound` takes to the
    2^k-th root, divides by the lcm and rounds to floats outward, so [value -
    error_bound, value] provably contains M(P)."""
    if p.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    d = p.degree
    a = p.integer_coeffs()
    den = a[-1] // p.coeffs[-1]
    width = precision_bits + 32
    while (it := _graeffe_iterate(a, k, width)) is None:
        width *= 2
    c, e, err = it
    # scale the norm to at least `width` bits, so that the unit its square
    # root truncates is negligible: |L2(G_k) / 2^e - root| < 1 + slack
    t = max(width - max(map(abs, c)).bit_length(), 0)
    e -= t
    root = math.isqrt(sum(x * x for x in c) << 2 * t)
    slack = (math.isqrt(d) + 1) * err << t  # ceil(sqrt(d + 1)) err
    value = _root_bound(root + 1 + slack, e, k, den, width, True)
    if value == math.inf:
        return MeasureResult(value, value, "graeffe", k)
    lower = _root_bound(root - slack, e - d, k, den, width, False)
    m, _, x = as_centre(lower)
    return MeasureResult(value, gap_up(m, m, x, value), "graeffe", k)


def sup_norm_circle(p: Polynomial) -> tuple[float, float]:
    """(max over theta of |P(e^(i theta))|, argmax angle), both floats.

    One FFT gives |P| at 8d+16 equispaced angles h apart.  Each of the five
    largest circular local maxima of those samples, at angle t, brackets a
    maximum of g(theta) = |P(e^(i theta))|^2 in [t - h, t + h], which
    safeguarded Newton on g' finds.  With Q1 = sum j a_j z^j and Q2 = sum j^2
    a_j z^j, the angle derivatives are P_theta = i Q1 and P_theta_theta = -Q2,
    so g' = -2 Im(conj(P) Q1) and g'' = 2 (|Q1|^2 - Re(conj(P) Q2)); P, Q1 and
    Q2 come from `horner`.  A step that g'' >= 0 or the bracket forbids is a
    bisection on the sign of g'.  The search stops when g' is 0 to within
    its rounding error or |g'/g''| < 1e-13.  The value is |P| by `horner` at
    the angle reached, never an FFT sample, so a maximum on a sample is as
    exact as Horner: P(1) of positive integer coefficients is their sum."""
    import numpy as np

    if p.is_zero():
        raise ValueError("sup norm of the zero polynomial is undefined")
    fc = [complex(c) for c in p.coeffs]
    q1 = [j * c for j, c in enumerate(fc)]
    q2 = [j * c for j, c in enumerate(q1)]
    # Horner moves P and Q1 by at most 4(d + 1) units of 2^-53 in sum |a_j|
    # and sum j |a_j|; a g' below what that does to it is 0
    tol = 16 * len(fc) * 2.0 ** -53 * sum(map(abs, fc)) * sum(map(abs, q1))
    n = 8 * max(p.degree, 1) + 16
    h = 2 * math.pi / n
    s = np.abs(np.fft.ifft(fc, n))
    peaks = np.flatnonzero((s >= np.roll(s, 1)) & (s >= np.roll(s, -1)))
    best_val = best_arg = -1.0
    for i in peaks[np.argsort(-s[peaks], kind="stable")[:5]].tolist():
        a, b, t = (i - 1) * h, (i + 1) * h, i * h
        while True:
            z = complex(math.cos(t), math.sin(t))
            pz, w = horner(fc, z), horner(q1, z)
            g1 = -2 * (pz.conjugate() * w).imag
            if abs(g1) <= tol:
                break
            g2 = 2 * (abs(w) ** 2 - (pz.conjugate() * horner(q2, z)).real)
            if g2 < 0 and abs(g1) < 1e-13 * -g2:
                break
            if g1 > 0:
                a = t
            else:
                b = t
            if not (g2 < 0 and a < (nt := t - g1 / g2) < b):
                nt = (a + b) / 2
            if nt == t:
                break
            t = nt
        if abs(pz) > best_val:
            best_val, best_arg = abs(pz), t
    return best_val, best_arg % (2 * math.pi)


def norm_chain_check(
    p: Polynomial, measure: MeasureResult, supnorm: float, nb: NormBundle
) -> list[BoundEntry]:
    """Margins for the classical chains between H, L, L2, ||P|| and M, given
    M(P) as ``measure``, ||P|| on the unit circle as ``supnorm`` and
    `norms(p)` as ``nb``."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    d = p.degree
    m_val, m_err = measure.value, measure.error_bound
    H, L, L2 = float(nb.H), float(nb.L), nb.L2
    p1 = abs(float(p.eval_exact(1)))

    entries = []
    worst_j = min(
        range(d + 1),
        key=lambda j: m_val * math.comb(d, j) - abs(float(p[j])),
    )
    entries.append(
        entry_from_inequality(
            "chain_coeff_binomial",
            abs(float(p[worst_j])),
            m_val * math.comb(d, worst_j),
            slack=m_err * math.comb(d, worst_j),
            note=f"j={worst_j}",
        )
    )
    entries.append(entry_from_inequality("chain_M_le_L2", m_val, L2, slack=m_err))
    entries.append(entry_from_inequality("chain_L2_le_L", L2, L, slack=1e-12 * L))
    entries.append(
        entry_from_inequality("chain_L_le_2dM", L, 2.0 ** d * m_val, slack=2.0 ** d * m_err)
    )
    entries.append(
        entry_from_inequality(
            "chain_H_le_2d1M", H, 2.0 ** (d - 1) * m_val, slack=2.0 ** (d - 1) * m_err
        )
    )
    entries.append(
        entry_from_inequality(
            "chain_M_le_sqrtd1H", m_val, math.sqrt(d + 1) * H, slack=m_err
        )
    )
    sup_slack = supnorm * 1e-9
    entries.append(entry_from_inequality("chain_P1_le_sup", p1, supnorm, slack=sup_slack))
    entries.append(entry_from_inequality("chain_sup_le_L", supnorm, L, slack=sup_slack))
    entries.append(
        entry_from_inequality(
            "chain_L_le_sqrtd1L2", L, math.sqrt(d + 1) * L2, slack=1e-12 * L
        )
    )
    entries.append(
        entry_from_inequality("chain_L2_le_sup", L2, supnorm, slack=sup_slack)
    )
    return entries
