"""Mahler measure by two independent methods, and the sup-norm on the circle.

The root-product method multiplies |lead| by the moduli of roots outside the
unit circle; root-squaring (Graeffe) gives an independent estimate from
coefficient norms alone.  Salem-type inputs sit extremely close to |x| = 1, so
unit-circle straddles trigger precision doubling up to 1024 bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .polycore import Polynomial, horner, norms
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

MAX_PRECISION = 1024


@dataclass(frozen=True)
class MeasureResult:
    value: float
    error_bound: float
    method: str  # "root_product" or "graeffe"
    iterations_or_precision: int


def mahler_from_roots(p: Polynomial, rs: RootSet) -> MeasureResult:
    """Jensen-product Mahler measure |a_d| * prod_{|mu|>=1} |mu|.

    A root whose error disk straddles |x| = 1 triggers recomputation at doubled
    precision; a persistent straddle contributes max(1, |mu|) and widens the
    reported error bound (the straddle radius is then provably the whole
    uncertainty, since the contribution of a root at distance r from the circle
    is between 1 and 1 + r)."""
    while True:
        straddle = [
            r for r in rs.roots if abs(float(abs(r.value)) - 1.0) <= r.error_radius
        ]
        # escalate only while a straddle is wide enough to matter; roots lying
        # exactly on the circle (cyclotomic factors, Salem conjugates) straddle
        # forever but with negligible radii
        wide = [r for r in straddle if r.error_radius > 1e-25]
        if wide and rs.precision_bits < MAX_PRECISION:
            rs = roots(p, min(rs.precision_bits * 2, MAX_PRECISION))
            continue
        break

    with mp.workprec(rs.precision_bits + 32):
        lead = p.coeffs[-1]
        value = abs(mp.mpf(lead.numerator) / lead.denominator)
        rel_err = 0.0
        for r in rs.roots:
            a = abs(r.value)
            on_circle = abs(float(a) - 1.0) <= r.error_radius
            if on_circle:
                # contributes max(1, |mu|); uncertainty is the straddle width
                value *= max(mp.mpf(1), a) ** r.multiplicity
                rel_err += r.multiplicity * r.error_radius
            elif a >= 1:
                value *= a ** r.multiplicity
                rel_err += r.multiplicity * r.error_radius / float(a)
        value = float(value)
    err = value * (rel_err + 2.0 ** (-(rs.precision_bits // 2)))
    return MeasureResult(value, err, "root_product", rs.precision_bits)


def mahler(p: Polynomial, precision_bits: int = 128) -> MeasureResult:
    """Convenience wrapper: compute roots, then the Jensen product."""
    if p.degree < 1:
        c = p.coeffs[-1]
        v = abs(c.numerator / c.denominator)
        return MeasureResult(float(v), 0.0, "root_product", precision_bits)
    return mahler_from_roots(p, roots(p, precision_bits))


def _graeffe_step(cs):
    """One root-squaring step on a list of mpf coefficients (signs chosen so
    the iterate has roots mu^2 and leading coefficient a_d^2)."""
    d = len(cs) - 1
    out = []
    for j in range(d + 1):
        s = mp.mpf(0)
        for i in range(max(0, 2 * j - d), min(d, 2 * j) + 1):
            t = cs[i] * cs[2 * j - i]
            s += -t if i % 2 else t
        out.append(s if d % 2 == 0 else -s)
    return out


def mahler_graeffe(p: Polynomial, k: int = 16, precision_bits: int = 128) -> MeasureResult:
    """Root-squaring estimate: (L2 of the k-th iterate)^(1/2^k).

    The iterate's coefficients are renormalized by their largest magnitude each
    step, with the scale tracked separately in log space, so degrees up to ~500
    and large k do not overflow.  Error bound from M <= L2 <= L <= 2^d M applied
    at iterate k: the true measure lies in [est * 2^(-d/2^k), est]."""
    if p.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    d = p.degree
    with mp.workprec(precision_bits):
        cs = [mp.mpf(c.numerator) / c.denominator for c in p.coeffs]
        logscale = mp.mpf(0)
        for _ in range(k):
            cs = _graeffe_step(cs)
            m = max(abs(c) for c in cs)
            if m == 0 or not mp.isfinite(m):
                raise OverflowError(
                    "Graeffe coefficients exceeded the precision budget; "
                    "use smaller k or more precision bits"
                )
            cs = [c / m for c in cs]
            logscale = 2 * logscale + mp.log(m)
        l2 = mp.sqrt(mp.fsum(c * c for c in cs))
        log_l2 = logscale + mp.log(l2)
        est = float(mp.e ** (log_l2 / 2 ** k))
    lower = est * 2.0 ** (-d / 2.0 ** k)
    err = (est - lower) + est * 2.0 ** (-(precision_bits // 2))
    return MeasureResult(est, err, "graeffe", k)


def sup_norm_circle(p: Polynomial, tol: float = 1e-12) -> tuple[float, float]:
    """(max over theta of |P(e^(i theta))|, argmax angle).

    Dense sampling at 8d+16 equispaced angles, then golden-section refinement
    around the best few samples."""
    if p.is_zero():
        raise ValueError("sup norm of the zero polynomial is undefined")
    fc = [complex(c) for c in p.coeffs]

    def f(theta):
        return abs(horner(fc, complex(math.cos(theta), math.sin(theta))))

    n = 8 * max(p.degree, 1) + 16
    step = 2 * math.pi / n
    samples = [(f(i * step), i) for i in range(n)]
    samples.sort(reverse=True)

    gr = (math.sqrt(5) - 1) / 2
    best_val, best_arg = samples[0][0], samples[0][1] * step
    for _, i in samples[:5]:
        a = (i - 1) * step
        b = (i + 1) * step
        c = b - gr * (b - a)
        d_ = a + gr * (b - a)
        fc_, fd_ = f(c), f(d_)
        while b - a > tol:
            if fc_ > fd_:
                b, d_, fd_ = d_, c, fc_
                c = b - gr * (b - a)
                fc_ = f(c)
            else:
                a, c, fc_ = c, d_, fd_
                d_ = a + gr * (b - a)
                fd_ = f(d_)
        x = (a + b) / 2
        v = f(x)
        if v > best_val:
            best_val, best_arg = v, x
    return best_val, best_arg % (2 * math.pi)


def norm_chain_check(
    p: Polynomial, measure: MeasureResult, supnorm: float
) -> list[BoundEntry]:
    """Margins for the classical chains between H, L, L2, ||P|| and M, given
    M(P) as ``measure`` and ||P|| on the unit circle as ``supnorm``."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    d = p.degree
    nb = norms(p)
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
