"""Simultaneous (Aberth-style) complex root finding with per-root error radii,
plus disk / real-line / annulus counting helpers.

Machine-precision Aberth from companion-matrix eigenvalues (or ring guesses)
seeds a fixed-point refinement: each iterate is a pair of Python ints scaled
by 2^F, F = precision_bits + 32 plus guard bits from the lower root bound, so
the smallest root keeps full relative precision.  Error radii are
residual-based inclusion bounds (d*|P(z)|/|P'(z)|, or the multiplicity-m bound
with |P| no smaller than its rounding bound), not formal ball arithmetic.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .polycore import Polynomial

__all__ = [
    "Root",
    "RootSet",
    "DiskCount",
    "RootFindError",
    "PrecisionError",
    "roots",
    "count_in_disk",
    "count_real",
    "count_outside_radius",
    "contour_count",
    "vieta_residual",
    "reconstruction_residual",
]

ITERATION_CAP = 200


class RootFindError(RuntimeError):
    """Raised when the iteration does not converge; carries best iterates."""

    def __init__(self, message, iterates=None, residuals=None):
        super().__init__(message)
        self.iterates = iterates
        self.residuals = residuals


class PrecisionError(RuntimeError):
    """Raised when a query is undecidable at the current precision."""


@dataclass(frozen=True)
class Root:
    value: mp.mpc
    error_radius: float
    multiplicity: int


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    source_degree: int
    precision_bits: int
    polynomial: Polynomial

    def __iter__(self):
        return iter(self.roots)

    def expanded(self):
        """Roots repeated according to multiplicity."""
        out = []
        for r in self.roots:
            out.extend([r] * r.multiplicity)
        return out


@dataclass(frozen=True)
class DiskCount:
    count: int
    certified: bool
    separation_margin: float


def _integer_coeffs(p: Polynomial):
    """(den, lcm(den) * P's coefficients, lowest degree first): integer
    coefficients with the roots of P, den being the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return den, [c.numerator * (den // c.denominator) for c in p.coeffs]


def _initial_guesses(p: Polynomial, d: int):
    """Ring-distributed starting points with deterministic angular jitter."""
    a0 = abs(p[0])
    scale = float(a0 / abs(p.coeffs[-1])) ** (1.0 / d) if a0 != 0 else 1.0
    scale = max(scale, 0.5)
    zs = []
    for k in range(d):
        ang = 2 * math.pi * k / d + 0.4 / (d + 1) + 0.13
        r = scale * (1.0 + 0.05 * ((k * 7919) % 13) / 13.0)
        zs.append(complex(r * math.cos(ang), r * math.sin(ang)))
    return zs


def roots(p: Polynomial, precision_bits: int = 128) -> RootSet:
    """All complex roots of P with residual-based error radii and multiplicity
    via cluster merging."""
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")

    # exact zero roots: deflate x^k
    k0 = 0
    cs_exact = list(p.coeffs)
    while cs_exact[0] == 0:
        cs_exact.pop(0)
        k0 += 1
    pd = Polynomial(cs_exact)
    d = pd.degree

    found: list[Root] = []
    if k0:
        found.append(Root(mp.mpc(0), 0.0, k0))

    if d >= 1:
        found.extend(_nonzero_roots(pd, precision_bits))

    found.sort(key=lambda r: (mp.re(r.value), mp.im(r.value)))
    rs = RootSet(tuple(found), p.degree, precision_bits, p)
    total = sum(r.multiplicity for r in rs.roots)
    if total != p.degree:
        raise RootFindError(
            f"root count {total} does not match degree {p.degree}",
            iterates=[r.value for r in rs.roots],
        )
    return rs


def _nonzero_roots(p: Polynomial, precision_bits: int) -> list[Root]:
    d = p.degree
    # phase 1: machine-precision seeds (companion eigenvalues when viable,
    # otherwise Aberth from ring guesses), polished by a machine Aberth pass
    fc = [float(c) for c in p.coeffs]
    zs = _eigen_seeds(fc) or _initial_guesses(p, d)
    _machine_aberth(fc, zs)
    if not all(cmath.isfinite(z) for z in zs):
        raise RootFindError("machine-precision seeds are not finite", iterates=zs)

    # phase 2: refine in fixed point, a complex number being a pair of ints
    # scaled by 2^F.  lcm(denominators) * P has integer coefficients and P's
    # roots.  Every root has |z| >= |a0| / (|a0| + max |a_k|) >= 2^-guard, so
    # F = work + guard leaves even the smallest root `work` relative bits.
    den, ics = _integer_coeffs(p)
    a0 = abs(ics[0])
    guard = ((a0 + max(abs(c) for c in ics[1:])) // a0).bit_length()
    work = precision_bits + 32
    F = work + guard
    cs = [c << F for c in reversed(ics)]
    one, tol = 1 << F, 1 << (F - precision_bits)
    zr = [_to_fixed(z.real, F) for z in zs]
    zi = [_to_fixed(z.imag, F) for z in zs]
    # at a multiple root the iterates converge only linearly, |P| falling
    # about 4 bits a sweep, so above 400 bits the cap grows with the precision
    for _ in range(max(ITERATION_CAP, precision_bits // 2)):
        step2 = 0
        for k in range(d):
            xr, xi = zr[k], zi[k]
            pr, pi, dr, di = _fixed_eval(cs, F, xr, xi)
            dp2 = dr * dr + di * di
            if dp2 == 0:
                # nudge off a critical point
                zr[k], zi[k] = xr + tol, xi + tol
                continue
            # Newton step n = P / P', Aberth sum s = sum_j 1 / (z_k - z_j),
            # step w = n / (1 - n s); the j = k term is the one with u = 0
            nr = ((pr * dr + pi * di) << F) // dp2
            ni = ((pi * dr - pr * di) << F) // dp2
            sr = si = 0
            for j in range(d):
                ur, ui = xr - zr[j], xi - zi[j]
                u2 = ur * ur + ui * ui
                if u2:
                    sr += (ur << 2 * F) // u2
                    si -= (ui << 2 * F) // u2
            er = one - ((nr * sr - ni * si) >> F)
            ei = -((nr * si + ni * sr) >> F)
            e2 = er * er + ei * ei
            if e2:
                nr, ni = ((nr * er + ni * ei) << F) // e2, ((ni * er - nr * ei) << F) // e2
            zr[k], zi[k] = xr - nr, xi - ni
            step2 = max(step2, nr * nr + ni * ni)
        if step2 < tol * tol:
            break

    if step2 > tol * tol:
        # backward-stable acceptance: every residual below the roundoff of its
        # evaluation, 2^(12 - work) d max(sum |a_k| |z|^k, 1)
        residuals, ok = [], True
        for xr, xi in zip(zr, zi):
            pr, pi, _, _ = _fixed_eval(cs, F, xr, xi)
            az, mag = math.isqrt(xr * xr + xi * xi), 0
            for c in cs:
                mag = (mag * az >> F) + abs(c)
            bound = d * max(mag, den << F)
            ok = ok and (pr * pr + pi * pi) << 2 * (work - 12) <= bound * bound
            residuals.append(math.hypot(pr / (den << F), pi / (den << F)))
        if not ok:
            with mp.workprec(work):
                iterates = [_from_fixed(xr, xi, F) for xr, xi in zip(zr, zi)]
            raise RootFindError(
                "Aberth iteration did not converge", iterates=iterates, residuals=residuals
            )

    lead = max(abs(ics[-1]), den)
    with mp.workprec(work):
        return [
            Root(_from_fixed(cr, ci, F), _error_radius(cs, lead, cr, ci, mult, F, work), mult)
            for cr, ci, mult in _merge_clusters(zr, zi, F - precision_bits // 4)
        ]


def _to_fixed(x: float, F: int) -> int:
    n, q = x.as_integer_ratio()  # q is a power of two
    return (n << F) // q


def _from_fixed(xr: int, xi: int, F: int):
    return mp.mpc(mp.mpf((xr, -F)), mp.mpf((xi, -F)))


def _fixed_eval(cs, F, xr, xi):
    """P(z) and P'(z) at z = (xr + i xi) / 2^F by Horner in fixed point; cs
    holds the coefficients scaled by 2^F, leading first.  Each product is
    floored once, so each step adds less than one unit 2^-F per part."""
    pr, pi, dr, di = cs[0], 0, 0, 0
    for c in itertools.islice(cs, 1, None):
        dr, di = pr + ((dr * xr - di * xi) >> F), pi + ((dr * xi + di * xr) >> F)
        pr, pi = c + ((pr * xr - pi * xi) >> F), (pr * xi + pi * xr) >> F
    return pr, pi, dr, di


def _eigen_seeds(fc):
    """Companion-matrix eigenvalues as starting points, or None when the
    coefficients do not fit machine floats."""
    if len(fc) - 1 > 400:
        return None
    if not all(math.isfinite(c) for c in fc):
        return None
    try:
        import numpy as np

        vals = np.roots(list(reversed(fc)))
    except Exception:
        return None
    if len(vals) != len(fc) - 1 or not all(
        math.isfinite(v.real) and math.isfinite(v.imag) for v in vals
    ):
        return None
    return [complex(v) for v in vals]


def _machine_aberth(fc, zs):
    d = len(fc) - 1
    dfc = [j * fc[j] for j in range(1, d + 1)]

    def ev(cs, z):
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    for _ in range(ITERATION_CAP):
        step = 0.0
        for k in range(d):
            pk = ev(fc, zs[k])
            dpk = ev(dfc, zs[k])
            if dpk == 0:
                zs[k] += 1e-8 + 1e-8j
                continue
            newton = pk / dpk
            s = 0j
            for j in range(d):
                if j != k:
                    dz = zs[k] - zs[j]
                    if dz != 0:
                        s += 1 / dz
            denom = 1 - newton * s
            w = newton if denom == 0 else newton / denom
            zs[k] -= w
            step = max(step, abs(w))
        if step < 1e-14:
            break


def _merge_clusters(zr, zi, shift):
    """Union-find merge of fixed-point iterates closer than 2^shift units
    (2^(-precision_bits/4)); yields each cluster's integer mean and size."""
    thr2 = 1 << 2 * shift
    n = len(zr)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            ur, ui = zr[i] - zr[j], zi[i] - zi[j]
            if ur * ur + ui * ui < thr2:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    for g in groups.values():
        yield sum(zr[i] for i in g) // len(g), sum(zi[i] for i in g) // len(g), len(g)


def _error_radius(cs, lead, cr, ci, mult, F, work):
    """d |P(c)| / |P'(c)| for a simple root at c = (cr + i ci) / 2^F, else the
    multiplicity-m bound d (|P(c)| / max(|a_d|, 1))^(1/m); never below
    2^(8 - work) max(1, |c|).  cs are the fixed-point kernel's coefficients,
    and lead is max(|a_d|, 1) in its integer units.  At a multiple root |P(c)|
    is all rounding, and may round to 0, so it counts as no less than the
    evaluation's rounding bound 2^(4 - F) (d + 1) max(1, |c|)^d."""
    d = len(cs) - 1
    pr, pi, dr, di = _fixed_eval(cs, F, cr, ci)
    p2, dp2 = pr * pr + pi * pi, dr * dr + di * di
    ac = math.isqrt(cr * cr + ci * ci)  # |c| in units of 2^-F
    floor_r = math.ldexp(max(1.0, ac / (1 << F)), 8 - work)
    # in logarithms: at 512 bits and above the quotients of these integers
    # fall below the smallest float and would read as 0
    if mult == 1 and p2 < dp2:
        log_r = (math.log(p2) - math.log(dp2)) / 2 if p2 else -math.inf
    else:
        if mult > 1:
            noise = 16 * (d + 1) * max(1 << F, ac) ** d >> F * d
            p2 = max(p2, noise * noise)
        log_r = (math.log(p2) / 2 - math.log(lead << F)) / mult if p2 else -math.inf
    return max(d * math.exp(log_r), floor_r)


# ---------------------------------------------------------------------------
# counting


def count_in_disk(rs: RootSet, center, radius, _retried=False) -> DiskCount:
    """Number of roots (with multiplicity) strictly inside the open disk."""
    c = mp.mpc(center)
    count = 0
    certified = True
    margin = math.inf
    for r in rs.roots:
        dist = float(abs(r.value - c))
        margin = min(margin, abs(dist - radius))
        if dist < radius:
            count += r.multiplicity
        if abs(dist - radius) <= r.error_radius:
            certified = False
    if not certified and not _retried:
        rs2 = roots(rs.polynomial, rs.precision_bits * 2)
        return count_in_disk(rs2, center, radius, _retried=True)
    return DiskCount(count, certified, margin)


def _conjugate_partner(rs: RootSet, r: Root) -> bool:
    """True if some *other* root matches conj(r.value) within paired radii."""
    target = mp.conj(r.value)
    for s in rs.roots:
        if s is r:
            continue
        if abs(s.value - target) <= max(s.error_radius + r.error_radius, 1e-300):
            return True
    return False


def count_real(rs: RootSet, tolerance=None) -> tuple[int, int]:
    """(m, n): number of real zeros and of positive real zeros, with
    multiplicity.  Raises PrecisionError when a root's realness is undecidable
    at the RootSet's precision."""
    F = rs.precision_bits + 32
    cs = [c << F for c in reversed(_integer_coeffs(rs.polynomial)[1])]
    m = n = 0
    for r in rs.roots:
        im = abs(mp.im(r.value))
        tol = max(r.error_radius, float(mp.mpf(2) ** (-rs.precision_bits // 2)))
        if im > tol:
            continue  # clearly non-real
        if _conjugate_partner(rs, r):
            continue  # member of a genuine conjugate pair near the axis
        x = mp.re(r.value)
        if r.multiplicity % 2 == 1 and r.error_radius > 0:
            # sign-change confirmation on a bracketing interval
            h = max(10 * r.error_radius, float(mp.mpf(2) ** (-rs.precision_bits // 2)))
            xf, hf = int(mp.ldexp(x, F)), _to_fixed(h, F)
            lo = _fixed_eval(cs, F, xf - hf, 0)[0]
            hi = _fixed_eval(cs, F, xf + hf, 0)[0]
            if lo * hi > 0 and im > r.error_radius / 4:
                raise PrecisionError(
                    f"realness of root near {complex(r.value)} undecidable; "
                    "increase precision"
                )
        m += r.multiplicity
        if x > 0:
            n += r.multiplicity
    return m, n


def count_outside_radius(p: Polynomial, r: float, rs: RootSet, mahler: float | None = None):
    """(count, bound, holds): |roots outside |x|>r| against log M / log r."""
    if not p.is_monic():
        raise ValueError("count_outside_radius requires a monic polynomial")
    if r <= 1:
        raise ValueError("requires r > 1")
    if mahler is None:
        from .measure import mahler_from_roots

        mahler = mahler_from_roots(p, rs).value
    count = sum(rt.multiplicity for rt in rs.roots if abs(rt.value) > r)
    bound = math.log(mahler) / math.log(r) if mahler > 0 else 0.0
    return count, bound, count < bound


# ---------------------------------------------------------------------------
# independent oracle: argument-principle contour counting


def contour_count(p: Polynomial, center, radius, nodes: int = 4096) -> int:
    """Zeros inside the circle via trapezoidal integration of P'/P, snapped to
    the nearest integer with a residue check.  Node count escalates up to 32x
    when a root close to the contour spoils the quadrature.  Test oracle, not
    the primary counter."""
    dp = p.derivative()
    fc = [complex(c) for c in p.coeffs]
    fdc = [complex(c) for c in dp.coeffs]

    def ev(cs, z):
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    c0 = complex(center)
    n = nodes
    while True:
        total = 0j
        for k in range(n):
            t = 2 * math.pi * k / n
            z = c0 + radius * cmath.exp(1j * t)
            pv = ev(fc, z)
            if pv == 0:
                raise ValueError("zero on the contour")
            total += ev(fdc, z) / pv * 1j * radius * cmath.exp(1j * t)
        total *= 2 * math.pi / n / (2j * math.pi)
        count = round(total.real)
        if abs(total - count) <= 0.1:
            return count
        if n >= nodes * 32:
            raise PrecisionError(
                f"contour integral {total} too far from an integer at {n} nodes"
            )
        n *= 4


# ---------------------------------------------------------------------------
# residual diagnostics


def vieta_residual(rs: RootSet) -> float:
    """| prod roots - (-1)^d a0/ad | relative to |a0/ad| (or absolute when
    a0 = 0 is impossible since zero roots are exact)."""
    p = rs.polynomial
    with mp.workprec(rs.precision_bits + 32):
        prod = mp.mpc(1)
        for r in rs.roots:
            prod *= r.value ** r.multiplicity
        target = mp.mpf((-1) ** p.degree) * (
            mp.mpf(p[0].numerator) / p[0].denominator
        ) / (mp.mpf(p.coeffs[-1].numerator) / p.coeffs[-1].denominator)
        denom = max(abs(target), mp.mpf(1))
        return float(abs(prod - target) / denom)


def reconstruction_residual(rs: RootSet) -> float:
    """Max relative coefficient error of lead * prod (x - root) vs input."""
    p = rs.polynomial
    with mp.workprec(rs.precision_bits + 32):
        coeffs = [mp.mpc(1)]
        for r in rs.expanded():
            new = [mp.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= c * r.value
            coeffs = new
        lead = mp.mpf(p.coeffs[-1].numerator) / p.coeffs[-1].denominator
        scale = max(abs(mp.mpf(c.numerator) / c.denominator) for c in p.coeffs)
        worst = mp.mpf(0)
        for j, c in enumerate(coeffs):
            exact = mp.mpf(p[j].numerator) / p[j].denominator
            worst = max(worst, abs(lead * c - exact))
        return float(worst / scale)
