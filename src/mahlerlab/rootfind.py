"""Simultaneous (Aberth-style) complex root finding with a proved inclusion
disk per root, plus disk / real-line / annulus counting helpers.

Multiplicities are exact: `polycore.squarefree_parts` splits P into
squarefree P_i (Yun), and the roots of each P_i, all simple, are refined
alone and get multiplicity i.  Machine-precision Aberth from companion-matrix
eigenvalues (or ring guesses) seeds a fixed-point refinement: each iterate is
a pair of Python ints scaled by 2^F, F = precision_bits + 32 plus guard bits
from the lower root bound, so the smallest root keeps full relative
precision.  Each iterate is evaluated once, P_i and P_i' by one fixed-point
Horner pass: that evaluation gives the Newton step of the next Aberth sweep,
stops the iteration once every Newton step is below 2^-precision_bits, and
gives the inclusion disk.  Newton's disk of radius d*|P_i(z)|/|P_i'(z)|
about any z, widened by the rounding of the Horner evaluation, holds a root
(Henrici, Applied and Computational Complex Analysis, vol. 1, ch. 6;
Neumaier, JCAM 2003).  The disks alone accept a root set: those of one P_i
must be pairwise disjoint, so that each holds exactly one root, whether or not
the iteration converged.  They decide each root's realness once, as
`Root.real`.  The printed centre rounds each part of the fixed-point centre
to precision_bits + 32 bits, half to even, in ints: `Root.centre` holds it
exactly as (xm, ym, e), (xm + i ym) 2^e, `Root.value` as an mpc built from
those ints, and `Root.z` as the nearest complex float, which the float
checkers read.  `Root.error_radius` is the same disk about the printed
centre, rounded up to a float: never below the proved radius, and never 0.0
except for the exact zero roots.  The moduli over a disk
(`_modulus_bounds`), and with them the measure and the disk counts, are
integer arithmetic on `Root.centre`.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import mpmath as mp
from mpmath import libmp

from .polycore import Polynomial, horner, squarefree_parts

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
]

ITERATION_CAP = 200


class RootFindError(RuntimeError):
    """Raised when the roots cannot each be enclosed in their own inclusion disk."""


class PrecisionError(RuntimeError):
    """Raised when a query is undecidable at the current precision."""


@dataclass(frozen=True)
class Root:
    value: mp.mpc  # the centre as an mpc
    centre: tuple[int, int, int]  # (xm, ym, e): value = (xm + i ym) 2^e exactly
    z: complex  # complex(value): +-inf or 0.0 outside the float range
    error_radius: float  # of the inclusion disk about value, rounded up
    multiplicity: int
    real: bool | None  # decided by the inclusion disk; None if left open


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    precision_bits: int
    polynomial: Polynomial

    def __iter__(self):
        return iter(self.roots)


@dataclass(frozen=True)
class DiskCount:
    count: int
    certified: bool


def _initial_guesses(fc):
    """Ring-distributed starting points with deterministic angular jitter."""
    d = len(fc) - 1
    a0, ad = abs(fc[0]), abs(fc[-1])
    scale = (a0 / ad) ** (1.0 / d) if a0 and ad else 1.0
    scale = max(scale, 0.5)
    zs = []
    for k in range(d):
        ang = 2 * math.pi * k / d + 0.4 / (d + 1) + 0.13
        r = scale * (1.0 + 0.05 * ((k * 7919) % 13) / 13.0)
        zs.append(complex(r * math.cos(ang), r * math.sin(ang)))
    return zs


def roots(p: Polynomial, precision_bits: int = 128) -> RootSet:
    """All complex roots of P, each in a proved inclusion disk, with exact
    multiplicities from the squarefree decomposition of P."""
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")

    # exact zero roots: deflate x^k
    a = p.integer_coeffs()
    k0 = next(k for k, c in enumerate(a) if c)
    found = [Root(mp.mpc(0), (0, 0, 0), 0j, 0.0, k0, True)] if k0 else []
    if len(a) - k0 > 1:
        for mult, part in squarefree_parts(a[k0:]):
            found.extend(_simple_roots(part, mult, precision_bits))

    # by real part, then imaginary part, exactly: the centres on one exponent
    e = min(r.centre[2] for r in found)
    found.sort(key=lambda r: (r.centre[0] << r.centre[2] - e, r.centre[1] << r.centre[2] - e))
    total = sum(r.multiplicity for r in found)
    if total != p.degree:
        raise RootFindError(f"root count {total} does not match degree {p.degree}")
    return RootSet(tuple(found), precision_bits, p)


def _simple_roots(ics: list[int], mult: int, precision_bits: int) -> list[Root]:
    """The roots of the squarefree integer polynomial ``ics`` (lowest degree
    first, ics[0] != 0), each with multiplicity ``mult``."""
    d = len(ics) - 1
    # work on Q(y) = P(2^s y) with integer coefficients b and roots y = 2^-s z:
    # s ~ log2 |a0 / ad| / d puts their geometric mean near 1, so coefficients
    # spanning more than the float range still seed every root
    s = round((abs(ics[0]).bit_length() - abs(ics[-1]).bit_length()) / d)
    b = [c << (s * k if s > 0 else -s * (d - k)) for k, c in enumerate(ics)]

    # phase 1: machine-precision seeds (companion eigenvalues when viable,
    # otherwise Aberth from ring guesses), polished by a machine Aberth pass;
    # a power of two near the largest coefficient keeps it in float range
    top = max(abs(c) for c in b).bit_length()
    fc = [_scaled_float(c, -top) for c in b]
    zs = _eigen_seeds(fc) or _initial_guesses(fc)
    _machine_aberth(fc, zs)
    if not all(cmath.isfinite(z) for z in zs):
        raise RootFindError("machine-precision seeds are not finite")

    # phase 2: refine in fixed point, a complex number being a pair of ints
    # scaled by 2^F.  Every root has |y| >= |b0| / (|b0| + max |b_k|) >=
    # 2^-guard, so F = work + guard leaves even the smallest root `work`
    # relative bits.  The roots are simple: the iteration converges quadratically.
    b0 = abs(b[0])
    guard = ((b0 + max(abs(c) for c in b[1:])) // b0).bit_length()
    work = precision_bits + 32
    F = work + guard
    cs = [c << F for c in reversed(b)]
    one, nudge = 1 << F, 1 << (F - precision_bits)
    zr = [_to_fixed(z.real, F) for z in zs]
    zi = [_to_fixed(z.imag, F) for z in zs]
    # one evaluation per iterate serves its step, the stopping test and the
    # disk: a Gauss-Seidel sweep reads P(z_k) before it moves z_k, and moving
    # another root leaves P(z_k) as it is
    evals = [_fixed_eval(cs, F, x, y) for x, y in zip(zr, zi)]
    for _ in range(ITERATION_CAP):
        # stop when every Newton step |P / P'| is below 2^-precision_bits;
        # P' = 0 never passes
        if all((pr * pr + pi * pi) << 2 * precision_bits < dr * dr + di * di
               for pr, pi, dr, di in evals):
            break
        for k in range(d):
            xr, xi = zr[k], zi[k]
            pr, pi, dr, di = evals[k]
            dp2 = dr * dr + di * di
            if dp2 == 0:
                # nudge off a critical point
                zr[k], zi[k] = xr + nudge, xi + nudge
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
        evals = [_fixed_eval(cs, F, x, y) for x, y in zip(zr, zi)]

    # accepted by the disks alone: d disjoint disks of the degree-d P_i, each
    # holding a root, hold one root each, converged or not
    newton = [_error_radius(d, ev, cr, ci, F) for ev, cr, ci in zip(evals, zr, zi)]
    if None in newton or not _disjoint(zr, zi, newton):
        raise RootFindError("inclusion disks overlap")
    return [
        _root(x, y, F - s, work, n, mult, real)
        for x, y, n, real in zip(zr, zi, newton, _realness(zr, zi, newton))
    ]


def _root(xr: int, xi: int, F: int, work: int, n: int, mult: int, real) -> Root:
    """The `Root` about (xr + i xi) / 2^F, each part rounded to ``work`` bits,
    whose inclusion disk holds the disk of radius n units of 2^-F about it."""
    (xm, kx), (ym, ky) = _round_even(xr, work), _round_even(xi, work)
    value = mp.make_mpc((libmp.from_man_exp(xm, kx - F), libmp.from_man_exp(ym, ky - F)))
    k = min(kx, ky)
    return Root(value, (xm << kx - k, ym << ky - k, k - F), complex(value),
                _printed_radius(xr, xi, n, F, work), mult, real)


def _round_even(x: int, work: int) -> tuple[int, int]:
    """(m, k) with m 2^k the int x rounded to ``work`` bits, half to even, as
    libmp.from_man_exp(x, 0, work, "n") rounds it."""
    a = abs(x)
    k = a.bit_length() - work
    if k <= 0:
        return x, 0
    m = a >> k
    rest, half = a & ((1 << k) - 1), 1 << (k - 1)
    if rest > half or rest == half and m & 1:
        m += 1
    return (m if x > 0 else -m), k


def _scaled_float(c: int, e: int) -> float:
    """c 2^e as a float, 0.0 below the float range."""
    n = c.bit_length() - 1000
    if n > 0:
        c, e = c >> n, e + n
    return math.ldexp(float(c), e)


def _to_fixed(x: float, F: int) -> int:
    n, q = x.as_integer_ratio()  # q is a power of two
    return (n << F) // q


def _float_up(m: int, F: int) -> float:
    """m 2^-F, m >= 0, rounded up to a float; inf above the float range."""
    n, q = (m, 1 << F) if F >= 0 else (m << -F, 1)
    try:
        f = n / q  # correctly rounded, subnormals included
    except OverflowError:
        return math.inf
    a, b = f.as_integer_ratio()
    return f if a * q >= n * b else math.nextafter(f, math.inf)


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
    """Companion-matrix eigenvalues as starting points, or None above degree
    400 or when numpy does not give d finite eigenvalues, as when the leading
    coefficient scales to 0.0, below the float range."""
    if len(fc) - 1 > 400:
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
    for _ in range(ITERATION_CAP):
        step = 0.0
        for k in range(d):
            pk = horner(fc, zs[k])
            dpk = horner(dfc, zs[k])
            if dpk == 0:
                # nudge off a critical point, each seed its own way: seeds
                # that sit together there must not move together
                zs[k] += 1e-8 * cmath.exp(2j * math.pi * (k + 0.5) / d)
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
            if not cmath.isfinite(w):
                # |z|^d beyond the float range: leave the seed to phase 2
                # rather than spread the NaN to every other seed
                continue
            zs[k] -= w
            step = max(step, abs(w))
        if step < 1e-14:
            break


def _disjoint(zr, zi, rad) -> bool:
    """Whether the disks of radius rad[k] about (zr[k], zi[k]), all ints in
    one fixed-point unit, are pairwise disjoint; swept by real part."""
    order = sorted(range(len(zr)), key=zr.__getitem__)
    reach = max(rad)
    for a, k in enumerate(order):
        for j in itertools.islice(order, a + 1, None):
            ur, ui, s = zr[j] - zr[k], zi[j] - zi[k], rad[k] + rad[j]
            if ur > rad[k] + reach:
                break
            if ur * ur + ui * ui <= s * s:
                return False
    return True


def _realness(zr, zi, rad) -> list[bool | None]:
    """`Root.real` from the disjoint disks of one real polynomial, one root
    in each: False when a disk misses the real axis; True when its mirror
    image, which holds the conjugate of its root, meets no other disk; None
    otherwise."""
    out = []
    for k, (xr, xi, n) in enumerate(zip(zr, zi, rad)):
        if abs(xi) > n:
            out.append(False)
        elif any(j != k and (zr[j] - xr) ** 2 + (zi[j] + xi) ** 2 <= (rad[j] + n) ** 2
                 for j in range(len(zr))):
            out.append(None)
        else:
            out.append(True)
    return out


def _horner_error(d: int, ac: int, F: int) -> tuple[int, int]:
    """Bounds, in units of 2^-F, on the errors of P and P' from `_fixed_eval`
    of degree d at |y| <= (ac + 1) / 2^F.  Each step multiplies the error e
    of P by |y|, and that of P' by |y| before adding e, and floors each part
    once: under 2 units.  With t = max(|y|, 1) that gives 2 d t^(d-1) and
    d (d + 1) t^(d-1)."""
    a = -(-max(ac + 1, 1 << F) >> (F - 32))  # t <= a / 2^32
    u, shift = a ** (d - 1), 32 * (d - 1)
    return -(-2 * d * u >> shift), -(-d * (d + 1) * u >> shift)


def _error_radius(d, ev, cr, ci, F):
    """Newton's inclusion radius at y = (cr + i ci) / 2^F from ev = (Re Q,
    Im Q, Re Q', Im Q'), the `_fixed_eval` there of the degree-d kernel Q:
    d |Q(y)| / |Q'(y)| in units of 2^-F, rounded up, with the rounding of
    `_fixed_eval` added to |Q| and taken from |Q'|.  The disk of that radius
    about y holds a root of Q; None if the rounding reaches |Q'|."""
    pr, pi, dr, di = ev
    e, de = _horner_error(d, math.isqrt(cr * cr + ci * ci), F)
    dp = math.isqrt(dr * dr + di * di)  # |Q'| rounded down
    if dp <= de:
        return None
    p2 = pr * pr + pi * pi
    p = math.isqrt(p2 - 1) + 1 if p2 else 0  # |Q| rounded up
    return -(-d * ((p + e) << F) // (dp - de))


def _printed_radius(xr: int, xi: int, n: int, F: int, work: int) -> float:
    """The float radius, rounded up, of a disk about (xr + i xi) / 2^F with
    each part rounded to ``work`` bits (`_root`) that holds the disk of
    radius n about (xr + i xi) / 2^F: rounding each part to nearest moves the
    centre by less than c = (|xr + i xi| >> (work - 1)) + 1 units of 2^-F."""
    c = (math.isqrt(xr * xr + xi * xi) >> (work - 1)) + 1
    return _float_up(n + c, F)


def _dyadic(c) -> tuple[int, int, int]:
    """The int, float or complex ``c`` exactly as a centre (xm, ym, e), c =
    (xm + i ym) 2^e: the denominators of a float are powers of two."""
    if isinstance(c, int):
        return c, 0, 0
    c = complex(c)
    (xn, xq), (yn, yq) = c.real.as_integer_ratio(), c.imag.as_integer_ratio()
    q = max(xq, yq)
    return xn * (q // xq), yn * (q // yq), 1 - q.bit_length()


def _dyadic_sub(a, b) -> tuple[int, int, int]:
    """The centre a - b, exactly, of two centres (xm, ym, e)."""
    (ax, ay, ae), (bx, by, be) = a, b
    e = min(ae, be)
    return (ax << ae - e) - (bx << be - e), (ay << ae - e) - (by << be - e), e


def _modulus_bounds(centre, rho: float, G: int) -> tuple[int, int]:
    """Ints (lo, hi) with lo <= 2^G |zeta| <= hi for every zeta in the disk
    |zeta - z| <= rho about z = (xm + i ym) 2^e, ``centre`` = (xm, ym, e):
    the exact squared modulus, its square root rounded down and up, then
    ceil(rho 2^G) taken from lo and added to hi."""
    x, y, e = centre
    # 2^G |z| = sqrt(s 2^(2e + 2G)) = sqrt(s 2^(2e + 2G + 2t)) 2^-t
    t = max(-e - G, 0)
    s = (x * x + y * y) << 2 * (e + G + t)
    lo = math.isqrt(s)
    hi = lo + (lo * lo != s)
    n, q = rho.as_integer_ratio()
    r = -((-n << G) // q)
    return (lo >> t) - r, -(-hi >> t) + r


# ---------------------------------------------------------------------------
# counting


def count_in_disk(rs: RootSet, center, radius, _retried=False) -> DiskCount:
    """Number of roots (with multiplicity) strictly inside the open disk
    about the int, float or complex ``center``, taken exactly.

    A root counts when its inclusion disk lies inside.  A disk that meets
    the boundary is not counted, as a root on it is not, and leaves the count
    uncertified; the roots are then found once more at doubled precision."""
    G = rs.precision_bits + 32
    n, q = float(radius).as_integer_ratio()
    R = n << G  # q 2^G radius
    c = _dyadic(center)
    count = 0
    certified = True
    for r in rs.roots:
        lo, hi = _modulus_bounds(_dyadic_sub(r.centre, c), r.error_radius, G)
        if hi * q < R:
            count += r.multiplicity
        elif lo * q < R:
            certified = False
    if not certified and not _retried:
        rs2 = roots(rs.polynomial, rs.precision_bits * 2)
        return count_in_disk(rs2, center, radius, _retried=True)
    return DiskCount(count, certified)


def count_real(rs: RootSet) -> tuple[int, int]:
    """(m, n): number of real zeros and of positive real zeros, with
    multiplicity, read from `Root.real`.  Raises PrecisionError when an
    inclusion disk leaves a root's realness open at the RootSet's precision."""
    m = n = 0
    for r in rs.roots:
        if r.real is None:
            raise PrecisionError(
                f"realness of root near {r.z} undecidable; "
                "increase precision"
            )
        if r.real:
            m += r.multiplicity
            if r.centre[0] > 0:
                n += r.multiplicity
    return m, n


def count_outside_radius(p: Polynomial, r: float, rs: RootSet, mahler: float):
    """(count, bound, holds): |roots outside |x|>r| against log M / log r,
    M = ``mahler`` being the measure of P."""
    if not p.is_monic():
        raise ValueError("count_outside_radius requires a monic polynomial")
    if r <= 1:
        raise ValueError("requires r > 1")
    count = sum(rt.multiplicity for rt in rs.roots if abs(rt.value) > r)
    bound = math.log(mahler) / math.log(r) if mahler > 0 else 0.0
    return count, bound, count < bound
