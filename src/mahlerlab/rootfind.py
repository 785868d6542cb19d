"""Simultaneous (Aberth-style) complex root finding with a proved inclusion
disk per root, plus disk / real-line / annulus counting helpers.

Multiplicities are exact: `polycore.squarefree_parts` splits P into
squarefree P_i (Yun), and the roots of each P_i, all simple, are found
alone and get multiplicity i.  Exact algebra comes first: x^k gives the
zero roots, and each cyclotomic factor Phi_n of a P_i, found by
`polycore._cyclotomic_divisors` and divided out exactly, gives its primitive
n-th roots of unity in closed form (`_cyclotomic_roots`).  `RootSet.cyclotomic`
holds exactly the orders n split off, ascending: the n with Phi_n | P, whose
roots lie on the unit circle by construction; callers read P's cyclotomic
factors there and never test for them again.  What is left of P_i is
refined: machine-precision Aberth from companion-matrix eigenvalues
(or ring guesses) seeds a fixed-point refinement: each iterate is
a pair of Python ints scaled by 2^F, F = precision_bits + 32 plus guard bits
from the lower root bound, so the smallest root keeps full relative
precision.  P_i is real, so its non-real roots come in conjugate pairs: when
the machine pass converged, of each pair of seeds only the one above the real
axis is refined, and the other is kept at its exact mirror image
(Bini-Fiorentino, Numer. Algorithms 2000, use the same symmetry).  Each refined iterate is evaluated
once per sweep, P_i and P_i' by one fixed-point Horner pass: that evaluation
gives the Newton step of the next Aberth sweep, stops the iteration once
every Newton step is below 2^-precision_bits, and gives the inclusion disk.
Newton's disk of radius d*|P_i(z)|/|P_i'(z)| about any z, widened by the
rounding of the Horner evaluation, holds a root (Henrici, Applied and
Computational Complex Analysis, vol. 1, ch. 6; Neumaier, JCAM 2003); the
moduli and the rounding bound are the same at the conjugate of z, so the
mirror image of a refined iterate's disk holds a root too.  The disks alone
accept a root set: those of one P_i must be pairwise disjoint, so that each
holds exactly one root, whether or not the iteration converged.  When the
paired disks are not, every seed is refined on its own once more, as before
pairing: two seeds of a pair just off the real axis can both start on it, and
the mirrored pairs keep them there.  A paired run whose Newton steps stop
shrinking leaves the decision to its disks early.  The disks decide each
root's realness once, as `Root.real`.  The printed centre rounds each part of the
fixed-point centre to precision_bits + 32 bits, half to even, in ints:
`Root.centre` holds it exactly as (xm, ym, e), (xm + i ym) 2^e, and `Root.z`
as the nearest complex float, by int division, which the float checkers
read.  `Root.error_radius` is the same disk about the printed centre,
rounded up to a float: never below the proved radius, and never 0.0 except
for the exact zero roots.  The moduli over a disk, and with them the
measure and the disk and radius counts, are integer arithmetic on
`Root.centre`; every rounding between ints and floats is made by `dyadic`.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .dyadic import as_centre, centre_sub, fixed, float_nearest, float_up, modulus_bounds, round_shift
from .polycore import (
    Polynomial,
    _cyclotomic_coeffs,
    _cyclotomic_divisors,
    _exact_quotient,
    horner,
    squarefree_parts,
)

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
    centre: tuple[int, int, int]  # (xm, ym, e): the centre (xm + i ym) 2^e exactly
    z: complex  # the centre, each part rounded to nearest: +-inf or +-0.0 outside the float range
    error_radius: float  # of the inclusion disk about the centre, rounded up
    multiplicity: int
    real: bool | None  # decided by the inclusion disk; None if left open


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    precision_bits: int
    polynomial: Polynomial
    cyclotomic: tuple[int, ...]  # the n with Phi_n | P, ascending: exactly the orders split off

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
    multiplicities from the squarefree decomposition of P: the zero roots
    and the roots of the cyclotomic factors exactly or in closed form, the
    others by Aberth's iteration."""
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")

    # exact zero roots: deflate x^k
    a = p.integer_coeffs()
    k0 = next(k for k, c in enumerate(a) if c)
    found = [Root((0, 0, 0), 0j, 0.0, k0, True)] if k0 else []
    orders = []
    if len(a) - k0 > 1:
        for mult, part in squarefree_parts(a[k0:]):
            # the roots of unity in closed form; Aberth refines the rest
            for n in list(_cyclotomic_divisors([part])[0]):
                part = _exact_quotient(part, list(_cyclotomic_coeffs(n)))
                found.extend(_cyclotomic_roots(n, mult, precision_bits))
                orders.append(n)
            if len(part) > 1:
                found.extend(_simple_roots(part, mult, precision_bits))

    # by real part, then imaginary part, exactly: the centres on one exponent
    e = min(r.centre[2] for r in found)
    found.sort(key=lambda r: (r.centre[0] << r.centre[2] - e, r.centre[1] << r.centre[2] - e))
    total = sum(r.multiplicity for r in found)
    if total != p.degree:
        raise RootFindError(f"root count {total} does not match degree {p.degree}")
    return RootSet(tuple(found), precision_bits, p, tuple(sorted(orders)))


def _cyclotomic_roots(n: int, mult: int, precision_bits: int) -> list[Root]:
    """The primitive n-th roots of unity exp(2 pi i k / n), gcd(k, n) = 1,
    each with multiplicity ``mult``: the roots of Phi_n in closed form.

    Each angle reduces exactly, in integers, to an octant: 8k = q n + m,
    0 <= m < n, puts 2 pi k / n at q pi / 4 + pi m / (4n), which is
    j pi / 2 + t or j pi / 2 - t for t = pi m' / (4n) in [0, pi / 4], with
    m' = m for even q and n - m for odd q.  So exp(2 pi i k / n) is
    i^j (cos t +- i sin t), exactly, from cos t and sin t at G bits
    (`_cos_sin`, from pi by `_machin_pi`): +-1 and +-i come out exact, and
    t = pi / 4, where both are sqrt 2 / 2, is one floored integer square
    root.  t 2^G, floored from pi 2^G m' / (4n), is off by at most
    e_pi m' / (4n) + 1 units for pi's error e_pi, and cos and sin are
    1-Lipschitz, so each part of the root is within e units, its modulus
    within 2e; `_root` rounds it to `work` bits.  Of a pair, the root
    above the real axis is made, and its conjugate mirrored by
    `_conjugate`; a root is real only for n <= 2."""
    work = precision_bits + 32
    # 16 guard bits keep the proved error, a few thousand units of 2^-G at
    # 1024 bits, far below the rounding to `work` bits
    G = work + 16
    pi, e_pi = _machin_pi(G)
    parts = {}  # (cos t, sin t, error) by m'
    found = []
    for k in range(n // 2 + 1):
        if math.gcd(k, n) != 1:
            continue
        q, m = divmod(8 * k, n)
        if q % 2:
            m = n - m
        if m not in parts:
            if m == n:  # t = pi / 4
                h = math.isqrt(1 << 2 * G - 1)
                parts[m] = h, h, 1
            else:
                c, s, e = _cos_sin(pi * m // (4 * n), G)
                parts[m] = c, s, e + e_pi // 4 + 2
        x, y, e = parts[m]
        if q % 2:
            y = -y
        for _ in range((q + 1) // 2):  # times i
            x, y = -y, x
        r = _root(x, y, G, work, 2 * e, mult, n <= 2)
        found.append(r)
        if n > 2:
            found.append(_conjugate(r, False))
    return found


@lru_cache(maxsize=8)
def _machin_pi(G: int) -> tuple[int, int]:
    """(p, e) with |p - pi 2^G| < e, by Machin's formula pi = 16 atan(1/5) -
    4 atan(1/239).  atan(1/x) 2^G sums (-1)^k floor(2^G / ((2k + 1)
    x^(2k + 1))), while the floored power is nonzero: a nested floored
    division by ints is one floored division, so each term is within one
    unit, and the alternating tail, below the first power left out, is below
    one unit too."""

    def atan_inv(x: int) -> tuple[int, int]:
        total, power, k = 0, (1 << G) // x, 0
        while power:
            total += -(power // (2 * k + 1)) if k % 2 else power // (2 * k + 1)
            power //= x * x
            k += 1
        return total, k + 1

    (a, ea), (b, eb) = atan_inv(5), atan_inv(239)
    return 16 * a - 4 * b, 16 * ea + 4 * eb


def _cos_sin(T: int, G: int) -> tuple[int, int, int]:
    """(c, s, e): cos t and sin t for t = T / 2^G in [0, 1], at G bits, each
    within e units, by their Taylor series.

    With x2 = floor(T^2 / 2^G), within one unit below t^2 2^G, each term is
    the last one times x2 / 2^G over (2k - 1) 2k (cos) or 2k (2k + 1) (sin),
    floored once.  So a term's error d_k, one unit of flooring plus its
    share of the last term's, obeys d_k < d_(k-1) / 2 + 1/2 + 1 and stays
    below 3 units.  The series stop at the first k where both floored terms
    are 0, whose exact terms are then below 3 units, and the alternating
    tail past them, of decreasing terms, is below 1: e = 3k + 3."""
    one = 1 << G
    x2 = T * T >> G
    c = cs = one
    s = ss = T
    k = 0
    while c or s:
        k += 1
        c = (c * x2 >> G) // ((2 * k - 1) * 2 * k)
        s = (s * x2 >> G) // (2 * k * (2 * k + 1))
        if k % 2:
            cs, ss = cs - c, ss - s
        else:
            cs, ss = cs + c, ss + s
    return cs, ss, 3 * k + 3


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
    fc = [float_nearest(c, -top) for c in b]
    zs = _eigen_seeds(fc) or _initial_guesses(fc)
    converged = _machine_aberth(fc, zs)
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
    zr0 = [fixed(z.real, F) for z in zs]
    zi0 = [fixed(z.imag, F) for z in zs]
    # Q is real, so its non-real roots come in conjugate pairs, and each pair
    # of seeds refines as one.  If their disks fail, each seed refines on its
    # own once more, from the same seeds, as the iteration did before pairing.
    # Seeds of a machine pass that did not converge are left unpaired: they
    # pair badly
    pairs = _conjugate_pairs(zs) if converged else {}
    for mates in ([pairs, {}] if pairs else [{}]):
        zr, zi = list(zr0), list(zi0)
        newton = _refine(cs, F, precision_bits, zr, zi, mates)
        if newton:
            break
    else:
        raise RootFindError("inclusion disks overlap")
    real = _realness(zr, zi, newton)
    partners = set(mates.values())
    found = {k: _root(zr[k], zi[k], F - s, work, newton[k], mult, real[k])
             for k in range(d) if k not in partners}
    for k, j in mates.items():
        found[j] = _conjugate(found[k], real[j])
    return list(found.values())


def _conjugate_pairs(zs) -> dict[int, int]:
    """{k: j} pairing each seed z_k above the real axis with the seed z_j
    below it nearest to its conjugate, when z_j lies nearer to conj(z_k)
    than conj(z_k) lies to the axis; seeds left unpaired refine alone."""
    below = [j for j, z in enumerate(zs) if z.imag < 0]
    pairs = {}
    for k, z in enumerate(zs):
        if z.imag > 0 and below:
            w = z.conjugate()
            j = min(below, key=lambda j: abs(zs[j] - w))
            if abs(zs[j] - w) < z.imag:
                pairs[k] = j
                below.remove(j)
    return pairs


def _refine(cs, F, precision_bits, zr, zi, mates) -> list[int] | None:
    """Aberth sweeps in place on the fixed-point iterates (zr, zi) of the
    kernel Q, coefficients ``cs`` scaled by 2^F, leading first; then the
    inclusion radius of each iterate in units of 2^-F, or None unless the
    disks are pairwise disjoint.  For each k: j of ``mates``, z_j is kept
    at conj(z_k): Q is real, so Q(conj z) = conj Q(z), and z_j is neither
    evaluated nor stepped, and its disk is the mirror image of z_k's."""
    d = len(cs) - 1
    one, nudge = 1 << F, 1 << (F - precision_bits)
    for k, j in mates.items():
        zr[j], zi[j] = zr[k], -zi[k]
    # one evaluation per iterate serves its step, the stopping test and the
    # disk: a Gauss-Seidel sweep reads Q(z_k) before it moves z_k, and moving
    # another root leaves Q(z_k) as it is
    partners = set(mates.values())
    live = [k for k in range(d) if k not in partners]
    evals = [_fixed_eval(cs, F, zr[k], zi[k]) for k in live]
    least, stalls = math.inf, 0
    for _ in range(ITERATION_CAP):
        # stop when every Newton step |Q / Q'| is below 2^-precision_bits;
        # Q' = 0 never passes
        if all((pr * pr + pi * pi) << 2 * precision_bits < dr * dr + di * di
               for pr, pi, dr, di in evals):
            break
        if mates:
            # paired seeds come from a converged machine pass, so their
            # largest Newton step falls to new lows until the test above
            # stops them; once it has not for three sweeps in a row, the
            # disks decide at once, and if they fail the unpaired retry
            # starts early.  Converging runs on x^12 + 2^e x^11 + 1 go two
            # sweeps without a new low
            step = max(((pr * pr + pi * pi) << 2 * F) // (dr * dr + di * di) if dr or di else math.inf
                       for pr, pi, dr, di in evals)
            stalls = 0 if step < least else stalls + 1
            least = min(least, step)
            if stalls == 3:
                break
        for k, (pr, pi, dr, di) in zip(live, evals):
            xr, xi = zr[k], zi[k]
            dp2 = dr * dr + di * di
            if dp2 == 0:
                # nudge off a critical point
                nr = ni = -nudge
            else:
                # Newton step n = Q / Q', Aberth sum s = sum_j 1 / (z_k - z_j),
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
            if k in mates:
                zr[mates[k]], zi[mates[k]] = zr[k], -zi[k]
        evals = [_fixed_eval(cs, F, zr[k], zi[k]) for k in live]

    # accepted by the disks alone: d disjoint disks of the degree-d Q, each
    # holding a root, hold one root each, converged or not
    newton = [None] * d
    for k, ev in zip(live, evals):
        newton[k] = _error_radius(d, ev, zr[k], zi[k], F)
    for k, j in mates.items():
        newton[j] = newton[k]
    if None in newton or not _disjoint(zr, zi, newton):
        return None
    return newton


def _root(xr: int, xi: int, F: int, work: int, n: int, mult: int, real) -> Root:
    """The `Root` about (xr + i xi) / 2^F, each part rounded to ``work`` bits,
    whose inclusion disk holds the disk of radius n units of 2^-F about it."""
    kx, ky = max(abs(xr).bit_length() - work, 0), max(abs(xi).bit_length() - work, 0)
    k = min(kx, ky)
    xm, ym = round_shift(xr, -kx) << kx - k, round_shift(xi, -ky) << ky - k
    z = complex(float_nearest(xm, k - F), float_nearest(ym, k - F))
    return Root((xm, ym, k - F), z, _printed_radius(xr, xi, n, F, work), mult, real)


def _conjugate(r: Root, real) -> Root:
    """The `Root` of the mirror image of r's fixed-point centre: `_root` rounds
    each part and bounds its radius symmetrically in sign; Im r is never 0."""
    xm, ym, e = r.centre
    return Root((xm, -ym, e), r.z.conjugate(), r.error_radius, r.multiplicity, real)


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
    d = len(fc) - 1
    if d > 400:
        return None
    import numpy as np

    p = np.array(fc[::-1])
    try:
        if fc[0] and fc[-1]:
            # the companion matrix of np.roots, without its trimming of zero
            # end coefficients
            a = np.diag(np.ones(d - 1), -1)
            a[0, :] = -p[1:] / p[0]
            vals = np.linalg.eigvals(a).tolist()
        else:
            # np.roots drops a zero lead, so gives too few roots, and gives
            # an exact 0 for a constant term that scaled to 0.0
            vals = np.roots(p).tolist()
    except (np.linalg.LinAlgError, ValueError):
        return None
    zs = [complex(v) for v in vals]
    if len(zs) != d or not all(cmath.isfinite(z) for z in zs):
        return None
    return zs


def _machine_aberth(fc, zs) -> bool:
    """Aberth sweeps in floats on the seeds ``zs``, in place; whether the
    last step fell below 1e-14 within ITERATION_CAP sweeps."""
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
            return True
    return False


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
    if ac < 1 << F:  # t = 1
        return 2 * d, d * (d + 1)
    a = -(-(ac + 1) >> (F - 32))  # t <= a / 2^32
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
    return float_up(n + c, -F)


# ---------------------------------------------------------------------------
# counting


def count_in_disk(rs: RootSet, center, radius, _retried=False) -> DiskCount:
    """Number of roots (with multiplicity) strictly inside the open disk
    about the int, float or complex ``center``, taken exactly.

    A root counts when its inclusion disk lies inside.  A disk that meets
    the boundary is not counted, as a root on it is not, and leaves the count
    uncertified; the roots are then found once more at doubled precision."""
    G = rs.precision_bits + 32
    R = fixed(float(radius), G, up=True)  # an int is below radius 2^G when below R
    c = as_centre(center)
    count, certified = 0, True
    for r in rs.roots:
        lo, hi = modulus_bounds(centre_sub(r.centre, c), r.error_radius, G)
        if hi < R:
            count += r.multiplicity
        elif lo < R:
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
    M = ``mahler`` being the measure of P.  A root counts when its whole
    inclusion disk lies outside, so a root on |x| = r never does."""
    if not p.is_monic():
        raise ValueError("count_outside_radius requires a monic polynomial")
    if r <= 1:
        raise ValueError("requires r > 1")
    G = rs.precision_bits + 32
    R = fixed(float(r), G)  # an int is above r 2^G when above R
    count = sum(rt.multiplicity for rt in rs.roots if modulus_bounds(rt.centre, rt.error_radius, G)[0] > R)
    bound = math.log(mahler) / math.log(r) if mahler > 0 else 0.0
    return count, bound, count < bound
