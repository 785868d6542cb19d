"""Evaluators for every inequality of the zero-geometry results: Liouville-type
separation bounds, Jensen-disk estimates, the generalized Schinzel lower bound,
real-zero counting bounds, Lemma K on |P(1)| and the disk-count lower
bound, together with the transcendental constants they use.

Every proved inequality gets a Holds/Violated verdict with its margin;
asymptotic statements with non-effective thresholds are evaluated but tagged
ReportOnly, never pass/fail.

The bounds on the zeros near omega = +-1 are evaluated at omega = 1 only,
where |P(1)| is exact: the separation bounds, the Jensen-disk lemma at
rho = 0.3, the four disk inequalities at delta = 1.5, 2 and e^2 and the
three corollaries built on them, and Lemma K for N = 2..10.  One pass over
the roots gives the left-hand sides of all the disk rows of a checker.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache

import mpmath as mp

from .measure import MeasureResult, _root_product, mahler_from_roots, norm_chain_check, sup_norm_circle
from .polycore import NormBundle, Polynomial, norms
from .reporting import (
    BoundEntry,
    BoundReport,
    entry_from_inequality,
    entry_not_applicable,
    entry_report_only,
)
from .rootfind import RootSet, _dyadic_sub, _modulus_bounds, count_in_disk, count_outside_radius, count_real, roots
from .structure import (
    IrreducibilityStatus,
    _cyclotomic_terms,
    _monic_divides,
    cyclotomic_factor,
    irreducibility_probe,
)

__all__ = [
    "PaperConstants",
    "solve_constants",
    "liouville_selfreciprocal",
    "dubickas_selfreciprocal_rhs",
    "general_separation",
    "jensen_disk_rhs",
    "lower1_bounds",
    "corollary_bounds",
    "schinzel_lower",
    "realzero_upper_com",
    "realzero_upper_length",
    "lemmaK_check",
    "zhang_zagier_check",
    "around1_report",
    "verify_all",
]

# printed 3-decimal value accompanying the c log c = 1 + c constant in the
# source literature; displayed next to the solved value, never forced to agree
PRINTED_C = 3.594

_REL_SLACK = 1e-9


@dataclass(frozen=True)
class PaperConstants:
    theta0: float  # real root of x^3 - x - 1
    golden: float  # (1 + sqrt 5)/2
    c: float  # c log c = 1 + c
    a: float  # a (log a)^3 = 4
    A: float  # A^2 = 4 / (a (2 + log a))
    b: float  # b (log b)^2 (log b - 2) = 8
    B: float  # B^4 = 8 log(b^2) / (b (log b + 2))
    printed_c: float = PRINTED_C

    def residuals(self) -> dict[str, float]:
        t, c, a, b = self.theta0, self.c, self.a, self.b
        return {
            "theta0": abs(t ** 3 - t - 1),
            "golden": abs(self.golden ** 2 - self.golden - 1),
            "c": abs(c * math.log(c) - 1 - c),
            "a": abs(a * math.log(a) ** 3 - 4),
            "A": abs(self.A ** 2 - 4 / (a * (2 + math.log(a)))),
            "b": abs(b * math.log(b) ** 2 * (math.log(b) - 2) - 8),
            "B": abs(self.B ** 4 - 8 * math.log(b ** 2) / (b * (math.log(b) + 2))),
        }


@cache
def solve_constants() -> PaperConstants:
    """Solve the defining equations to a residual below 10^-12; solved once per
    process (the result is frozen).

    `log b^2` is read as log(b^2) = 2 log b; that reading reproduces the
    printed B = 0.984 while (log b)^2 does not."""
    with mp.workdps(40):
        theta0 = float(mp.findroot(lambda x: x ** 3 - x - 1, 1.3))
        golden = float((1 + mp.sqrt(5)) / 2)
        c = float(mp.findroot(lambda x: x * mp.log(x) - 1 - x, 3.6))
        a = float(mp.findroot(lambda x: x * mp.log(x) ** 3 - 4, 3.0))
        b = float(mp.findroot(lambda x: x * mp.log(x) ** 2 * (mp.log(x) - 2) - 8, 9.0))
    A = math.sqrt(4 / (a * (2 + math.log(a))))
    B = (8 * math.log(b ** 2) / (b * (math.log(b) + 2))) ** 0.25
    return PaperConstants(theta0, golden, c, a, A, b, B)


# ---------------------------------------------------------------------------
# section 3.1: Liouville-type separation from roots of unity


def _roots_of_pm_one(m: int, sign: int):
    """All omega with omega^m = sign (sign is +1 or -1)."""
    offset = 0.0 if sign > 0 else 1.0
    return [cmath.exp(1j * math.pi * (2 * k + offset) / m) for k in range(m)]


def _tightest(rows):
    """The (lhs, rhs, ...) row with the smallest rhs - lhs, the one closest to
    violating lhs <= rhs; the first such row wins a tie."""
    return min(rows, key=lambda row: row[1] - row[0])


def liouville_selfreciprocal(
    p: Polynomial, rs: RootSet, mres: MeasureResult, cyc
) -> list[BoundEntry]:
    """|mu - omega| >= m^-1 2^(1-n) M^(-m/2) for real-or-unit-modulus roots and
    >= m^-1 2^(1-n/2) M^(-m/4) for the rest, one row liouville_m{m}{p|n} for
    each omega^m = +-1, m = 1..4; self-reciprocal monic integer squarefree P
    of even degree 2n with no cyclotomic factor, M = ``mres``.  ``cyc`` is
    `cyclotomic_factor(p)`, read only for monic integer P; squarefreeness is
    read from the exact multiplicities in ``rs``."""
    cases = [(m, sign) for m in (1, 2, 3, 4) for sign in (1, -1)]
    tids = [f"liouville_m{m}{'p' if sign > 0 else 'n'}" for m, sign in cases]
    if (
        not p.is_integer()
        or not p.is_monic()
        or not p.is_self_reciprocal()
        or p.degree % 2
        or any(rt.multiplicity > 1 for rt in rs.roots)
        or cyc is not None
    ):
        return [
            entry_not_applicable(tid, "requires squarefree self-reciprocal monic integer P with no cyclotomic factor")
            for tid in tids
        ]
    n = p.degree // 2
    G = rs.precision_bits + 32
    mus = []
    for rt in rs.roots:
        # the real-or-unit branch is the weaker bound, so a root whose disk
        # may hold a real or unit-modulus root takes it: that can only make
        # the check easier, while the converse could falsely fail
        lo, hi = _modulus_bounds(rt.centre, rt.error_radius, G)
        mus.append((rt.z, rt.real is not False or lo <= 1 << G <= hi))
    entries = []
    for tid, (m, sign) in zip(tids, cases):
        unit_bound = 2.0 ** (1 - n) / m * mres.value ** (-m / 2.0)
        off_bound = 2.0 ** (1 - n / 2.0) / m * mres.value ** (-m / 4.0)
        bound, dist, mu, omega = _tightest(
            (unit_bound if real_or_unit else off_bound, abs(mu - omega), mu, omega)
            for omega in _roots_of_pm_one(m, sign)
            for mu, real_or_unit in mus
        )
        entries.append(
            entry_from_inequality(
                tid, bound, dist, slack=_REL_SLACK * (1 + bound),
                note=f"tightest root {mu:.6g} vs omega {omega:.6g}",
            )
        )
    return entries


def dubickas_selfreciprocal_rhs(
    p: Polynomial, rs: RootSet, mres: MeasureResult
) -> list[BoundEntry]:
    """RHS evaluator for the improved pi*sqrt(m)/8 separation exponent at
    m = 1 and epsilon = 0.01; the threshold D0(eps) is non-effective, so these
    rows are ReportOnly.  Includes comparison columns for the historical
    constants 1 and pi/4.  The rhs column, min |mu - omega| over omega^2 = 1,
    is exactly 0 when P(1) P(-1) = 0."""
    d = p.degree
    if d < 2 or not p.is_self_reciprocal() or not p.is_integer() or not p.is_monic():
        return [entry_not_applicable("dubickas_rhs_m1", "requires monic integer self-reciprocal P of degree >= 2")]
    mval = mres.value
    if mval <= 1.0:
        return [entry_not_applicable("dubickas_rhs_m1", "requires M(P) > 1")]
    base = math.sqrt(d * math.log(d) * math.log(mval))
    epsilon = 0.01
    if p.eval_exact(1) == 0 or p.eval_exact(-1) == 0:
        # the computed distance of that root to omega would be rounding noise
        lhs = 0.0
    else:
        omegas = _roots_of_pm_one(1, 1) + _roots_of_pm_one(1, -1)
        lhs = min(
            abs(rt.z - w) for rt in rs.roots for w in omegas
        )
    out = []
    rhs8 = math.exp(-(math.pi / 8 + epsilon) * base)
    rhs16 = math.exp(-(math.pi / 16 + epsilon) * base)
    out.append(entry_report_only("dubickas_rhs_m1", rhs8, lhs, note="exponent pi*sqrt(m)/8; lhs col = RHS, rhs col = min |mu-omega|"))
    out.append(entry_report_only("dubickas_rhs_m1_nonreal", rhs16, lhs, note="exponent pi*sqrt(m)/16 (non-real off-circle roots)"))
    out.append(
        entry_report_only(
            "dubickas_rhs_m1_comparison",
            math.exp(-(1 + epsilon) * base),
            math.exp(-(math.pi / 4 + epsilon) * base),
            note="Mignotte-Waldschmidt (const 1) vs Dubickas (const pi/4)",
        )
    )
    return out


# ---------------------------------------------------------------------------
# section 3.2: coefficient-based separation and the disk inequalities, all at
# omega = 1, where |P(1)| is exact


def _separation_entry(tid: str, rs: RootSet, bound) -> BoundEntry:
    """|mu - 1| >= bound(multiplicity of mu), checked at the tightest root."""
    lhs, rhs = _tightest(
        (bound(rt.multiplicity), abs(rt.z - 1)) for rt in rs.roots
    )
    return entry_from_inequality(tid, lhs, rhs, slack=_REL_SLACK * (1 + lhs))


def general_separation(
    p: Polynomial, rs: RootSet, supnorm: float, nb: NormBundle
) -> list[BoundEntry]:
    """|mu - 1| >= d^-1 (e^-1 |P(1)| / L)^(1/m_mu) for every root, plus the
    positive-coefficient and sup-norm-attaining corollaries, the latter when
    |P(1)| reaches ``supnorm`` = ||P|| on the unit circle; ``nb`` is
    `norms(p)`."""
    d = p.degree
    if d < 1:
        return [entry_not_applicable("general_separation", "degree 0")]
    pw = float(abs(p.eval_exact(1)))
    if pw == 0:
        return [entry_not_applicable("general_separation", "P(1) = 0")]
    L = float(nb.L)
    entries = [
        _separation_entry(
            "general_separation", rs, lambda mult: (pw / (math.e * L)) ** (1.0 / mult) / d
        )
    ]
    if all(c > 0 for c in p.coeffs):
        entries.append(
            _separation_entry(
                "general_separation_positive", rs, lambda mult: math.exp(-1.0 / mult) / d
            )
        )
    if abs(pw - supnorm) <= 1e-9 * supnorm:
        entries.append(
            _separation_entry(
                "general_separation_supnorm", rs,
                lambda mult: (math.exp(-1.0) / math.sqrt(d + 1)) ** (1.0 / mult) / d,
            )
        )
    return entries


def _weighted_sums(p: Polynomial):
    """(S1, S2) = sum over j < n of (n-j)|a_j| and (n-j)^2 |a_j|."""
    n = p.degree // 2
    s1 = s2 = 0.0
    for j in range(n):
        aj = abs(float(p[j]))
        s1 += (n - j) * aj
        s2 += (n - j) ** 2 * aj
    return s1, s2


def _selfreciprocal_even_real(p: Polynomial) -> bool:
    return p.is_self_reciprocal() and p.degree >= 2 and p.degree % 2 == 0


# the Jensen-disk radius and the deltas of the plain disk inequalities
_RHO = 0.3
_DELTAS = (1.5, 2.0, math.e ** 2)


def jensen_disk_rhs(p: Polynomial, rs: RootSet) -> list[BoundEntry]:
    """The Jensen-disk lemma at rho = 0.3: the sum of log(rho/|mu-1|) over
    the roots within rho of 1 against the general and the omega = +-1
    right-hand sides."""
    tid = "jensen_disk"
    if not _selfreciprocal_even_real(p):
        return [entry_not_applicable(tid, "requires self-reciprocal even degree")]
    pw = float(abs(p.eval_exact(1)))
    if pw == 0:
        return [entry_not_applicable(tid, "P(1) = 0")]
    n = p.degree // 2
    s1, s2 = _weighted_sums(p)
    lhs = 0.0
    for rt in rs.roots:
        dist = abs(rt.z - 1)
        if 0 < dist <= _RHO:
            lhs += rt.multiplicity * math.log(_RHO / dist)
    rhs_general = math.log(1 + _RHO * (1 + (1 - _RHO) ** (-n)) / pw * s1)
    rhs_pm1 = math.log(1 + _RHO ** 2 * (1 - _RHO) ** (-n) / pw * s2)
    return [
        entry_from_inequality(tid, lhs, rhs_general, slack=_REL_SLACK * (1 + rhs_general)),
        entry_from_inequality(tid + "_pm1", lhs, rhs_pm1, slack=_REL_SLACK * (1 + rhs_pm1)),
    ]


def _off_unit(rt) -> bool:
    """Whether the error radius of the root excludes |mu| = 1."""
    return abs(abs(rt.z) - 1.0) > max(rt.error_radius, 1e-25)


_DISK_KEYS = ("alpha", "betagamma", "alphabeta", "gamma")


def _disk_rhs(n: int, deltas: dict, s1: float, s2: float, pw: float) -> dict:
    """Right-hand side of each disk inequality keyed in ``deltas`` (key ->
    its delta > 1), T = n / log delta + 1, with the weighted coefficient sums
    S1, S2 (or majorants of them) and |P(1)| = pw."""
    rhs = {}
    for key, dl in deltas.items():
        T = n / math.log(dl) + 1
        if key == "alpha":
            rhs[key] = T + (1 + dl) * s1 / pw
        elif key == "betagamma":
            rhs[key] = T ** 2 + T * (1 + dl) * s1 / pw
        elif key == "alphabeta":
            rhs[key] = T ** 2 + dl * s2 / pw
        else:
            rhs[key] = T ** 4 + T ** 2 * dl * s2 / pw
    return rhs


def _disk_lhs(rs: RootSet) -> dict[str, list[float]]:
    """The left-hand side of each disk inequality at every root mu != 1 it
    covers, in root order: (alpha) 1/|mu-1| and (alphabeta) |mu|/|mu-1|^2
    at every root, (betagamma) |mu|/|mu-1|^2 at the roots off the unit
    circle, (gamma) |mu|^2/|mu-1|^4 at the non-real roots off it.  The keys
    come in the order they first have a qualifying root."""
    lhs: dict[str, list[float]] = {}
    for rt in rs.roots:
        mu = rt.z
        dist = abs(mu - 1)
        if dist == 0:
            continue
        amu = abs(mu)
        off = _off_unit(rt)
        for key, value, qualifies in (
            ("alpha", 1.0 / dist, True),
            ("betagamma", amu / dist ** 2, off),
            ("alphabeta", amu / dist ** 2, True),
            ("gamma", amu ** 2 / dist ** 4, off and rt.real is False),
        ):
            if qualifies:
                lhs.setdefault(key, []).append(value)
    return lhs


def _disk_entries(tag: str, lhs: dict, rhs: dict, note: str = "") -> list[BoundEntry]:
    """The row {tag}_{key} of each key of ``lhs`` that ``rhs`` bounds, in the
    order of ``lhs``, at the root closest to violating lhs <= rhs; the first
    such root wins a tie."""
    entries = []
    for key, values in lhs.items():
        if key in rhs:
            bound = rhs[key]
            tight = min(values, key=lambda v: bound - v)
            entries.append(
                entry_from_inequality(f"{tag}_{key}", tight, bound, slack=_REL_SLACK * (1 + bound), note=note)
            )
    return entries


def lower1_bounds(p: Polynomial, rs: RootSet) -> list[BoundEntry]:
    """The four disk inequalities for self-reciprocal real P of degree 2n,
    (alpha), (betagamma), (alphabeta) and (gamma), for each delta in 1.5, 2
    and e^2, in that order; a key with no qualifying root has no row, but
    (alpha) then reads NotApplicable."""
    if not _selfreciprocal_even_real(p):
        return [entry_not_applicable("lower1_alpha", "requires self-reciprocal even degree")]
    pw = float(abs(p.eval_exact(1)))
    if pw == 0:
        return [entry_not_applicable("lower1_alpha", "P(1) = 0")]
    n = p.degree // 2
    s1, s2 = _weighted_sums(p)
    found = _disk_lhs(rs)
    lhs = {key: found[key] for key in _DISK_KEYS if key in found}
    entries = []
    for delta in _DELTAS:
        if "alpha" not in lhs:
            entries.append(entry_not_applicable("lower1_alpha", "no qualifying root"))
        entries += _disk_entries("lower1", lhs, _disk_rhs(n, dict.fromkeys(_DISK_KEYS, delta), s1, s2, pw))
    return entries


def corollary_bounds(
    p: Polynomial, rs: RootSet, supnorm: float, nb: NormBundle
) -> list[BoundEntry]:
    """Pre-asymptotic forms of the three corollaries, obtained by substituting
    the proofs' delta choices and coefficient-sum majorants into the four disk
    inequalities; the asymptotic constants A, B are attached as context.
    Cor 3.8 applies when |P(1)| reaches ``supnorm`` = ||P|| on the unit
    circle; ``nb`` is `norms(p)`."""
    if not _selfreciprocal_even_real(p):
        return [entry_not_applicable("cor36_alpha", "requires self-reciprocal even degree")]
    p1 = abs(p.eval_exact(1))
    if p1 == 0:
        return [entry_not_applicable("cor36_alpha", "P(1) = 0")]
    pw = float(p1)
    n = p.degree // 2
    consts = solve_constants()
    c = consts.c
    H, L, L2 = float(nb.H), float(nb.L), nb.L2
    lhs = _disk_lhs(rs)
    entries: list[BoundEntry] = []

    # Cor 3.6: height-bounded, |P(1)| >= 1
    if p1 >= 1:
        deltas = {"alpha": 1 + 1 / math.sqrt(n), "betagamma": c, "alphabeta": 1 + n ** -0.25, "gamma": math.e ** 2}
        maj1, maj2 = n * (n + 1) / 2 * H, n * (n + 1) * (2 * n + 1) / 6 * H
        entries += _disk_entries("cor36", lhs, _disk_rhs(n, deltas, maj1, maj2, pw))
    else:
        entries.append(entry_not_applicable("cor36_alpha", "|P(omega)| < 1"))

    # Cor 3.7: nonnegative coefficients
    if all(co >= 0 for co in p.coeffs):
        deltas = {"alphabeta": consts.a, "gamma": consts.b}
        entries += _disk_entries(
            "cor37", lhs, _disk_rhs(n, deltas, 0.0, n * n / 2 * L, pw),
            note=f"asymptotic constants A={consts.A:.3f}, B={consts.B:.3f}",
        )
    else:
        entries.append(entry_not_applicable("cor37_alphabeta", "requires nonnegative coefficients and omega = 1"))

    # Cor 3.8: 1 attains the sup norm
    if abs(pw - supnorm) <= 1e-9 * supnorm:
        deltas = {"alpha": 1 + n ** -0.25, "betagamma": c, "alphabeta": 1 + n ** -0.125, "gamma": math.e ** 2}
        maj1 = math.sqrt(n * (n + 1) * (2 * n + 1) / 12.0) * L2
        maj2 = math.sqrt(n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) / 60.0) * L2
        entries += _disk_entries("cor38", lhs, _disk_rhs(n, deltas, maj1, maj2, pw))
    else:
        entries.append(entry_not_applicable("cor38_alpha", "omega does not attain the sup norm"))
    return entries


# ---------------------------------------------------------------------------
# section 4: generalized Schinzel lower bound


def _schinzel_rhs_m(p: Polynomial, m: int) -> float:
    d = p.degree
    P0 = abs(float(p.eval_exact(0)))
    P1Pm1 = abs(float(p.eval_exact(1) * p.eval_exact(-1)))
    t = P1Pm1 ** (1.0 / m)
    inner = math.sqrt(4.0 ** (d / m) * P0 ** (2.0 / m) + P1Pm1 ** (2.0 / m))
    return ((t + inner) / 2.0 ** (d / m)) ** (m / 2.0)


def _schinzel_rhs_n(p: Polynomial, n: int) -> float:
    d = p.degree
    P0 = abs(float(p.eval_exact(0)))
    P1 = abs(float(p.eval_exact(1)))
    t = P1 ** (1.0 / n)
    inner = math.sqrt(4.0 ** (d / n) * P0 ** (1.0 / n) + P1 ** (2.0 / n))
    return ((t + inner) / 2.0 ** (d / n)) ** float(n)


def _matches_equality_family_m(rs: RootSet, tol=1e-6) -> bool:
    """Roots must be +-i and +-a, +-1/a for a single a > 1 (any multiplicities)."""
    a = None
    for rt in rs.roots:
        mu = rt.z
        if abs(mu - 1j) < tol or abs(mu + 1j) < tol:
            continue
        if abs(mu.imag) > tol:
            return False
        x = abs(mu.real)
        if x == 0:
            return False
        cand = x if x > 1 else 1 / x
        if cand <= 1 + tol / 10:
            return False
        if a is None:
            a = cand
        elif abs(cand - a) > tol * max(1, a):
            return False
    return a is not None


def _matches_equality_family_n(rs: RootSet, tol=1e-6) -> bool:
    """Roots must be a and 1/a for a single a > 1, all positive real."""
    a = None
    for rt in rs.roots:
        mu = rt.z
        if abs(mu.imag) > tol or mu.real <= 0:
            return False
        x = mu.real
        cand = x if x > 1 else 1 / x
        if cand <= 1 + tol / 10:
            return False
        if a is None:
            a = cand
        elif abs(cand - a) > tol * max(1, a):
            return False
    return a is not None


def schinzel_lower(p: Polynomial, rs: RootSet, mres: MeasureResult):
    """(entries, certificate): the two generalized Schinzel inequalities with
    their root-configuration equality certificates; M(P) = ``mres``."""
    entries = []
    cert = {"m": False, "n": False}
    d = p.degree
    if not p.is_monic() or d < 2:
        return [entry_not_applicable("schinzel_m", "requires monic degree >= 2")], cert
    P0 = p.eval_exact(0)
    P1 = p.eval_exact(1)
    Pm1 = p.eval_exact(-1)
    m, n = count_real(rs)

    if P0 != 0 and P1 != 0 and Pm1 != 0 and m >= 1:
        rhs = _schinzel_rhs_m(p, m)
        entries.append(
            entry_from_inequality(
                "schinzel_m", rhs, mres.value,
                slack=mres.error_bound + _REL_SLACK * (1 + rhs),
                note=f"m={m}",
            )
        )
        if abs(mres.value - rhs) <= 1e-9 * max(1.0, rhs) and _matches_equality_family_m(rs):
            cert["m"] = True
    else:
        entries.append(entry_not_applicable("schinzel_m", "needs P(0)P(1)P(-1) != 0 and m >= 1"))

    if P0 != 0 and P1 != 0 and n >= 1:
        rhs = _schinzel_rhs_n(p, n)
        entries.append(
            entry_from_inequality(
                "schinzel_n", rhs, mres.value,
                slack=mres.error_bound + _REL_SLACK * (1 + rhs),
                note=f"n={n}",
            )
        )
        if abs(mres.value - rhs) <= 1e-9 * max(1.0, rhs) and _matches_equality_family_n(rs):
            cert["n"] = True
    else:
        entries.append(entry_not_applicable("schinzel_n", "needs P(0)P(1) != 0 and n >= 1"))
    return entries, cert


# ---------------------------------------------------------------------------
# section 5: number of real zeros


def realzero_upper_com(
    p: Polynomial, rs: RootSet, mres: MeasureResult
) -> list[BoundEntry]:
    """m <= max of the two branches of the sinh-based bound; M(P) = ``mres``."""
    d = p.degree
    if not p.is_monic() or d < 2:
        return [entry_not_applicable("realzero_com", "requires monic degree >= 2")]
    P0 = abs(float(p.eval_exact(0)))
    P1Pm1 = abs(float(p.eval_exact(1) * p.eval_exact(-1)))
    if P0 == 0 or P1Pm1 == 0:
        return [entry_not_applicable("realzero_com", "P(0)P(1)P(-1) = 0")]
    m, _ = count_real(rs)
    denom = -math.log(math.sinh(math.log(d) / d))
    branch1 = (d * math.log(2) + math.log(P0) - math.log(P1Pm1)) / denom
    branch2 = d * math.log(mres.value ** 2 / P0) / math.log(d)
    rhs = max(branch1, branch2)
    return [
        entry_from_inequality(
            "realzero_com", m, rhs, slack=_REL_SLACK * (1 + abs(rhs)),
            note=f"branches {branch1:.6g}, {branch2:.6g}",
        )
    ]


def realzero_upper_length(
    p: Polynomial, rs: RootSet, mres: MeasureResult, nb: NormBundle
) -> list[BoundEntry]:
    """Length-based real-zero bounds: the sqrt(c) form for monic P, the integer
    rescale corollary, and the asymptotic (report-only) constant c2; M(P) =
    ``mres`` and ``nb`` = `norms(p)`."""
    d = p.degree
    entries = []
    if d < 1:
        return [entry_not_applicable("realzero_length_complex", "degree 0")]
    P0 = p.eval_exact(0)
    P1 = p.eval_exact(1)
    Pm1 = p.eval_exact(-1)
    if P0 == 0 or P1 == 0 or Pm1 == 0:
        return [entry_not_applicable("realzero_length_complex", "P(0)P(1)P(-1) = 0")]
    c = solve_constants().c
    m, _ = count_real(rs)
    L = float(nb.L)

    if p.is_monic():
        ratio = mres.value ** 2 / abs(float(P0))
        lr = math.log(ratio)
        rhs = (
            2 * math.sqrt(c) * math.sqrt(d * lr)
            + (c + 1) * lr
            + math.log(1 + d * d) / math.log(c)
            + math.log(
                L ** 2 / (2 * float(P1) ** 2) + L ** 2 / (2 * float(Pm1) ** 2)
            )
            / math.log(c)
        )
        entries.append(
            entry_from_inequality(
                "realzero_length_complex", m, rhs, slack=_REL_SLACK * (1 + abs(rhs))
            )
        )
    else:
        entries.append(entry_not_applicable("realzero_length_complex", "not monic"))

    if p.is_integer():
        lm = math.log(max(mres.value, 1.0))
        rhs = (
            2 * math.sqrt(2 * c * d * lm)
            + 2 * (c + 1) * lm
            + math.log(1 + d * d) / math.log(c)
            + 2 * math.log(L) / math.log(c)
        )
        entries.append(
            entry_from_inequality(
                "realzero_length_integer", m, rhs, slack=_REL_SLACK * (1 + abs(rhs))
            )
        )
        # asymptotic form with c1 = 1; threshold non-effective
        c2 = 2 * (math.sqrt(2 * c) + c + 1 + 1 / math.log(c))
        asy = c2 * math.sqrt(d * lm) if lm > 0 else 0.0
        entries.append(
            entry_report_only(
                "realzero_length_integer1", m, asy, note=f"c2={c2:.6g} for c1=1"
            )
        )
    return entries


# ---------------------------------------------------------------------------
# section 6: zeros near 1


def lemmaK_check(p: Polynomial, mres: MeasureResult, cyc) -> list[BoundEntry]:
    """|P(1)| <= N^(d/(N-1)) M^((N+1)/3) for N = 2..10; N = 2 reproduces the
    classical |P(1)| <= 2^d M.  ``cyc`` is `cyclotomic_factor(p)`, read only
    for monic integer P."""
    if not p.is_integer() or not p.is_monic():
        return [entry_not_applicable("lemmaK_N2", "requires monic integer P")]
    if cyc is not None:
        return [entry_not_applicable("lemmaK_N2", "vanishes at a root of unity")]
    d = p.degree
    P1 = abs(float(p.eval_exact(1)))
    entries = []
    for N in range(2, 11):
        rhs = N ** (d / (N - 1.0)) * mres.value ** ((N + 1) / 3.0)
        entries.append(
            entry_from_inequality(
                f"lemmaK_N{N}", P1, rhs,
                slack=mres.error_bound * (N + 1) * rhs + _REL_SLACK * (1 + rhs),
            )
        )
    return entries


def _shifted_measure(p: Polynomial, rs: RootSet) -> MeasureResult:
    """M(P(1-x)) from the roots of P: the roots of P(1-x) are exactly 1 - mu,
    in disks of the same radii and with the same multiplicities, and its
    leading coefficient is +-lead(P)."""
    # 1 - mu exactly: rounded even to working precision, it could move further
    # than the radius of its inclusion disk
    disks = ((_dyadic_sub((1, 0, 0), r.centre), r.error_radius, r.multiplicity) for r in rs.roots)
    return _root_product(p.coeffs[-1], disks, rs.precision_bits)


def zhang_zagier_check(
    p: Polynomial, rs: RootSet, mres: MeasureResult
) -> list[BoundEntry]:
    """M(P) M(P(1-x)) >= golden^(d/2); applicability needs P(0)P(1) != 0 and no
    primitive 6th root of unity among the zeros (exact via Phi_6 divisibility).

    M(P) = ``mres``.  M(P(1-x)) is the Jensen product over the translates
    1 - mu of the roots of P in ``rs`` (Zagier, Math. Comp. 1993), so no
    second root finding or root-squaring pass is needed."""
    if not p.is_integer():
        return [entry_not_applicable("zhang_zagier", "requires integer P")]
    d = p.degree
    if d < 1:
        return [entry_not_applicable("zhang_zagier", "degree 0")]
    if p.eval_exact(0) == 0 or p.eval_exact(1) == 0 or _monic_divides(_cyclotomic_terms(6), p.coeffs):
        return [entry_not_applicable("zhang_zagier", "P(0)P(1)P(omega_6) = 0")]
    golden = (1 + math.sqrt(5)) / 2
    m2 = _shifted_measure(p, rs)
    lhs = golden ** (d / 2.0)
    rhs = mres.value * m2.value
    slack = rhs * ((mres.error_bound / max(mres.value, 1e-300)) + (m2.error_bound / max(m2.value, 1e-300))) + _REL_SLACK * (1 + lhs)
    return [entry_from_inequality("zhang_zagier", lhs, rhs, slack=slack)]


def around1_report(
    p: Polynomial, rs: RootSet, mres: MeasureResult, cyc
) -> list[BoundEntry]:
    """Disk counts J, J', K = min(J, J') against the asymptotic lower bound at
    epsilon = 0.01 and the derived measure bound, M(P) = ``mres``; ReportOnly
    (non-effective threshold).  ``cyc`` is `cyclotomic_factor(p)`, read only
    for monic integer P."""
    if not p.is_integer() or not p.is_monic():
        return [entry_not_applicable("around1_K", "requires monic integer P")]
    d = p.degree
    if d < 2:
        return [entry_not_applicable("around1_K", "needs degree >= 2 (log d > 0)")]
    # a monic integer P has content 1
    if irreducibility_probe(p, cyc=cyc, rs=rs).status is not IrreducibilityStatus.IRREDUCIBLE:
        return [entry_not_applicable("around1_K", "requires (verified) irreducible P")]
    if mres.value <= 1.0 + mres.error_bound:
        return [entry_not_applicable("around1_K", "requires M(P) > 1")]
    golden = (1 + math.sqrt(5)) / 2
    J = count_in_disk(rs, 1, 1).count
    Jp = count_in_disk(rs, -1, 1).count
    K = min(J, Jp)
    lm = math.log(mres.value)
    epsilon = 0.01
    coef = 2 / math.pi * math.log(golden) - epsilon
    bound = coef * math.sqrt(d / (math.log(d) * lm))
    minor_rhs = coef ** 2 * d / (K * K * math.log(d)) if K > 0 else math.inf
    return [
        entry_report_only("around1_K", bound, K, note=f"J={J}, J'={Jp}"),
        entry_report_only("around1_minor", minor_rhs, lm, note="log M vs disk-count bound"),
    ]


# ---------------------------------------------------------------------------
# aggregate


def verify_all(
    p: Polynomial, precision_bits: int = 128, polynomial_id: str = ""
) -> BoundReport:
    """Run every applicable checker and aggregate entries in a stable order.

    This is the one place that computes the facts about P the checkers share,
    each once: the roots at ``precision_bits``, the measure M(P) from them,
    the sup norm on the unit circle, the coefficient norms and, for monic
    integer P, the least n with Phi_n | P; every checker takes the ones it
    reads.
    The Zhang-Zagier measure of P(1-x) also comes from these roots.  Only a
    disk boundary in a count that the inclusion disks leave undecided finds
    them again at doubled precision."""
    report = BoundReport(polynomial_id)
    if p.degree < 1:
        return report
    rs = roots(p, precision_bits)
    mres = mahler_from_roots(p, rs)
    supnorm, _ = sup_norm_circle(p)
    nb = norms(p)

    report.extend(norm_chain_check(p, mres, supnorm, nb))

    for r in (1.1, 1.5, 2.0):
        count, bound, holds = count_outside_radius(p, r, rs, mres.value) if p.is_monic() else (None, None, None)
        tid = f"outside_r{r:g}"
        if count is None:
            report.entries.append(entry_not_applicable(tid, "not monic"))
        elif mres.value <= 1.0 + mres.error_bound:
            report.entries.append(
                entry_report_only(tid, count, bound, note="vacuous at M = 1")
            )
        else:
            report.entries.append(
                entry_from_inequality(tid, count, bound, slack=_REL_SLACK, note="strict count < log M / log r")
            )

    cyc = None
    if p.is_integer() and p.is_monic():
        cyc = cyclotomic_factor(p)
        report.extend(liouville_selfreciprocal(p, rs, mres, cyc))
        report.extend(dubickas_selfreciprocal_rhs(p, rs, mres))

    report.extend(general_separation(p, rs, supnorm, nb))

    if _selfreciprocal_even_real(p) and p.eval_exact(1) != 0:
        report.extend(jensen_disk_rhs(p, rs))
        report.extend(lower1_bounds(p, rs))
        report.extend(corollary_bounds(p, rs, supnorm, nb))

    se, _ = schinzel_lower(p, rs, mres)
    report.extend(se)
    report.extend(realzero_upper_com(p, rs, mres))
    report.extend(realzero_upper_length(p, rs, mres, nb))

    if p.is_integer():
        report.extend(lemmaK_check(p, mres, cyc))
        report.extend(zhang_zagier_check(p, rs, mres))
        if p.is_monic():
            report.extend(around1_report(p, rs, mres, cyc))
    return report
