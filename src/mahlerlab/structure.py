"""Cyclotomic machinery, irreducibility probing, and small-measure-set
classification with the seven-property zero-geometry audit."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath as mp

from .measure import MeasureResult, mahler, mahler_from_roots
from .polycore import Polynomial, support_flags
from .rootfind import RootSet, roots

__all__ = [
    "THETA0",
    "IrreducibilityVerdict",
    "IrreducibilityStatus",
    "EthetaVerdict",
    "cyclotomic",
    "cyclotomic_factor",
    "irreducibility_probe",
    "classify_E_theta",
]

# real root of x^3 - x - 1, Smyth's bound for non-self-reciprocal polynomials
THETA0 = 1.3247179572447460
# irreducibility_probe: primes tried by Rabin's test, and the largest degree
# handed to sympy's full factorization
_PRIME_BUDGET = 10
_FACTOR_DEGREE_CAP = 64


class IrreducibilityStatus(str, enum.Enum):
    IRREDUCIBLE = "Irreducible"
    REDUCIBLE = "Reducible"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: IrreducibilityStatus
    witness: str


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Polynomial:
    """Exact n-th cyclotomic polynomial via recursive division of x^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    num = Polynomial([-1] + [0] * (n - 1) + [1])
    for m in range(1, n):
        if n % m == 0:
            q, r = num.divmod(cyclotomic(m))
            assert r.is_zero()
            num = q
    return num


@lru_cache(maxsize=None)
def _totient(n: int) -> int:
    """Euler's phi by trial division; n stays below 2 d^2 here."""
    phi, m, f = n, n, 2
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            phi -= phi // f
        f += 1
    if m > 1:
        phi -= phi // m
    return phi


@lru_cache(maxsize=None)
def _cyclotomic_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), the (j, c_j) with c_j != 0 and j < phi(n)) of Phi_n, as ints."""
    phi = cyclotomic(n)
    return phi.degree, tuple((j, c) for j, c in enumerate(phi.coeffs[:-1]) if c)


def _monic_divides(terms, a: tuple[int, ...]) -> bool:
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


def cyclotomic_factor(p: Polynomial):
    """Least n with Phi_n | P (exactly), or None.

    Scanning n <= 2 d^2 suffices: phi(n) >= sqrt(n/2), so phi(n) <= d forces
    n <= 2 d^2."""
    if not p.is_integer():
        raise ValueError("cyclotomic_factor requires integer coefficients")
    d = p.degree
    if d < 1:
        return None
    for n in range(1, 2 * d * d + 1):
        if _totient(n) <= d and _monic_divides(_cyclotomic_terms(n), p.coeffs):
            return n, cyclotomic(n)
    return None


def _sympy_poly(p: Polynomial):
    import sympy

    return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"))


def _has_rational_root(p: Polynomial, rs: RootSet) -> bool:
    """Whether the integer P with roots ``rs`` has a rational root, proved
    by exact evaluation; False also when a disk is too wide to decide.

    A rational root r/q has q | lead, so k = lead r/q is an integer within
    |lead| rho of lead Re(c) for the disk about c of radius rho that holds it.
    When 2 |lead| rho < 1 that leaves floor(lead Re c) and the next integer,
    each tested by lead^d P(k / lead) = sum a_j k^j lead^(d-j) = 0 in
    integers."""
    a = p.coeffs
    lead = a[-1]
    for rt in rs.roots:
        if rt.real is False:
            continue
        n, den = rt.error_radius.as_integer_ratio()
        if 2 * abs(lead) * n >= den:
            return False
        sign, man, exp, _ = rt.value.real._mpf_
        x = -lead * man if sign else lead * man
        k = x << exp if exp >= 0 else x >> -exp
        for r in (k, k + 1):
            v, w = 0, 1
            for c in reversed(a):
                v, w = v * r + c * w, w * lead
            if v == 0:
                return True
    return False


def irreducibility_probe(p: Polynomial, *, cyc, rs: RootSet) -> IrreducibilityVerdict:
    """Staged probe over Z: the cyclotomic screens (P = Phi_n, a proper
    cyclotomic factor), then the roots of P (a root of multiplicity > 1 is a
    repeated factor; a rational root, found from the inclusion disks, a
    linear one), irreducibility mod small primes by Rabin's test, and full
    rational factorization up to the degree cap.  ``cyc`` is
    `cyclotomic_factor(p)` and ``rs`` the roots of P at any precision, both
    held by the caller."""
    import sympy
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_from_int_poly, gf_irred_p_rabin

    if not p.is_integer():
        raise ValueError("irreducibility probe requires integer coefficients")
    if p.content() != 1:
        raise ValueError("irreducibility probe requires content 1")
    if rs.polynomial != p:
        raise ValueError("rs must hold the roots of p")
    d = p.degree
    if d == 1:
        return IrreducibilityVerdict(IrreducibilityStatus.IRREDUCIBLE, "degree 1")

    # stage 1: cyclotomic screens; P = +-Phi_n when the factor has P's degree
    if cyc is not None:
        n, phi = cyc
        if phi.degree == d:
            return IrreducibilityVerdict(IrreducibilityStatus.IRREDUCIBLE, f"cyclotomic Phi_{n}")
        return IrreducibilityVerdict(IrreducibilityStatus.REDUCIBLE, f"cyclotomic factor Phi_{n}")

    # stage 2: the roots.  A P of degree >= 2 with a rational root is
    # reducible mod every prime not dividing the lead, so Rabin's test could
    # never answer it
    if any(rt.multiplicity > 1 for rt in rs.roots):
        return IrreducibilityVerdict(IrreducibilityStatus.REDUCIBLE, "repeated factor")
    if _has_rational_root(p, rs):
        return IrreducibilityVerdict(IrreducibilityStatus.REDUCIBLE, "rational root")

    # stage 3: irreducible mod some small prime not dividing the lead, by
    # Rabin's test (no factorization mod q)
    coeffs = list(reversed(p.coeffs))
    lead = abs(coeffs[0])
    tried = 0
    q = 2
    while tried < _PRIME_BUDGET:
        q = sympy.nextprime(q)
        if lead % q == 0:
            continue
        tried += 1
        if gf_irred_p_rabin(gf_from_int_poly(coeffs, q), q, ZZ):
            return IrreducibilityVerdict(
                IrreducibilityStatus.IRREDUCIBLE, f"irreducible mod {q}"
            )

    # stage 4: full factorization over Z (Zassenhaus-style) up to the cap
    if d <= _FACTOR_DEGREE_CAP:
        _, factors = _sympy_poly(p).factor_list()
        if len(factors) == 1 and factors[0][1] == 1:
            return IrreducibilityVerdict(
                IrreducibilityStatus.IRREDUCIBLE, "full rational factorization"
            )
        return IrreducibilityVerdict(IrreducibilityStatus.REDUCIBLE, "rational factorization")
    return IrreducibilityVerdict(
        IrreducibilityStatus.UNKNOWN,
        f"degree {d} exceeds factorization cap {_FACTOR_DEGREE_CAP}",
    )


@dataclass
class EthetaVerdict:
    member: bool
    conditional: bool
    failures: list[str]
    theta: float
    measure: MeasureResult | None
    property_audit: dict[str, str] = field(default_factory=dict)


_AUDIT_PASS = "pass"
_AUDIT_FAIL = "fail"


def classify_E_theta(
    p: Polynomial,
    theta: float,
    precision_bits: int = 128,
    *,
    rs: RootSet | None = None,
    measure: MeasureResult | None = None,
) -> EthetaVerdict:
    """Membership in the set of monic irreducible integer polynomials with
    measure in (1, theta], primitivity (c1) and sign normalization (c2);
    members get the seven-property zero-geometry audit.

    ``rs`` and ``measure`` let a caller that already holds the roots of P at
    ``precision_bits`` and their Jensen product pass them in; when omitted they
    are computed here, once, and the audit reuses the same roots.  The measure
    is only the starting point: it is recomputed at doubled precision while
    its error bound straddles theta."""
    if not (1.0 < theta <= THETA0 + 1e-15):
        raise ValueError(f"theta must lie in (1, {THETA0}]")
    if rs is not None and (rs.polynomial != p or rs.precision_bits != precision_bits):
        raise ValueError("rs must hold the roots of p at precision_bits")

    failures: list[str] = []
    conditional = False
    if not p.is_integer():
        failures.append("nonInteger")
        return EthetaVerdict(False, False, failures, theta, None)
    if not p.is_monic():
        failures.append("nonMonic")

    g, c2 = support_flags(p)
    if g >= 2:
        failures.append("notPrimitiveC1")
    if c2 is False:
        failures.append("signC2Fail")

    cyc = cyclotomic_factor(p)
    if rs is None and p.degree >= 1:
        rs = roots(p, precision_bits)
    verdict = None
    if p.is_monic() and p.degree >= 1:  # a monic integer P has content 1
        verdict = irreducibility_probe(p, cyc=cyc, rs=rs)
        if verdict.status is IrreducibilityStatus.REDUCIBLE:
            failures.append("reducible")
        elif verdict.status is IrreducibilityStatus.UNKNOWN:
            conditional = True

    mres = None
    if p.degree >= 1:
        bits = precision_bits
        mres = measure if measure is not None else mahler_from_roots(p, rs)
        # escalate while the theta boundary is straddled
        while abs(mres.value - theta) <= mres.error_bound and bits < 1024:
            bits *= 2
            mres = mahler(p, bits)

        is_cyclotomic = cyc is not None and cyc[1] == p
        is_x = p == Polynomial([0, 1])
        if is_cyclotomic or is_x:
            # Kronecker: measure exactly 1
            failures.append("measureOutOfRange")
        elif verdict is not None and verdict.status is IrreducibilityStatus.IRREDUCIBLE:
            # irreducible, non-cyclotomic, not x: M > 1 exactly (Kronecker);
            # only the upper boundary needs the numeric value
            if mres.value > theta + mres.error_bound:
                failures.append("measureOutOfRange")
        elif not (1.0 + mres.error_bound < mres.value <= theta + mres.error_bound):
            failures.append("measureOutOfRange")
    else:
        failures.append("measureOutOfRange")

    member = not failures and not conditional
    out = EthetaVerdict(member, conditional, failures, theta, mres)
    if member:
        out.property_audit = _audit_properties(p, rs, theta, cyc)
    return out


def _audit_properties(p: Polynomial, rs: RootSet, theta: float, cyc):
    """The seven properties of a member P with roots ``rs``; ``cyc`` is
    `cyclotomic_factor(p)`."""
    n = p.degree // 2
    audit = {}

    audit["simple_zeros"] = (
        _AUDIT_PASS if all(rt.multiplicity == 1 for rt in rs.roots) else _AUDIT_FAIL
    )

    # closure under conjugation and inversion within paired error radii; the
    # comparison must run at working precision or 1/conj() noise dominates
    ok = True
    with mp.workprec(rs.precision_bits + 32):
        for rt in rs.roots:
            for target in (mp.conj(rt.value), 1 / mp.conj(rt.value)):
                if not any(
                    abs(s.value - target)
                    <= max(s.error_radius + rt.error_radius, 1e-30)
                    for s in rs.roots
                ):
                    ok = False
    audit["symmetry_circle_and_real_axis"] = _AUDIT_PASS if ok else _AUDIT_FAIL

    tol = 1e-12
    moduli = [float(abs(rt.value)) for rt in rs.roots]
    audit["annulus_theta"] = (
        _AUDIT_PASS
        if all(1 / theta - tol <= a <= theta + tol for a in moduli)
        else _AUDIT_FAIL
    )

    sq = math.sqrt(theta)
    nonreal = [float(abs(rt.value)) for rt in rs.roots if rt.real is False]
    audit["nonreal_annulus_sqrt_theta"] = (
        _AUDIT_PASS
        if all(1 / sq - tol <= a <= sq + tol for a in nonreal)
        else _AUDIT_FAIL
    )

    r = 1.1  # the annulus 1/r <= |x| <= r of the root count
    inside = sum(rt.multiplicity for rt, a in zip(rs.roots, moduli) if 1 / r <= a <= r)
    need = 2 * (n - math.log(theta) / math.log(r))
    audit["annulus_count"] = _AUDIT_PASS if inside > need else _AUDIT_FAIL

    audit["no_root_of_unity"] = (
        _AUDIT_PASS if cyc is None else _AUDIT_FAIL
    )

    off_axis = all(
        abs(mp.re(rt.value)) > rt.error_radius for rt in rs.roots
    )
    audit["off_imaginary_axis"] = _AUDIT_PASS if off_axis else _AUDIT_FAIL
    return audit
