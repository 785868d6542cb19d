"""Cyclotomic machinery, irreducibility probing, and small-measure-set
classification with the seven-property zero-geometry audit."""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .dyadic import fixed, round_shift
from .measure import MeasureResult, mahler, mahler_from_roots
from .polycore import (
    Polynomial,
    _cyclotomic_coeffs,
    _cyclotomic_divisors,
    _degree_pattern,
    _exact_quotient,
    _Frobenius,
    _primitive,
    _squarefree_mod,
    reciprocal,
    support_flags,
)
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
# irreducibility_probe: the number of odd primes not dividing the lead whose
# degree sets are intersected, and the most sets of roots the factor search
# may try (the exact trace test takes about 2.4 us a set in CPython 3.11 on a
# Xeon core, so a search that finds nothing costs about 10 ms); beyond it the
# probe answers Unknown
_PRIME_BUDGET = 10
_SUBSET_BUDGET = 4096


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
    return Polynomial(_cyclotomic_coeffs(n))


def cyclotomic_factor(p: Polynomial):
    """Least n with Phi_n | P (exactly), or None, from the orders that
    `polycore._cyclotomic_divisors`, the library's one cyclotomic test,
    finds by a float64 screen and exact division."""
    if not p.is_integer():
        raise ValueError("cyclotomic_factor requires integer coefficients")
    if p.degree < 1:
        return None
    n = min(_cyclotomic_divisors([p.coeffs])[0], default=None)
    return None if n is None else (n, cyclotomic(n))


def _odd_primes():
    """3, 5, 7, 11, ... by trial division."""
    q = 3
    while True:
        if all(q % r for r in range(3, math.isqrt(q) + 1, 2)):
            yield q
        q += 2


def _factor_from_roots(p: Polynomial, rs: RootSet, degrees: int) -> bool | None:
    """Whether the squarefree integer P has a factor over Z of a degree
    k <= d / 2 whose bit is set in ``degrees`` (0b10: a rational root): True
    when a product of roots divides P, False when none can, None when the
    search cannot tell (an open realness, over `_SUBSET_BUDGET` sets of
    roots, or a bound below that fails).

    A factor G over Z has real roots and conjugate pairs, and for the leads a
    of P and b of G, a prod (x - r) = (a / b) G is integral, so is a times
    the roots' sum.  Each root r lies within rho of the centre c printed for
    it, so Re c within rho of Re r, and a pair, taken as c and its conjugate,
    adds 2 Re c within 2 rho.  A set passes the trace test when a sum Re c
    lies within |a| sum rho of an integer, exactly in ints, so every factor's
    set passes.  A set that passes is multiplied out exactly from the
    centres, rounded once, and counts when its primitive part divides P, by
    `_exact_quotient` in ints.  False needs one bound over all roots: by
    multilinearity |e_j(r) - e_j(c)| <= e_j(|c| + rho) - e_j(|c|), summed
    over j prod (1 + |c| + rho) - prod (1 + |c|) <= prod (1 + |c|) expm1(sum
    rho / (1 + |c|)), which grows from a set to all roots; |a| times that
    below 1/4, the float product times the int lead taken exactly, so below
    1/2, rounds a factor's product to (a / b) G."""
    a = p.coeffs[-1]
    real, pairs = [], []
    for rt in rs.roots:
        if rt.real is None:
            return None
        if rt.real:
            real.append(rt)
        elif rt.centre[1] > 0:
            pairs.append(rt)
    splits = [
        (n, k - 2 * n)
        for k in range(1, p.degree // 2 + 1)
        if degrees >> k & 1
        for n in range(k // 2 + 1)
    ]
    if sum(math.comb(len(pairs), n) * math.comb(len(real), m) for n, m in splits) > _SUBSET_BUDGET:
        return None
    disks = [(abs(rt.z.real), rt.error_radius) for rt in real] + [(abs(rt.z), rt.error_radius) for rt in pairs] * 2
    # the bound of the docstring in floats, times |a| exactly in units of 2^-1074; inf or nan fails
    bound = math.prod(1 + m for m, _ in disks) * math.expm1(sum(r / (1 + m) for m, r in disks))
    proved = bound < math.inf and 4 * abs(a) * fixed(bound, 1074) < 1 << 1074
    # each root's Re c and rho (rounded up) in units of 2^E, doubled for a pair; the real roots first
    roots_ = real + pairs
    E = min([0] + [rt.centre[2] for rt in roots_])
    trace = [(2 - rt.real) * rt.centre[0] << rt.centre[2] - E for rt in roots_]
    radius = [(2 - rt.real) * fixed(rt.error_radius, -E, up=True) for rt in roots_]
    unit, nreal = 1 << -E, len(real)
    for n, m in splits:
        for ps in itertools.combinations(range(nreal, len(roots_)), n):
            t = sum(map(trace.__getitem__, ps))
            for xs in itertools.combinations(range(nreal), m):
                s = a * (t + sum(map(trace.__getitem__, xs))) % unit
                if min(s, unit - s) > abs(a) * sum(map(radius.__getitem__, ps + xs)):
                    continue
                # on E, at most the centres' least exponent, h(y) = a prod (y - r 2^-E) has int
                # coefficients h_j, and a prod (x - r) = 2^(E k) h(2^-E x) has h_j 2^(E (k - j))
                h = Polynomial([a])
                for x, _, e in (roots_[j].centre for j in xs):
                    h *= Polynomial([-(x << e - E), 1])
                for x, y, e in (roots_[i].centre for i in ps):
                    h *= Polynomial([x * x + y * y << 2 * (e - E), -(x << 1 + e - E), 1])
                g = [round_shift(c, E * (h.degree - j)) for j, c in enumerate(h.coeffs)]
                if _exact_quotient(list(p.coeffs), _primitive(g)) is not None:
                    return True
    return False if proved else None


def irreducibility_probe(p: Polynomial, *, cyc, rs: RootSet) -> IrreducibilityVerdict:
    """Staged probe over Z: the cyclotomic screens (P = Phi_n, a proper
    cyclotomic factor), then the roots of P (a root of multiplicity > 1 is a
    repeated factor; a rational root, a linear one), then Musser's degree
    sets mod the first `_PRIME_BUDGET` odd primes not dividing the lead, by
    distinct-degree factorization on int lists (one factor of degree d is P
    irreducible mod q), then a search for a factor of a degree those sets
    leave open among products of the roots (the same search over single
    roots finds the rational root), which proves P reducible or irreducible
    or leaves it Unknown.
    ``cyc`` is `cyclotomic_factor(p)` and ``rs`` the roots of P at any
    precision, both held by the caller."""
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

    # stage 2: the roots.  A P of degree >= 2 with a rational root has a
    # linear factor mod every prime not dividing the lead, so the degree sets
    # could never answer it; the factor search finds it among single roots
    if any(rt.multiplicity > 1 for rt in rs.roots):
        return IrreducibilityVerdict(IrreducibilityStatus.REDUCIBLE, "repeated factor")
    if _factor_from_roots(p, rs, 0b10):
        return IrreducibilityVerdict(IrreducibilityStatus.REDUCIBLE, "rational root")

    # stage 3: Musser's degree sets.  A factor of P over Z of degree k keeps
    # its degree mod q, so k is a sum of factor degrees of P mod q for every
    # q where P stays squarefree (bit k of ``sums``); when no k in 1..d-1 is
    # one for all of them, P is irreducible.  A single factor of degree d mod
    # q settles it at once
    a = list(p.coeffs)
    common, used = (1 << d) - 2, []
    for q in itertools.islice((q for q in _odd_primes() if a[-1] % q), _PRIME_BUDGET):
        if not _squarefree_mod(a, q):
            continue
        pattern = _degree_pattern(_Frobenius(a, q))
        if pattern == [d]:
            return IrreducibilityVerdict(
                IrreducibilityStatus.IRREDUCIBLE, f"irreducible mod {q}"
            )
        sums = 1
        for e in pattern:
            sums |= sums << e
        common &= sums
        used.append(str(q))
        if not common:
            return IrreducibilityVerdict(
                IrreducibilityStatus.IRREDUCIBLE, f"degree sets mod {', '.join(used)}"
            )

    # stage 4: the roots; ``common`` is closed under k -> d - k, so k <= d / 2 suffices
    found = _factor_from_roots(p, rs, common)
    if found:
        return IrreducibilityVerdict(IrreducibilityStatus.REDUCIBLE, "rational factorization")
    if found is False:
        return IrreducibilityVerdict(IrreducibilityStatus.IRREDUCIBLE, "no factor among the roots")
    return IrreducibilityVerdict(IrreducibilityStatus.UNKNOWN, "factor search left open")


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

    # the roots of a real P are closed under conjugation, so under z -> 1/conj(z)
    # exactly when they are under z -> 1/z; for an irreducible P that means
    # x^d P(1/x) = +-P(x)
    ok = reciprocal(p) in (p, -p)
    audit["symmetry_circle_and_real_axis"] = _AUDIT_PASS if ok else _AUDIT_FAIL

    tol = 1e-12
    moduli = [abs(rt.z) for rt in rs.roots]
    audit["annulus_theta"] = (
        _AUDIT_PASS
        if all(1 / theta - tol <= a <= theta + tol for a in moduli)
        else _AUDIT_FAIL
    )

    sq = math.sqrt(theta)
    nonreal = [abs(rt.z) for rt in rs.roots if rt.real is False]
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

    # |Re z| = |xm| 2^e > error_radius for every root, exactly in ints
    off_axis = all(abs(rt.centre[0]) > fixed(rt.error_radius, -rt.centre[2]) for rt in rs.roots)
    audit["off_imaginary_axis"] = _AUDIT_PASS if off_axis else _AUDIT_FAIL
    return audit
