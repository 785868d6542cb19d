"""Cyclotomic machinery, irreducibility probing, and set classification."""
import json
from functools import lru_cache
from pathlib import Path

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_from_int_poly, gf_irred_p_rabin

from mahlerlab import structure
from mahlerlab.measure import mahler_from_roots
from mahlerlab.polycore import Polynomial
from mahlerlab.rootfind import roots
from mahlerlab.search import enumerate_selfreciprocal
from mahlerlab.structure import (
    THETA0,
    IrreducibilityStatus,
    _totient,
    classify_E_theta,
    cyclotomic,
    cyclotomic_factor,
    irreducibility_probe,
    is_squarefree,
)

LEHMER = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic(1) == Polynomial([-1, 1])
        assert cyclotomic(2) == Polynomial([1, 1])
        assert cyclotomic(4) == Polynomial([1, 0, 1])
        assert cyclotomic(6) == Polynomial([1, -1, 1])
        assert cyclotomic(12) == Polynomial([1, 0, -1, 0, 1])

    def test_against_sympy_oracle(self):
        x = sympy.Symbol("x")
        for n in (3, 5, 7, 8, 9, 10, 15, 24, 30, 105):
            want = [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, x)).all_coeffs())]
            assert list(int(c) for c in cyclotomic(n).coeffs) == want

    def test_degree_is_totient(self):
        for n in range(1, 40):
            assert cyclotomic(n).degree == int(sympy.totient(n))

    def test_totient_against_sympy(self):
        assert [_totient(n) for n in range(1, 5000)] == [
            int(sympy.totient(n)) for n in range(1, 5000)
        ]

    def test_factor_detection(self):
        p = cyclotomic(7) * Polynomial([-1, -1, 0, 1])
        n, phi = cyclotomic_factor(p)
        assert n == 7
        assert phi == cyclotomic(7)

    def test_no_factor_for_lehmer(self):
        assert cyclotomic_factor(LEHMER) is None


_X = 2 ** 64


@lru_cache(maxsize=None)
def _cyclotomic_at_x(n):
    return cyclotomic(n).eval_exact(_X)


def _oracle_cyclotomic_factor(p):
    """The Fraction scan the integer one replaced: the least n <= 2 d^2 with
    phi(n) <= d and Phi_n | P by exact rational division.  Phi_n(X) | P(X)
    is necessary for Phi_n | P, so testing it first at X = 2^64 only skips
    divisions that would fail, and keeps the oracle fast enough to run on
    every palindrome."""
    d = p.degree
    px = p.eval_exact(_X)
    for n in range(1, 2 * d * d + 1):
        if _totient(n) > d:
            continue
        phi = cyclotomic(n)
        if px % _cyclotomic_at_x(n) == 0 and phi.divides(p):
            return n, phi
    return None


class TestCyclotomicScanOracle:
    """The integer remainder scan gives the Fraction scan's answer."""

    def _check(self, polys):
        for p in polys:
            assert cyclotomic_factor(p) == _oracle_cyclotomic_factor(p), p

    def test_height1_palindromes_to_degree14(self):
        self._check(
            p for degree in range(2, 15, 2)
            for p in enumerate_selfreciprocal(degree, 1)
        )

    def test_cyclotomic_polynomials(self):
        self._check(cyclotomic(n) for n in range(1, 201))

    def test_products(self):
        self._check(
            cyclotomic(m) * cyclotomic(n) for m in range(1, 31) for n in range(m, 31, 3)
        )
        self._check(cyclotomic(n) * LEHMER for n in range(1, 41))
        self._check(LEHMER * Polynomial([k, 1]) for k in (-3, -2, 2, 3))


class TestSquarefree:
    def test_square_detected(self):
        assert not is_squarefree(Polynomial([1, 1]) ** 2)

    def test_lehmer(self):
        assert is_squarefree(LEHMER)


class TestIrreducibility:
    def test_lehmer_irreducible(self):
        v = irreducibility_probe(LEHMER)
        assert v.status is IrreducibilityStatus.IRREDUCIBLE

    def test_rational_root(self):
        p = Polynomial([-2, 1]) * Polynomial([1, 0, 1])
        v = irreducibility_probe(p)
        assert v.status is IrreducibilityStatus.REDUCIBLE
        assert v.factor is not None and v.factor.divides(p)

    def test_cyclotomic_times_salem(self):
        p = cyclotomic(5) * LEHMER
        v = irreducibility_probe(p)
        assert v.status is IrreducibilityStatus.REDUCIBLE

    def test_smyth_cubic(self):
        v = irreducibility_probe(Polynomial([-1, -1, 0, 1]))
        assert v.status is IrreducibilityStatus.IRREDUCIBLE


class TestRabinStage:
    """The probe's mod-q stage (Rabin's test) against sympy's factoring
    `is_irreducible` on (polynomial, prime) pairs from the benchmark's
    `analyze-structured` pools."""

    REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"

    def test_rabin_matches_factoring(self):
        pools = json.loads(self.REFERENCE.read_text())["pools"]["analyze-structured"]
        polys = [
            coeffs
            for groups in pools.values()
            for group in groups
            for coeffs in group[:1]
            if len(coeffs) > 2
        ]
        x = sympy.Symbol("x")
        pairs = 0
        for coeffs in polys[::2]:
            desc = list(reversed(coeffs))
            for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                if desc[0] % q == 0:
                    continue
                want = sympy.Poly(desc, x, modulus=q).is_irreducible
                assert gf_irred_p_rabin(gf_from_int_poly(desc, q), q, ZZ) == want, (coeffs, q)
                pairs += 1
        assert pairs > 400

    def test_witness_names_the_first_prime(self):
        # x^4 + 1 is reducible mod every prime; x^2 + 1 is irreducible mod 3
        assert irreducibility_probe(Polynomial([1, 0, 1])).witness == "irreducible mod 3"
        assert irreducibility_probe(Polynomial([1, 0, 0, 0, 1])).witness == "full rational factorization"
        # x^2 + x + 1 is (x - 1)^2 mod 3 and irreducible mod 5
        assert irreducibility_probe(Polynomial([1, 1, 1])).witness == "irreducible mod 5"


class TestClassification:
    def test_lehmer_member(self):
        v = classify_E_theta(LEHMER, 1.3)
        assert v.member
        assert not v.failures
        assert all(status in ("pass", "not-applicable") for status in v.property_audit.values())

    def test_lehmer_audit_properties(self):
        audit = classify_E_theta(LEHMER, 1.3).property_audit
        assert audit["simple_zeros"] == "pass"
        assert audit["symmetry_circle_and_real_axis"] == "pass"
        assert audit["annulus_theta"] == "pass"
        assert audit["nonreal_annulus_sqrt_theta"] == "pass"
        assert audit["no_root_of_unity"] == "pass"
        assert audit["off_imaginary_axis"] == "pass"

    def test_cyclotomics_rejected(self):
        for n in (1, 2, 3, 12, 30):
            v = classify_E_theta(cyclotomic(n), 1.3)
            assert not v.member
            assert "measureOutOfRange" in v.failures

    def test_golden_rejected_above_theta(self):
        v = classify_E_theta(Polynomial([-1, -1, 1]), 1.3)
        assert not v.member
        assert "measureOutOfRange" in v.failures

    def test_non_monic_rejected(self):
        v = classify_E_theta(Polynomial([1, 0, 2]), 1.3)
        assert not v.member
        assert "nonMonic" in v.failures

    def test_reducible_rejected(self):
        p = LEHMER * Polynomial([-2, 1])
        v = classify_E_theta(p, 1.3)
        assert not v.member
        assert "reducible" in v.failures

    def test_sign_normalization_rejected(self):
        # monic x -> -x image of the Smyth cubic violates the sign condition
        p = Polynomial([1, -1, 0, 1])
        v = classify_E_theta(p, THETA0)
        assert "signC2Fail" in v.failures

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            classify_E_theta(LEHMER, 1.5)
        with pytest.raises(ValueError):
            classify_E_theta(LEHMER, 1.0)

    @pytest.mark.parametrize(
        "p",
        [
            cyclotomic(15),
            Polynomial([1, 2, 3, 2, 1]),  # (x^2+x+1)^2: escalates to 256 bits
            LEHMER * Polynomial([-2, 1]),
            LEHMER,
        ],
        ids=["phi15", "phi3-squared", "reducible", "lehmer-member"],
    )
    def test_injected_roots_change_nothing(self, p):
        rs = roots(p, 128)
        v = classify_E_theta(p, 1.3, rs=rs, measure=mahler_from_roots(p, rs))
        assert v == classify_E_theta(p, 1.3)

    @pytest.mark.parametrize(
        "p, scans",
        [
            # member: reducible mod every prime, so the probe scans once in
            # its stage 2; the audit reuses the classification's factor
            (LEHMER, 2),
            (cyclotomic(5), 1),  # irreducible mod 2: no probe scan
            (Polynomial([1, 0, 2]), 1),  # not monic: no probe
        ],
        ids=["lehmer-member", "phi5", "nonmonic"],
    )
    def test_cyclotomic_factor_once(self, monkeypatch, p, scans):
        made = []
        real = structure.cyclotomic_factor

        def counted(q):
            made.append(q)
            return real(q)

        monkeypatch.setattr(structure, "cyclotomic_factor", counted)
        v = classify_E_theta(p, 1.3)
        assert made == [p] * scans
        assert v.member == (p == LEHMER)
        if v.member:
            assert v.property_audit["no_root_of_unity"] == "pass"

    def test_mismatched_roots_rejected(self):
        with pytest.raises(ValueError):
            classify_E_theta(LEHMER, 1.3, rs=roots(cyclotomic(15), 128))
        with pytest.raises(ValueError):
            classify_E_theta(LEHMER, 1.3, rs=roots(LEHMER, 256))
