"""Cyclotomic machinery, irreducibility probing, and set classification."""
import pytest
import sympy

from mahlerlab.measure import mahler_from_roots
from mahlerlab.polycore import Polynomial
from mahlerlab.rootfind import roots
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

    def test_mismatched_roots_rejected(self):
        with pytest.raises(ValueError):
            classify_E_theta(LEHMER, 1.3, rs=roots(cyclotomic(15), 128))
        with pytest.raises(ValueError):
            classify_E_theta(LEHMER, 1.3, rs=roots(LEHMER, 256))
