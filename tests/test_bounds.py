"""Theorem evaluators: constants, separation bounds, Schinzel equality,
real-zero counts, Vandermonde chain, and the aggregate verifier."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab import bounds
from mahlerlab.bounds import (
    _shifted_measure,
    around1_report,
    corollary_bounds,
    dubickas_selfreciprocal_rhs,
    general_separation,
    hadamard_bound,
    jensen_disk_rhs,
    lemmaK_check,
    liouville_selfreciprocal,
    lower1_bounds,
    realzero_upper_com,
    realzero_upper_length,
    schinzel_lower,
    solve_constants,
    vandermonde_R,
    verify_all,
    zhang_zagier_check,
)
from mahlerlab.measure import mahler_from_roots, mahler_graeffe, sup_norm_circle
from mahlerlab.polycore import Polynomial
from mahlerlab.reporting import Verdict
from mahlerlab.rootfind import roots
from mahlerlab.structure import cyclotomic

LEHMER = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
LEHMER_SUP = sup_norm_circle(LEHMER)[0]


@pytest.fixture(scope="module")
def lehmer_roots():
    return roots(LEHMER, 128)


@pytest.fixture(scope="module")
def lehmer_measure(lehmer_roots):
    return mahler_from_roots(LEHMER, lehmer_roots)


def _facts(p):
    """The roots of P at 128 bits and the measure from them."""
    rs = roots(p, 128)
    return rs, mahler_from_roots(p, rs)


def _random_integer(degree, seed):
    """A random integer polynomial with P(0) P(1) != 0."""
    rng = random.Random(seed)
    while True:
        p = Polynomial([rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)])
        if p.eval_exact(0) != 0 and p.eval_exact(1) != 0:
            return p


class TestConstants:
    def test_residuals(self):
        c = solve_constants()
        assert all(r < 1e-12 for r in c.residuals().values())

    def test_printed_values(self):
        c = solve_constants()
        assert abs(c.A - 0.655) < 5e-4
        assert abs(c.B - 0.984) < 5e-4
        assert abs(c.c - c.printed_c) < 5e-3
        assert abs(c.theta0 - 1.324717) < 1e-6
        assert abs(c.golden - 1.618033988749895) < 1e-12


class TestSeparation:
    def test_liouville_lehmer_holds(self, lehmer_roots, lehmer_measure):
        entries = liouville_selfreciprocal(LEHMER, lehmer_roots, lehmer_measure)
        assert [e.theorem_id for e in entries] == [
            f"liouville_m{m}{s}" for m in (1, 2, 3, 4) for s in "pn"
        ]
        assert all(e.verdict is Verdict.HOLDS for e in entries)

    def test_liouville_not_applicable_odd_degree(self):
        p = Polynomial([-1, -1, 0, 1])
        entries = liouville_selfreciprocal(p, *_facts(p))
        assert len(entries) == 8
        assert all(e.verdict is Verdict.NOT_APPLICABLE for e in entries)

    def test_dubickas_report_only(self, lehmer_roots, lehmer_measure):
        entries = dubickas_selfreciprocal_rhs(LEHMER, lehmer_roots, lehmer_measure, 1, 0.01)
        assert entries
        for e in entries:
            assert e.verdict is Verdict.REPORT_ONLY
            assert e.lhs is not None and math.isfinite(e.lhs) and e.lhs > 0

    @pytest.mark.parametrize(
        "coeffs",
        [[1, 0, -1, 1, 1, 0, 1, 1, -1, 0, 1], [1, 0, 1, -1, -1, 0, -1, -1, 1, 0, 1]],
        ids=["P(-1)=0", "P(1)=0"],
    )
    def test_dubickas_distance_exactly_zero_at_a_root_of_unity(self, coeffs):
        # min |mu - omega| over omega = +-1 is 0, not the rounding noise of
        # the computed root's distance to omega
        p = Polynomial(coeffs)
        entries = dubickas_selfreciprocal_rhs(p, *_facts(p), 1, 0.01)
        by_id = {e.theorem_id: e for e in entries}
        for tid in ("dubickas_rhs_m1", "dubickas_rhs_m1_nonreal"):
            assert by_id[tid].verdict is Verdict.REPORT_ONLY
            assert by_id[tid].rhs == 0.0

    def test_general_separation_holds(self, lehmer_roots):
        entries = general_separation(LEHMER, lehmer_roots, 1.0, LEHMER_SUP)
        assert any(e.theorem_id == "general_separation" for e in entries)
        assert all(e.verdict is Verdict.HOLDS for e in entries if e.applicable)

    def test_positive_coefficient_corollary(self):
        p = Polynomial([1, 1, 1, 1, 1])
        rs = roots(p, 128)
        entries = general_separation(p, rs, 1.0, sup_norm_circle(p)[0])
        ids = {e.theorem_id for e in entries}
        assert "general_separation_positive" in ids
        assert all(e.verdict is Verdict.HOLDS for e in entries if e.applicable)


class TestDiskBounds:
    def test_jensen_holds(self, lehmer_roots):
        lhs, rhs_g, rhs_pm1, entries = jensen_disk_rhs(LEHMER, 1.0, 0.3, lehmer_roots)
        assert lhs is not None and lhs >= 0
        assert rhs_pm1 is not None
        assert all(e.verdict is Verdict.HOLDS for e in entries if e.applicable)

    def test_lower1_all_hold(self, lehmer_roots):
        for delta in (1.5, 2.0, math.e ** 2):
            entries = lower1_bounds(LEHMER, lehmer_roots, 1.0, delta)
            assert all(
                e.verdict in (Verdict.HOLDS, Verdict.NOT_APPLICABLE) for e in entries
            )
            assert any(e.verdict is Verdict.HOLDS for e in entries)

    def test_lower1_rejects_bad_delta(self, lehmer_roots):
        with pytest.raises(ValueError):
            lower1_bounds(LEHMER, lehmer_roots, 1.0, 1.0)

    @pytest.mark.parametrize("delta", [1.5, 2.0, math.e ** 2])
    def test_lower1_alphabeta_checks_undecided_roots(self, delta):
        # (alphabeta) does not depend on |mu| = 1, so the roots whose unit
        # status the radii leave open count too; here the tightest root is
        # one of them, with |mu| / |mu - 1|^2 = 2 + sqrt(3)
        p = Polynomial([1, 0, -1, 0, 1, 0, 1, 0, -1, 0, 1])
        rs = roots(p, 128)
        assert any(bounds._modulus_status(rt) == "undecided" for rt in rs.roots)
        by_id = {e.theorem_id: e for e in lower1_bounds(p, rs, 1.0, delta)}
        want = max(abs(complex(rt.value)) / abs(complex(rt.value) - 1) ** 2 for rt in rs.roots)
        assert by_id["lower1_alphabeta"].lhs == pytest.approx(2 + math.sqrt(3), rel=1e-12)
        assert by_id["lower1_alphabeta"].lhs == pytest.approx(want, rel=1e-12)
        assert by_id["lower1_alphabeta"].verdict is Verdict.HOLDS

    def test_corollaries_hold(self, lehmer_roots):
        entries = corollary_bounds(LEHMER, lehmer_roots, 1.0, LEHMER_SUP)
        assert all(
            e.verdict in (Verdict.HOLDS, Verdict.NOT_APPLICABLE) for e in entries
        )
        assert any(e.theorem_id.startswith("cor36") and e.applicable for e in entries)


class TestSchinzel:
    def test_lehmer_strict(self, lehmer_roots, lehmer_measure):
        entries, cert = schinzel_lower(LEHMER, lehmer_roots, lehmer_measure)
        assert all(e.verdict is Verdict.HOLDS for e in entries if e.applicable)
        assert not cert["m"] and not cert["n"]

    def test_equality_family_k0(self):
        # (x - 2)(x - 1/2)(x + 2)(x + 1/2): measure 4 equals the bound
        p = Polynomial([1, 0, Fraction(-17, 4), 0, 1])
        entries, cert = schinzel_lower(p, *_facts(p))
        assert cert["m"]
        e = next(e for e in entries if e.theorem_id == "schinzel_m")
        assert abs(e.lhs - e.rhs) < 1e-9

    def test_equality_family_k1(self):
        p = Polynomial([1, 0, Fraction(-17, 4), 0, 1]) * Polynomial([1, 0, 1])
        _, cert = schinzel_lower(p, *_facts(p))
        assert cert["m"]

    def test_equality_family_n(self):
        # roots {2, 1/2}: equality in the positive-real-root variant
        p = Polynomial([1, Fraction(-5, 2), 1])
        _, cert = schinzel_lower(p, *_facts(p))
        assert cert["n"]

    def test_random_corpus_no_certificates(self):
        # degree >= 3: the sparse degree-2 binomials x^2 - c genuinely achieve
        # equality (roots {a, -a}) and would rightly fire the certificate
        rng = random.Random(3)
        for _ in range(30):
            d = rng.randint(3, 10)
            p = Polynomial([rng.randint(-6, 6) for _ in range(d)] + [1])
            if p.degree < 2:
                continue
            _, cert = schinzel_lower(p, *_facts(p))
            assert not cert["m"] and not cert["n"]


class TestRealZeroBounds:
    def test_com_bound_lehmer(self, lehmer_roots, lehmer_measure):
        entries = realzero_upper_com(LEHMER, lehmer_roots, lehmer_measure)
        assert entries[0].verdict is Verdict.HOLDS
        assert entries[0].lhs == 2  # two real zeros

    def test_length_bounds_lehmer(self, lehmer_roots, lehmer_measure):
        entries = realzero_upper_length(LEHMER, lehmer_roots, lehmer_measure)
        by_id = {e.theorem_id: e for e in entries}
        assert by_id["realzero_length_complex"].verdict is Verdict.HOLDS
        assert by_id["realzero_length_integer"].verdict is Verdict.HOLDS
        assert by_id["realzero_length_integer1"].verdict is Verdict.REPORT_ONLY

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_random_hold_or_na(self, tail):
        p = Polynomial(tail + [1])
        if p.degree < 2:
            return
        facts = _facts(p)
        for e in realzero_upper_com(p, *facts) + realzero_upper_length(p, *facts):
            assert e.verdict is not Verdict.VIOLATED


class TestVandermondeChain:
    def test_hadamard_dominates(self):
        rng = random.Random(5)
        for _ in range(50):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            N = rng.randint(2, 8)
            assert vandermonde_R(x, N) <= hadamard_bound(x, N) * (1 + 1e-12)

    def test_lemmaK_N2_is_classical(self, lehmer_roots):
        mres = mahler_from_roots(LEHMER, lehmer_roots)
        entries = lemmaK_check(LEHMER, mres, n_max=2)
        e = entries[0]
        assert e.theorem_id == "lemmaK_N2"
        assert abs(e.rhs - 2 ** 10 * mres.value) < 1e-9

    def test_lemmaK_all_hold(self, lehmer_roots):
        mres = mahler_from_roots(LEHMER, lehmer_roots)
        assert all(
            e.verdict is Verdict.HOLDS for e in lemmaK_check(LEHMER, mres, 10)
        )

    def test_zhang_zagier_lehmer(self, lehmer_roots, lehmer_measure):
        entries = zhang_zagier_check(LEHMER, lehmer_roots, lehmer_measure)
        assert entries[0].verdict is Verdict.HOLDS

    def test_zhang_zagier_excluded_root(self):
        # Phi_6 divides P: excluded from applicability
        p = Polynomial([1, -1, 1])
        entries = zhang_zagier_check(p, *_facts(p))
        assert entries[0].verdict is Verdict.NOT_APPLICABLE

    @pytest.mark.parametrize(
        "p",
        [
            *(_random_integer(d, seed=d) for d in (10, 17, 24, 30)),
            cyclotomic(10),
            Polynomial([3, -3, 1]),  # roots on |x - 1| = 1
            Polynomial([3, -3, 1]) ** 2,  # wide straddle: escalates
        ],
        ids=["random10", "random17", "random24", "random30", "phi10", "ring", "ring-squared"],
    )
    def test_shifted_measure_oracle(self, p):
        m = _shifted_measure(p, roots(p, 128))
        pstar = p.compose(Polynomial([1, -1]))
        oracle = mahler_from_roots(pstar, roots(pstar, 256))
        assert abs(m.value - oracle.value) <= m.error_bound + oracle.error_bound
        g = mahler_graeffe(pstar, k=24, precision_bits=256)
        assert g.value - g.error_bound - m.error_bound <= m.value
        assert m.value <= g.value * (1 + 2.0 ** -52) + m.error_bound

    def test_shifted_measure_escalates_on_wide_straddle(self):
        p = Polynomial([3, -3, 1]) ** 2  # P(1-x) = (x^2+x+1)^2
        assert _shifted_measure(p, roots(p, 128)).iterations_or_precision > 128

    def test_zhang_zagier_equality_phi10(self):
        p = cyclotomic(10)
        (entry,) = zhang_zagier_check(p, *_facts(p))
        golden = (1 + math.sqrt(5)) / 2
        assert entry.verdict is Verdict.HOLDS
        assert abs(entry.rhs - golden ** 2) <= 1e-12

    def test_around1_report_only(self, lehmer_roots, lehmer_measure):
        entries = around1_report(LEHMER, lehmer_roots, lehmer_measure)
        assert entries
        for e in entries:
            assert e.verdict in (Verdict.REPORT_ONLY, Verdict.NOT_APPLICABLE)


class TestVerifyAll:
    def test_lehmer_no_violations(self):
        report = verify_all(LEHMER, polynomial_id="lehmer")
        assert report.violated() == []
        assert len(report.entries) > 30

    def test_asymptotics_never_pass_fail(self):
        report = verify_all(LEHMER)
        for e in report.entries:
            if e.theorem_id.startswith(("dubickas_rhs", "around1")) or e.theorem_id == "realzero_length_integer1":
                assert e.verdict in (Verdict.REPORT_ONLY, Verdict.NOT_APPLICABLE)

    def test_each_fact_computed_once(self, monkeypatch):
        # M(P) and M(P(1-x)), one sup norm, and one squarefree test for the
        # eight Liouville rows
        calls = {"mahler_from_roots": 0, "sup_norm_circle": 0, "is_squarefree": 0}
        for name in calls:
            real = getattr(bounds, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(bounds, name, counted)
        report = verify_all(LEHMER)
        assert calls == {"mahler_from_roots": 2, "sup_norm_circle": 1, "is_squarefree": 1}
        assert report.violated() == []

    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_random_no_violations(self, tail):
        p = Polynomial(tail + [1])
        if p.degree < 1:
            return
        assert verify_all(p).violated() == []
