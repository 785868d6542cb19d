"""Theorem evaluators: constants, separation bounds, Schinzel equality,
real-zero counts, Lemma K, and the aggregate verifier."""
import dataclasses
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab import bounds, dyadic, measure, rootfind, structure
from mahlerlab.bounds import (
    _shifted_measure,
    around1_report,
    corollary_bounds,
    dubickas_selfreciprocal_rhs,
    general_separation,
    jensen_disk_rhs,
    lemmaK_check,
    liouville_selfreciprocal,
    lower1_bounds,
    realzero_upper_com,
    realzero_upper_length,
    schinzel_lower,
    solve_constants,
    verify_all,
    zhang_zagier_check,
)
from mahlerlab.measure import mahler, mahler_from_roots, mahler_graeffe, sup_norm_circle
from mahlerlab.polycore import Polynomial, norms
from mahlerlab.reporting import Verdict
from mahlerlab.rootfind import roots
from mahlerlab.structure import cyclotomic
from oracles import centre_mpc, cyclotomic_factor_scan, fr_compose

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


def _widened(rs, radius):
    """``rs`` with every error radius set to ``radius``."""
    return dataclasses.replace(
        rs, roots=tuple(dataclasses.replace(rt, error_radius=radius) for rt in rs.roots)
    )


def _moved(rs, delta, centre):
    """``rs`` with each centre z moved exactly by ``delta`` along the real
    axis, away from the real point ``centre``, and every radius set to 1e-20."""

    def moved(rt):
        step = dyadic.as_centre(-delta if centre_mpc(rt).real >= centre else delta)
        x, y, e = dyadic.centre_sub(rt.centre, step)
        z = complex(dyadic.float_nearest(x, e), dyadic.float_nearest(y, e))
        return dataclasses.replace(rt, centre=(x, y, e), z=z, error_radius=1e-20)

    return dataclasses.replace(rs, roots=tuple(map(moved, rs.roots)))


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

    def test_stored_floats_are_the_nearest_roots(self):
        # each defining equation solved again at 40 digits, then rounded
        with mp.workdps(40):
            roots = {
                "theta0": mp.findroot(lambda x: x ** 3 - x - 1, 1.3),
                "golden": mp.findroot(lambda x: x ** 2 - x - 1, 1.6),
                "c": mp.findroot(lambda x: x * mp.log(x) - 1 - x, 3.6),
                "a": mp.findroot(lambda x: x * mp.log(x) ** 3 - 4, 3.0),
                "b": mp.findroot(lambda x: x * mp.log(x) ** 2 * (mp.log(x) - 2) - 8, 9.0),
            }
            want = {name: float(x) for name, x in roots.items()}
        c = solve_constants()
        assert {name: getattr(c, name) for name in want} == want

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

    def test_liouville_reads_squarefree_from_multiplicities(self, monkeypatch):
        p = LEHMER * LEHMER
        facts, lehmer_facts = _facts(p), _facts(LEHMER)

        def unexpected(a):
            raise AssertionError("squarefree_parts called again")

        monkeypatch.setattr(rootfind, "squarefree_parts", unexpected)
        entries = liouville_selfreciprocal(p, *facts)
        assert len(entries) == 8
        assert all(e.verdict is Verdict.NOT_APPLICABLE for e in entries)
        assert liouville_selfreciprocal(LEHMER, *lehmer_facts)[0].applicable

    def test_dubickas_report_only(self, lehmer_roots, lehmer_measure):
        entries = dubickas_selfreciprocal_rhs(LEHMER, lehmer_roots, lehmer_measure)
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
        entries = dubickas_selfreciprocal_rhs(p, *_facts(p))
        by_id = {e.theorem_id: e for e in entries}
        for tid in ("dubickas_rhs_m1", "dubickas_rhs_m1_nonreal"):
            assert by_id[tid].verdict is Verdict.REPORT_ONLY
            assert by_id[tid].rhs == 0.0

    def test_general_separation_holds(self, lehmer_roots):
        entries = general_separation(LEHMER, lehmer_roots, LEHMER_SUP, norms(LEHMER))
        assert any(e.theorem_id == "general_separation" for e in entries)
        assert all(e.verdict is Verdict.HOLDS for e in entries if e.applicable)

    def test_positive_coefficient_corollary(self):
        p = Polynomial([1, 1, 1, 1, 1])
        rs = roots(p, 128)
        entries = general_separation(p, rs, sup_norm_circle(p)[0], norms(p))
        ids = {e.theorem_id for e in entries}
        assert "general_separation_positive" in ids
        assert all(e.verdict is Verdict.HOLDS for e in entries if e.applicable)


class TestDiskBounds:
    def test_jensen_holds(self, lehmer_roots):
        entries = jensen_disk_rhs(LEHMER, lehmer_roots)
        assert [e.theorem_id for e in entries] == ["jensen_disk", "jensen_disk_pm1"]
        assert entries[0].lhs >= 0
        assert all(e.verdict is Verdict.HOLDS for e in entries if e.applicable)

    def test_lower1_all_hold(self, lehmer_roots):
        entries = lower1_bounds(LEHMER, lehmer_roots)
        assert all(
            e.verdict in (Verdict.HOLDS, Verdict.NOT_APPLICABLE) for e in entries
        )
        # one (alpha) row for each delta, each followed by the other keys
        alpha = [i for i, e in enumerate(entries) if e.theorem_id == "lower1_alpha"]
        assert len(alpha) == 3
        for lo, hi in zip(alpha, alpha[1:] + [len(entries)]):
            assert any(e.verdict is Verdict.HOLDS for e in entries[lo:hi])

    @pytest.mark.parametrize("delta", [1.5, 2.0, math.e ** 2])
    def test_lower1_alphabeta_checks_undecided_roots(self, delta):
        # (alphabeta) does not depend on |mu| = 1, so the roots whose unit
        # status the radii leave open count too; here the tightest root is
        # one of them, with |mu| / |mu - 1|^2 = 2 + sqrt(3).  The double
        # roots of this P come with radii near 2^-152, so the radii are
        # widened by hand until the unit-circle roots are undecided
        p = Polynomial([1, 0, -1, 0, 1, 0, 1, 0, -1, 0, 1])
        rs = _widened(roots(p, 128), 1e-20)
        assert any(not bounds._off_unit(rt) for rt in rs.roots)
        # one call gives the rows of all three deltas, in the order 1.5, 2, e^2
        rows = [e for e in lower1_bounds(p, rs) if e.theorem_id == "lower1_alphabeta"]
        assert len(rows) == 3
        row = rows[[1.5, 2.0, math.e ** 2].index(delta)]
        want = max(abs(rt.z) / abs(rt.z - 1) ** 2 for rt in rs.roots)
        assert row.lhs == pytest.approx(2 + math.sqrt(3), rel=1e-12)
        assert row.lhs == pytest.approx(want, rel=1e-12)
        assert row.verdict is Verdict.HOLDS

    def test_corollaries_hold(self, lehmer_roots):
        entries = corollary_bounds(LEHMER, lehmer_roots, LEHMER_SUP, norms(LEHMER))
        assert all(
            e.verdict in (Verdict.HOLDS, Verdict.NOT_APPLICABLE) for e in entries
        )
        assert any(e.theorem_id.startswith("cor36") and e.applicable for e in entries)

    def test_cor36_needs_p1_at_least_one_exactly(self):
        # |P(1)| = 1 - 10^-13 is below 1: no tolerance makes Cor 3.6 apply
        p = Polynomial([1, -(1 + Fraction(1, 10 ** 13)), 1])
        entries = corollary_bounds(p, roots(p, 128), sup_norm_circle(p)[0], norms(p))
        by_id = {e.theorem_id: e for e in entries}
        assert by_id["cor36_alpha"].verdict is Verdict.NOT_APPLICABLE
        assert not any(e.theorem_id.startswith("cor36") and e.applicable for e in entries)

    @pytest.mark.parametrize(
        "coeffs",
        [LEHMER.coeffs, (1, 0, -1, 0, 0, 1, 0, 0, -1, 0, 1)],
        ids=["lehmer", "on_circle"],
    )
    def test_checkers_give_the_rows_verify_all_reports(self, coeffs):
        p = Polynomial(coeffs)
        rs = roots(p, 128)
        supnorm, nb = sup_norm_circle(p)[0], norms(p)
        direct = (
            general_separation(p, rs, supnorm, nb)
            + jensen_disk_rhs(p, rs)
            + lower1_bounds(p, rs)
            + corollary_bounds(p, rs, supnorm, nb)
        )
        prefixes = ("general_separation", "jensen_disk", "lower1_", "cor3")
        reported = [e for e in verify_all(p, 128).entries if e.theorem_id.startswith(prefixes)]
        assert any(e.theorem_id.startswith("cor3") and e.applicable for e in direct)
        assert direct == reported


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
        entries = realzero_upper_length(LEHMER, lehmer_roots, lehmer_measure, norms(LEHMER))
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
        for e in realzero_upper_com(p, *facts) + realzero_upper_length(p, *facts, norms(p)):
            assert e.verdict is not Verdict.VIOLATED


class TestVandermondeChain:
    """Lemma K, the closed form of the Vandermonde/Hadamard chain on |P(1)|,
    and the other checkers on the zeros near 1."""

    def test_lemmaK_N2_is_classical(self, lehmer_roots):
        mres = mahler_from_roots(LEHMER, lehmer_roots)
        entries = lemmaK_check(LEHMER, lehmer_roots, mres)
        e = entries[0]
        assert e.theorem_id == "lemmaK_N2"
        assert abs(e.rhs - 2 ** 10 * mres.value) < 1e-9

    def test_lemmaK_all_hold(self, lehmer_roots):
        mres = mahler_from_roots(LEHMER, lehmer_roots)
        assert all(
            e.verdict is Verdict.HOLDS for e in lemmaK_check(LEHMER, lehmer_roots, mres)
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
            Polynomial([3, -3, 1]) * Polynomial([3, -3, 1]),  # double roots on |x - 1| = 1
        ],
        ids=["random10", "random17", "random24", "random30", "phi10", "ring", "ring-squared"],
    )
    def test_shifted_measure_oracle(self, p):
        m = _shifted_measure(p, roots(p, 128))
        pstar = Polynomial(fr_compose(p.coeffs, [1, -1]))
        oracle = mahler_from_roots(pstar, roots(pstar, 256))
        assert abs(m.value - oracle.value) <= m.error_bound + oracle.error_bound
        g = mahler_graeffe(pstar, k=24, precision_bits=256)
        assert g.value - g.error_bound - m.error_bound <= m.value
        assert m.value <= g.value * (1 + 2.0 ** -52) + m.error_bound

    @pytest.mark.parametrize("delta", [0.4e-20, -0.4e-20], ids=["out", "in"])
    @pytest.mark.parametrize(
        "p",
        [_random_integer(10, seed=10), _random_integer(17, seed=17), Polynomial([3, -3, 1]) * Polynomial([3, -3, 1])],
        ids=["random10", "random17", "ring-squared"],
    )
    def test_root_product_holds_the_measures_of_moved_disks(self, p, delta):
        # every centre moves by 0.4e-20 along the real axis, away from (out)
        # or toward (in) the point the moduli are taken from, and every radius
        # widens to 1e-20, so each disk still holds its root: both intervals
        # must hold the 512-bit intervals.  Unwidened, a moved interval misses
        # the truth on one side of each non-float measure
        rs = roots(p, 128)
        pstar = Polynomial(fr_compose(p.coeffs, [1, -1]))
        for got, want in (
            (mahler_from_roots(p, _moved(rs, delta, 0)), mahler(p, 512)),
            (_shifted_measure(p, _moved(rs, delta, 1)), mahler(pstar, 512)),
        ):
            assert Fraction(got.value) - Fraction(got.error_bound) <= Fraction(want.value) - Fraction(want.error_bound)
            assert Fraction(want.value) + Fraction(want.error_bound) <= Fraction(got.value) + Fraction(got.error_bound)

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
        # one root product each for M(P) and M(P(1-x)), one sup norm and one
        # set of coefficient norms; the eight Liouville rows and the
        # irreducibility probe in around1_report read squarefreeness from the
        # roots' multiplicities, so the one squarefree decomposition is the one
        # inside `roots`; each is counted through every namespace that binds it
        calls = {"_root_product": 0, "sup_norm_circle": 0, "norms": 0, "squarefree_parts": 0}
        namespaces = {"squarefree_parts": (rootfind, structure), "_root_product": (measure, bounds)}
        for name in calls:
            modules = namespaces.get(name, (bounds,))
            real = getattr(modules[0], name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in modules:
                monkeypatch.setattr(module, name, counted, raising=False)
        report = verify_all(LEHMER)
        assert calls == {"_root_product": 2, "sup_norm_circle": 1, "norms": 1, "squarefree_parts": 1}
        assert report.violated() == []

    @pytest.mark.parametrize(
        "p, parts",
        [
            (LEHMER, 1),  # Liouville and Lemma K both applicable
            (cyclotomic(5) * LEHMER, 1),  # both read the factor Phi_5
            (cyclotomic(3) * cyclotomic(3) * LEHMER, 2),  # Phi_3 the part of multiplicity 2
            (Polynomial([-1, -1, 0, 1]), 1),  # odd degree: Lemma K only
            (Polynomial([-1, -1, 0, 2]), 1),  # not monic: neither
        ],
        ids=["lehmer", "phi5-lehmer", "phi3-squared-lehmer", "smyth", "nonmonic"],
    )
    def test_cyclotomic_factor_once(self, cyclotomic_screens, p, parts):
        # `roots` screens each squarefree part once, and every checker reads
        # the factors it split off from the root set
        report = verify_all(p)
        assert cyclotomic_screens["_cyclotomic_divisors"] == parts
        assert cyclotomic_screens["cyclotomic_factor"] == 0
        lemma = [e for e in report.entries if e.theorem_id.startswith("lemmaK")]
        assert (lemma[0].verdict is Verdict.NOT_APPLICABLE) == (
            cyclotomic_factor_scan(p) is not None or not p.is_monic()
        )

    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_random_no_violations(self, tail):
        p = Polynomial(tail + [1])
        if p.degree < 1:
            return
        assert verify_all(p).violated() == []
