"""Mahler measure by both methods, sup norm, and the norm-inequality chain."""
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab import measure
from mahlerlab.corpusio import parse_corpus
from mahlerlab.measure import (
    _graeffe_iterate,
    mahler,
    mahler_graeffe,
    norm_chain_check,
    sup_norm_circle,
)
from mahlerlab.polycore import Polynomial, norms
from mahlerlab.reporting import Verdict
from mahlerlab.structure import cyclotomic
from oracles import graeffe_iterate_half_sum, sup_norm_oracle

LEHMER = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
LEHMER_MEASURE = 1.17628081825992  # largest real root of the degree-10 Salem polynomial
SMYTH = 1.3247179572447460  # real root of x^3 - x - 1
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


class TestRootProduct:
    def test_lehmer(self):
        m = mahler(LEHMER, 128)
        assert abs(m.value - LEHMER_MEASURE) < 1e-10
        assert m.method == "root_product"

    def test_smyth(self):
        m = mahler(Polynomial([-1, -1, 0, 1]), 128)
        assert abs(m.value - SMYTH) < 1e-10

    def test_golden(self):
        # x^2 - x - 1 has measure (1 + sqrt 5)/2
        m = mahler(Polynomial([-1, -1, 1]), 128)
        assert abs(m.value - (1 + math.sqrt(5)) / 2) < 1e-12

    def test_linear(self):
        assert abs(mahler(Polynomial([-2, 1])).value - 2.0) < 1e-12
        assert abs(mahler(Polynomial([1, 2])).value - 2.0) < 1e-12

    def test_cyclotomic_is_one(self):
        # x^4 + x^3 + x^2 + x + 1
        m = mahler(Polynomial([1, 1, 1, 1, 1]), 128)
        assert abs(m.value - 1.0) < 1e-12

    def test_scaling_by_constant(self):
        m = mahler(Polynomial([-3, -3, 0, 3]), 128)  # 3 (x^3 - x - 1)
        assert abs(m.value - 3 * SMYTH) < 1e-9

    @pytest.mark.parametrize(
        "coeffs, exact",
        [
            ([Fraction(1, 3), Fraction(2, 3)], Fraction(2, 3)),  # (2/3) (x + 1/2)
            ([-1, Fraction(1, 7)], Fraction(1)),  # (1/7) (x - 7)
            ([Fraction(-10, 3), 0, Fraction(5, 3)], Fraction(10, 3)),  # (5/3) (x^2 - 2)
        ],
        ids=["two-thirds", "one-seventh", "five-thirds"],
    )
    def test_fraction_lead_interval_holds_exact_measure(self, coeffs, exact):
        m = mahler(Polynomial(coeffs), 128)
        assert abs(Fraction(m.value) - exact) <= Fraction(m.error_bound)
        assert m.error_bound <= 2.0 ** -52 * m.value


class TestGraeffe:
    def test_lehmer_tolerance(self):
        m = mahler_graeffe(LEHMER, k=20, precision_bits=192)
        assert abs(m.value - LEHMER_MEASURE) < 1e-5
        assert m.method == "graeffe"

    def test_bracketing_contains_truth(self):
        for coeffs in ([-1, -1, 0, 1], [-2, 1], [1, 1, 1, 1, 1]):
            p = Polynomial(coeffs)
            g = mahler_graeffe(p, k=16, precision_bits=160)
            truth = mahler(p, 192).value
            assert truth <= g.value + 1e-12
            assert truth >= g.value - g.error_bound - 1e-12

    def test_large_degree_no_overflow(self):
        p = Polynomial([1] * 101)  # degree 100
        g = mahler_graeffe(p, k=16, precision_bits=256)
        assert math.isfinite(g.value)
        # all roots on the circle: the bracket [est - err, est] must contain 1
        assert g.value >= 1.0 - 1e-9
        assert g.value - g.error_bound <= 1.0 + 1e-9

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_methods_agree(self, tail):
        p = Polynomial(tail + [1])
        if p.degree < 1:
            return
        _assert_brackets_meet(mahler_graeffe(p, k=18, precision_bits=192), mahler(p, 128))

    def test_methods_agree_on_analyze_corpus(self):
        text = (Path(__file__).parent / "data" / "analyze_golden_corpus.txt").read_text()
        for entry in parse_corpus(text):
            p = entry.polynomial
            _assert_brackets_meet(mahler_graeffe(p, k=20, precision_bits=128), mahler(p, 128))


class TestGraeffeRoot:
    """The 2^k-th root of the bracket's ends, taken by integer square roots."""

    GOLDEN = Path(__file__).parent / "data" / "graeffe_golden.json"

    def test_matches_golden(self):
        # brackets written when the root went through mpmath's directed
        # logarithm and exponential, which lost one unit in the last place on
        # an exactly representable lower end: at k <= 1, and for a constant
        # at every depth; the integer roots do not
        for row in json.loads(self.GOLDEN.read_text()):
            p = Polynomial([Fraction(c) for c in row["coeffs"]])
            for k, bits, value, error in row["brackets"]:
                g = mahler_graeffe(p, k, bits)
                case = (row["coeffs"], k, bits)
                assert g.value == float.fromhex(value), case
                assert g.error_bound <= float.fromhex(error), case
                if k >= 6 and p.degree >= 1:
                    assert g.error_bound == float.fromhex(error), case

    def test_ends_bound_the_root_exactly(self):
        # (m 2^x)^(1/2^k) / den against Fraction powers of both ends, also at
        # widths small enough that each rounding shows in the float
        rng = random.Random(29)
        for _ in range(600):
            k, width = rng.randint(0, 5), rng.choice([1, 2, 3, 8, 64, 160])
            m = rng.getrandbits(rng.randint(1, 300)) | 1
            x, den = rng.randint(-400, 400), rng.choice([1, 3, 7, 12, rng.getrandbits(80) | 1])
            lo = measure._root_bound(m, x, k, den, width, False)
            hi = measure._root_bound(m, x, k, den, width, True)
            exact = Fraction(m) * Fraction(2) ** x / den ** 2 ** k
            assert Fraction(lo) ** 2 ** k <= exact <= Fraction(hi) ** 2 ** k, (m, x, k, den, width)
            if width >= 64:
                assert hi <= math.nextafter(lo, math.inf), (m, x, k, den, width)

    def test_above_the_float_range(self):
        # above the float range the upper end and the error are inf, and the
        # lower end rounds down to the largest float
        for k in (0, 6):
            g = mahler_graeffe(Polynomial([-2 ** 1100, 1]), k)
            assert (g.value, g.error_bound) == (math.inf, math.inf)
        assert measure._root_bound(1, 1100, 0, 1, 160, False) == sys.float_info.max


def _assert_brackets_meet(g, r):
    """The Graeffe bracket [value - error, value] meets the root-product
    interval [value - error, value + error], compared exactly."""
    assert Fraction(g.value) - Fraction(g.error_bound) <= Fraction(r.value) + Fraction(r.error_bound)
    assert Fraction(r.value) - Fraction(r.error_bound) <= Fraction(g.value)


def _oracle_graeffe(p, ks, bits):
    """{k: estimate} for each k in ``ks`` from root squaring in mpmath at
    ``bits`` bits, one coefficient at a time, each iterate renormalized by its
    largest coefficient with the scale kept in log space: the method the
    integer kernel replaced, kept here as its oracle."""
    d = p.degree
    out = {}
    with mp.workprec(bits):
        cs = [mp.mpf(c.numerator) / c.denominator for c in p.coeffs]
        logscale = mp.mpf(0)
        for k in range(1, max(ks) + 1):
            sq = []
            for j in range(d + 1):
                s = mp.mpf(0)
                for i in range(max(0, 2 * j - d), min(d, 2 * j) + 1):
                    t = cs[i] * cs[2 * j - i]
                    s += -t if i % 2 else t
                sq.append(s)
            m = max(abs(c) for c in sq)
            cs = [c / m for c in sq]
            logscale = 2 * logscale + mp.log(m)
            if k in ks:
                log_l2 = logscale + mp.log(mp.sqrt(mp.fsum(c * c for c in cs)))
                out[k] = float(mp.exp(log_l2 / 2 ** k))
    return out


GRAEFFE_DEPTHS = (6, 16, 20, 24)
GRAEFFE_CASES = {
    "lehmer": LEHMER,
    "phi3-squared": Polynomial([1, 2, 3, 2, 1]),
    "phi105": cyclotomic(105),
    "ones101": Polynomial([1] * 101),
    "fractions": Polynomial([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), 1]),
    "huge": Polynomial([-10 ** 300, -10 ** 300, 0, 10 ** 300]),
}


def _matches_oracle(p, oracle, k, bits):
    g = mahler_graeffe(p, k, bits)
    want = oracle[k]
    # the same L2 norm to far below a double's precision: only the final
    # outward rounding separates them
    assert abs(g.value - want) <= 4 * math.ulp(want)
    lower = want * 2.0 ** (-p.degree / 2.0 ** k)
    assert abs((g.value - g.error_bound) - lower) <= 4 * math.ulp(want)
    return g


class TestGraeffeKernel:
    """The fixed-point integer kernel against the mpmath root squaring it
    replaced, and its bracket against a 512-bit root product."""

    def test_carried_error_stays_small(self):
        # one pass at the first width, with the carried error far below the
        # coefficients: 64 bits of a 160-bit iterate at most
        for p in (LEHMER, math.prod([Polynomial([-1, -1, 0, 1])] * 3)):
            c, e, err = _graeffe_iterate([int(x) for x in p.coeffs], 20, 160)
            assert 0 < err < 2 ** 64
            assert max(map(abs, c)).bit_length() == 160

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize("name", list(GRAEFFE_CASES))
    def test_matches_mpmath_oracle(self, name, bits):
        p = GRAEFFE_CASES[name]
        oracle = _oracle_graeffe(p, GRAEFFE_DEPTHS, bits)
        m = mahler(p, 512)
        for k in GRAEFFE_DEPTHS:
            g = _matches_oracle(p, oracle, k, bits)
            # the bracket holds M(P), up to the root product's own error
            assert g.value - g.error_bound <= m.value + m.error_bound
            assert m.value - m.error_bound <= g.value

    @given(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_matches_mpmath_oracle(self, tail, lead):
        p = Polynomial(tail + [lead])
        oracle = _oracle_graeffe(p, (6, 20), 128)
        for k in (6, 20):
            _matches_oracle(p, oracle, k, 128)

    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("k", [16, 20])
    def test_iterate_with_a_repeated_root(self, m, k):
        # Phi_(2^(m+1)) = x^(2^m) + 1 squares to (x - 1)^(2^m) after m + 1
        # steps, so L2(G_k)^2 = binomial(2^(m+1), 2^m); the mpmath iterate
        # drifted off that 2^m-fold root, and its bracket excluded M = 1
        g = mahler_graeffe(Polynomial([1] + [0] * (2 ** m - 1) + [1]), k, 128)
        with mp.workprec(256):
            want = float(mp.mpf(math.comb(2 ** (m + 1), 2 ** m)) ** (mp.mpf(1) / 2 ** (k + 1)))
        assert abs(g.value - want) <= 2 * math.ulp(want)
        assert g.value - g.error_bound <= 1.0 <= g.value

    def test_exact_on_the_circle(self):
        # x - 1 squares to itself: no rounding, and the bracket is
        # [2^(1/2^(k+1)) 2^(-1/2^k), 2^(1/2^(k+1))] rounded outward
        g = mahler_graeffe(Polynomial([-1, 1]), 20, 128)
        top = 2.0 ** (1 / 2.0 ** 21)
        assert top <= g.value <= top + math.ulp(top)
        assert g.value - g.error_bound <= 1.0


class TestKroneckerSquaring:
    """`_graeffe_iterate` squares by Kronecker substitution; every result,
    including the None that doubles the width, equals the symmetric half-sum
    it replaced (`oracles.graeffe_iterate_half_sum`)."""

    @pytest.mark.parametrize("d", range(41))
    def test_matches_half_sum(self, d):
        rng = random.Random(d)
        # (x - 1)^(d - 1) (x - 2) loses a few bits a step to cancellation, so
        # at 64 and 96 bits its error reaches the coefficients for d >= 5
        circle = math.prod([Polynomial([-1, 1])] * max(d - 1, 0) + [Polynomial([-2, 1])] * min(d, 1),
                           start=Polynomial([1]))
        inputs = [[int(c) for c in circle.coeffs]]
        for bits in (2, 40, 320):
            inputs.append([rng.randint(-2 ** bits, 2 ** bits) for _ in range(d)]
                          + [rng.randint(1, 2 ** bits)])
        nones = 0
        for i, a in enumerate(inputs):
            for width in (64, 96, 160, 1031, 4128):
                k = rng.randint(0, 20) if i else 20
                want = graeffe_iterate_half_sum(a, k, width)
                assert _graeffe_iterate(a, k, width) == want, (a, k, width)
                nones += want is None
        assert (nones > 0) == (d >= 5)

    @pytest.mark.parametrize("a", [
        [5], [-3], [2 ** 301 + 1],  # degree 0: the odd part is empty
        [2, 7], [1, -1], [-(2 ** 305), 3],  # degree 1
        [2 ** 301 + 1, -(2 ** 333), 3, 2 ** 310],  # coefficients above 2^300
        [-(2 ** 400)] + [2 ** 350 - 1] * 9 + [2 ** 301],
    ])
    @pytest.mark.parametrize("width", [64, 160, 4128])
    def test_edges_match_half_sum(self, a, width):
        for k in (0, 1, 2, 7, 20):
            assert _graeffe_iterate(a, k, width) == graeffe_iterate_half_sum(a, k, width)

    @pytest.mark.parametrize("p", [LEHMER, math.prod([Polynomial([-1, 1])] * 6 + [Polynomial([-3, 1])]),
                                   Polynomial([2 ** 301, -5, 0, 7, 2 ** 300 + 1])])
    def test_mahler_graeffe_at_4096_bits(self, monkeypatch, p):
        got = mahler_graeffe(p, 20, 4096)
        monkeypatch.setattr(measure, "_graeffe_iterate", graeffe_iterate_half_sum)
        assert got == mahler_graeffe(p, 20, 4096)


def _count_horner(monkeypatch):
    """A one-element list counting the `horner` calls of `measure` made from
    now on."""
    calls = [0]
    evaluate = measure.horner

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(measure, "horner", counted)
    return calls


def _sup_norm_corpus():
    """Lehmer, the first palindrome of each `verify-mixed` pool group, and 50
    seeded random integer polynomials of degree <= 40."""
    pools = json.loads(REFERENCE.read_text())["pools"]["verify-mixed"]
    polys = [LEHMER, *(Polynomial(group[0]) for group in pools["palindrome"])]
    rng = random.Random(19)
    while len(polys) < 61:
        p = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 40))] + [rng.randint(1, 9)])
        if p.degree >= 1:
            polys.append(p)
    return polys


class TestSupNorm:
    def test_constant_modulus(self):
        # |x^3| = 1 on the circle
        v, _ = sup_norm_circle(Polynomial([0, 0, 0, 1]))
        assert abs(v - 1.0) < 1e-9

    def test_x_plus_one(self):
        # max |e^(i t) + 1| = 2 at t = 0
        v, arg = sup_norm_circle(Polynomial([1, 1]))
        assert abs(v - 2.0) < 1e-9
        assert min(arg, 2 * math.pi - arg) < 1e-5

    def test_lower_bounded_by_values(self):
        p = LEHMER
        v, _ = sup_norm_circle(p)
        assert v + 1e-12 >= abs(float(p.eval_exact(1)))
        assert v + 1e-12 >= abs(float(p.eval_exact(-1)))

    def test_matches_oracle(self):
        for p in _sup_norm_corpus():
            want = sup_norm_oracle(p)
            assert abs(sup_norm_circle(p)[0] - want) <= 4e-15 * want, p

    @pytest.mark.parametrize(
        "coeffs", [[1, 2, 3, 4, 5, 6], [1, 1], [3, 1, 4, 1, 5, 9, 2, 6], [7] * 31]
    )
    def test_positive_coefficients_peak_at_one(self, coeffs):
        # |P| peaks at theta = 0 with the value P(1), the sum, exactly
        p = Polynomial(coeffs)
        assert sup_norm_circle(p) == (float(p.eval_exact(1)), 0.0)

    @pytest.mark.parametrize("coeffs", [LEHMER.coeffs, [1, 2, 3], [5]])
    def test_returns_python_floats(self, coeffs):
        assert [type(x) for x in sup_norm_circle(Polynomial(coeffs))] == [float, float]

    @pytest.mark.parametrize(
        "coeffs, most",
        [
            (LEHMER.coeffs, 100),
            ([1] + [0] * 29 + [1], 100),  # x^30 + 1
            # |x^3| = 1: g' = 0 at every refined sample, so each of the five
            # searches stops after evaluating P and Q1 once
            ([0, 0, 0, 1], 10),
        ],
        ids=["lehmer", "x30+1", "x3"],
    )
    def test_few_evaluations(self, monkeypatch, coeffs, most):
        # the golden-section search made 381, 531 and 335 calls
        calls = _count_horner(monkeypatch)
        sup_norm_circle(Polynomial(coeffs))
        assert calls[0] <= most


@pytest.mark.parametrize("fn", [mahler, mahler_graeffe, sup_norm_circle, norms])
def test_zero_polynomial_raises_value_error(fn):
    # M, the sup norm and the norms of 0 are undefined, and each says so alike
    with pytest.raises(ValueError, match="zero polynomial"):
        fn(Polynomial([]))


class TestNormChain:
    def test_lehmer_all_hold(self):
        entries = norm_chain_check(LEHMER, mahler(LEHMER), sup_norm_circle(LEHMER)[0], norms(LEHMER))
        assert len(entries) == 10
        assert all(e.verdict is Verdict.HOLDS for e in entries)

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_random_all_hold(self, tail):
        p = Polynomial(tail + [1])
        if p.degree < 1:
            return
        entries = norm_chain_check(p, mahler(p), sup_norm_circle(p)[0], norms(p))
        assert all(e.verdict is Verdict.HOLDS for e in entries)
