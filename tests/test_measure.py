"""Mahler measure by both methods, sup norm, and the norm-inequality chain."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab.measure import (
    mahler,
    mahler_graeffe,
    norm_chain_check,
    sup_norm_circle,
)
from mahlerlab.polycore import Polynomial
from mahlerlab.reporting import Verdict

LEHMER = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
LEHMER_MEASURE = 1.17628081825992  # largest real root of the degree-10 Salem polynomial
SMYTH = 1.3247179572447460  # real root of x^3 - x - 1


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
        g = mahler_graeffe(p, k=18, precision_bits=192)
        r = mahler(p, 128)
        assert abs(g.value - r.value) <= g.error_bound + r.error_bound + 1e-7


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


class TestNormChain:
    def test_lehmer_all_hold(self):
        entries = norm_chain_check(LEHMER, mahler(LEHMER), sup_norm_circle(LEHMER)[0])
        assert len(entries) == 10
        assert all(e.verdict is Verdict.HOLDS for e in entries)

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_random_all_hold(self, tail):
        p = Polynomial(tail + [1])
        if p.degree < 1:
            return
        entries = norm_chain_check(p, mahler(p), sup_norm_circle(p)[0])
        assert all(e.verdict is Verdict.HOLDS for e in entries)
