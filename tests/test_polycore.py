"""Exact polynomial arithmetic, norms, and structural flags."""
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mahlerlab import cli
from mahlerlab.bounds import verify_all
from mahlerlab.polycore import (
    Polynomial,
    _exact_quotient,
    horner,
    norms,
    reciprocal,
    structural_flags,
    support_flags,
)
from mahlerlab.search import search_min_mahler
from mahlerlab.rootfind import roots
from mahlerlab.structure import cyclotomic, irreducibility_probe

LEHMER = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])

small_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=0, max_size=8
).map(Polynomial)
# rationals, often integral, some of them integral Fractions
rationals = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
rational_lists = st.lists(rationals, max_size=6)


class TestArithmetic:
    def test_degree_and_trim(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1
        assert Polynomial([]).is_zero()
        assert Polynomial([0]).is_zero()

    def test_mul_oracle(self):
        # (x + 1)(x - 1) = x^2 - 1, expanded by hand
        assert Polynomial([1, 1]) * Polynomial([-1, 1]) == Polynomial([-1, 0, 1])

    def test_divmod_exact(self):
        q, r = Polynomial([-1, 0, 0, 0, 1]).divmod(Polynomial([-1, 1]))
        assert r.is_zero()
        assert q == Polynomial([1, 1, 1, 1])

    def test_pickle_round_trip(self):
        p = Polynomial([Fraction(1, 3), 0, -2, 5])
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.coeffs == p.coeffs
        with pytest.raises(AttributeError):
            q.coeffs = ()

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes_and_degree(self, p, q):
        assert p * q == q * p
        if not p.is_zero() and not q.is_zero():
            assert (p * q).degree == p.degree + q.degree

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity(self, p, q):
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                p.divmod(q)
        else:
            quo, rem = p.divmod(q)
            assert quo * q + rem == p
            assert rem.is_zero() or rem.degree < q.degree

    @given(small_polys)
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_involution(self, p):
        if p.is_zero() or p[0] == 0:
            return
        assert reciprocal(reciprocal(p)) == p


class TestEvaluation:
    def test_eval_exact_rational(self):
        assert Polynomial([-1, -1, 0, 1]).eval_exact(Fraction(3, 2)) == Fraction(7, 8)

    def test_horner_float(self):
        z = complex(0.85, 0.5)
        val = horner([complex(c) for c in LEHMER.coeffs], z)
        exact = sum(complex(c) * z ** j for j, c in enumerate(LEHMER.coeffs))
        assert abs(val - exact) <= 1e-12


class TestNorms:
    def test_lehmer_norms(self):
        nb = norms(LEHMER)
        assert nb.H == 1
        assert nb.L == 9
        assert nb.L2sq == 9

    def test_l2_between_h_and_l(self):
        nb = norms(Polynomial([3, -4, 5]))
        assert float(nb.H) <= nb.L2 <= float(nb.L)


class TestStructure:
    def test_lehmer_flags(self):
        f = structural_flags(LEHMER)
        assert f.self_reciprocal and LEHMER.is_self_reciprocal()
        assert not Polynomial([1, 2, 0]).is_self_reciprocal()
        assert f.primitive_c1
        assert f.sign_c2
        assert not f.vanishes_at_0

    def test_non_primitive(self):
        # P(x) = x^4 - x^2 - 1 is Q(x^2) for Q = x^2 - x - 1
        f = structural_flags(Polynomial([-1, 0, -1, 0, 1]))
        assert f.primitive_c1 is False

    def test_sign_c2_negative(self):
        f = structural_flags(Polynomial([1, -2, 1, 1]))
        assert f.sign_c2 is False

    @pytest.mark.parametrize(
        "coeffs, want",
        [
            ([-1, 0, -1, 0, 1], (2, False)),  # Q(x^2), first a_j is a_2 = -1
            ([1, 0, 0, 0, 0, 0, 1], (6, True)),
            ([1, -2, 1, 1], (1, False)),
            ([5], (0, None)),
        ],
    )
    def test_support_flags(self, coeffs, want):
        p = Polynomial(coeffs)
        assert support_flags(p) == want
        f = structural_flags(p)
        assert (f.primitive_c1, f.sign_c2, f.exponent_gcd) == (want[0] < 2, want[1], max(want[0], 1))


def _exact_types(cs) -> bool:
    """Each coefficient an int when integral, else a non-integral Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in cs)


class TestNumberType:
    @pytest.mark.parametrize("c", [3, True, Fraction(6, 2), "6/3", "-4"])
    def test_integral_values_become_ints(self, c):
        (got,) = Polynomial([c]).coeffs
        assert type(got) is int and got == Fraction(c)

    def test_other_values(self):
        assert Polynomial(["1/2", Fraction(-3, 4)]).coeffs == (Fraction(1, 2), Fraction(-3, 4))
        with pytest.raises(TypeError):
            Polynomial([0.5])

    @given(rational_lists, rational_lists, rationals)
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, a, b, x):
        p, q = Polynomial(a), Polynomial(b)
        fa, fb, fx = oracles.fr_poly(a), oracles.fr_poly(b), oracles.fr_poly([x])
        results = [
            (p + q, oracles.fr_add(fa, fb)),
            (p - q, oracles.fr_sub(fa, fb)),
            (p * q, oracles.fr_mul(fa, fb)),
            # a scalar on either side is the constant polynomial
            (p + x, oracles.fr_add(fa, fx)),
            (x + p, oracles.fr_add(fx, fa)),
            (p - x, oracles.fr_sub(fa, fx)),
            (x - p, oracles.fr_sub(fx, fa)),
            (p * x, oracles.fr_mul(fa, fx)),
            (x * p, oracles.fr_mul(fx, fa)),
        ]
        if fb:
            results += zip(p.divmod(q), oracles.fr_divmod(fa, fb))
        for got, want in results:
            assert list(got.coeffs) == want and _exact_types(got.coeffs), (a, b)
        assert p.eval_exact(x) == oracles.fr_eval(fa, x)
        if fa:
            nb = norms(p)
            assert (nb.H, nb.L, nb.L2sq) == oracles.fr_norms(fa)
            got = p.integer_coeffs()
            assert got == oracles.fr_integer_coeffs(fa) and _exact_types(got)
        if p.is_integer():
            assert p.content() == oracles.fr_content(fa)
        else:
            with pytest.raises(ValueError):
                p.content()

    def test_integer_paths_build_no_fraction(self, monkeypatch):
        """verify, analyze, search and the irreducibility probe's factor
        search on integer input never construct a Fraction."""
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        verify_all(LEHMER)
        for p in (LEHMER, cyclotomic(15) * LEHMER):
            cli._analyze_one(("p", p.coeffs, 128, 1.3))
        search_min_mahler(10, 1, 1.3)
        # (2x^2 + x + 1)(3x^2 + x + 5), and times 2x^3 + 7: factors with
        # leads other than 1, found by the factor search among the roots
        for p in (Polynomial([5, 6, 14, 5, 6]),
                  Polynomial([1, 1, 2]) * Polynomial([1, 2, 3]) * Polynomial([7, 0, 0, 2])):
            v = irreducibility_probe(p, rs=roots(p, 128))
            assert (v.status.value, v.witness) == ("Reducible", "rational factorization")
        assert made == []


small_ints = st.lists(st.integers(min_value=-9, max_value=9), max_size=5)
# nonconstant or constant, with a nonzero lead and content 1
primitive_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4).filter(
    lambda b: b[-1] != 0 and math.gcd(*b) == 1
)


class TestExactQuotient:
    """`_exact_quotient` divides by a primitive b in ints, or answers None."""

    def test_exact(self):
        # x^4 - 1 = (x - 1)(x^3 + x^2 + x + 1)
        assert _exact_quotient([-1, 0, 0, 0, 1], [-1, 1]) == [1, 1, 1, 1]

    @pytest.mark.parametrize("a, b", [
        ([1, 0, 1], [1, 2]),  # x^2 + 1 by 2x + 1: the first step is not integral
        ([1, 3], [1, 2]),  # 3x + 1 by 2x + 1: a floor step would leave no remainder
        ([2, 0, 1], [1, 1]),  # x^2 + 2 by x + 1: the remainder 3 is left
    ])
    def test_no_quotient(self, a, b):
        assert _exact_quotient(a, b) is None

    @given(small_ints, primitive_lists, small_ints, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_oracle(self, c, b, r, exact):
        # a = c b, or c b + r, which b may or may not divide
        a = [int(v) for v in oracles.fr_add(oracles.fr_mul(c, b), [] if exact else r)]
        quot, rem = oracles.fr_divmod(oracles.fr_poly(a), oracles.fr_poly(b))
        got = _exact_quotient(a, b)
        assert (got is None) == bool(rem), (a, b)
        if got is not None:
            assert got == quot and _exact_types(got), (a, b)
