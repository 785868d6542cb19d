"""Root finding, error radii, disk/real counting, and diagnostics."""
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab import rootfind
from mahlerlab.measure import mahler_from_roots
from mahlerlab.polycore import Polynomial
from mahlerlab.rootfind import (
    ITERATION_CAP,
    contour_count,
    count_in_disk,
    count_outside_radius,
    count_real,
    reconstruction_residual,
    roots,
    vieta_residual,
)

LEHMER = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


def _random_integer(degree, height, seed):
    """A random integer polynomial of exact degree with P(0) != 0."""
    rng = random.Random(seed)
    while True:
        p = Polynomial([rng.randint(-height, height) for _ in range(degree)]
                       + [rng.randint(1, height)])
        if p[0] != 0:
            return p


def _assert_enclosed(rs, exact, prec):
    """Each reported root holds exactly `multiplicity` of the exact roots
    (listed with multiplicity) in its error disk, and every exact root lies
    in some disk.  Distances are taken at `prec` bits."""
    with mp.workprec(prec):
        for r in rs.roots:
            inside = sum(1 for z in exact if abs(r.value - z) <= r.error_radius)
            assert inside == r.multiplicity, (complex(r.value), r.error_radius)
        for z in exact:
            assert any(abs(r.value - z) <= r.error_radius for r in rs.roots), complex(z)


class TestRoots:
    def test_quadratic_exact(self):
        rs = roots(Polynomial([1, 0, 1]), 128)  # x^2 + 1
        assert len(rs.roots) == 2
        for r in rs.roots:
            assert abs(abs(complex(r.value).imag) - 1) < 1e-30
            assert abs(complex(r.value).real) < 1e-30
            assert r.error_radius < 1e-30

    def test_triple_root_multiplicity(self):
        rs = roots(Polynomial([-8, 12, -6, 1]), 128)  # (x - 2)^3
        assert sum(r.multiplicity for r in rs.roots) == 3
        assert max(r.multiplicity for r in rs.roots) == 3
        cluster = max(rs.roots, key=lambda r: r.multiplicity)
        assert abs(complex(cluster.value) - 2) < 1e-6

    def test_zero_root_deflation(self):
        rs = roots(Polynomial([0, 0, -1, 1]), 128)  # x^2 (x - 1)
        zero = [r for r in rs.roots if abs(complex(r.value)) < 1e-20]
        assert zero and zero[0].multiplicity == 2

    def test_vieta_residual_small(self):
        p = Polynomial([7, -3, 0, 2, 5])
        rs = roots(p, 256)
        assert vieta_residual(rs) < 1e-9

    def test_reconstruction_residual_small(self):
        rs = roots(LEHMER, 256)
        assert reconstruction_residual(rs) < 1e-9

    @given(
        st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=7)
    )
    @settings(max_examples=40, deadline=None)
    def test_root_count_equals_degree(self, tail):
        p = Polynomial(tail + [1])
        if p.degree < 1:
            return
        rs = roots(p, 128)
        assert sum(r.multiplicity for r in rs.roots) == p.degree


class TestFixedPointKernel:
    """The fixed-point refinement against mpmath.polyroots run at no fewer
    than 512 bits and at least 256 bits above the precision under test."""

    @staticmethod
    def _oracle(p, bits):
        prec = max(512, bits + 256)
        with mp.workprec(prec):
            cs = [mp.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)]
            return prec, mp.polyroots(cs, maxsteps=400, extraprec=prec)

    @pytest.mark.parametrize(
        "p, bits",
        [
            *((_random_integer(d, 10, seed=d), 128) for d in (3, 9, 17, 24, 30)),
            (_random_integer(13, 10, seed=113), 256),
            (Polynomial([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), 1]), 128),
            (Polynomial([Fraction(1, 10 ** 60), 1, 1]), 128),
            (LEHMER, 128),
            (LEHMER, 256),
            (LEHMER, 1024),
        ],
        ids=["random3", "random9", "random17", "random24", "random30", "random13-256",
             "fractions", "tiny-constant", "lehmer128", "lehmer256", "lehmer1024"],
    )
    def test_roots_inside_radii(self, p, bits):
        prec, exact = self._oracle(p, bits)
        _assert_enclosed(roots(p, bits), exact, prec)

    @pytest.mark.parametrize("bits", [128, 256])
    def test_tiny_root_keeps_relative_precision(self, bits):
        # x^2 + x + 10^-60: the fixed-point scale needs ~200 guard bits to
        # resolve the root near -10^-60 to more than `bits` relative bits
        p = Polynomial([Fraction(1, 10 ** 60), 1, 1])
        small = min(roots(p, bits).roots, key=lambda r: abs(r.value))
        with mp.workprec(bits + 512):
            z = (-1 + mp.sqrt(1 - mp.mpf(4) / 10 ** 60)) / 2
            assert abs(small.value - z) <= abs(z) * mp.mpf(2) ** -bits

    @pytest.mark.parametrize(
        "coeffs, exact",
        [
            # exact roots e^(i pi t) as (t, multiplicity)
            ([1, 0, -2, 0, 1], [(Fraction(1), 2), (Fraction(0), 2)]),  # (x^2 - 1)^2
            ([1, 2, 1, 0, 1, 2, 1], [(Fraction(1), 2), *((Fraction(k, 4), 1) for k in (1, 3, 5, 7))]),
            ([1, 2, 3, 2, 1], [(Fraction(2, 3), 2), (Fraction(-2, 3), 2)]),
        ],
        ids=["x2-1_squared", "x+1_squared_x4+1", "phi3_squared"],
    )
    @pytest.mark.parametrize("bits", [128, 256, 512, 1024])
    def test_multiple_root_radii_cover_exact_roots(self, coeffs, exact, bits):
        rs = roots(Polynomial(coeffs), bits)
        with mp.workprec(bits + 256):
            zs = [mp.expjpi(mp.mpf(t.numerator) / t.denominator)
                  for t, m in exact for _ in range(m)]
        _assert_enclosed(rs, zs, bits + 256)

    @pytest.mark.parametrize("exponent", [308, 400])
    def test_huge_coefficients_are_scaled(self, exponent):
        # unscaled, the machine Aberth pass overflowed on 10^308 (x^2 + x + 1)
        # and float(10^400) raised OverflowError
        rs = roots(Polynomial([10 ** exponent] * 3), 128)
        with mp.workprec(384):
            zs = [mp.expjpi(mp.mpf(2 * s) / 3) for s in (1, -1)]
        _assert_enclosed(rs, zs, 384)

    @pytest.mark.parametrize("seed", [28, 3])
    def test_large_coefficients_converge_in_few_sweeps(self, monkeypatch, seed):
        # P(1 - x) of a random degree-28, height-9 P has coefficients near
        # 2^28; an Aberth step stalled at the rounding floor used to run all
        # ITERATION_CAP sweeps.  Each sweep evaluates P once per root.
        p = _random_integer(28, 9, seed).compose(Polynomial([1, -1]))
        calls = 0
        evaluate = rootfind._fixed_eval

        def counted(*args):
            nonlocal calls
            calls += 1
            return evaluate(*args)

        monkeypatch.setattr(rootfind, "_fixed_eval", counted)
        rs = roots(p, 256)
        assert sum(r.multiplicity for r in rs.roots) == 28
        assert calls <= ITERATION_CAP // 10 * 28


class TestCounting:
    def test_lehmer_real_roots(self):
        # Salem polynomial: exactly two real roots (lambda and 1/lambda) and
        # eight roots on the unit circle, of which none are real
        m, n = count_real(roots(LEHMER, 128))
        assert m == 2
        assert n == 2  # both real roots are positive

    def test_disk_count_certified(self):
        rs = roots(LEHMER, 128)
        dc = count_in_disk(rs, 0.0, 0.9)
        assert dc.count == 1  # only 1/lambda lies inside |z| < 0.9
        assert dc.certified

    def test_contour_agrees(self):
        p = Polynomial([7, -3, 0, 2, 5])
        rs = roots(p, 128)
        for center, radius in ((0, 1.0), (1, 0.7), (-0.5, 2.0)):
            dc = count_in_disk(rs, center, radius)
            if dc.certified:
                assert contour_count(p, center, radius) == dc.count

    def test_count_outside_radius_lehmer(self):
        rs = roots(LEHMER, 128)
        count, bound, holds = count_outside_radius(LEHMER, 1.1, rs, mahler_from_roots(LEHMER, rs).value)
        assert count == 1
        assert holds  # 1 < log M / log 1.1 ~ 1.7

    def test_random_disk_pairs_agree(self):
        rng = random.Random(11)
        for _ in range(25):
            d = rng.randint(2, 8)
            p = Polynomial([rng.randint(-5, 5) for _ in range(d)] + [1])
            if p.degree < 1:
                continue
            rs = roots(p, 128)
            center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            radius = rng.uniform(0.3, 3.0)
            dc = count_in_disk(rs, center, radius)
            if dc.certified:
                assert contour_count(p, center, radius) == dc.count


class TestSymmetry:
    def test_selfreciprocal_closure(self):
        # real self-reciprocal: roots closed under conjugation and inversion;
        # compare at working precision (double arithmetic adds ~1e-16 noise)
        import mpmath as mp

        rs = roots(LEHMER, 128)
        with mp.workprec(160):
            vals = [r.value for r in rs.roots]
            for v in vals:
                for target in (mp.conj(v), 1 / mp.conj(v)):
                    assert any(abs(w - target) < 1e-25 for w in vals)
