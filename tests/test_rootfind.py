"""Root finding, error radii, disk/real counting, and diagnostics."""
import dataclasses
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from mpmath import libmp
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab import measure, rootfind
from mahlerlab.corpusio import parse_corpus
from mahlerlab.measure import mahler, mahler_from_roots
from mahlerlab.polycore import Polynomial
from mahlerlab.rootfind import (
    ITERATION_CAP,
    PrecisionError,
    RootFindError,
    count_in_disk,
    count_outside_radius,
    count_real,
    roots,
)
from oracles import contour_count, real_root_counts, reconstruction_residual, vieta_residual

LEHMER = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
DATA = Path(__file__).parent / "data"


def _random_integer(degree, height, seed):
    """A random integer polynomial of exact degree with P(0) != 0."""
    rng = random.Random(seed)
    while True:
        p = Polynomial([rng.randint(-height, height) for _ in range(degree)]
                       + [rng.randint(1, height)])
        if p[0] != 0:
            return p


def _pool_polynomials():
    """The distinct polynomials of the benchmark's pools, in pool order."""
    pools = json.loads(REFERENCE.read_text())["pools"]
    return list(dict.fromkeys(
        tuple(coeffs)
        for kinds in pools.values()
        for groups in kinds.values()
        for group in groups
        for coeffs in group
    ))


def _count_evals(monkeypatch):
    """A one-element list counting the `_fixed_eval` calls made from now on."""
    calls = [0]
    evaluate = rootfind._fixed_eval

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(rootfind, "_fixed_eval", counted)
    return calls


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

    def test_multiplicities_are_exact(self):
        # (x - 1)^3 (x + 2)^2 (x^2 + 1) x^2
        p = (Polynomial([-1, 1]) ** 3 * Polynomial([2, 1]) ** 2
             * Polynomial([1, 0, 1]) * Polynomial([0, 0, 1]))
        rs = roots(p, 128)
        got = sorted((round(complex(r.value).real), round(complex(r.value).imag), r.multiplicity)
                     for r in rs.roots)
        assert got == [(-2, 0, 2), (0, -1, 1), (0, 0, 2), (0, 1, 1), (1, 0, 3)]

    def test_lehmer_squared_needs_no_escalation(self):
        m = mahler(LEHMER ** 2, 128)
        assert m.iterations_or_precision == 128
        with mp.workprec(256):
            cs = [mp.mpf(c.numerator) for c in reversed(LEHMER.coeffs)]
            lam = max(abs(z) for z in mp.polyroots(cs, maxsteps=200, extraprec=256))
            assert abs(m.value - lam ** 2) <= m.error_bound + mp.mpf(2) ** -52 * m.value

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
            (LEHMER, 2048),
        ],
        ids=["random3", "random9", "random17", "random24", "random30", "random13-256",
             "fractions", "tiny-constant", "lehmer128", "lehmer256", "lehmer1024",
             "lehmer2048"],
    )
    def test_roots_inside_radii(self, p, bits):
        # at 2048 bits the radii lie below the smallest float and print as
        # its smallest subnormal, still an upper bound
        prec, exact = self._oracle(p, bits)
        _assert_enclosed(roots(p, bits), exact, prec)

    def test_disks_alone_accept_unconverged_roots(self, monkeypatch):
        # with a sweep cap of 1 to 3 and, in part, ring guesses for seeds,
        # the iteration stops far from convergence: `roots` either raises or
        # returns disks that still hold one root each
        polys = [LEHMER, *(_random_integer(d, 10, seed=d) for d in (3, 9, 17, 24))]
        oracle = [self._oracle(p, 128) for p in polys]
        # Lehmer's square, whose oracle is Lehmer's roots twice
        polys.append(LEHMER ** 2)
        oracle.append((oracle[0][0], 2 * oracle[0][1]))
        eigen = rootfind._eigen_seeds
        raised = wide = 0
        for cap, seeds in ((1, eigen), (1, None), (2, None), (3, None)):
            monkeypatch.setattr(rootfind, "ITERATION_CAP", cap)
            monkeypatch.setattr(rootfind, "_eigen_seeds", seeds or (lambda fc: None))
            for p, (prec, exact) in zip(polys, oracle):
                try:
                    rs = roots(p, 128)
                except RootFindError:
                    raised += 1
                    continue
                _assert_enclosed(rs, exact, prec)
                wide += max(r.error_radius for r in rs.roots) > 1e-20
        assert raised and wide

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

    @pytest.mark.parametrize(
        "coeffs, exponent",
        [
            ([1, 0, 10 ** 400], -200),  # 10^400 x^2 + 1
            ([10 ** 400, 0, 1], 200),  # x^2 + 10^400
            ([Fraction(1, 10 ** 400), 0, 1], -200),  # x^2 + 10^-400
        ],
        ids=["tiny-roots", "huge-roots", "fraction-tiny-roots"],
    )
    def test_wide_coefficient_span_seeds_every_root(self, coeffs, exponent):
        # coefficients spanning more than the float range, seeded from
        # P(2^s x): unscaled, the small coefficients underflowed to 0.0 and
        # both roots were seeded at 0, or float(10^400) overflowed
        rs = roots(Polynomial(coeffs), 128)
        assert [r.multiplicity for r in rs.roots] == [1, 1]
        with mp.workprec(1024):
            for sign in (1, -1):
                z = mp.mpc(0, sign) * mp.mpf(10) ** exponent
                nearest = min(rs.roots, key=lambda r: abs(r.value - z))
                assert abs(nearest.value - z) <= abs(z) * mp.mpf(2) ** -120

    @pytest.mark.parametrize(
        "ident, bits", [("x12_2e100", 128), ("x12_2e100", 512), ("x20_2e60", 512), ("x25_2e60", 512)]
    )
    def test_coincident_seeds_separate(self, ident, bits):
        # the companion eigenvalues of x^d + 2^e x^(d-1) + 1 seed d - 1 roots
        # at 0, where P' = 0; nudged off it all by the same step, the seeds
        # stayed coincident and the disks overlapped at every precision
        corpus = parse_corpus((DATA / "coincident_seeds.txt").read_text())
        p = next(e.polynomial for e in corpus if e.id == ident)
        rs = roots(p, bits)
        assert sum(r.multiplicity for r in rs.roots) == p.degree
        assert reconstruction_residual(rs) < 2.0 ** (8 - bits)

    @pytest.mark.parametrize("coeffs", [[1, 0, -2, 0, 1], [1, 2, 3, 2, 1]],
                             ids=["x2-1_squared", "phi3_squared"])
    @pytest.mark.parametrize("bits", [128, 1024])
    def test_repeated_roots_converge_in_few_sweeps(self, monkeypatch, coeffs, bits):
        # the kernel sees only the squarefree factor, whose roots are simple;
        # refining the double roots themselves ran 201 sweeps (513 at 1024
        # bits) to the cap.  Each sweep evaluates once per root.
        p = Polynomial(coeffs)
        calls = _count_evals(monkeypatch)
        rs = roots(p, bits)
        assert [r.multiplicity for r in rs.roots] == [2, 2]
        assert calls[0] <= 20 * p.degree

    def test_overlapping_disks_raise(self, monkeypatch):
        # inclusion disks of x^2 - 2 inflated until they overlap: where
        # cluster merging reported a double root, roots raises
        real = rootfind._error_radius

        def inflated(*args):
            return real(*args) << 200

        assert rootfind._disjoint([0, 10], [0, 0], [4, 5])
        assert not rootfind._disjoint([0, 10], [0, 0], [5, 5])
        monkeypatch.setattr(rootfind, "_error_radius", inflated)
        with pytest.raises(rootfind.RootFindError, match="overlap"):
            roots(Polynomial([-2, 0, 1]), 128)

    @pytest.mark.parametrize("size", [0.5, 1, 3, 50])
    def test_horner_error_bounds_the_rounding(self, size):
        # `_fixed_eval` against exact Horner in Fractions at random points
        # with |Re y|, |Im y| <= size
        rng = random.Random(str(size))
        F = 96
        bound = int(size * 2 ** F)
        for _ in range(30):
            d = rng.randint(1, 30)
            cs = [rng.randint(-10 ** 6, 10 ** 6) << F for _ in range(d + 1)]
            xr, xi = rng.randint(-bound, bound), rng.randint(-bound, bound)
            yr, yi = Fraction(xr, 2 ** F), Fraction(xi, 2 ** F)
            pr, pi, dr, di = Fraction(cs[0]), Fraction(0), Fraction(0), Fraction(0)
            for c in cs[1:]:
                dr, di = pr + dr * yr - di * yi, pi + dr * yi + di * yr
                pr, pi = c + pr * yr - pi * yi, pr * yi + pi * yr
            e, de = rootfind._horner_error(d, math.isqrt(xr * xr + xi * xi), F)
            gr, gi, hr, hi = rootfind._fixed_eval(cs, F, xr, xi)
            assert (gr - pr) ** 2 + (gi - pi) ** 2 <= e * e
            assert (hr - dr) ** 2 + (hi - di) ** 2 <= de * de

    @pytest.mark.parametrize("seed", [28, 3])
    def test_large_coefficients_converge_in_few_sweeps(self, monkeypatch, seed):
        # P(1 - x) of a random degree-28, height-9 P has coefficients near
        # 2^28; an Aberth step stalled at the rounding floor used to run all
        # ITERATION_CAP sweeps.  Each sweep evaluates P once per root.
        p = _random_integer(28, 9, seed).compose(Polynomial([1, -1]))
        calls = _count_evals(monkeypatch)
        rs = roots(p, 256)
        assert sum(r.multiplicity for r in rs.roots) == 28
        assert calls[0] <= ITERATION_CAP // 10 * 28

    def test_each_iterate_is_evaluated_once(self, monkeypatch):
        # Lehmer's ten seeds, then the ten iterates after one sweep, whose
        # Newton steps stop the loop and give the disks
        calls = _count_evals(monkeypatch)
        roots(LEHMER, 128)
        assert calls[0] == 20

    @pytest.mark.parametrize("bits", [128, 256])
    def test_pool_radii_reach_working_precision(self, bits):
        # the loop stops on the Newton steps in hand, so it must not stop
        # before they are below 2^-bits: the disks about the unrefined
        # machine seeds have radii near 2^-50
        for coeffs in _pool_polynomials():
            for r in roots(Polynomial(list(coeffs)), bits).roots:
                bound = 2.0 ** (8 - bits) * max(1.0, abs(complex(r.value)))
                assert r.error_radius <= bound, (coeffs, complex(r.value))


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

    def test_disk_count_is_exact_near_the_boundary(self):
        # the root 2 - 2^-60 lies strictly inside |z - 1| < 1, closer to the
        # boundary than a float distance can tell
        rs = roots(Polynomial([-(2 - Fraction(1, 2 ** 60)), 1]), 128)
        assert count_in_disk(rs, 1, 1) == rootfind.DiskCount(1, True)

    def test_disk_count_uncertified_on_the_boundary(self):
        # L(1 - x) has its 8 roots 1 - mu with |mu| = 1 exactly on |z - 1| = 1
        rs = roots(LEHMER.compose(Polynomial([1, -1])), 128)
        assert not count_in_disk(rs, 1, 1).certified

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


class TestModulusBounds:
    """`_modulus_bounds` against the exact rational modulus of the centre."""

    G = 160

    def _assert_bounds(self, centre, rho):
        lo, hi = rootfind._modulus_bounds(centre, rho, self.G)
        x, y, e = centre
        s = (x * x + y * y) * Fraction(2) ** (2 * (e + self.G))  # (2^G |z|)^2
        r = Fraction(rho) * 2 ** self.G
        # lo <= 2^G (|z| - rho) and 2^G (|z| + rho) <= hi, each off by under
        # one unit for the square root and one for the radius
        assert lo + r <= 0 or (lo + r) ** 2 <= s
        assert hi - r >= 0 and (hi - r) ** 2 >= s
        assert hi - lo <= 2 * r + 4
        return lo, hi

    def test_exact_zero_root(self):
        (zero,) = [r for r in roots(Polynomial([0, 0, 1, 1]), 128).roots if r.real and r.value == 0]
        assert self._assert_bounds(zero.centre, zero.error_radius) == (0, 0)

    @pytest.mark.parametrize("n", [5, 12, 31])
    def test_cyclotomic_roots_hold_one(self, n):
        from mahlerlab.structure import cyclotomic

        for r in roots(cyclotomic(n), 128).roots:
            lo, hi = self._assert_bounds(r.centre, r.error_radius)
            assert lo <= 1 << self.G <= hi

    def test_tiny_and_huge_roots(self):
        # roots 3 2^-200, +-2^-200 i and +-2^300 i put e + G on both sides of 0
        for p in (
            Polynomial([-3, 1 << 200]) * Polynomial([1, 1, 1]),
            Polynomial([1, 0, 1 << 400]),
            Polynomial([1 << 600, 0, 1]),
        ):
            for r in roots(p, 128).roots:
                self._assert_bounds(r.centre, r.error_radius)
        for centre, rho in (
            ((3 << 50, -5, -450), 2.0 ** -460),  # 3 2^-400 - 5 2^-450 i
            ((7 << 290, 1, 10), 1e-10),  # 7 2^300 + 2^10 i
            ((-3, 4, -2), 0.0),  # -0.75 + i
        ):
            self._assert_bounds(centre, rho)


def _edge_polynomials():
    """Inputs whose roots lie beyond the float range, below it, far below 1
    or exactly at 0."""
    big = Polynomial([-(1 << 2201), 0, 1]) * Polynomial([-3, 0, 1])
    return [
        Polynomial([1] + [0] * 28 + [1 << 40, 1]),  # x^30 + 2^40 x^29 + 1
        big,  # (x^2 - 2^2201)(x^2 - 3)
        Polynomial(list(reversed(big.coeffs))),
        Polynomial([-(1 << 2201) - 1, 0, 1]),
        Polynomial([0, 0, 1, 1]),  # x^2 (x + 1)
        Polynomial([-3, 1 << 200]) * Polynomial([1, 1, 1]),  # 3 2^-200
        Polynomial([-3, 1 << 1060]),  # a subnormal float
        Polynomial([-3, 1 << 1100]),  # below the float range
    ]


def _data_polynomials():
    """The polynomials of the corpora in tests/data."""
    return [e.polynomial for f in sorted(DATA.glob("*.txt"))
            for e in parse_corpus(f.read_text())]


def _separated_roots(p):
    """The roots of P at the least of 128, 256 and 512 bits that separates
    them: some of the test corpora need 512."""
    for bits in (128, 256):
        try:
            return roots(p, bits)
        except RootFindError:
            pass
    return roots(p, 512)


class TestCentre:
    """`Root.centre` and `Root.z` against `Root.value`, on both benchmark
    pools, the test corpora and inputs at the edges of the float range."""

    def test_centre_z_and_order_agree_with_value(self):
        polys = ([Polynomial(list(c)) for c in _pool_polynomials()]
                 + _data_polynomials() + _edge_polynomials())
        seen_inf = seen_zero = False
        for p in polys:
            if p.degree < 1:
                continue
            rs = _separated_roots(p)
            for r in rs.roots:
                x, y, e = r.centre
                assert mp.make_mpf(libmp.from_man_exp(x, e)) == r.value.real
                assert mp.make_mpf(libmp.from_man_exp(y, e)) == r.value.imag
                assert repr(r.z) == repr(complex(r.value))  # the signs of 0.0 too
                seen_inf |= math.isinf(r.z.real)
                seen_zero |= r.z == 0 and r.value != 0
            # the old key: the mpf real part, then the imaginary part
            old = sorted(rs.roots, key=lambda r: (mp.re(r.value), mp.im(r.value)))
            assert [id(r) for r in old] == [id(r) for r in rs.roots], p.coeffs
        assert seen_inf and seen_zero

    def test_round_even_matches_libmp(self):
        # ties at the rounded bit, half of them below an odd mantissa, and
        # random ints, each against mpmath's round-to-nearest at `work` bits
        rng = random.Random(24)
        work = 160
        xs = []
        for _ in range(400):
            k = rng.randint(1, 40)
            xs.append((rng.getrandbits(work) | 1 << work - 1) << k | 1 << k - 1)
            xs.append(rng.getrandbits(rng.randint(1, work + 40)))
        for x in xs + [0, 1, (1 << work) - 1, (1 << work + 1) - 1]:
            for v in (x, -x):
                m, k = rootfind._round_even(v, work)
                assert libmp.from_man_exp(m, k) == libmp.from_man_exp(v, 0, work, "n"), v

    def test_float_up_is_the_least_float_above(self):
        # exact floats, the subnormal range and past the largest float
        rng = random.Random(7)
        cases = [(0, 0), (1, 1074), (1, 1075), (3, 1076), ((1 << 53) + 1, 53),
                 ((1 << 1024) - 1, 0), (1 << 1024, 0), (1, -2000)]
        cases += [(rng.getrandbits(rng.randint(1, 200)), rng.randint(-1200, 1300))
                  for _ in range(500)]
        for m, F in cases:
            want = measure._to_float(libmp.from_man_exp(m, -F), "c")
            assert rootfind._float_up(m, F) == want, (m, F)


def _mignotte(k, a, sign):
    """x^k + sign 2 (a x - 1)^2: for sign -1 two real roots near 1/a, far
    less than 2^-64 apart; for sign +1 a conjugate pair as close to the real
    axis."""
    c = [0] * (k + 1)
    c[0], c[1], c[2], c[k] = 2 * sign, -4 * a * sign, 2 * a * a * sign, 1
    return Polynomial(c)


def _count_real_is_exact(p, bits=128) -> bool:
    """Assert that count_real matches the exact counts unless it raises
    PrecisionError; whether it decided."""
    try:
        got = count_real(roots(p, bits))
    except PrecisionError:
        return False
    assert got == real_root_counts(p), p.coeffs
    return True


class TestRealness:
    """`Root.real` from the inclusion disks, and the counts of
    `count_real` against exact real-root counts."""

    def test_flags(self):
        # x^2 (x - 1) (x + 2)^2 (x^2 + 1)
        p = (Polynomial([0, 0, 1]) * Polynomial([-1, 1]) * Polynomial([2, 1]) ** 2
             * Polynomial([1, 0, 1]))
        got = sorted((round(complex(r.value).real), round(complex(r.value).imag), r.real)
                     for r in roots(p, 128).roots)
        assert got == [(-2, 0, True), (0, -1, False), (0, 0, True), (0, 1, False), (1, 0, True)]
        assert count_real(roots(p, 128)) == real_root_counts(p) == (5, 1)

    def test_undecided_raises(self):
        rs = roots(LEHMER, 128)
        undecided = rootfind.RootSet(
            tuple(dataclasses.replace(r, real=None) for r in rs.roots),
            rs.precision_bits, rs.polynomial,
        )
        with pytest.raises(PrecisionError):
            count_real(undecided)

    def test_random_integer(self):
        rng = random.Random(12)
        polys = []
        for seed in range(40):
            p = _random_integer(rng.randint(2, 24), rng.choice([1, 10, 10 ** 6]), seed)
            if seed % 5 == 0:
                p = p * _random_integer(2, 3, seed) ** 2
            polys.append(p)
        assert sum(_count_real_is_exact(p) for p in polys) >= 0.95 * len(polys)

    @pytest.mark.parametrize("k, a", [(10, 10), (12, 100), (20, 100)])
    def test_mignotte_close_real_pair(self, k, a):
        p = _mignotte(k, a, -1)
        assert real_root_counts(p) == (4, 3)
        assert count_real(roots(p, 128)) == (4, 3)

    @pytest.mark.parametrize("k, a", [(10, 10), (12, 100), (20, 100)])
    def test_mignotte_near_axis_pair(self, k, a):
        p = _mignotte(k, a, 1)
        assert real_root_counts(p) == (0, 0)
        try:
            rs = roots(p, 128)
        except RootFindError:
            # x^20 + 2 (100 x - 1)^2: its inclusion disks overlap at 128 bits
            assert k == 20
            return
        assert count_real(rs) == (0, 0)

    def test_mignotte_printed_disks_meet_real_axis(self):
        # the two real roots near 1/100 print about 4e-37 off the axis; their
        # printed disks, which include the rounding, reach it
        near = [r for r in roots(_mignotte(20, 100, -1), 128).roots
                if abs(r.value - mp.mpf("0.01")) < 1e-3]
        assert len(near) == 2
        for r in near:
            assert r.real and abs(mp.im(r.value)) <= r.error_radius

    def test_huge_coefficient(self):
        p = Polynomial([1, 0, 10 ** 400])
        rs = roots(p, 128)
        assert count_real(rs) == real_root_counts(p) == (0, 0)
        # each printed disk about +-10^-200 i excludes the other root and 0
        with mp.workprec(1024):
            exact = [mp.mpc(0, sign) / mp.mpf(10) ** 200 for sign in (1, -1)]
            for r in rs.roots:
                assert 0 < r.error_radius < abs(r.value)
                assert sum(abs(r.value - z) <= r.error_radius for z in exact) == 1

    def test_lehmer_2048_bits(self):
        # the proved radii lie below the smallest float, which the printed
        # radii round up to; the disks decide realness in integers
        rs = roots(LEHMER, 2048)
        assert all(r.error_radius == 5e-324 for r in rs.roots)
        assert count_real(rs) == real_root_counts(LEHMER) == (2, 2)


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
