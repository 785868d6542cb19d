"""Cyclotomic machinery, irreducibility probing, and set classification."""
import dataclasses
import json
import math
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mahlerlab import polycore, structure
from mahlerlab.measure import mahler_from_roots
from mahlerlab.polycore import Polynomial, _cyclotomic_orders, squarefree_parts
from mahlerlab.rootfind import RootFindError, RootSet, roots
from mahlerlab.search import enumerate_selfreciprocal
from mahlerlab.structure import (
    THETA0,
    IrreducibilityStatus,
    _factor_from_roots,
    classify_E_theta,
    cyclotomic,
    cyclotomic_factor,
    irreducibility_probe,
)
from oracles import (
    cyclotomic_divisors_scan,
    cyclotomic_factor_scan,
    fr_derivative,
    fr_divmod,
    fr_poly,
    rational_root,
)

LEHMER = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"


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

    def test_orders_against_sympy(self):
        # every n <= 2 d^2 with phi(n) <= d, for d up to 49: n < 5000,
        # ordered by (phi(n), n)
        phi = [0] + [int(sympy.totient(n)) for n in range(1, 5000)]
        for d in range(50):
            want = sorted((phi[n], n) for n in range(1, 2 * d * d + 1) if phi[n] <= d)
            assert _cyclotomic_orders(d) == tuple(n for _, n in want), d

    def test_factor_detection(self):
        p = cyclotomic(7) * Polynomial([-1, -1, 0, 1])
        n, phi = cyclotomic_factor(p)
        assert n == 7
        assert phi == cyclotomic(7)

    def test_no_factor_for_lehmer(self):
        assert cyclotomic_factor(LEHMER) is None


@st.composite
def _cyclotomic_products(draw):
    """x^j Phi_n1 ... Phi_nk Q for j <= 2, up to three orders n with
    phi(n) <= 12, at times repeated, and a random integer Q of degree <= 5,
    often not monic, with coefficients up to 2^10, past 2^53 (so rounded on
    conversion to float) or past 2^1024 (so inf), and at times 1 added to
    the constant term: a near miss, whose |P(zeta_n)| = 1 lies far inside
    the screen's bound when the coefficients are large."""
    orders = draw(st.lists(st.sampled_from(_cyclotomic_orders(12)), max_size=3))
    top = draw(st.sampled_from([2 ** 10, 2 ** 53 + 1, 2 ** 70, 2 ** 1030]))
    tail = draw(st.lists(st.integers(-top, top), max_size=5))
    lead = draw(st.one_of(st.just(1), st.integers(1, top)))
    p = Polynomial([0] * draw(st.integers(0, 2)) + tail + [lead])
    for n in orders:
        p *= cyclotomic(n)
    if draw(st.booleans()):
        p += 1
    return p


class TestCyclotomicScreen:
    """`cyclotomic_factor` and the orders `roots` splits off, from the float64
    screen and exact division, against exact division at every order."""

    @given(_cyclotomic_products())
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_scan(self, p):
        assume(p.degree >= 1)
        want = cyclotomic_factor_scan(p)
        assert cyclotomic_factor(p) == (None if want is None else (want, cyclotomic(want)))
        assert list(polycore._cyclotomic_divisors([p.coeffs])[0]) == cyclotomic_divisors_scan(p.coeffs)
        try:
            rs = roots(p, 53)  # the orders split off do not depend on the precision
        except RootFindError:
            # `roots` declines P when its roots, scaled about their geometric
            # mean, reach past the float range, as x^2 + 2^1030 x + 2
            return
        assert list(rs.cyclotomic) == sorted(cyclotomic_divisors_scan(p.coeffs))

    @pytest.mark.parametrize("scale", [2 ** 60, 2 ** 1100], ids=["2^60", "2^1100"])
    def test_near_misses_are_settled_exactly(self, scale):
        # |P(zeta_7)| = 1 for P = c Phi_7 Phi_3 + 1, far below the bound for
        # a large c, or NaN once c Phi_7 Phi_3 converts to inf
        p = cyclotomic(7) * cyclotomic(3) * scale
        assert cyclotomic_factor(p) == (3, cyclotomic(3))
        assert cyclotomic_factor(p + 1) is None
        assert cyclotomic_factor(p * Polynomial([1, 1]) + 1) is None


_X = 2 ** 64


@lru_cache(maxsize=None)
def _cyclotomic_at_x(n):
    return cyclotomic(n).eval_exact(_X)


@lru_cache(maxsize=None)
def _totient(n):
    return int(sympy.totient(n))


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
        if px % _cyclotomic_at_x(n) == 0 and not fr_divmod(fr_poly(p.coeffs), fr_poly(phi.coeffs))[1]:
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


def _oracle_gcd(a, b):
    """gcd over Q by the Euclidean algorithm in exact Fraction arithmetic."""
    a, b = fr_poly(a.coeffs), fr_poly(b.coeffs)
    while b:
        a, b = b, fr_divmod(a, b)[1]
    return Polynomial(a)


def _oracle_is_squarefree(p):
    """The Fraction-Euclid squarefree test used before Yun's decomposition:
    gcd(P, P') is constant."""
    return _oracle_gcd(p, Polynomial(fr_derivative(p.coeffs))).degree == 0


def _is_squarefree(p):
    return [i for i, _ in squarefree_parts(p.integer_coeffs())] == [1]


def _pool_polynomials(workload="analyze-structured"):
    pools = json.loads(REFERENCE.read_text())["pools"][workload]
    return [
        Polynomial(coeffs)
        for groups in pools.values()
        for group in groups
        for coeffs in group
    ]


def _factor_list_status(p: Polynomial) -> str:
    """P's status from sympy's full factorization over Z, the oracle."""
    _, factors = sympy.Poly(p.coeffs[::-1], sympy.Symbol("x")).factor_list()
    return "Irreducible" if len(factors) == 1 and factors[0][1] == 1 else "Reducible"


def _widened(p: Polynomial, radius: float) -> RootSet:
    """The roots of P at 128 bits, each with its radius set to ``radius``."""
    rs = roots(p, 128)
    return dataclasses.replace(
        rs, roots=tuple(dataclasses.replace(rt, error_radius=radius) for rt in rs.roots)
    )


_small_polys = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=2, max_size=5
).map(Polynomial).filter(lambda p: p.degree >= 1)


class TestSquarefree:
    def test_square_detected(self):
        assert not _is_squarefree(Polynomial([1, 1]) * Polynomial([1, 1]))

    def test_lehmer(self):
        assert _is_squarefree(LEHMER)

    @staticmethod
    def _check(p):
        """The certificate, Yun's decomposition and `squarefree_parts`
        against the Fraction oracle; the parts multiply back to P up to a
        constant and are squarefree and pairwise coprime."""
        want = _oracle_is_squarefree(p)
        assert _is_squarefree(p) == want, p
        a = p.integer_coeffs()
        for q in polycore._CERTIFICATE_PRIMES:
            if polycore._squarefree_mod(a, q):
                assert want, (p, q)  # the certificate is never wrong
        parts = polycore._yun(a)
        assert ([i for i, _ in parts] == [1]) == want, p
        assert [i for i, _ in parts] == sorted({i for i, _ in parts})
        factors = [Polynomial(f) for _, f in parts]
        prod = Polynomial([1])
        for (i, _), f in zip(parts, factors):
            assert f.degree >= 1 and _oracle_is_squarefree(f)
            prod = math.prod([prod] + [f] * i)
        assert prod * Fraction(p.coeffs[-1], prod.coeffs[-1]) == p
        for j, f in enumerate(factors):
            for g in factors[j + 1:]:
                assert _oracle_gcd(f, g).degree == 0

    def test_pool_polynomials(self):
        polys = _pool_polynomials()
        assert len(polys) > 100
        for p in polys:
            self._check(p)

    def test_fractions_and_zero_roots(self):
        x = Polynomial([0, 1])
        self._check(math.prod([Polynomial([Fraction(1, 3), Fraction(-2, 7), 1])] * 2 + [x]))
        self._check(math.prod([x] * 3 + [LEHMER]))
        self._check(x * LEHMER)

    @given(_small_polys, _small_polys)
    @settings(max_examples=60, deadline=None)
    def test_square_times_cofactor(self, a, b):
        self._check(a * a * b)

    @given(_small_polys, st.integers(min_value=1, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_cube_times_cyclotomic(self, a, n):
        self._check(a * a * a * cyclotomic(n))


class TestIrreducibility:
    @staticmethod
    def _probe(p):
        return irreducibility_probe(p, rs=roots(p, 128))

    def test_lehmer_irreducible(self):
        v = self._probe(LEHMER)
        assert v.status is IrreducibilityStatus.IRREDUCIBLE

    def test_rational_root(self):
        # x^2 + x + 7 has no cyclotomic factor, so the roots answer
        p = Polynomial([-2, 1]) * Polynomial([7, 1, 1])
        v = self._probe(p)
        assert v.status is IrreducibilityStatus.REDUCIBLE
        assert v.witness == "rational root"

    def test_cyclotomic_times_salem(self):
        p = cyclotomic(5) * LEHMER
        v = self._probe(p)
        assert v.status is IrreducibilityStatus.REDUCIBLE

    def test_smyth_cubic(self):
        v = self._probe(Polynomial([-1, -1, 0, 1]))
        assert v.status is IrreducibilityStatus.IRREDUCIBLE

    def test_exact_screens_come_first(self):
        # x^4 + 1 = Phi_8 is reducible mod every prime, and so are the two
        # products; the screens answer before any Rabin test
        cases = [
            (cyclotomic(8), "Irreducible", "cyclotomic Phi_8"),
            (cyclotomic(3) * cyclotomic(4), "Reducible", "cyclotomic factor Phi_3"),
            (LEHMER * LEHMER, "Reducible", "repeated factor"),
        ]
        for p, status, witness in cases:
            v = self._probe(p)
            assert (v.status.value, v.witness) == (status, witness)

    def test_status_matches_factorization(self):
        # on the benchmark's pools, every status is the one a full
        # factorization over Z gives; on verify-mixed the probe runs inside
        # around1_report
        checked = 0
        for p in _pool_polynomials("analyze-structured") + _pool_polynomials("verify-mixed"):
            if not (p.degree >= 1 and p.content() == 1):
                continue
            assert self._probe(p).status.value == _factor_list_status(p), p
            checked += 1
        assert checked > 800


_linear_factors = st.tuples(
    st.integers(min_value=1, max_value=12), st.integers(min_value=-12, max_value=12)
).filter(lambda qr: math.gcd(*qr) == 1)


class TestRationalRootScreen:
    """The factor search over single roots, `_factor_from_roots(p, rs, 0b10)`,
    which the probe asks for a rational root, against the divisor enumeration
    (`oracles.rational_root`); from degree 2, where the probe asks it."""

    @staticmethod
    def _check(p):
        found = _factor_from_roots(p, roots(p, 128), 0b10)
        assert found == (rational_root(p) is not None), p

    @pytest.mark.parametrize("workload", ["analyze-structured", "verify-mixed"])
    def test_pool_polynomials(self, workload):
        polys = [p for p in _pool_polynomials(workload) if p.degree >= 2]
        assert len(polys) > 100
        for p in polys:
            self._check(p)

    @given(_linear_factors, _small_polys, st.integers(min_value=0, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_linear_factor_products(self, qr, cofactor, k):
        # (q x - r) x^k Q of content 1 and lead != 1
        q, r = qr
        p = Polynomial([-r, q]) * Polynomial([0] * k + [1]) * cofactor
        assume(p.content() == 1 and p.coeffs[-1] != 1 and p.degree >= 2)
        assert rational_root(p) is not None
        self._check(p)

    @given(_small_polys)
    @settings(max_examples=80, deadline=None)
    def test_small_polynomials(self, p):
        assume(p.degree >= 2)
        self._check(p)

    @pytest.mark.parametrize("linear", [[-2, 1], [-1, 2]], ids=["x-2", "2x-1"])
    def test_witness(self, linear):
        # x^2 + x + 7 has no cyclotomic factor and no rational root
        p = Polynomial(linear) * Polynomial([7, 1, 1])
        v = irreducibility_probe(p, rs=roots(p, 128))
        assert (v.status.value, v.witness) == ("Reducible", "rational root")

    def test_large_constant_term(self):
        # reducible mod every prime and without a rational root; listing the
        # divisors of P(0) = 3 (10^18 + 1) by trial division up to its square
        # root, about 1.7e9, took minutes
        p = Polynomial([3, 0, 1]) * Polynomial([10 ** 18 + 1, 1, 1])
        rs = roots(p, 128)
        start = time.perf_counter()
        v = irreducibility_probe(p, rs=rs)
        assert time.perf_counter() - start < 5
        assert (v.status.value, v.witness) == ("Reducible", "rational factorization")

    @pytest.mark.parametrize("linear", [[-15, 11], [15, 11]], ids=["11x-15", "11x+15"])
    def test_trace_just_short_of_an_integer(self, linear):
        # 11 float(15 / 11) = 14.999999999999998: the float screen takes the
        # nearest integer, where truncation would lose the root
        p = Polynomial(linear) * Polynomial([7, 1, 1])
        assert _factor_from_roots(p, roots(p, 128), 0b10)

    @pytest.mark.parametrize("linear", [[-2, 1], [-1, 2]], ids=["x-2", "2x-1"])
    def test_wide_disks_still_find_the_root(self, linear):
        # radii widened to 1 / (2 |lead|): a found factor rests on the exact
        # division alone, so stage 2 still finds the linear factor
        p = Polynomial(linear) * Polynomial([7, 1, 1])
        v = irreducibility_probe(p, rs=_widened(p, 0.5 / abs(p.coeffs[-1])))
        assert (v.status.value, v.witness) == ("Reducible", "rational root")

    @pytest.mark.parametrize(
        "p, want",
        [
            (Polynomial([-(2 ** 2201), 0, 1]) * Polynomial([-3, 0, 1]),
             ("Reducible", "rational factorization")),
            (Polynomial([-(2 ** 2201) - 1, 0, 1]), ("Irreducible", "irreducible mod 5")),
            (Polynomial([3, 0, 2 ** 1100]), ("Irreducible", "irreducible mod 5")),
            (Polynomial([3, 2 ** 1100, 2 ** 1100]), ("Irreducible", "irreducible mod 7")),
        ],
        ids=["x2-2^2201-times-x2-3", "x2-2^2201-1", "2^1100x2+3", "2^1100x2+2^1100x+3"],
    )
    def test_roots_beyond_the_float_range(self, p, want):
        # roots near +-2^1100.5, whose traces the search takes exactly in
        # ints, and leads of 2^1100, which it never turns into a float
        v = irreducibility_probe(p, rs=roots(p, 128))
        assert (v.status.value, v.witness) == want


def _list_power_mod(h, f, q):
    """h^q mod a monic f over GF(q) by square-and-multiply on plain lists."""

    def mulmod(u, v):
        w = [0] * (len(u) + len(v) - 1)
        for i, c in enumerate(u):
            for j, e in enumerate(v):
                w[i + j] = (w[i + j] + c * e) % q
        for top in range(len(w) - 1, len(f) - 2, -1):
            t, base = w[top], top - len(f) + 1
            for j, e in enumerate(f):
                w[base + j] = (w[base + j] - t * e) % q
        return w[:len(f) - 1]

    out, base, n = [1], h, q
    while n:
        if n & 1:
            out = mulmod(out, base)
        base, n = mulmod(base, base), n >> 1
    return polycore._trim(out)


_PRIMES_TO_97 = [q for q in range(2, 98) if all(q % r for r in range(2, q))]


class TestRabinStage:
    """The probe's mod-q stage: the degree pattern on int lists over the
    packed Frobenius map, whose single factor of degree d is the answer of
    Rabin's irreducibility test, against sympy's factoring `is_irreducible`
    on (polynomial, prime) pairs from the benchmark's `analyze-structured`
    pools."""

    def test_rabin_matches_factoring(self):
        pools = json.loads(REFERENCE.read_text())["pools"]["analyze-structured"]
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
                if not polycore._squarefree_mod(list(coeffs), q):
                    # the probe skips q: a repeated factor mod q
                    assert not want, (coeffs, q)
                else:
                    frob = polycore._Frobenius(list(coeffs), q)
                    got = polycore._degree_pattern(frob) == [len(coeffs) - 1]
                    assert got == want, (coeffs, q)
                pairs += 1
        assert pairs > 400

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_packed_map_matches_list_power(self, data):
        q = data.draw(st.sampled_from(_PRIMES_TO_97), label="q")
        d = data.draw(st.integers(min_value=2, max_value=64), label="d")
        residues = st.integers(min_value=0, max_value=q - 1)
        f = data.draw(st.lists(residues, min_size=d, max_size=d), label="f") + [1]
        h = data.draw(st.lists(residues, min_size=d, max_size=d), label="h")
        frob = polycore._Frobenius(f, q)
        assert polycore._trim(frob(h)) == _list_power_mod(polycore._trim(list(h)), f, q)

    def test_large_residues_do_not_carry(self):
        # every residue q - 1 drives the slot sums toward the bound the slot
        # width is cut to, d (q - 1)^2 when d > q
        for d, q in ((64, 97), (64, 31), (40, 3), (2, 97)):
            f = [q - 1] * d + [1]
            frob = polycore._Frobenius(f, q)
            assert polycore._trim(frob(f[:-1])) == _list_power_mod(f[:-1], f, q)

    def test_witness_names_the_first_prime(self):
        def witness(coeffs):
            p = Polynomial(coeffs)
            return irreducibility_probe(p, rs=roots(p, 128)).witness

        # x^2 + 4 is irreducible mod 3; x^4 - 10 x^2 + 1, the minimal
        # polynomial of sqrt 2 + sqrt 3, is reducible mod every prime, and
        # its factor degrees mod q always add up to 2
        assert witness([4, 0, 1]) == "irreducible mod 3"
        assert witness([1, 0, -10, 0, 1]) == "no factor among the roots"
        # x^2 + x + 7 is (x - 1)^2 mod 3 and irreducible mod 5
        assert witness([7, 1, 1]) == "irreducible mod 5"
        # x^4 - x^3 - x^2 - 2 is irreducible mod 7, but its factor degrees
        # 1 + 3 mod 3 and 2 + 2 mod 5 already share no proper subset sum
        assert witness([-2, 0, -1, -1, 1]) == "degree sets mod 3, 5"

    def test_one_map_per_prime(self, monkeypatch):
        built, frobenius = [], structure._Frobenius

        def counting(a, q):
            built.append(q)
            return frobenius(a, q)

        monkeypatch.setattr(structure, "_Frobenius", counting)
        for p in _pool_polynomials("analyze-structured")[::4] + [LEHMER]:
            if p.degree < 2 or p.content() != 1:
                continue
            built.clear()
            v = irreducibility_probe(p, rs=roots(p, 128))
            assert len(built) == len(set(built)) <= structure._PRIME_BUDGET, p
            # the probe stops at the prime that settles it
            if v.witness.startswith("degree sets mod "):
                assert built == [int(q) for q in v.witness[16:].split(", ")], p
            elif v.witness.startswith("irreducible mod "):
                assert built[-1] == int(v.witness[16:]), p
        # Lehmer's polynomial is reducible mod every one of the ten primes,
        # and its degree sets mod 3 and 5 already share no proper degree
        assert v.witness == "degree sets mod 3, 5"
        assert built == [3, 5]


_monic_cofactors = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=2, max_size=6
).map(lambda c: Polynomial(c + [1]))


class TestDegreeSets:
    """Musser's degree sets, the stage after Rabin's test: it may only ever
    prove irreducibility, and it settles Lehmer's polynomial before the
    factor search."""

    @staticmethod
    def _probe(p):
        return irreducibility_probe(p, rs=roots(p, 128))

    def test_degree_pattern_matches_factoring(self):
        x = sympy.Symbol("x")
        for coeffs in (LEHMER.coeffs, (1, 0, -10, 0, 1), (2, 3, 0, 1, 5, 1)):
            for q in (3, 5, 7, 11, 13):
                if not polycore._squarefree_mod(list(coeffs), q):
                    continue
                frob = polycore._Frobenius(list(coeffs), q)
                _, factors = sympy.Poly(coeffs[::-1], x, modulus=q).factor_list()
                want = sorted(f.degree() for f, _ in factors)
                assert sorted(polycore._degree_pattern(frob)) == want, (coeffs, q)

    def test_lehmer_without_factor_list(self):
        v = self._probe(LEHMER)
        assert v.status is IrreducibilityStatus.IRREDUCIBLE
        assert v.witness.startswith("degree sets mod ")

    @given(_monic_cofactors, _monic_cofactors)
    @settings(max_examples=40, deadline=None)
    def test_products_stay_reducible(self, a, b):
        # the factor search after the degree sets finds the factor
        p = a * b
        assume(rational_root(p) is None and cyclotomic_factor(p) is None)
        rs = roots(p, 128)
        assume(all(rt.multiplicity == 1 for rt in rs.roots))
        v = irreducibility_probe(p, rs=rs)
        assert (v.status.value, v.witness) == ("Reducible", "rational factorization"), p


# analyze-structured pool members that stay reducible mod each of the ten
# primes with an open degree set: (x^2 + 2x - 1)(x^6 - x^5 + x^4 + x^3 - x^2
# - x + 1) and a product of two quintics
_OPEN_AFTER_DEGREE_SETS = [
    (-1, 3, 0, -4, 0, 4, -2, 1, 1),
    (2, -2, -7, 0, 5, -4, -2, 4, -5, 0, 1),
]
# x^4 - 10 x^2 + 1, the minimal polynomial of sqrt 2 + sqrt 3, and an
# analyze-structured pool member of degree 22 with lead -10: irreducible, and
# reducible mod every prime the degree sets try
_IRREDUCIBLE_AFTER_DEGREE_SETS = [
    (1, 0, -10, 0, 1),
    (-3, 6, -3, 0, -1, -10, 9, 7, -9, 5, -6, 3, -5, 1, 9, 10, 0, 0, 0, -3, -6, 10, -10),
]


class TestFactorSearch:
    """The stage after the degree sets: a factor among the products of the
    roots proves a P without a rational root or a cyclotomic factor
    reducible, and the bounds on the roots' radii prove that no set is one."""

    @pytest.mark.parametrize("coeffs", _OPEN_AFTER_DEGREE_SETS, ids=["deg8", "deg10"])
    def test_pool_members_without_factor_list(self, coeffs):
        p = Polynomial(coeffs)
        v = irreducibility_probe(p, rs=roots(p, 128))
        assert (v.status.value, v.witness) == ("Reducible", "rational factorization")

    def test_status_matches_factor_list(self):
        # every height-1 palindrome to degree 12 (the odd degrees have the
        # factor x + 1) and the inputs the degree sets leave open, with
        # sympy's factorization as the oracle; none is left Unknown
        polys = [p for d in range(2, 13, 2) for p in enumerate_selfreciprocal(d, 1)]
        polys += [Polynomial(c) for c in _IRREDUCIBLE_AFTER_DEGREE_SETS]
        searched = 0
        for p in polys:
            v = irreducibility_probe(p, rs=roots(p, 128))
            assert v.status.value == _factor_list_status(p), p
            searched += v.witness == "no factor among the roots"
        assert searched >= 20

    def test_over_budget_falls_through(self, monkeypatch):
        monkeypatch.setattr(structure, "_SUBSET_BUDGET", 0)
        p = Polynomial(_OPEN_AFTER_DEGREE_SETS[1])
        rs = roots(p, 128)
        assert structure._factor_from_roots(p, rs, (1 << p.degree) - 2) is None
        v = irreducibility_probe(p, rs=rs)
        assert (v.status.value, v.witness) == ("Unknown", "factor search left open")

    def test_over_budget_irreducible_is_conditional(self, monkeypatch):
        # an irreducible P the search may not finish is Unknown, and its
        # small-measure classification conditional, never reducible
        monkeypatch.setattr(structure, "_SUBSET_BUDGET", 0)
        p = Polynomial(_IRREDUCIBLE_AFTER_DEGREE_SETS[0])
        v = irreducibility_probe(p, rs=roots(p, 128))
        assert (v.status.value, v.witness) == ("Unknown", "factor search left open")
        verdict = classify_E_theta(p, 1.3)
        assert verdict.conditional and not verdict.member
        assert "reducible" not in verdict.failures

    def test_irreducible_is_proved_by_the_search(self):
        # the roots of x^4 - 10 x^2 + 1 are +-sqrt 2 +- sqrt 3; the pairs
        # summing to 0 pass the trace test, but x^2 - 5 -+ 2 sqrt 6 are no
        # factors over Z
        p = Polynomial(_IRREDUCIBLE_AFTER_DEGREE_SETS[0])
        assert structure._factor_from_roots(p, roots(p, 128), 0b100) is False

    @pytest.mark.parametrize(
        "coeffs, proved, open_",
        [
            # roots +-3.15 and +-0.32: the coefficient bound, about 60 rho,
            # holds to rho = 4e-3
            ((1, 0, -10, 0, 1), (1e-10, 1e-9, 1e-6, 1e-3), (1e-2, 0.5)),
            # roots of modulus 25.4: the bound is about 7.2e10 rho
            ((-2 * 10 ** 11, 0, 0, 0, 0, 0, 0, 0, 1), (1e-14, 1e-12), (1e-10, 1e-6, 0.5)),
        ],
        ids=["trace", "coefficients"],
    )
    def test_wide_radii_leave_it_open(self, coeffs, proved, open_):
        # irreducible, so no set divides P: only the coefficient bound over
        # the radii decides between False and None; the trace test takes
        # the radii exactly, so it needs no bound of its own
        p = Polynomial(coeffs)
        every = (1 << p.degree) - 2
        for radius in proved:
            assert structure._factor_from_roots(p, _widened(p, radius), every) is False, radius
        for radius in open_:
            assert structure._factor_from_roots(p, _widened(p, radius), every) is None, radius

    def test_wide_radii_make_the_probe_unknown(self):
        p = Polynomial(_IRREDUCIBLE_AFTER_DEGREE_SETS[0])
        v = irreducibility_probe(p, rs=_widened(p, 0.01))
        assert (v.status.value, v.witness) == ("Unknown", "factor search left open")
        v = irreducibility_probe(p, rs=_widened(p, 1e-9))
        assert (v.status.value, v.witness) == ("Irreducible", "no factor among the roots")

    def test_trace_tolerance_covers_each_disk(self):
        # the centres of the roots of 3 x^2 + x + 7 moved by delta along the
        # real axis, and every radius just over delta: a 2 Re c then lies
        # 6 delta from -1, all that |a| 2 rho allows, so the factor is found
        # only when the tolerance holds both |a| and twice a pair's radius
        p = Polynomial([7, 1, 3]) * Polynomial([-1, -1, 0, 1])
        delta = 2.0 ** -20

        def moved(rt):
            x, y, e = rt.centre
            if abs(rt.z.real + 1 / 6) < 1e-9:
                x += 1 << -20 - e
            return dataclasses.replace(rt, centre=(x, y, e), error_radius=delta + 2.0 ** -60)

        rs = roots(p, 128)
        assert sum(abs(rt.z.real + 1 / 6) < 1e-9 for rt in rs.roots) == 2
        rs = dataclasses.replace(rs, roots=tuple(map(moved, rs.roots)))
        assert structure._factor_from_roots(p, rs, 0b100) is True

    def test_trace_beyond_the_float_range(self):
        # roots near +-2^1100.5, in disks wider than 1: each passes the trace
        # test and none divides P, and the coefficient bound fails, so the
        # search cannot rule out a linear factor
        p = Polynomial([-(2 ** 2201) - 1, 0, 1])
        assert structure._factor_from_roots(p, roots(p, 128), 0b10) is None


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

    def test_symmetry_fails_without_reciprocal_roots(self):
        # x^3 - x - 1 is not its own reciprocal up to sign: its real root
        # theta0 has no root 1 / theta0 beside it
        p = Polynomial([-1, -1, 0, 1])
        audit = structure._audit_properties(p, roots(p, 128), THETA0)
        assert audit["symmetry_circle_and_real_axis"] == "fail"

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
            Polynomial([1, 2, 3, 2, 1]),  # (x^2+x+1)^2
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
        "p, parts",
        [
            # member: the probe and the audit read the factors from the
            # roots, although Lehmer's polynomial is reducible mod every prime
            (LEHMER, 1),
            (cyclotomic(5), 1),
            (cyclotomic(3) * cyclotomic(3) * LEHMER, 2),  # Phi_3 the part of multiplicity 2
            (Polynomial([1, 0, 2]), 1),  # not monic: no probe
        ],
        ids=["lehmer-member", "phi5", "phi3-squared-lehmer", "nonmonic"],
    )
    def test_cyclotomic_factor_once(self, cyclotomic_screens, p, parts):
        v = classify_E_theta(p, 1.3)
        assert cyclotomic_screens["_cyclotomic_divisors"] == parts
        assert cyclotomic_screens["cyclotomic_factor"] == 0
        assert v.member == (p == LEHMER)
        if v.member:
            assert v.property_audit["no_root_of_unity"] == "pass"

    def test_mismatched_roots_rejected(self):
        with pytest.raises(ValueError):
            classify_E_theta(LEHMER, 1.3, rs=roots(cyclotomic(15), 128))
        with pytest.raises(ValueError):
            classify_E_theta(LEHMER, 1.3, rs=roots(LEHMER, 256))
