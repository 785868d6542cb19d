"""Exhaustive self-reciprocal enumeration and small-measure search."""
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mahlerlab import cli, search
from mahlerlab.measure import mahler, mahler_graeffe
from mahlerlab.polycore import Polynomial, structural_flags
from mahlerlab.search import (
    SearchSpaceError,
    enumerate_selfreciprocal,
    search_min_mahler,
)
from mahlerlab.structure import _cyclotomic_orders, cyclotomic, cyclotomic_factor
from oracles import fr_compose

LEHMER = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
DATA = Path(__file__).resolve().parent / "data"


class TestEnumeration:
    def test_count(self):
        # free coefficients a_1..a_n each in {-h..h}
        assert sum(1 for _ in enumerate_selfreciprocal(4, 1)) == 9
        assert sum(1 for _ in enumerate_selfreciprocal(10, 1)) == 243
        assert sum(1 for _ in enumerate_selfreciprocal(2, 2)) == 5

    def test_all_selfreciprocal_monic(self):
        for p in enumerate_selfreciprocal(6, 1):
            assert p.is_monic()
            assert structural_flags(p).self_reciprocal

    def test_deterministic_order(self):
        a = [p.coeffs for p in enumerate_selfreciprocal(4, 1)]
        b = [p.coeffs for p in enumerate_selfreciprocal(4, 1)]
        assert a == b

    @pytest.mark.parametrize(
        "degree, height", [(d, 1) for d in range(2, 15, 2)] + [(d, 2) for d in range(2, 9, 2)]
    )
    def test_rows_match_enumeration(self, monkeypatch, degree, height):
        # a chunk of 7 rows puts chunk boundaries inside every enumeration above 7 rows
        monkeypatch.setattr(search, "SCREEN_CHUNK", 7)
        span = range(-height, height + 1)
        want = [
            (1,) + free + tuple(reversed(free[:-1])) + (1,)
            for free in itertools.product(span, repeat=degree // 2)
        ]
        chunks = list(search._rows(degree, height))
        assert all(rows.dtype == np.int64 and len(rows) <= 7 for rows in chunks)
        got = [tuple(row) for rows in chunks for row in rows.tolist()]
        assert got == want
        assert [p.coeffs for p in enumerate_selfreciprocal(degree, height)] == want

    def test_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_selfreciprocal(5, 1))
        with pytest.raises(SearchSpaceError):
            list(enumerate_selfreciprocal(40, 10))


class TestSearch:
    def test_degree2_empty(self):
        assert search_min_mahler(2, 1, 1.3) == []

    def test_lehmer_found_and_minimal(self):
        records = search_min_mahler(10, 1, 1.3)
        assert records
        top = records[0]
        assert top.rank == 1
        assert top.polynomial == LEHMER
        assert abs(top.measure.value - 1.176280) < 1e-5
        # unique minimum: next measure is strictly larger
        if len(records) > 1:
            assert records[1].measure.value > top.measure.value + 1e-6

    def test_tight_theta_isolates_lehmer(self):
        records = search_min_mahler(10, 1, 1.18)
        assert len(records) == 1
        assert records[0].polynomial == LEHMER

    def test_measures_in_range_and_sorted(self):
        records = search_min_mahler(8, 1, 1.3)
        values = [r.measure.value for r in records]
        assert values == sorted(values)
        for r in records:
            assert 1.0 < r.measure.value < 1.3
            assert structural_flags(r.polynomial).primitive_c1

    def test_no_neg_x_duplicates(self):
        records = search_min_mahler(10, 1, 1.3)
        seen = set()
        for r in records:
            assert r.polynomial.coeffs not in seen
            seen.add(r.polynomial.coeffs)
            mirror = Polynomial(fr_compose(r.polynomial.coeffs, [0, -1])).coeffs
            assert mirror == r.polynomial.coeffs or mirror not in seen


def _representative_by_flags(p):
    """The representative choice made from the full structural flags of P
    and P(-x), as search made it before it read only c1 and c2."""
    q = Polynomial(fr_compose(p.coeffs, [0, -1]))
    flags, qflags = structural_flags(p), structural_flags(q)
    if flags.sign_c2 != qflags.sign_c2:
        if qflags.sign_c2:
            p, flags = q, qflags
    elif q.coeffs > p.coeffs:
        p, flags = q, qflags
    return p if flags.primitive_c1 else None


@pytest.mark.parametrize("degree, height", [(d, 2) for d in (2, 4, 6, 8, 10)])
def test_representative_matches_flags(degree, height):
    # the row mask keeps exactly the rows that are their own representative
    for rows in search._rows(degree, height):
        want = [_representative_by_flags(Polynomial(row)) == Polynomial(row)
                for row in rows.tolist()]
        assert search._representatives(rows).tolist() == want


class TestCyclotomicRows:
    """The batched evaluation at the roots of unity against the exact scan."""

    @pytest.mark.parametrize("degree_cap,height", [(14, 1), (10, 2)])
    def test_matches_cyclotomic_factor(self, degree_cap, height):
        for d in range(2, degree_cap + 1, 2):
            for rows in search._rows(d, height):
                rows = rows[search._prefilter_keeps(rows.astype(float), 1.3)]
                want = [cyclotomic_factor(Polynomial(row)) is not None for row in rows.tolist()]
                assert search._cyclotomic_rows(rows).tolist() == want

    @pytest.mark.parametrize("n", _cyclotomic_orders(12))
    def test_products_with_every_order(self, n):
        # Phi_n Q, and Phi_n Q with its lead or its constant raised by 1,
        # which may or may not keep a cyclotomic factor
        for q in (Polynomial([1]), LEHMER, Polynomial([1, -3, 1]), cyclotomic(n),
                  Polynomial([2, 0, -1, 5, 3])):
            p = cyclotomic(n) * q
            for r in (p, p + Polynomial([0] * p.degree + [1]), p + Polynomial([1])):
                row = np.array([r.coeffs], dtype=np.int64)
                want = cyclotomic_factor(r) is not None
                assert search._cyclotomic_rows(row).tolist() == [want], (n, r)


def _unfiltered_records(degree_cap, height, theta=1.3):
    """The records of every row, each mapped to its representative by
    `_representative_by_flags`, deduplicated and tested by
    `cyclotomic_factor`: no row mask, no float screen, no batched
    cyclotomic test and no early-stopping proved screen.  Only the bracket
    of `mahler_graeffe` at depth PROVED_SCREEN_DEPTH stays, to spare root
    finding: a row whose lower end exceeds theta has M(P) > theta."""
    found = {}
    for d in range(2, degree_cap + 1, 2):
        for p in enumerate_selfreciprocal(d, height):
            p = _representative_by_flags(p)
            if p is None or p.coeffs in found or cyclotomic_factor(p) is not None:
                continue
            found[p.coeffs] = None
            g = mahler_graeffe(p, k=search.PROVED_SCREEN_DEPTH)
            if g.value - g.error_bound <= theta:
                m = mahler(p, 128)
                if 1.0 + m.error_bound < m.value < theta:
                    found[p.coeffs] = m
    ranked = sorted(((m.value, m.error_bound, c) for c, m in found.items() if m), key=lambda t: t[0])
    return [(c, value, err, rank) for rank, (value, err, c) in enumerate(ranked, start=1)]


@pytest.mark.parametrize("degree_cap,height", [(16, 1), (10, 2)])
def test_records_match_unfiltered_path(degree_cap, height):
    records = _signature(search_min_mahler(degree_cap, height, 1.3))
    assert records == _unfiltered_records(degree_cap, height)
    assert records


def test_degree_18_table_matches_golden(capsys):
    assert cli.main(["search", "--degree", "18", "--height", "1"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "search_d18_h1.txt").read_bytes()


def test_degree_20_table_matches_golden(capsys):
    # written by the search before its proved screen stopped early
    assert cli.main(["search", "--degree", "20", "--height", "1"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "search_d20_h1.txt").read_bytes()


class TestScreen:
    """The batched float64 screen against the scalar mpmath Graeffe estimate."""

    @pytest.mark.parametrize("degree_cap,height", [(14, 1), (10, 2)])
    def test_matches_scalar_oracle(self, degree_cap, height):
        k = search.SCREEN_DEPTH
        for d in range(2, degree_cap + 1, 2):
            polys = list(enumerate_selfreciprocal(d, height))
            coeffs = np.array([p.coeffs for p in polys], dtype=float)
            want = np.array([
                mahler_graeffe(p, k=k, precision_bits=128).value * 2.0 ** (-d / 2.0 ** k)
                for p in polys
            ])
            got = search._graeffe_lower(coeffs)
            assert np.max(np.abs(got - want) / want) <= 1e-6
            for theta in (1.2, 1.3):
                keeps = search._prefilter_keeps(coeffs, theta)
                assert keeps.tolist() == (~(want > theta * search.SCREEN_MARGIN)).tolist()

    def test_nonfinite_rows_are_kept(self):
        coeffs = np.array([
            [1.0, 3.0, 1.0],  # M = (3 + sqrt 5) / 2, far above theta
            [1.0, np.nan, 1.0],
            [1.0, np.inf, 1.0],
            [1e300, 1.0, 1e300],  # overflows in the first squaring
        ])
        assert search._prefilter_keeps(coeffs, 1.3).tolist() == [False, True, True, True]


def _signature(records):
    return [
        (r.polynomial.coeffs, r.measure.value, r.measure.error_bound, r.rank)
        for r in records
    ]


@pytest.mark.parametrize("degree_cap,height", [(12, 1), (10, 2)])
def test_screen_drops_no_record(monkeypatch, degree_cap, height):
    screened = _signature(search_min_mahler(degree_cap, height, 1.3))
    monkeypatch.setattr(
        search, "_prefilter_keeps", lambda coeffs, theta: np.ones(len(coeffs), dtype=bool)
    )
    assert screened == _signature(search_min_mahler(degree_cap, height, 1.3))
    assert screened


def _proved_sides(monkeypatch, degree_cap, height, theta=1.3):
    """(P, side) for every row that reaches the proved screen in one
    search, with the side `_proved_side` gave it."""
    seen = []
    side_of = search._proved_side

    def recording(p, theta):
        side = side_of(p, theta)
        seen.append((p, side))
        return side

    monkeypatch.setattr(search, "_proved_side", recording)
    search_min_mahler(degree_cap, height, theta)
    return seen


class TestProvedScreen:
    """The second screen, the proved Graeffe bracket on the exact path."""

    @pytest.mark.parametrize("degree_cap,height", [(14, 1), (10, 2)])
    def test_every_decision_is_proved(self, monkeypatch, degree_cap, height):
        # a drop has M(P) > theta and an early keep M(P) < theta, each
        # confirmed by a 256-bit root product
        seen = _proved_sides(monkeypatch, degree_cap, height)
        sides = [side for _, side in seen]
        assert 1 in sides and -1 in sides
        for p, side in seen:
            if side:
                m = mahler(p, 256)
                assert (m.value - m.error_bound > 1.3 if side > 0 else m.value + m.error_bound < 1.3), p

    def test_matches_depth_12_screen(self, monkeypatch):
        # every row the proved screen sees is kept exactly when the lower
        # end of the full depth-12 bracket of mahler_graeffe is <= theta
        seen = _proved_sides(monkeypatch, 16, 1)
        assert seen
        for p, side in seen:
            g = mahler_graeffe(p, k=search.PROVED_SCREEN_DEPTH)
            assert (side <= 0) == (g.value - g.error_bound <= 1.3), p

    @pytest.mark.parametrize("theta", [1.2, 1.3, 1.176280818])
    @pytest.mark.parametrize("width", [8, search.PROVED_SCREEN_WIDTH])
    def test_theta_powers_contain_exact_power(self, theta, width):
        powers = search._theta_powers(theta, width)
        assert len(powers) == search.PROVED_SCREEN_DEPTH + 1
        for k, (lo, hi, f) in enumerate(powers[:11]):
            scale = Fraction(2) ** f
            assert lo * scale <= Fraction(theta) ** 2 ** k <= hi * scale, k
            assert hi.bit_length() <= width + 1

    @pytest.mark.parametrize("end", ["drop", "keep"])
    def test_decides_nothing_the_error_leaves_open(self, monkeypatch, end):
        # iterates whose bracket on M(G_k), from (r - s) 2^(e - d) to
        # (r + 1 + s) 2^e, reaches theta^(2^k) only through the error term
        # s = 2 err: the screen must stay undecided, and would decide if it
        # left s out of that end
        def steps(a, width):
            for lo, hi, f in search._theta_powers(1.3, width):
                if end == "drop":
                    yield [hi + 1, 0], f + 1, 1  # (r - s) 2^(e - 1) = (hi - 1) 2^f
                else:
                    yield [lo - 3, 0], f, 1  # (r + 1 + s) 2^e = lo 2^f

        monkeypatch.setattr(search, "_graeffe_steps", steps)
        assert search._proved_side(Polynomial([-3, 1]), 1.3) == 0

    def test_narrow_width_doubles(self, monkeypatch):
        # from 8 bits the carried error outgrows the iterates, the width
        # doubles, and the records stay the same
        want = _signature(search_min_mahler(12, 1, 1.3))
        widths = []
        steps = search._graeffe_steps

        def recording(a, width):
            widths.append(width)
            return steps(a, width)

        monkeypatch.setattr(search, "PROVED_SCREEN_WIDTH", 8)
        monkeypatch.setattr(search, "_graeffe_steps", recording)
        assert _signature(search_min_mahler(12, 1, 1.3)) == want
        assert min(widths) == 8 and max(widths) > 8

    @pytest.mark.parametrize("degree_cap,height", [(14, 1), (10, 2)])
    def test_screen_drops_no_record(self, monkeypatch, degree_cap, height):
        screened = _signature(search_min_mahler(degree_cap, height, 1.3))
        monkeypatch.setattr(search, "_proved_side", lambda p, theta: 0)
        assert screened == _signature(search_min_mahler(degree_cap, height, 1.3))
        assert screened

    def test_root_finding_only_for_records(self, monkeypatch):
        calls = []

        def counting(p, precision_bits=128):
            calls.append(p)
            return mahler(p, precision_bits)

        monkeypatch.setattr(search, "mahler", counting)
        records = search_min_mahler(12, 1, 1.3)
        assert len(records) == 12
        assert len(calls) == 12


def _sympy_loaded_after(calls: list[list[str]]) -> list[str]:
    """The exit codes of ``cli.main`` on each argument list of ``calls``, then
    whether sympy was imported, from one fresh interpreter."""
    src = Path(search.__file__).resolve().parent.parent
    code = (
        "import contextlib, io, sys\n"
        "import mahlerlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rcs = [mahlerlab.cli.main(argv) for argv in {calls!r}]\n"
        "print(*rcs, 'sympy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def test_search_loads_no_sympy():
    assert _sympy_loaded_after([["search", "--degree", "6", "--height", "1"]]) == ["0", "False"]


def test_verify_and_analyze_load_no_sympy(tmp_path):
    # Lehmer's polynomial, every member of both golden corpora and two
    # reducible benchmark pool members that no degree set decides
    lehmer = tmp_path / "lehmer.txt"
    lehmer.write_text(" ".join(str(c) for c in LEHMER.coeffs) + "\n")
    reducible = tmp_path / "reducible.txt"
    reducible.write_text("-1 3 0 -4 0 4 -2 1 1\n2 -2 -7 0 5 -4 -2 4 -5 0 1\n")
    data = Path(__file__).resolve().parent / "data"
    corpora = [lehmer, reducible, data / "analyze_golden_corpus.txt",
               data / "verify_golden_corpus.txt"]
    calls = [[command, str(path)] for path in corpora for command in ("verify", "analyze")]
    assert _sympy_loaded_after(calls) == ["0"] * len(calls) + ["False"]


def test_cli_import_loads_no_numpy():
    # numpy (about 0.16 s of a 0.27 s import) loads at the first search, root
    # finding or sup norm, not with the CLI; sympy and mpmath never
    src = Path(search.__file__).resolve().parent.parent
    code = "import sys, mahlerlab.cli; print(*(m in sys.modules for m in ('numpy', 'mpmath', 'sympy')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False"] * 3
