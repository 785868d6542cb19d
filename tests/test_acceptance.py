"""End-to-end acceptance suite: one test per criterion, each printing a
single PASS/FAIL line (visible with `pytest -s` or in failure output)."""
import math
import random
import time
from fractions import Fraction

import pytest

from mahlerlab.bounds import schinzel_lower, solve_constants, verify_all
from mahlerlab.corpusio import emit_zero_plot
from mahlerlab.measure import mahler, mahler_from_roots, mahler_graeffe
from mahlerlab.polycore import Polynomial, structural_flags
from mahlerlab.reporting import Verdict
from mahlerlab.rootfind import PrecisionError, count_in_disk, count_real, roots
from mahlerlab.search import enumerate_selfreciprocal, search_min_mahler
from mahlerlab.structure import classify_E_theta, cyclotomic
from oracles import centre_mpc, contour_count, real_root_counts, reconstruction_residual, vieta_residual

LEHMER = Polynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
LEHMER_MEASURE = 1.176280


def _report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}" + (f" — {detail}" if detail else "")
    print(line, flush=True)
    assert ok, line


def _random_corpus(count, max_degree, height, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, max_degree)
        coeffs = [rng.randint(-height, height) for _ in range(d)] + [rng.randint(1, height)]
        p = Polynomial(coeffs)
        if p.degree >= 1:
            out.append(p)
    return out


def test_criterion_1_lehmer_reproduction():
    t0 = time.time()
    m1 = mahler(LEHMER, 128)
    m2 = mahler_graeffe(LEHMER, k=20, precision_bits=128)
    elapsed = time.time() - t0
    ok = (
        abs(m1.value - LEHMER_MEASURE) < 1e-5
        and abs(m2.value - LEHMER_MEASURE) < 1e-5
        and elapsed < 1.0
    )
    _report(1, ok, f"root={m1.value:.8f} graeffe={m2.value:.8f} in {elapsed:.3f}s")


def test_criterion_2_smyth_constant():
    m = mahler(Polynomial([-1, -1, 0, 1]), 128)
    _report(2, abs(m.value - 1.324717) < 1e-5, f"M = {m.value:.8f}")


def test_criterion_3_kronecker_sanity():
    worst = 0.0
    rejected = True
    for n in range(1, 101):
        phi = cyclotomic(n)
        worst = max(worst, abs(mahler(phi, 128).value - 1.0))
        v = classify_E_theta(phi, 1.3)
        rejected = rejected and not v.member
    _report(3, worst < 1e-9 and rejected, f"max |M - 1| = {worst:.2e}, all rejected = {rejected}")


def test_criterion_4_constants():
    c = solve_constants()
    res = max(c.residuals().values())
    ok = (
        res < 1e-12
        and abs(c.A - 0.655) < 5e-4
        and abs(c.B - 0.984) < 5e-4
        and abs(c.c - c.printed_c) < 5e-3
    )
    _report(4, ok, f"max residual {res:.2e}; A={c.A:.5f} B={c.B:.5f} c={c.c:.5f} (printed {c.printed_c})")


@pytest.fixture(scope="module")
def suite_corpus():
    corpus = [("lehmer", LEHMER)]
    for i, p in enumerate(enumerate_selfreciprocal(10, 1)):
        corpus.append((f"pal{i}", p))
    for i, p in enumerate(_random_corpus(500, 30, 10, seed=2024)):
        corpus.append((f"rnd{i}", p))
    return corpus


def test_criterion_5_zero_violations(suite_corpus):
    t0 = time.time()
    violated = []
    for ident, p in suite_corpus:
        rep = verify_all(p, polynomial_id=ident)
        for e in rep.violated():
            violated.append((ident, e.theorem_id))
    elapsed = time.time() - t0
    ok = not violated and elapsed < 300
    _report(5, ok, f"{len(suite_corpus)} polynomials, {len(violated)} violations, {elapsed:.1f}s")


def test_criterion_6_schinzel_equality():
    base = Polynomial([1, 0, Fraction(-17, 4), 0, 1])  # roots ±2, ±1/2
    fired = []
    for k in (0, 1):
        p = base * Polynomial([1, 0, 1]) ** k
        rs = roots(p, 128)
        entries, cert = schinzel_lower(p, rs, mahler_from_roots(p, rs))
        e = next(e for e in entries if e.theorem_id == "schinzel_m")
        fired.append(cert["m"] and abs(e.lhs - e.rhs) < 1e-9)
    stray = 0
    for p in _random_corpus(60, 12, 6, seed=77):
        # degree-2 binomials x^2 - c genuinely achieve equality; dense random
        # polynomials of degree >= 3 should never fire the certificate
        if p.degree < 3 or not p.is_monic():
            continue
        rs = roots(p, 128)
        _, cert = schinzel_lower(p, rs, mahler_from_roots(p, rs))
        if cert["m"] or cert["n"]:
            stray += 1
    ok = all(fired) and stray == 0
    _report(6, ok, f"family fired = {fired}, stray certificates = {stray}")


def test_criterion_7_search_reproduction():
    t0 = time.time()
    records = search_min_mahler(10, 1, 1.3)
    elapsed = time.time() - t0
    ok = (
        bool(records)
        and records[0].polynomial in (LEHMER, LEHMER.substitute_neg_x())
        and abs(records[0].measure.value - LEHMER_MEASURE) < 1e-5
        and (len(records) == 1 or records[1].measure.value > records[0].measure.value + 1e-6)
        and elapsed < 60
    )
    _report(7, ok, f"{len(records)} records, top M = {records[0].measure.value:.7f}, {elapsed:.1f}s")


def test_criterion_8_asymptotics_report_only():
    prefixes = ("dubickas_rhs", "around1", "realzero_length_integer1")
    bad = []
    finite_rows = 0
    for p in (LEHMER, Polynomial([1, 0, 0, 1, 0, 0, 1])):
        for e in verify_all(p).entries:
            if e.theorem_id.startswith(prefixes):
                if e.verdict in (Verdict.HOLDS, Verdict.VIOLATED):
                    bad.append(e.theorem_id)
                if e.verdict is Verdict.REPORT_ONLY:
                    finite_rows += 1
                    if e.lhs is not None and not math.isfinite(e.lhs):
                        bad.append(e.theorem_id + ":nonfinite")
                    if e.lhs is not None and e.lhs < 0:
                        bad.append(e.theorem_id + ":sign")
    _report(8, not bad and finite_rows > 0, f"{finite_rows} report-only rows, offenders = {bad}")


def test_criterion_9_rootfinder_oracles(suite_corpus):
    worst_v = worst_r = 0.0
    for ident, p in suite_corpus:
        rs = roots(p, 256)
        worst_v = max(worst_v, vieta_residual(rs))
        worst_r = max(worst_r, reconstruction_residual(rs))
    rng = random.Random(99)
    mismatches = checked = 0
    for _ in range(100):
        d = rng.randint(2, 10)
        p = Polynomial([rng.randint(-6, 6) for _ in range(d)] + [1])
        if p.degree < 1:
            continue
        rs = roots(p, 128)
        center = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        radius = rng.uniform(0.4, 2.5)
        dc = count_in_disk(rs, center, radius)
        if dc.certified:
            checked += 1
            if contour_count(p, center, radius) != dc.count:
                mismatches += 1
    ok = worst_v < 1e-9 and worst_r < 1e-9 and mismatches == 0 and checked >= 80
    _report(9, ok, f"vieta {worst_v:.1e}, reconstruction {worst_r:.1e}, "
                   f"{checked} certified disk counts, {mismatches} mismatches")


def test_criterion_10_symmetry_and_plots(suite_corpus):
    import mpmath as mp

    closure_ok = True
    for ident, p in suite_corpus:
        if not structural_flags(p).self_reciprocal or p.degree < 1:
            continue
        rs = roots(p, 128)
        with mp.workprec(160):
            vals = [(centre_mpc(r), r.error_radius) for r in rs.roots]
            for v, rad in vals:
                for target in (mp.conj(v), 1 / mp.conj(v)):
                    if not any(
                        abs(w - target) <= max(rad + wr, 1e-20) for w, wr in vals
                    ):
                        closure_ok = False
    rs = roots(LEHMER, 128)
    stable = emit_zero_plot([rs]) == emit_zero_plot([roots(LEHMER, 128)])
    _report(10, closure_ok and stable, f"closure = {closure_ok}, svg byte-stable = {stable}")


def test_real_zero_counts_match_exact_counts(suite_corpus):
    # count_real may raise PrecisionError on a root its disk leaves undecided;
    # every count it gives must be exact
    decided = 0
    for ident, p in suite_corpus:
        try:
            got = count_real(roots(p, 128))
        except PrecisionError:
            continue
        decided += 1
        assert got == real_root_counts(p), ident
    assert decided >= 0.95 * len(suite_corpus)
