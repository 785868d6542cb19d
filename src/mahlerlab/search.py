"""Exhaustive enumeration of monic self-reciprocal integer polynomials and
search for minimal Mahler measures above 1.

Restricting to self-reciprocal polynomials misses nothing below Smyth's bound
theta_0 among monic integer polynomials with P(0)P(1) != 0, which is why every
published small-measure search uses the same normalization.

Candidates are int64 numpy rows of ascending coefficients, generated and
screened SCREEN_CHUNK at a time; a `Polynomial` is built only for a row that
passes the first screen.  That screen is a batched float64 Graeffe
(root-squaring) bracket: SCREEN_DEPTH squarings of P(x) P(-x) for the whole
chunk at once, each row renormalized by its largest coefficient with the scale
kept in log space.  A candidate is dropped only when the lower end of the
bracket, est * 2^(-d/2^k) <= M(P), exceeds theta by a 1% margin.  The depth
stays at 6 because float64 is accurate enough there: on all 29,523 height-1
candidates up to degree 18 the bracket lies within 1.4e-7 (relative) of a
256-bit evaluation, far inside the margin.  Deeper iterates of polynomials with
repeated cyclotomic factors lose that accuracy: at depth 7 the float64 bracket
is 1.7% too high on a degree-14 candidate, more than the margin, and an
overestimated lower bound could drop a true record.  Survivors go through the
exact path: x -> -x normalization and deduplication, cyclotomic rejection,
the second screen, then the root product.  The second screen is
`mahler_graeffe` at depth PROVED_SCREEN_DEPTH, whose lower end is a proved
lower bound on M(P); a candidate whose lower end exceeds theta has
M(P) > theta and is dropped without a margin.  At height 1 and degree <= 12 it keeps exactly
the 12 records of the 36 candidates that reach it."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .measure import MeasureResult, mahler, mahler_graeffe
from .polycore import Polynomial, support_flags
from .structure import cyclotomic_factor

__all__ = ["SearchRecord", "SearchSpaceError", "enumerate_selfreciprocal", "search_min_mahler"]

SIZE_CAP = 10 ** 9
# root squarings in the float64 screen (see the module docstring for why 6),
# the slack on theta it allows, and how many candidates it screens at once
SCREEN_DEPTH = 6
SCREEN_MARGIN = 1.01
SCREEN_CHUNK = 4096
# root squarings in the second, proved screen on the exact path
PROVED_SCREEN_DEPTH = 12


class SearchSpaceError(ValueError):
    pass


@dataclass(frozen=True)
class SearchRecord:
    polynomial: Polynomial
    measure: MeasureResult
    rank: int


def _check_space(degree: int, height: int) -> None:
    """Raise unless degree is even and >= 2, height >= 1 and the space of
    degree-``degree`` candidates has at most SIZE_CAP rows."""
    if degree < 2 or degree % 2:
        raise ValueError("degree must be even and >= 2")
    if height < 1:
        raise ValueError("height must be >= 1")
    size = (2 * height + 1) ** (degree // 2)
    if size > SIZE_CAP:
        raise SearchSpaceError(f"search space {size} exceeds cap {SIZE_CAP}")


def _rows(degree: int, height: int):
    """int64 chunks of up to SCREEN_CHUNK rows, one per monic palindromic
    polynomial of the given even degree with a_0 = 1 and free coefficients
    a_1..a_n in [-height, height], ascending coefficients, in deterministic
    lexicographic order of (a_1, .., a_n)."""
    import numpy as np  # here, so that importing the CLI does not load numpy

    _check_space(degree, height)
    n = degree // 2
    free = itertools.product(range(-height, height + 1), repeat=n)
    while chunk := list(itertools.islice(free, SCREEN_CHUNK)):
        half = np.array(chunk, dtype=np.int64)
        # coefficients 1, a1..a_{n-1}, a_n, a_{n-1}..a1, 1
        rows = np.ones((len(chunk), degree + 1), dtype=np.int64)
        rows[:, 1:n + 1] = half
        rows[:, n + 1:degree] = half[:, -2::-1]
        yield rows


def enumerate_selfreciprocal(degree: int, height: int):
    """All monic palindromic integer polynomials of the given even degree with
    a_0 = 1 and free coefficients a_1..a_n in [-height, height], in
    deterministic lexicographic order."""
    for rows in _rows(degree, height):
        for row in rows.tolist():
            yield Polynomial(row)


def _graeffe_lower(coeffs):
    """Lower end of the depth-SCREEN_DEPTH Graeffe bracket on M(P) for each row
    of an (N, d+1) float64 matrix of ascending coefficients.

    Each step replaces P(x) by the even part of P(x) P(-x), whose roots are
    the squares of P's, up to sign; the sign does not change the L2 norm the
    estimate uses.  A row that overflows or holds a NaN or an infinity yields
    NaN: entries stay at most 1 after each renormalization, so an infinity
    can only come from the input or the first product, and inf / inf is NaN."""
    import numpy as np

    n, width = coeffs.shape
    d = width - 1
    flip = (-1.0) ** np.arange(width)
    cs = coeffs
    logscale = np.zeros(n)
    with np.errstate(all="ignore"):
        for _ in range(SCREEN_DEPTH):
            neg = cs * flip
            prod = np.zeros((n, 2 * d + 1))
            for i in range(width):
                prod[:, i:i + width] += cs[:, i, None] * neg
            cs = prod[:, ::2]
            m = np.abs(cs).max(axis=1)
            cs = cs / m[:, None]
            logscale = 2 * logscale + np.log(m)
        log_l2 = logscale + 0.5 * np.log((cs * cs).sum(axis=1))
        est = np.exp(log_l2 / 2.0 ** SCREEN_DEPTH)
    return est * 2.0 ** (-d / 2.0 ** SCREEN_DEPTH)


def _prefilter_keeps(coeffs, theta: float):
    """Boolean mask of the rows the Graeffe screen cannot rule out: a row is
    rejected only when its lower bound exceeds theta * SCREEN_MARGIN, and a
    NaN compares false, so a row that overflowed is kept for the exact path."""
    return ~(_graeffe_lower(coeffs) > theta * SCREEN_MARGIN)


def _screened(degree: int, height: int, theta: float):
    """The candidates of one degree that the float64 screen keeps, as
    Polynomials, screened SCREEN_CHUNK rows at a time so that memory stays
    flat at any degree."""
    for rows in _rows(degree, height):
        for row in rows[_prefilter_keeps(rows.astype(float), theta)].tolist():
            yield Polynomial(row)


def _proved_keeps(p: Polynomial, theta: float) -> bool:
    """False when the depth-PROVED_SCREEN_DEPTH Graeffe bracket proves
    M(P) > theta.  Its lower end value - error_bound is a proved lower bound
    on M(P), and a record has M(P) < theta, so no margin is needed."""
    g = mahler_graeffe(p, k=PROVED_SCREEN_DEPTH)
    return not g.value - g.error_bound > theta


def _representative(p: Polynomial) -> Polynomial | None:
    """The one of P(x), P(-x) that search reports, or None when neither is
    primitive (c1; P and P(-x) have the same support).  The one satisfying
    c2 is reported when only one does; otherwise the lexicographically
    larger coefficient tuple.

    P(-x) negates the odd coefficients, so both choices come down to the
    first odd a_j != 0: it is the first a_j of all when only one of the two
    satisfies c2, and otherwise the first coefficient where they differ.
    The one in which it is positive wins."""
    if support_flags(p)[0] >= 2:
        return None
    first_odd = next((c for c in p.coeffs[1::2] if c), 1)
    return p if first_odd > 0 else p.substitute_neg_x()


def search_min_mahler(
    degree_cap: int,
    height: int,
    theta: float,
    precision_bits: int = 128,
) -> list[SearchRecord]:
    """Records with 1 < M(P) < theta over all even degrees up to the cap,
    sorted ascending by measure.

    Polynomials with a cyclotomic factor are dropped, the sign normalization
    (c2) is applied by the x -> -x substitution, non-primitive rewrites
    Q(x^m) and the x -> -x duplicates are deduplicated in reporting."""
    if degree_cap < 2:
        raise ValueError("degree cap must be >= 2")
    # the largest space first: a search over the cap fails before it starts
    _check_space(degree_cap - degree_cap % 2, height)
    seen: set[tuple] = set()
    found: list[tuple[Polynomial, MeasureResult]] = []
    for deg in range(2, degree_cap + 1, 2):
        for p in _screened(deg, height, theta):
            p = _representative(p)
            if p is None:
                continue  # P = Q(x^g): its primitive base has the same measure
            if p.coeffs in seen:
                continue
            seen.add(p.coeffs)
            # Phi_n(-x) = +-Phi_m(x) for some m, so P and P(-x) have a
            # cyclotomic factor together and the representative decides
            if cyclotomic_factor(p) is not None:
                continue
            if not _proved_keeps(p, theta):
                continue
            m = mahler(p, precision_bits)
            if m.value <= 1.0 + m.error_bound:
                continue
            if m.value >= theta:
                continue
            found.append((p, m))
    found.sort(key=lambda t: t[1].value)
    return [SearchRecord(p, m, rank) for rank, (p, m) in enumerate(found, start=1)]
