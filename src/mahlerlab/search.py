"""Exhaustive enumeration of monic self-reciprocal integer polynomials and
search for minimal Mahler measures above 1.

Restricting to self-reciprocal polynomials misses nothing below Smyth's bound
theta_0 among monic integer polynomials with P(0)P(1) != 0, which is why every
published small-measure search uses the same normalization.

Candidates are int64 numpy rows of ascending coefficients, generated and
screened SCREEN_CHUNK at a time; a `Polynomial` is built only for a row that
passes the three array stages, and a fourth stage, in integers, settles
each survivor before the root product.  In order:

1. The row mask (`_representatives`) keeps the rows whose first nonzero odd
   coefficient is positive and whose support gcd is 1 (c1).  Every other row
   is P(-x) of a kept row, with the same measure, or a rewrite Q(x^g), g >= 2,
   that c1 excludes from the records, so each representative is searched
   once and no set of seen polynomials is needed.
2. The float screen is a batched float64 Graeffe (root-squaring) bracket:
   SCREEN_DEPTH squarings of P(x) P(-x) for the whole chunk at once, each row
   renormalized by its largest coefficient with the scale kept in log space.
   A candidate is dropped only when the lower end of the bracket,
   est * 2^(-d/2^k) <= M(P), exceeds theta by a 1% margin.  The depth stays
   at 6 because float64 is accurate enough there: on all 29,523 height-1 rows
   up to degree 18 the bracket lies within 1.4e-7 (relative) of a 256-bit
   evaluation, far inside the margin.  Deeper iterates of polynomials with
   repeated cyclotomic factors lose that accuracy: at depth 7 the float64
   bracket is 1.7% too high on a degree-14 candidate, more than the margin,
   and an overestimated lower bound could drop a true record.
3. The cyclotomic test is the library's one screen,
   `polycore._cyclotomic_divisors`: it evaluates the survivors at one
   primitive zeta_n for every order n with phi(n) <= d, by two float64
   matrix products (the real and imaginary parts).  A row whose |P(zeta_n)|
   exceeds a proved rounding bound delta at every order has no cyclotomic
   factor; any other is settled by exact division by Phi_n, so a row is
   dropped only on an exact division.
4. The proved screen (`_proved_side`) squares the roots of each survivor in
   integers, one Graeffe step at a time (`measure._graeffe_steps`), and
   stops at the first depth k whose bracket on M(P)^(2^k) lies wholly above
   or below an integer interval around theta^(2^k).  Above, the row is
   dropped; below, or undecided at PROVED_SCREEN_DEPTH, it goes on.  Each
   answer is proved, so no margin is needed, and a row proved below theta
   is spared the deeper squarings.  Up to degree 12 at height 1 the 24
   rows dropped are settled at depths 6 to 12 (11 of them at depth 7) and
   the 12 kept at depths 5 to 9; up to degree 18, 421 rows are dropped at
   depths 6 to 12, 56 are kept at depths 5 to 11, and 4 stay undecided.

Last comes the root product.  At height 1 and degree <= 12 the stages keep
515, 149, 36 and 12 of the 1,092 rows, and the 12 are exactly the records;
up to degree 18 they keep 14,623, 1,976, 481 and 60 of 29,523, and 56 of the
60 are records: those proved below theta, while the 4 undecided rows are
not."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .dyadic import exceeds, fixed
from .measure import MeasureResult, _graeffe_steps, mahler
from .polycore import Polynomial, _cyclotomic_divisors

__all__ = ["SearchRecord", "SearchSpaceError", "enumerate_selfreciprocal", "search_min_mahler"]

SIZE_CAP = 10 ** 9
# root squarings in the float64 screen (see the module docstring for why 6),
# the slack on theta it allows, and how many candidates it screens at once
SCREEN_DEPTH = 6
SCREEN_MARGIN = 1.01
SCREEN_CHUNK = 4096
# the deepest root squaring of the second, proved screen on the exact path,
# and the fixed-point width it starts from
PROVED_SCREEN_DEPTH = 12
PROVED_SCREEN_WIDTH = 160


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


def _representatives(rows):
    """Boolean mask of the rows that search reports: those with a positive
    first nonzero odd coefficient and support gcd 1 (c1).

    P(-x) negates the odd coefficients and keeps the support, and the rows
    hold every palindrome with P(-x), so every other row is either P(-x) of
    a kept row, with the same measure and the same cyclotomic factors
    (Phi_n(-x) = +-Phi_m(x) for some m), or fails c1: P = Q(x^g) with
    g >= 2, which has the measure of Q and is not a record.  A row with no
    nonzero odd coefficient has even support, so it fails c1 too."""
    import numpy as np

    odd = rows[:, 1::2]
    first = odd[np.arange(len(rows)), np.argmax(odd != 0, axis=1)]
    support = np.where(rows != 0, np.arange(rows.shape[1]), 0)
    return (first > 0) & (np.gcd.reduce(support, axis=1) == 1)


def _screened(degree: int, height: int, theta: float):
    """The representatives of one degree that the float64 screen keeps and
    that have no cyclotomic factor, as Polynomials, taken SCREEN_CHUNK rows
    at a time so that memory stays flat at any degree."""
    for rows in _rows(degree, height):
        rows = rows[_representatives(rows)]
        rows = rows[_prefilter_keeps(rows.astype(float), theta)]
        for row, orders in zip(rows.tolist(), _cyclotomic_divisors(rows)):
            if next(orders, None) is None:
                yield Polynomial(row)


@lru_cache(maxsize=16)
def _theta_powers(theta: float, width: int) -> tuple[tuple[int, int, int], ...]:
    """(lo, hi, f) for k = 0..PROVED_SCREEN_DEPTH, with lo 2^f <= theta^(2^k)
    <= hi 2^f: theta at ``width`` fixed-point bits, rounded down and up,
    then squared once per step with lo floored and hi ceiled to ``width``
    bits, so each interval contains the exact power."""
    lo, hi, f = fixed(theta, width), fixed(theta, width, up=True), -width
    out = []
    for _ in range(PROVED_SCREEN_DEPTH + 1):
        out.append((lo, hi, f))
        t = max(2 * hi.bit_length() - width, 0)
        lo, hi, f = lo * lo >> t, -(-hi * hi >> t), 2 * f + t
    return tuple(out)


def _proved_side(p: Polynomial, theta: float) -> int:
    """+1 when a Graeffe bracket proves M(P) > theta, -1 when one proves
    M(P) < theta, 0 when none decides by depth PROVED_SCREEN_DEPTH.

    At depth k the iterate G_k of `measure._graeffe_steps` has M(G_k) =
    M(P)^(2^k) and M(G_k) <= L2(G_k) <= 2^d M(G_k), and its coefficients lie
    within err 2^e of c_j 2^e, so with r = isqrt(sum c_j^2) and s =
    ceil(sqrt(d + 1)) err, L2(G_k) lies in [(r - s) 2^e, (r + 1 + s) 2^e].
    So M(P) > theta when (r - s) 2^(e - d) exceeds the upper end of
    theta^(2^k) (`_theta_powers`), and M(P) < theta when (r + 1 + s) 2^e is
    below its lower end.  The answer is the first of these that holds, at
    the first depth where one does, compared in integers.  The kernel width
    doubles, and the depths restart, when the carried error outgrows the
    iterate."""
    a, d = p.coeffs, p.degree
    spread = math.isqrt(d) + 1  # ceil(sqrt(d + 1))
    width = PROVED_SCREEN_WIDTH
    while True:
        steps = zip(_theta_powers(theta, width), _graeffe_steps(a, width))
        for k, ((lo, hi, f), (c, e, err)) in enumerate(steps):
            r, s = math.isqrt(sum(map(mul, c, c))), spread * err
            if exceeds(r - s, e - d, hi, f):
                return 1
            if exceeds(lo, f, r + 1 + s, e):
                return -1
            if k == PROVED_SCREEN_DEPTH:
                return 0
        width *= 2


def search_min_mahler(
    degree_cap: int,
    height: int,
    theta: float,
    precision_bits: int = 128,
) -> list[SearchRecord]:
    """Records with 1 < M(P) < theta over all even degrees up to the cap,
    sorted ascending by measure.

    Of P(x) and P(-x) only the one with a positive first nonzero odd
    coefficient (c2) is searched, rewrites Q(x^m) (c1) and polynomials with a
    cyclotomic factor are dropped: see `_representatives` and
    `polycore._cyclotomic_divisors`."""
    if degree_cap < 2:
        raise ValueError("degree cap must be >= 2")
    # the largest space first: a search over the cap fails before it starts
    _check_space(degree_cap - degree_cap % 2, height)
    found: list[tuple[Polynomial, MeasureResult]] = []
    for deg in range(2, degree_cap + 1, 2):
        for p in _screened(deg, height, theta):
            if _proved_side(p, theta) > 0:
                continue
            m = mahler(p, precision_bits)
            if m.value <= 1.0 + m.error_bound:
                continue
            if m.value >= theta:
                continue
            found.append((p, m))
    found.sort(key=lambda t: t[1].value)
    return [SearchRecord(p, m, rank) for rank, (p, m) in enumerate(found, start=1)]
