"""Exact arithmetic on dyadic numbers m 2^e, m and e ints, and the rounding
between them and floats that every proof rests on: each conversion, in ints,
is exact, correctly rounded or rounded outward as the bound being proved
needs (Moore, Interval Analysis, 1966).  A fixed-point int m at G bits is
m 2^-G, and a centre (xm, ym, e) is (xm + i ym) 2^e, as on `Root.centre`."""
from __future__ import annotations

import math
import sys


def exceeds(x: int, a: int, y: int, b: int) -> bool:
    """x 2^a > y 2^b, exactly."""
    return (x << a - b if a > b else x) > (y << b - a if b > a else y)


def round_shift(x: int, n: int) -> int:
    """x 2^n rounded to an int, half to even, n of either sign."""
    if n >= 0:
        return x << n
    q, r = x >> -n, x & (1 << -n) - 1  # q floored, so 0 <= r < 2^-n; a tie goes up from an odd q
    return q + (2 * r + (q & 1) > 1 << -n)


def fixed(f, G: int, up: bool = False) -> int:
    """The float, int or Fraction f at G fixed-point bits, f 2^G, rounded
    down to an int, or up when ``up``; G of either sign."""
    n, q = f.as_integer_ratio()
    n, q = (n << G, q) if G >= 0 else (n, q << -G)
    return -(-n // q) if up else n // q


def float_nearest(m: int, e: int) -> float:
    """m 2^e rounded to the nearest float, half to even: subnormals
    included, +-0.0 below the float range and +-inf above it."""
    try:
        return m / (1 << -e) if e <= 0 else float(m << e)  # correctly rounded
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def float_up(m: int, e: int) -> float:
    """m 2^e rounded up to a float, m of either sign; inf above the float
    range.  So -float_up(-m, e) is m 2^e rounded down."""
    f = max(float_nearest(m, e), -sys.float_info.max)
    # inf stays inf: m 2^e then exceeds the largest float
    n, q = min(f, sys.float_info.max).as_integer_ratio()  # q is a power of two
    return math.nextafter(f, math.inf) if exceeds(m, e, n, 1 - q.bit_length()) else f


def as_centre(c) -> tuple[int, int, int]:
    """The int, float or complex ``c`` exactly as a centre (xm, ym, e), c =
    (xm + i ym) 2^e: the denominators of a float are powers of two."""
    if isinstance(c, int):
        return c, 0, 0
    c = complex(c)
    (xn, xq), (yn, yq) = c.real.as_integer_ratio(), c.imag.as_integer_ratio()
    q = max(xq, yq)
    return xn * (q // xq), yn * (q // yq), 1 - q.bit_length()


def centre_sub(a, b) -> tuple[int, int, int]:
    """The centre a - b, exactly, of two centres (xm, ym, e)."""
    (ax, ay, ae), (bx, by, be) = a, b
    e = min(ae, be)
    return (ax << ae - e) - (bx << be - e), (ay << ae - e) - (by << be - e), e


def modulus_bounds(centre, rho: float, G: int) -> tuple[int, int]:
    """Fixed-point ints (lo, hi) at G bits with lo <= 2^G |zeta| <= hi for
    every zeta in the disk |zeta - z| <= rho about the ``centre`` z: the
    exact squared modulus, its square root rounded down and up, then
    ceil(rho 2^G) taken from lo and added to hi."""
    x, y, e = centre
    # 2^G |z| = sqrt(s 2^(2e + 2G)) = sqrt(s 2^(2e + 2G + 2t)) 2^-t
    t = max(-e - G, 0)
    s = (x * x + y * y) << 2 * (e + G + t)
    lo = math.isqrt(s)
    hi = lo + (lo * lo != s)
    r = fixed(rho, G, up=True)
    return (lo >> t) - r, -(-hi >> t) + r


def gap_up(lo: int, hi: int, e: int, f: float) -> float:
    """The distance from the float f to the further end of the exact interval
    [lo 2^e, hi 2^e], rounded up to a float."""
    n, q = f.as_integer_ratio()  # q is a power of two
    k = min(e, 1 - q.bit_length())
    n, lo, hi = n << 1 - q.bit_length() - k, lo << e - k, hi << e - k
    return float_up(max(n - lo, hi - n), k)
