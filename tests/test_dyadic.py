"""The dyadic layer against exact Fraction arithmetic, on seeded ints of both
signs at exponents and fixed-point scales of both signs."""
import math
import random
import sys
from fractions import Fraction

from mahlerlab import dyadic

MAX = sys.float_info.max


def _value(m, e):
    return Fraction(m) * Fraction(2) ** e


def _ints(rng, count=300, bits=300):
    """Seeded ints of both signs and of every length up to ``bits``, with 0."""
    out = [0, 1, -1]
    for _ in range(count):
        out.append(rng.getrandbits(rng.randint(1, bits)) * rng.choice((1, -1)))
    return out


def _floats(rng, count=300):
    """Seeded floats of both signs: normal, subnormal, integral and huge."""
    out = [0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, 1.0, -2.5]
    for _ in range(count):
        f = math.ldexp(rng.random() + 0.5, rng.randint(-1100, 1023))
        out.append(f * rng.choice((1, -1)))
    return out


def _up(x: Fraction) -> float:
    """The least float >= x; inf above the float range."""
    try:
        f = float(x)  # correctly rounded
    except OverflowError:
        return math.inf if x > 0 else -MAX
    if f == -math.inf:
        return -MAX
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


def test_exceeds_is_the_exact_comparison():
    rng = random.Random(31)
    ints = _ints(rng, 200)
    for x in ints:
        y, a, b = rng.choice(ints), rng.randint(-400, 400), rng.randint(-400, 400)
        assert dyadic.exceeds(x, a, y, b) == (_value(x, a) > _value(y, b)), (x, a, y, b)
        # equal values written two ways
        k = rng.randint(0, 50)
        assert not dyadic.exceeds(x << k, a - k, x, a)
        assert not dyadic.exceeds(x, a, x << k, a - k)


def test_round_shift_rounds_half_to_even():
    rng = random.Random(32)
    cases = [(x, rng.randint(-320, 40)) for x in _ints(rng)]
    # exact ties, half of them above an odd quotient, of both signs
    for _ in range(200):
        k = rng.randint(1, 60)
        x = (rng.getrandbits(80) << k | 1 << k - 1) * rng.choice((1, -1))
        cases.append((x, -k))
    cases += [(1, -1), (3, -1), (-1, -1), (-3, -1), (5, -2), (-5, -2), (6, -2), (-6, -2)]
    for x, n in cases:
        assert dyadic.round_shift(x, n) == round(_value(x, n)), (x, n)


def test_fixed_floors_and_ceils_at_either_scale():
    rng = random.Random(33)
    values = _floats(rng) + _ints(rng, 50) + [Fraction(-7, 3), Fraction(22, 7), Fraction(1, 10 ** 30)]
    for f in values:
        for G in (0, 1, -1, rng.randint(2, 1200), -rng.randint(2, 1200)):
            exact = Fraction(f) * Fraction(2) ** G
            assert dyadic.fixed(f, G) == math.floor(exact), (f, G)
            assert dyadic.fixed(f, G, up=True) == math.ceil(exact), (f, G)


def test_floats_nearest_up_and_down():
    rng = random.Random(34)
    cases = [(m, rng.randint(-1300, 1100)) for m in _ints(rng, 400, 200)]
    cases += [(1, -1074), (1, -1075), (3, -1076), (-3, -1076), ((1 << 53) + 1, -53),
              ((1 << 1024) - 1, 0), (1 << 1024, 0), (-(1 << 1024), 0), (1, 2000)]
    for m, e in cases:
        x = _value(m, e)
        try:
            nearest = float(x)
        except OverflowError:
            nearest = math.inf if x > 0 else -math.inf
        assert dyadic.float_nearest(m, e) == nearest, (m, e)
        assert dyadic.float_up(m, e) == _up(x), (m, e)
        assert -dyadic.float_up(-m, e) == -_up(-x), (m, e)  # rounded down


def test_centres_are_exact():
    rng = random.Random(35)
    floats = _floats(rng, 100)
    for c in _ints(rng, 50) + floats + [complex(a, b) for a, b in zip(floats, reversed(floats))]:
        x, y, e = dyadic.as_centre(c)
        want = (Fraction(c), 0) if isinstance(c, int) else (Fraction(c.real), Fraction(c.imag))
        assert (_value(x, e), _value(y, e)) == want, c
    ints = _ints(rng, 100)
    for _ in range(200):
        a = (rng.choice(ints), rng.choice(ints), rng.randint(-300, 300))
        b = (rng.choice(ints), rng.choice(ints), rng.randint(-300, 300))
        x, y, e = dyadic.centre_sub(a, b)
        assert _value(x, e) == _value(a[0], a[2]) - _value(b[0], b[2])
        assert _value(y, e) == _value(a[1], a[2]) - _value(b[1], b[2])


def test_modulus_bounds_hold_every_point_of_the_disk():
    rng = random.Random(36)
    ints = _ints(rng, 100, 200)
    for _ in range(400):
        x, y, e = rng.choice(ints), rng.choice(ints), rng.randint(-400, 300)
        rho = rng.choice([0.0, 5e-324, math.ldexp(rng.random(), rng.randint(-300, 300))])
        G = rng.choice([0, rng.randint(1, 400), -rng.randint(1, 400)])
        lo, hi = dyadic.modulus_bounds((x, y, e), rho, G)
        s = (x * x + y * y) * Fraction(2) ** (2 * (e + G))  # (2^G |z|)^2
        r = Fraction(rho) * Fraction(2) ** G
        # lo <= 2^G (|z| - rho) and 2^G (|z| + rho) <= hi, each off by under
        # one unit for the square root and one for the radius
        assert lo + r <= 0 or (lo + r) ** 2 <= s, (x, y, e, rho, G)
        assert hi - r >= 0 and (hi - r) ** 2 >= s, (x, y, e, rho, G)
        assert hi - lo <= 2 * r + 4, (x, y, e, rho, G)


def test_gap_up_is_the_distance_to_the_further_end_rounded_up():
    rng = random.Random(37)
    floats = _floats(rng, 200)
    ints = _ints(rng, 200, 200)
    for m in ints:
        e, f = rng.randint(-1200, 900), rng.choice(floats)
        assert dyadic.gap_up(m, m, e, f) == _up(abs(_value(m, e) - Fraction(f))), (m, e, f)
        lo, hi = sorted((m, rng.choice(ints)))
        far = max(abs(_value(lo, e) - Fraction(f)), abs(_value(hi, e) - Fraction(f)))
        assert dyadic.gap_up(lo, hi, e, f) == _up(far), (lo, hi, e, f)
    # a float inside the interval, nearer one end
    assert dyadic.gap_up(0, 8, -2, 0.5) == 1.5 and dyadic.gap_up(0, 8, -2, 1.75) == 1.75
