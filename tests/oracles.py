"""Independent checks on the root finder that the library itself never
calls: argument-principle disk counting and two residuals of a root set."""
import cmath
import math

import mpmath as mp

from mahlerlab.polycore import horner
from mahlerlab.rootfind import PrecisionError


def contour_count(p, center, radius, nodes: int = 4096) -> int:
    """Zeros inside the circle via trapezoidal integration of P'/P, snapped to
    the nearest integer with a residue check.  Node count escalates up to 32x
    when a root close to the contour spoils the quadrature."""
    dp = p.derivative()
    fc = [complex(c) for c in p.coeffs]
    fdc = [complex(c) for c in dp.coeffs]
    c0 = complex(center)
    n = nodes
    while True:
        total = 0j
        for k in range(n):
            t = 2 * math.pi * k / n
            z = c0 + radius * cmath.exp(1j * t)
            pv = horner(fc, z)
            if pv == 0:
                raise ValueError("zero on the contour")
            total += horner(fdc, z) / pv * 1j * radius * cmath.exp(1j * t)
        total *= 2 * math.pi / n / (2j * math.pi)
        count = round(total.real)
        if abs(total - count) <= 0.1:
            return count
        if n >= nodes * 32:
            raise PrecisionError(
                f"contour integral {total} too far from an integer at {n} nodes"
            )
        n *= 4


def vieta_residual(rs) -> float:
    """| prod roots - (-1)^d a0/ad | relative to max(|a0/ad|, 1); zero roots
    are exact, so a0 != 0 whenever the product is compared."""
    p = rs.polynomial
    with mp.workprec(rs.precision_bits + 32):
        prod = mp.mpc(1)
        for r in rs.roots:
            prod *= r.value ** r.multiplicity
        target = mp.mpf((-1) ** p.degree) * (
            mp.mpf(p[0].numerator) / p[0].denominator
        ) / (mp.mpf(p.coeffs[-1].numerator) / p.coeffs[-1].denominator)
        denom = max(abs(target), mp.mpf(1))
        return float(abs(prod - target) / denom)


def reconstruction_residual(rs) -> float:
    """Max relative coefficient error of lead * prod (x - root) vs input,
    each root repeated according to its multiplicity."""
    p = rs.polynomial
    with mp.workprec(rs.precision_bits + 32):
        coeffs = [mp.mpc(1)]
        for r in rs.roots:
            for _ in range(r.multiplicity):
                new = [mp.mpc(0)] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    new[i + 1] += c
                    new[i] -= c * r.value
                coeffs = new
        lead = mp.mpf(p.coeffs[-1].numerator) / p.coeffs[-1].denominator
        scale = max(abs(mp.mpf(c.numerator) / c.denominator) for c in p.coeffs)
        worst = mp.mpf(0)
        for j, c in enumerate(coeffs):
            exact = mp.mpf(p[j].numerator) / p[j].denominator
            worst = max(worst, abs(lead * c - exact))
        return float(worst / scale)
