"""Bernoulli polynomials, periodic Bernoulli functions, and the sawtooth psi.

The polynomials B_j are generated by the exact-rational recurrence

    B_0(x) = 1,   (d/dx) B_j(x) = j * B_{j-1}(x),   integral_0^1 B_j = 0,

so every coefficient is a Fraction and the defining properties are exactly
testable.  The periodic functions B_j({x}) drive the Chowla-Walum sums; the
first one is the sawtooth psi(x) = x - floor(x) - 1/2.

Evaluation is exact whenever the argument is an int or Fraction; psi also
takes a numerator and a denominator, ints or integer arrays, and returns the
exact sawtooth as an unreduced (numerator, denominator) pair.  Float
arguments are converted to their exact binary rational, evaluated by the
same Horner scheme, and rounded once at the end.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from fractions import Fraction

import numpy as np

from .divisors import integer_root, require_count

MAX_DEGREE = 64

_coeff_cache: dict[int, tuple[Fraction, ...]] = {0: (Fraction(1),)}
_coeff_lock = threading.Lock()


def bernoulli_coefficients(j: int) -> tuple[Fraction, ...]:
    """Coefficients of B_j in ascending powers, as exact Fractions.

    Memoized; the cache is guarded by a lock so concurrent first calls are
    safe (first writer wins, all writers agree).
    """
    require_count("degree", j, 0)
    if j > MAX_DEGREE:
        raise ValueError(f"degree capped at {MAX_DEGREE}, got {j}")
    got = _coeff_cache.get(j)
    if got is not None:
        return got
    with _coeff_lock:
        for deg in range(1, j + 1):
            if deg in _coeff_cache:
                continue
            prev = _coeff_cache[deg - 1]
            # antiderivative of deg*B_{deg-1}; constant fixed by integral = 0
            body = [Fraction(0)] + [deg * c / (i + 1) for i, c in enumerate(prev)]
            const = -sum(c / (i + 1) for i, c in enumerate(body) if i >= 1)
            body[0] = const
            _coeff_cache[deg] = tuple(body)
        return _coeff_cache[j]


@functools.cache
def _scaled_coefficients(j: int) -> tuple[int, tuple[int, ...]]:
    """(den_c, c): den_c * B_j as integer coefficients c, den_c their least common denominator."""
    coeffs = bernoulli_coefficients(j)
    den_c = math.lcm(*(b.denominator for b in coeffs))
    return den_c, tuple(int(b * den_c) for b in coeffs)


def _horner(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def bernoulli_poly(j: int, x):
    """B_j(x).  Exact Fraction for int/Fraction x, float for float x."""
    coeffs = bernoulli_coefficients(j)
    if isinstance(x, float):
        return float(_horner(coeffs, Fraction(x)))
    return _horner(coeffs, Fraction(x))


def psi(x, den=None):
    """Sawtooth psi(x) = x - floor(x) - 1/2, in [-1/2, 1/2).

    Exact (Fraction) for int/Fraction input, elementwise on a float array,
    float otherwise.  With den, psi(x / den) for integers or integer arrays
    x and den > 0, exactly, as the unreduced pair
    (2 (x mod den) - den, 2 den): no intermediate exceeds 2 den in absolute
    value, so int64 arrays with den < 2**62 cannot overflow.
    """
    if den is not None:
        return 2 * (x % den) - den, 2 * den
    if isinstance(x, np.ndarray):
        return x - np.floor(x) - 0.5
    if isinstance(x, float):
        return x - math.floor(x) - 0.5
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return Fraction(*psi(x.numerator, x.denominator))


def frac_part(x):
    """Fractional part {x} in [0, 1); exact for int/Fraction input."""
    if isinstance(x, float):
        return x - math.floor(x)
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def bernoulli_func(j: int, x):
    """Periodic Bernoulli function B_j({x}); B_1({x}) coincides with psi(x)."""
    require_count("degree", j, 1)
    if j == 1:
        return psi(x)
    return bernoulli_poly(j, frac_part(x))


def bernoulli_fourier_truncated(j: int, t, m_max: int) -> float:
    """Symmetric partial sum of the Fourier expansion of B_j({t}).

    Pairs the m and -m terms of  -(j!/(2 pi i)^j) * sum_{m != 0} e(m t)/m^j
    into a real cosine (even j) or sine (odd j) series:

        (-1)^(floor(j/2)+1) * 2 * j!/(2 pi)^j * sum_{m<=M} trig(2 pi m t)/m^j

    Only absolutely convergent degrees are accepted (j >= 2); the j = 1
    series converges conditionally and is out of contract.
    """
    require_count("degree", j, 2)
    if j > MAX_DEGREE:
        raise ValueError(f"degree capped at {MAX_DEGREE}, got {j}")
    require_count("truncation order", m_max, 1)
    top = sys.float_info.max  # m**j is finite up to the largest m with m**j <= top; past it the term is 0
    m = np.arange(1, (m_max if m_max**j <= top else integer_root(int(top), j)) + 1, dtype=np.float64)
    angles = (2.0 * math.pi * float(t)) * m
    trig = np.cos(angles) if j % 2 == 0 else np.sin(angles)
    series = float(np.sum(trig / m**j))
    sign = 1.0 if (j // 2) % 2 else -1.0   # (-1)^(floor(j/2)+1)
    return sign * 2.0 * math.factorial(j) / (2.0 * math.pi) ** j * series
