import math
import random
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlab import invariants
from cwlab.bernoulli import (
    MAX_DEGREE,
    bernoulli_coefficients,
    bernoulli_fourier_truncated,
    bernoulli_func,
    bernoulli_poly,
    frac_part,
    psi,
)


def test_low_degree_coefficients():
    assert bernoulli_coefficients(0) == (Fraction(1),)
    assert bernoulli_coefficients(1) == (Fraction(-1, 2), Fraction(1))
    assert bernoulli_coefficients(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))
    assert bernoulli_coefficients(3) == (Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1))


def test_bernoulli_numbers_at_zero():
    assert bernoulli_poly(4, 0) == Fraction(-1, 30)
    assert bernoulli_poly(6, 0) == Fraction(1, 42)
    assert bernoulli_poly(8, 0) == Fraction(-1, 30)


@pytest.mark.parametrize("j", range(1, 13))
def test_derivative_recurrence_exact(j):
    # differentiating B_j coefficientwise gives j * B_{j-1} exactly
    coeffs = bernoulli_coefficients(j)
    deriv = tuple(i * c for i, c in enumerate(coeffs) if i >= 1)
    expected = tuple(j * c for c in bernoulli_coefficients(j - 1))
    assert deriv == expected


@pytest.mark.parametrize("j", range(1, 13))
def test_integral_zero_exact(j):
    coeffs = bernoulli_coefficients(j)
    assert sum(c / (i + 1) for i, c in enumerate(coeffs)) == 0


def test_poly_examples():
    assert bernoulli_poly(0, 7.3) == 1.0
    assert bernoulli_poly(1, 0.5) == 0.0
    assert bernoulli_poly(2, 0) == Fraction(1, 6)


def test_degree_cap():
    bernoulli_coefficients(MAX_DEGREE)
    with pytest.raises(ValueError):
        bernoulli_coefficients(MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        bernoulli_poly(-1, 0.5)


def test_psi_examples():
    assert psi(3) == Fraction(-1, 2)
    assert psi(2.5) == 0.0
    assert psi(Fraction(10, 3)) == Fraction(-1, 6)
    assert psi(-0.25) == 0.25          # -0.25 - floor(-0.25) - 1/2
    # ints and Fractions are read directly; other exact types go through Fraction
    for x, want in ((True, Fraction(-1, 2)), (np.int64(-7), Fraction(-1, 2)), (Decimal("10.25"), Fraction(-1, 4))):
        got = psi(x)
        assert got == want and type(got) is Fraction, x


def test_psi_range():
    rng = random.Random(7)
    for _ in range(1000):
        v = psi(rng.uniform(-50, 50))
        assert -0.5 <= v < 0.5


def test_psi_exact_and_array():
    rng = random.Random(11)
    for _ in range(1000):
        x = Fraction(rng.randrange(-10**30, 10**30), rng.randrange(1, 10**12))
        assert psi(x) == x - math.floor(x) - Fraction(1, 2)
    t = np.array([rng.uniform(-1e12, 1e12) for _ in range(1000)] + [-0.25, 2.5, 3.0])
    assert psi(t).tolist() == [psi(float(v)) for v in t]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**62, 2**62), st.integers(1, 2**40)), min_size=1, max_size=40))
def test_psi_pair_matches_fraction(pairs):
    # psi(num, den) is the exact psi(num / den) as an unreduced pair, on ints and on int64 arrays
    want = [psi(Fraction(num, den)) for num, den in pairs]
    assert [Fraction(*psi(num, den)) for num, den in pairs] == want
    nums, dens = psi(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    assert nums.dtype == dens.dtype == np.int64
    assert [Fraction(int(n), int(d)) for n, d in zip(nums, dens)] == want


def test_frac_part():
    assert frac_part(Fraction(-7, 2)) == Fraction(1, 2)
    assert frac_part(3) == 0
    assert frac_part(2.75) == 0.75


def test_bernoulli_func_examples():
    assert bernoulli_func(1, 7.25) == -0.25
    assert bernoulli_func(2, 5) == Fraction(1, 6)
    assert bernoulli_func(2, Fraction(1, 2)) == Fraction(-1, 12)
    with pytest.raises(ValueError):
        bernoulli_func(0, 0.5)


def test_periodicity():
    invariants.bernoulli_periodicity(random.Random(11), 10_000)


def test_recurrence_by_finite_differences():
    invariants.bernoulli_recurrence(random.Random(13), 500)


@pytest.mark.parametrize("j", range(1, 7))
def test_simpson_quadrature(j):
    invariants.bernoulli_integral(j, 10_000)


def test_fourier_single_term():
    # j=2, t=1/2, M=1: the m = +-1 pair gives -(2!/(2 pi i)^2) * (-2) = -1/pi^2,
    # consistent with B_2(1/2) = -1/12 which the partial sums approach
    got = bernoulli_fourier_truncated(2, 0.5, 1)
    assert got == pytest.approx(-1 / math.pi**2, abs=1e-15)


def test_fourier_limit_at_zero():
    # partial sums at t=0 approach B_2(0) = 1/6
    got = bernoulli_fourier_truncated(2, 0.0, 10_000)
    assert abs(got - 1 / 6) <= 2e-5


def test_fourier_vs_polynomial_oracle():
    got = bernoulli_fourier_truncated(3, 0.25, 10_000)
    assert abs(got - float(bernoulli_func(3, Fraction(1, 4)))) <= 1e-3


def test_fourier_convergence_random():
    invariants.bernoulli_fourier(random.Random(17), (2, 3, 4, 5), 1000, 10_000)


def test_fourier_stops_where_the_power_overflows():
    # m**64 passes float64 from m = 2**16 on, where the term is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bernoulli_fourier_truncated(64, 0.3, 10**5)
    assert got == bernoulli_fourier_truncated(64, 0.3, 2**16 - 1)
    assert got == pytest.approx(float(bernoulli_func(64, Fraction(3, 10))), rel=1e-12)


def test_fourier_rejects_conditional_convergence():
    with pytest.raises(ValueError):
        bernoulli_fourier_truncated(1, 0.3, 100)
    with pytest.raises(ValueError):
        bernoulli_fourier_truncated(2, 0.3, 0)


def test_degrees_and_orders_are_counts():
    # a degree or truncation order passes require_count: a bool is not read as
    # j = 1, a float is no bare TypeError, and a float order is not summed
    for call in (lambda v: bernoulli_coefficients(v), lambda v: bernoulli_func(v, 0.3),
                 lambda v: bernoulli_fourier_truncated(v, 0.3, 3)):
        for bad in (True, 2.5, np.int64(2)):
            with pytest.raises(ValueError, match="^degree must be an integer"):
                call(bad)
    for bad in (True, 3.5, np.int64(3)):
        with pytest.raises(ValueError, match="^truncation order must be an integer"):
            bernoulli_fourier_truncated(2, 0.3, bad)


def test_concurrent_memo_initialization():
    # first-writer-wins under concurrent cold-cache access
    import threading

    import cwlab.bernoulli as b

    with b._coeff_lock:
        saved = dict(b._coeff_cache)
        b._coeff_cache.clear()
        b._coeff_cache[0] = (Fraction(1),)
    try:
        results = [None] * 16
        def worker(i):
            results[i] = bernoulli_coefficients(40)
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)
        assert results[0][0] == bernoulli_poly(40, 0)
    finally:
        with b._coeff_lock:
            b._coeff_cache.update(saved)
