import contextlib
import hashlib
import io
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from cwlab import invariants
from cwlab.asymptotics import (
    absorption_threshold,
    error_exponent,
    euler_gamma,
    euler_maclaurin_partial_sum,
    main_term_root_restricted,
    main_term_sqrt_restricted,
    restricted_model,
    root_restricted_model,
    sqrt_restricted_model,
)
from cwlab.cli import main
from cwlab.divisors import DivisorSpec, integer_root
from cwlab.summatory import summatory_fast


def test_gamma_cross_check():
    invariants.gamma_cross_check()


def test_theta_constants():
    assert error_exponent(0) == Fraction(517, 1648)
    assert error_exponent(1) == Fraction(1341, 1648)
    assert error_exponent(1, cw=True) == Fraction(3, 4)
    assert error_exponent(0, cw=True) == Fraction(1, 4)
    with pytest.raises(ValueError):
        error_exponent(-1)


def test_theta_monotone_and_ordering():
    invariants.theta_order()


def test_absorption_threshold():
    assert absorption_threshold(cw=True) == Fraction(3, 2)
    assert absorption_threshold() == Fraction(1131, 824)
    # defining equation: theta at the threshold is exactly 1
    assert error_exponent(absorption_threshold(True), cw=True) == 1
    assert error_exponent(absorption_threshold(False), cw=False) == 1


def test_corollary_coefficients_exact():
    # alpha=1: the two x-terms merge to -1/4, leading term 2/3 x^(3/2)
    model = sqrt_restricted_model(1)
    coeffs = {(t.exponent, t.with_log): t.coeff for t in model.terms}
    assert coeffs == {
        (Fraction(3, 2), False): Fraction(2, 3),
        (Fraction(1), False): Fraction(-1, 4),
    }
    assert model.theta == Fraction(1341, 1648)
    assert sqrt_restricted_model(1, cw=True).theta == Fraction(3, 4)


def test_alpha0_model_at_e_squared():
    # (1/2) x log x + (gamma - 1/2) x + (1/2) sqrt(x) at x = e^2
    with mp.workdps(50):
        x = mp.e**2
        got = main_term_sqrt_restricted(x, 0)
        expected = x * (euler_gamma() + mp.mpf(1) / 2) + mp.e / 2
        assert abs(got - expected) < mp.mpf("1e-40")


def test_root_model_coefficients():
    for a in (3, 4, 7):
        model = root_restricted_model(1, a)
        coeffs = {t.exponent: t.coeff for t in model.terms}
        assert coeffs[1 + Fraction(1, a)] == Fraction(a, a + 1)
        assert coeffs[Fraction(1)] == Fraction(-1, 2)
    assert root_restricted_model(0, 3).theta == Fraction(1, 3)
    assert root_restricted_model(2, 4).theta == 1
    with pytest.raises(ValueError):
        root_restricted_model(1, 2)
    with pytest.raises(ValueError):
        main_term_root_restricted(100, -1, 3)


def test_restricted_model_is_both_builders():
    for alpha in (0, 0.0, 1, Fraction(1, 2), 2.5):
        for cw in (False, True):
            assert restricted_model(alpha, 2, cw) == sqrt_restricted_model(alpha, cw)
            assert restricted_model(alpha, 3, cw) == root_restricted_model(alpha, 3)
    assert restricted_model(1) == sqrt_restricted_model(1)
    for a in (1, 0, 2.0, True):
        with pytest.raises(ValueError):
            restricted_model(1, a)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_restricted_model_rejects_non_finite(bad):
    for a in (2, 3):
        with pytest.raises(ValueError, match="finite"):
            restricted_model(bad, a)
        with pytest.raises(ValueError, match="finite"):
            restricted_model(1, a).evaluate(bad)
    with pytest.raises(ValueError, match="finite"):
        error_exponent(bad)
    for x in (0, -5):  # log x is -inf or complex there
        with pytest.raises(ValueError, match="> 0"):
            restricted_model(1).evaluate(x)


def test_model_terms_strictly_decreasing():
    for model in (
        sqrt_restricted_model(0),
        sqrt_restricted_model(Fraction(1, 2)),
        sqrt_restricted_model(2),
        root_restricted_model(0, 3),
        root_restricted_model(2, 5),
    ):
        keys = [(t.exponent, t.with_log) for t in model.terms]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)


def test_em_harmonic():
    exact = math.fsum(1.0 / d for d in range(1, 1001))
    approx = float(euler_maclaurin_partial_sum(10**6, 2, -1))
    assert abs(exact - approx) <= 1e-5


def test_em_harmonic_error_decay():
    # error is O(x^(-2/a)): comfortably below 10/x across the grid
    invariants.em_harmonic_error()


def test_em_perfect_square_beta1():
    # psi(sqrt x) = -1/2 exactly: value is x/2 + sqrt(x)/2 - 1/8
    x = 1000**2
    got = euler_maclaurin_partial_sum(x, 2, 1)
    with mp.workdps(50):
        assert abs(got - (mp.mpf(x) / 2 + mp.mpf(1000) / 2 - mp.mpf(1) / 8)) < mp.mpf("1e-35")


def test_em_beta1_residual_window():
    invariants.em_residual_window(random.Random(71), 500)


def test_em_rational_a_and_beta_at_working_precision():
    # Fraction a and beta are not rounded to floats: against the closed form
    # at 80 digits the 50-digit value is right far past double precision
    x = 10**12
    for a in (Fraction(4, 3), Fraction(5, 3), Fraction(7, 5)):
        floor_root = integer_root(x**a.denominator, a.numerator)
        for beta in (Fraction(1), Fraction(1, 3), Fraction(-1), Fraction(0)):
            got = euler_maclaurin_partial_sum(x, a, beta)
            with mp.workdps(80):
                am, b, xm = mp.mpf(a.numerator) / a.denominator, mp.mpf(beta.numerator) / beta.denominator, mp.mpf(x)
                root = xm ** (1 / am)
                psi_root = root - floor_root - mp.mpf(1) / 2
                if beta == -1:
                    want = mp.log(xm) / am + mp.euler - psi_root / root
                else:
                    want = (xm ** ((b + 1) / am) / (b + 1) - psi_root * xm ** (b / am)
                            + mp.mpf(1) / 2 - b / 8 - 1 / (b + 1))
                assert abs(got - want) <= mp.mpf("1e-45") * abs(want), (a, beta)


def test_em_rejects_bad_beta():
    with pytest.raises(ValueError):
        euler_maclaurin_partial_sum(100, 2, -1.5)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_em_rejects_non_finite(bad):
    for name, args in (("x", (bad, 2, 1)), ("a", (100, bad, 1)), ("beta", (100, 2, bad))):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            euler_maclaurin_partial_sum(*args)


def test_iannucci_baseline_residual_linear():
    # exact summatory minus (2/3) x^(3/2) stays O(x): ratio bounded
    spec = DivisorSpec(2, 1)
    for e in range(2, 8):
        x = 10**e
        exact = summatory_fast(x, spec).total
        with mp.workdps(50):
            resid = mp.mpf(exact) - mp.mpf(2) / 3 * mp.power(x, mp.mpf(3) / 2)
            assert abs(resid) / x <= 1


# Bit-for-bit gate on the main-term models: a SHA-256 over the repr of every
# model's terms, theta and assumes_cw plus its 45-digit value at MODEL_X, for
# exact, Fraction and float alpha (0 and 0.0 included) at a = 2 (both cw) and
# a = 3, 4, 5, 7, and over `cwlab asympt` CSV and JSON output, which prints
# the exponents as text (x^1 for exact alpha, x^1.0 for float alpha).
MODEL_SHA256 = "76acdb5d34469d6b2ba244c1b71ddd56a0f51ecd8397ce4c58a69db2683d3b1b"
MODEL_ITEMS = 80
MODEL_X = 12345678901
MODEL_ALPHAS = (0, 1, 2, 3, Fraction(1, 2), Fraction(7, 3), 0.0, 0.5, 1.0, 2.5, 3.0)
ASYMPT_ARGS = tuple(
    [*alpha, *fmt]
    for alpha in (["--alpha", "0"], ["--alpha", "1"], ["--alpha", "1.0"], ["--alpha", "0.0"],
                  ["--alpha", "1/2"], ["--alpha", "3/2", "--cw", "true"], ["--a", "3", "--alpha", "2.5"])
    for fmt in ([], ["--format", "json"])
)


def model_items():
    models = [sqrt_restricted_model(alpha, cw) for alpha in MODEL_ALPHAS for cw in (False, True)]
    models += [root_restricted_model(alpha, a) for a in (3, 4, 5, 7) for alpha in MODEL_ALPHAS]
    for model in models:
        with mp.workdps(60):
            yield repr((model.terms, model.theta, model.assumes_cw, mp.nstr(model.evaluate(MODEL_X), 45)))
    for args in ASYMPT_ARGS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["asympt", "--x", str(MODEL_X), *args]) == 0
        yield out.getvalue()


def test_model_outputs_hash():
    h, count = hashlib.sha256(), 0
    for item in model_items():
        h.update(item.encode())
        count += 1
    assert (h.hexdigest(), count) == (MODEL_SHA256, MODEL_ITEMS)
