"""Acceptance gate: every criterion at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  A1, A2, A6, A7, A8 are exact; A3-A5, A9, A10 are slope or
tolerance bounds with their slack fixed here, not calibrated after the fact.
"""

import random
import time
from fractions import Fraction

from mpmath import mp

from cwlab import invariants
from cwlab.asymptotics import absorption_threshold, error_exponent, root_restricted_model, sqrt_restricted_model
from cwlab.divisors import DivisorSpec
from cwlab.experiments import DEFAULT_GRID, cw_slope_test, fit_loglog, residual_series
from cwlab.exponent_pairs import (
    BOURGAIN_SEED,
    ExponentPair,
    apply_word,
    gsum_exponent_bound,
    settled_a_range,
)

F = Fraction


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_a1_oracle_equivalence_exact():
    """A1: fast total == brute-force total, exact, 9 specs, x <= 1e4 + random 1e7."""
    t0 = time.perf_counter()
    # 1000 random points: covers the stated 200 and the module-level
    # invariant's 10^3 sample in one sweep
    invariants.oracle_equivalence(random.Random(20240), 10**7, 10**4, 1000)
    elapsed = time.perf_counter() - t0
    report("A1", elapsed < 300, f"{9 * (10**4 + 1000)} exact equalities across 9 specs in {elapsed:.0f}s")


def test_a2_tau_tilde_identity_exact():
    """A2: sigma_{2,0}(n) == (tau(n) + square(n))/2 for every n <= 1e6."""
    t0 = time.perf_counter()
    # the sweep, tied to the per-n operations on a sample of 500 n
    invariants.tau_tilde_identity(random.Random(20241), 10**6, 500)
    elapsed = time.perf_counter() - t0
    report("A2", elapsed < 60, f"identity holds for all n <= 1e6 in {elapsed:.0f}s")


def test_a3_corollary_alpha1_residual():
    """A3: residual vs (2/3)x^(3/2) - x/4: slope <= 0.88, |E| <= 10 x^0.88."""
    t0 = time.perf_counter()
    series = residual_series(DivisorSpec(2, 1), sqrt_restricted_model(1), DEFAULT_GRID)
    fit = fit_loglog(series)
    pointwise = all(abs(p.residual) <= 10 * mp.power(p.x, mp.mpf("0.88")) for p in series)
    # advisory stability guard: dropping the largest point should move the
    # slope by < 0.1 for a stable fit (warn, do not fail)
    trimmed = fit_loglog(series[:-1])
    if abs(fit.slope - trimmed.slope) >= 0.1:
        import warnings

        warnings.warn(f"A3 fit unstable: slope moves {fit.slope - trimmed.slope:+.3f} "
                      "when the largest grid point is dropped")
    elapsed = time.perf_counter() - t0
    ok = fit.slope <= 0.88 and pointwise and elapsed < 600
    report("A3", ok, f"slope {fit.slope:.4f} <= 0.88, pointwise bound {pointwise}, {elapsed:.0f}s")


def test_a4_alpha0_residual():
    """A4: residual vs (1/2)x log x + (gamma-1/2)x + sqrt(x)/2: slope <= 0.40."""
    series = residual_series(DivisorSpec(2, 0), sqrt_restricted_model(0), DEFAULT_GRID)
    fit = fit_loglog(series)
    report("A4", fit.slope <= 0.40, f"slope {fit.slope:.4f} <= 0.40")


def test_a5_root3_residuals():
    """A5: a=3 residual slopes <= 0.45 (alpha=0) and <= 0.79 (alpha=1)."""
    fit0 = fit_loglog(residual_series(DivisorSpec(3, 0), root_restricted_model(0, 3), DEFAULT_GRID))
    fit1 = fit_loglog(residual_series(DivisorSpec(3, 1), root_restricted_model(1, 3), DEFAULT_GRID))
    ok = fit0.slope <= 0.45 and fit1.slope <= 0.79
    report("A5", ok, f"slopes {fit0.slope:.4f} <= 0.45, {fit1.slope:.4f} <= 0.79")


def test_a6_em_residual_window_exact():
    """A6: sum_{d<=sqrt x} d minus the Euler-Maclaurin value lies in [0, 1/8].

    The exact residual is psi(sqrt x)^2 / 2 (expand sqrt x = D + phi), so the
    window is tight at both ends.
    """
    invariants.em_residual_window(random.Random(20246), 1000)
    report("A6", True, "1000 residuals equal psi(sqrt x)^2 / 2, inside [0, 1/8]")


def test_a7_exponent_pair_chain_exact():
    """A7: transform chains, bound constants, and settled range, all exact."""
    t0 = time.perf_counter()
    ok = apply_word("BA^2", BOURGAIN_SEED) == ExponentPair(F(76, 207), F(110, 207))
    ok &= apply_word("BA", BOURGAIN_SEED) == ExponentPair(F(55, 194), F(55, 97))
    b1 = gsum_exponent_bound(apply_word("BA^2", BOURGAIN_SEED), 1)
    ok &= (b1.primary_const, b1.primary_inv_a) == (F(76, 283), F(34, 283))
    b2 = gsum_exponent_bound(apply_word("BA", BOURGAIN_SEED), 2)
    ok &= (b2.primary_const, b2.primary_inv_a) == (F(55, 194), F(0))
    ok &= settled_a_range(apply_word("BA", BOURGAIN_SEED)) == (F(3, 2), F(97, 55))
    elapsed = time.perf_counter() - t0
    report("A7", ok and elapsed < 1, f"chains + constants exact in {elapsed*1000:.0f}ms")


def test_a8_theta_constants_exact():
    """A8: theta(1) = 1341/1648 and absorption threshold = 1131/824, exact."""
    ok = error_exponent(1, cw=False) == F(1341, 1648)
    ok &= absorption_threshold(cw=False) == F(1131, 824)
    report("A8", ok, "1341/1648 and 1131/824 exact")


def test_a9_cw_support_alpha1_j2():
    """A9 (first bound): slope of log|G_{2,1,2}| over the default grid <= 0.85.

    Known red: the measurement is deterministic and exceeds the bound by
    ~0.005 at exactly this grid depth (0.8547; independently verified exact
    G values).  Pointwise, |G| stays more than 20x below x^(3/4) across the
    whole grid.  Over GridSpec(10_000, 2.0, c) the fitted slope peaks near
    this depth (c = 23..28: 0.8501, 0.8538, 0.8547, 0.8520, 0.8456, 0.8353)
    and drops back under 0.85 only for grids three or more octaves
    shallower (c <= 22) or two or more deeper (c >= 27); the bound as
    stated is miscalibrated for this window.  Kept faithful rather than
    loosened.
    """
    fit = cw_slope_test(2, 1, 2, DEFAULT_GRID)
    report("A9a", fit.slope <= 0.85, f"slope {fit.slope:.4f} <= 0.85")


def test_a9_cw_support_alpha0_j1():
    """A9 (second bound): slope of log|G_{2,0,1}| over the default grid <= 0.45."""
    fit = cw_slope_test(2, 0, 1, DEFAULT_GRID)
    report("A9b", fit.slope <= 0.45, f"slope {fit.slope:.4f} <= 0.45")


def test_a10_bernoulli_suite():
    """A10: periodicity, recurrence, quadrature, and Fourier truncation."""
    rng = random.Random(20250)
    invariants.bernoulli_periodicity(rng, 10_000)
    invariants.bernoulli_recurrence(rng, 300)
    for j in range(1, 7):
        invariants.bernoulli_integral(j, 10_000)
    invariants.bernoulli_fourier(rng, (2, 3, 4), 1000, 10_000)
    report("A10", True, "all invariants pass")
