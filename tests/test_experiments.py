import random

import pytest
from mpmath import mp

from cwlab.asymptotics import sqrt_restricted_model
from cwlab.divisors import DivisorSpec
from cwlab.experiments import (
    DEFAULT_GRID,
    GridSpec,
    cw_series,
    cw_slope_test,
    fit_loglog,
    residual_series,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(5, 2.0, 10)
    with pytest.raises(ValueError):
        GridSpec(10, 1.0, 10)
    with pytest.raises(ValueError):
        GridSpec(10, 2.0, 2)


def test_grid_points_increasing_dedup():
    g = GridSpec(10, 1.05, 40)   # slow ratio forces collisions before rounding spread
    pts = g.points()
    assert pts == sorted(set(pts))
    assert all(p >= 10 for p in pts)


def test_default_grid_span():
    pts = DEFAULT_GRID.points()
    assert pts[0] == 10_000
    assert pts[-1] == 10_000 * 2**24   # ~1.6e11
    assert len(pts) == 25


def test_fit_exact_power_law():
    g = GridSpec(10, 2.0, 10)
    rep = fit_loglog([(x, x**0.75) for x in g.points()])
    assert rep.slope == pytest.approx(0.75, abs=1e-9)
    assert rep.n_points_used == 10
    assert rep.n_dropped_zero == 0


def test_fit_constant():
    rep = fit_loglog([(x, 5.0) for x in GridSpec(10, 2.0, 8).points()])
    assert rep.slope == pytest.approx(0.0, abs=1e-9)


def test_fit_bounded_noise():
    pts = GridSpec(10, 2.0, 12).points()
    rep = fit_loglog([(x, x**0.5 * (2 + (-1) ** i)) for i, x in enumerate(pts)])
    assert rep.slope == pytest.approx(0.5, abs=0.2)


def test_fit_random_exponents():
    rng = random.Random(83)
    pts = GridSpec(10, 2.0, 12).points()
    for _ in range(50):
        s = rng.uniform(0, 2)
        rep = fit_loglog([(x, 3.7 * x**s) for x in pts])
        assert rep.slope == pytest.approx(s, abs=1e-9)


def test_fit_drops_zeros():
    rep = fit_loglog([(10, 0), (20, 5.0), (40, 0), (80, 9.0), (160, 11.0)])
    assert rep.n_dropped_zero == 2
    assert rep.n_points_used == 3


def test_fit_needs_two_points():
    with pytest.raises(ValueError):
        fit_loglog([(10, 0.0), (20, 0.0), (40, 3.0)])


def test_residual_series_values():
    # x = 100: exact = 246 (per-n oracle), residual = 246 - model(100)
    series = residual_series(DivisorSpec(2, 0), sqrt_restricted_model(0), GridSpec(100, 10.0, 3))
    first = series[0]
    assert first.x == 100
    assert first.exact == 246
    with mp.workdps(50):
        assert abs(first.residual - (mp.mpf(246) - first.model_value)) == 0
        assert float(first.residual) == pytest.approx(3.0199242, abs=1e-5)


def test_residual_series_zero_model():
    class ZeroModel:
        def evaluate(self, x, dps=50):
            return mp.mpf(0)

    series = residual_series(DivisorSpec(2, 0), ZeroModel(), GridSpec(10, 2.0, 3))
    for p in series:
        assert p.residual == p.exact


def test_residual_series_deterministic():
    grid = GridSpec(1000, 4.0, 5)
    model = sqrt_restricted_model(1)
    one = residual_series(DivisorSpec(2, 1), model, grid)
    two = residual_series(DivisorSpec(2, 1), model, grid)
    assert [(p.x, p.exact, str(p.residual)) for p in one] == [
        (p.x, p.exact, str(p.residual)) for p in two
    ]


def test_residual_series_guard():
    with pytest.raises(ValueError):
        residual_series(DivisorSpec(2, 0), sqrt_restricted_model(0), GridSpec(10**9, 10.0, 5))


def test_cw_series_matches_gsum():
    from cwlab.cw_sums import GSumSpec, g_sum

    series = cw_series(2, 1, 2, GridSpec(100, 10.0, 3))
    for x, v in series:
        assert v == g_sum(GSumSpec(2, 1.0, 2, x))


def test_cw_slope_test_validation():
    with pytest.raises(ValueError):
        cw_slope_test(2, 0, 0, GridSpec(10, 2.0, 5))


def test_fit_stability_drop_largest():
    # advisory stability probe on a residual fit at modest scale
    grid = GridSpec(1000, 2.0, 14)
    series = residual_series(DivisorSpec(2, 1), sqrt_restricted_model(1), grid)
    full = fit_loglog(series)
    trimmed = fit_loglog(series[:-1])
    assert abs(full.slope - trimmed.slope) < 0.3

