"""Residual measurement and empirical error-exponent estimation.

An O(x^theta) error claim is probed at desk scale by evaluating the exact
summatory value on a geometric grid, subtracting the high-precision main
terms, and fitting log|residual| against log x by ordinary least squares.
The fitted slope is the empirical exponent.  Exact-zero residuals carry no
slope information and are dropped (never log-clamped), with a count kept.

Residuals are formed as (exact integer) - (50-digit model value); above
x ~ 1e15 double precision would cancel the entire signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import linear_regression

from .asymptotics import DEFAULT_DPS, MainTermModel
from .cw_sums import GSumSpec, g_sum
from .divisors import DivisorSpec, require_count, require_number
from .summatory import summatory_fast

RESIDUAL_X_LIMIT = 10**12


@dataclass(frozen=True)
class GridSpec:
    """Geometric evaluation grid: x0 * ratio^i rounded to integers.

    Points are deduplicated after rounding and strictly increasing.
    """

    x0: int = 10_000
    ratio: float = 2.0
    count: int = 25

    def __post_init__(self):
        require_count("grid x0", self.x0, 10)
        require_count("grid count", self.count, 3)
        require_number("grid ratio", self.ratio)
        if not self.ratio > 1:
            raise ValueError("grid ratio must exceed 1")
        try:  # the last point is the largest; every earlier one is finite with it
            last = self.x0 * float(self.ratio) ** (self.count - 1)
        except OverflowError:
            last = math.inf
        if last == math.inf:
            raise ValueError(f"grid ratio {self.ratio!r} and count {self.count} overflow a float: "
                             "the last point x0 * ratio**(count - 1) exceeds 1.8e308")

    def points(self) -> list[int]:
        pts = sorted({round(self.x0 * self.ratio**i) for i in range(self.count)})
        return pts


# 10^4, 2, 25 spans 1e4 .. ~1.6e11: two decades of slope leverage in minutes
DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class FitReport:
    """OLS fit of log|residual| vs log x."""

    slope: float
    intercept: float
    max_abs_log_residual: float
    n_points_used: int
    n_dropped_zero: int


@dataclass(frozen=True)
class ResidualPoint:
    x: int
    exact: object        # int in exact mode
    model_value: object  # mpf
    residual: object     # mpf


def residual_series(
    spec: DivisorSpec,
    model: MainTermModel,
    grid: GridSpec = DEFAULT_GRID,
) -> list[ResidualPoint]:
    """Exact summatory values minus model values over the grid.

    Deterministic: points are evaluated one by one in increasing x order.
    """
    points = grid.points()
    if points and points[-1] > RESIDUAL_X_LIMIT:
        raise ValueError(f"grid reaches {points[-1]} > {RESIDUAL_X_LIMIT}")

    from mpmath import mp
    def one(x: int) -> ResidualPoint:
        exact = summatory_fast(x, spec).total
        with mp.workdps(DEFAULT_DPS):
            model_value = model.evaluate(x)
            residual = mp.mpf(exact) - model_value
        return ResidualPoint(x, exact, model_value, residual)

    return [one(x) for x in points]


def fit_loglog(series) -> FitReport:
    """Least squares on (log x, log|residual|), dropping exact zeros.

    Accepts (x, value) pairs or ResidualPoint records.  Fails loudly with
    fewer than 2 usable points.
    """
    xs: list[float] = []
    ys: list[float] = []
    dropped = 0
    for item in series:
        if isinstance(item, ResidualPoint):
            x, r = item.x, item.residual
        else:
            x, r = item
        if r == 0:
            dropped += 1
            continue
        xs.append(math.log(float(x)))
        if isinstance(r, (int, float)):
            ys.append(math.log(abs(r)))
        else:
            from mpmath import mp
            ys.append(float(mp.log(abs(r))))
    if len(xs) < 2:
        raise ValueError(f"need >= 2 nonzero residuals to fit, have {len(xs)}")
    slope, intercept = linear_regression(xs, ys)
    max_dev = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return FitReport(slope, intercept, max_dev, len(xs), dropped)


def cw_series(
    a,
    alpha,
    j: int,
    grid: GridSpec = DEFAULT_GRID,
) -> list[tuple[int, float]]:
    """G_{a,alpha,j}(x) over the grid (float mode), ordered by x."""
    require_number("alpha", alpha)
    return [(x, g_sum(GSumSpec(a, float(alpha), j, x))) for x in grid.points()]


def cw_slope_test(
    a,
    alpha,
    j: int,
    grid: GridSpec = DEFAULT_GRID,
) -> FitReport:
    """Fitted growth exponent of log|G_{a,alpha,j}(x)| vs log x.

    The caller compares the slope against the conjectured exponent
    alpha/a + 1/(2a) or the proven unconditional one.
    """
    if j < 1:
        raise ValueError("slope test requires j >= 1")
    return fit_loglog(cw_series(a, alpha, j, grid))
