"""Closed-form main terms, error-exponent constants, and Euler-Maclaurin sums.

Summatory sums of root-restricted divisor functions (divisors d^a <= n,
integer a >= 2) obey

    alpha = 0:  sum tau_a(n)         = (1/a) x log x + (gamma - 1/a) x
    alpha > 0:  sum sigma_{a,alpha}(n) = a/(alpha(alpha+a)) x^(1+alpha/a)
                                       + (5/8 - alpha/8 - 1/alpha) x

and at a = 2 (divisors d <= sqrt n) both gain the term
x^((alpha+1)/2) / (2(alpha+1)), so sum tau~(n) = (1/2) x log x +
(gamma - 1/2) x + (1/2) x^(1/2).  They hold up to an error x^theta(+eps).
For a = 2 the exponent is theta_alpha = alpha/2 + 1/4 if the Chowla-Walum
conjecture holds and alpha/2 + 517/1648 unconditionally; for a >= 3 it is
1 + (alpha-2)/a.  Everything here is evaluated in >= 30 significant
digits: at x = 10^12 the leading term is ~10^18 while the residual of
interest is ~10^10, far below double precision's reach.  Each function
that computes in mpmath imports it itself, so `import cwlab` does not
load mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cw_sums import gsum_cutoff
from .divisors import require_count, require_number

DEFAULT_DPS = 50

# Euler-Mascheroni constant to 50 digits; invariants.gamma_cross_check checks
# it against an independent harmonic-sum computation.
EULER_GAMMA_STR = "0.57721566490153286060651209008240243104215933593992"

UNCONDITIONAL_THETA0 = Fraction(517, 1648)
CW_THETA0 = Fraction(1, 4)


def euler_gamma(dps: int = DEFAULT_DPS):
    """gamma as an mpf at the requested working precision."""
    from mpmath import mp
    with mp.workdps(dps):
        return mp.mpf(EULER_GAMMA_STR)


@dataclass(frozen=True)
class Term:
    """One main-term monomial: coeff * x^exponent * (log x if with_log)."""

    coeff: object          # Fraction, or mpf for gamma-bearing coefficients
    exponent: object       # Fraction (exact alpha) or float
    with_log: bool = False


@dataclass(frozen=True)
class MainTermModel:
    """Sum of main terms plus the claimed error exponent theta.

    Terms are kept sorted by strictly decreasing (exponent, with_log), with
    equal kinds merged, so the x-coefficient of the alpha = 1 half-range
    model is the single exact rational -1/4.
    assumes_cw is None when the exponent does not depend on the conjecture.
    """

    terms: tuple[Term, ...]
    theta: object
    assumes_cw: bool | None = None

    def evaluate(self, x, dps: int = DEFAULT_DPS):
        from mpmath import mp
        require_number("x", x, (int, Fraction, float, mp.mpf))
        with mp.workdps(dps):
            xm = _mpf(x)
            if not (mp.isfinite(xm) and xm > 0):
                raise ValueError(f"x must be a finite number > 0, got {x!r}")
            logx = mp.log(xm)
            total = mp.mpf(0)
            for t in self.terms:
                piece = _mpf(t.coeff) * xm ** _mpf(t.exponent)
                if t.with_log:
                    piece *= logx
                total += piece
            return total


def _mpf(v):
    """An mpf from a Fraction, float or mpf, at the working precision."""
    from mpmath import mp
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / v.denominator
    return mp.mpf(v)


def _normalize_terms(raw: list[Term]) -> tuple[Term, ...]:
    merged: dict[tuple, Term] = {}
    for t in raw:
        key = (t.exponent, t.with_log)
        if key in merged:
            prev = merged[key]
            merged[key] = Term(prev.coeff + t.coeff, t.exponent, t.with_log)
        else:
            merged[key] = t
    ordered = sorted(merged.values(), key=lambda t: (t.exponent, t.with_log), reverse=True)
    ordered = [t for t in ordered if t.coeff != 0]
    for prev, cur in zip(ordered, ordered[1:]):
        if (prev.exponent, prev.with_log) <= (cur.exponent, cur.with_log):
            raise AssertionError("term exponents not strictly decreasing")
    return tuple(ordered)


def _number(alpha):
    """alpha, a number by require_number and >= 0, as a Fraction (int or Fraction alpha) or a float."""
    require_number("alpha", alpha)
    if not isinstance(alpha, float):
        alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return alpha


def error_exponent(alpha, cw: bool = False):
    """theta_alpha = alpha/2 + 1/4 (conjectural) or alpha/2 + 517/1648."""
    # a float alpha makes the sum a float: float + Fraction is float
    return _number(alpha) / 2 + (CW_THETA0 if cw else UNCONDITIONAL_THETA0)


def absorption_threshold(cw: bool = False) -> Fraction:
    """Smallest alpha whose x-term is absorbed by the error: theta = 1."""
    const = CW_THETA0 if cw else UNCONDITIONAL_THETA0
    return 2 * (1 - const)


def restricted_model(alpha, a: int = 2, cw: bool = False) -> MainTermModel:
    """Main-term model for sum_{n <= x} sigma_{a,alpha}(n), divisors d^a <= n.

    Exact for int or Fraction alpha (Fraction coefficients and exponents),
    float otherwise; alpha = 0 (0.0 too) is exact, its x-coefficient
    gamma - 1/a an mpf.  cw selects the error exponent at a = 2 and is
    ignored for a >= 3.
    """
    require_count("restriction root", a, 2)
    t = _number(alpha)  # alpha in the model's number type; one set of formulas serves both
    if t == 0:
        from mpmath import mp
        t, one = Fraction(0), Fraction(1)
        with mp.workdps(60):
            gamma_coeff = euler_gamma(60) - mp.mpf(1) / a
        terms = [Term(Fraction(1, a), one, with_log=True), Term(gamma_coeff, one)]
    else:
        one = Fraction(1) if isinstance(t, Fraction) else 1.0
        terms = [
            Term(a / (t * (t + a)), 1 + t / a),
            Term(Fraction(5, 8) - t / 8 - 1 / t, one),
        ]
    if a == 2:
        terms.append(Term(1 / (2 * (t + 1)), (t + 1) / 2))
        theta, assumes_cw = error_exponent(alpha, cw), cw
    else:
        theta, assumes_cw = 1 + (t - 2) / a, None
    return MainTermModel(_normalize_terms(terms), theta, assumes_cw)


def sqrt_restricted_model(alpha, cw: bool = False) -> MainTermModel:
    """Main-term model for sum_{n <= x} sigma~_alpha(n) (divisors d <= sqrt n)."""
    return restricted_model(alpha, 2, cw)


def root_restricted_model(alpha, a: int) -> MainTermModel:
    """Main-term model for sum_{n <= x} sigma_{a,alpha}(n), integer a >= 3."""
    require_count("restriction root", a, 3)
    return restricted_model(alpha, a)


def main_term_sqrt_restricted(x, alpha, cw: bool = False):
    """sqrt_restricted_model evaluated at x (>= 30 significant digits)."""
    if x < 2:
        raise ValueError("x must be >= 2")
    return sqrt_restricted_model(alpha, cw).evaluate(x)


def main_term_root_restricted(x, alpha, a: int):
    """root_restricted_model evaluated at x (>= 30 significant digits)."""
    if x < 2:
        raise ValueError("x must be >= 2")
    return root_restricted_model(alpha, a).evaluate(x)


def euler_maclaurin_partial_sum(x, a, beta, dps: int = DEFAULT_DPS):
    """Euler-Maclaurin approximation to sum_{d <= x^(1/a)} d^beta.

        beta = -1:  (1/a) log x + gamma - psi(x^(1/a)) x^(-1/a)
        beta > -1:  x^((beta+1)/a)/(beta+1) - psi(x^(1/a)) x^(beta/a)
                    + 1/2 - beta/8 - 1/(beta+1)

    The O-term is omitted; beta < -1 is out of contract.  The sawtooth at
    the cutoff uses the exact integer floor, so perfect a-th powers land on
    psi = -1/2 exactly.  A Fraction x, a or beta enters at the working
    precision (_mpf), not rounded to a float.
    """
    from mpmath import mp
    require_number("x", x)
    require_number("a", a)
    require_number("beta", beta, (int, Fraction, float, mp.mpf))
    if beta < -1:
        raise ValueError("beta must be >= -1")
    if x < 1:
        raise ValueError("x must be >= 1")
    if a < 1:
        raise ValueError("a must be >= 1")
    with mp.workdps(dps):
        xm, am, b = _mpf(x), _mpf(a), _mpf(beta)
        floor_root = math.floor(x) if a == 1 else gsum_cutoff(x, a)
        root = mp.sqrt(xm) if a == 2 else xm ** (mp.mpf(1) / am)
        psi_root = root - floor_root - mp.mpf(1) / 2
        if beta == -1:
            return mp.log(xm) / am + euler_gamma(dps) - psi_root / root
        return (
            xm ** ((b + 1) / am) / (b + 1)
            - psi_root * xm ** (b / am)
            + mp.mpf(1) / 2
            - b / 8
            - 1 / (b + 1)
        )
