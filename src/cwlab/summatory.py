"""Two independent evaluators of sum_{n <= x} sigma_{a,alpha}(n).

summatory_bruteforce enumerates every divisor pair n = d*k with
k >= d**(a-1) and accumulates d^alpha per pair (vectorized, chunked, cost
O(x log x)); its table form is the prefix sum of
divisors.restricted_sigma_table, taken in place.  Both run the one sieve
kernel, divisors._sieve_into, whose adds stay in cache: d <= 12 add one
pattern of period lcm(1..12) = 27720, d <= 256 sweep 1 MB sub-blocks, and
each entry still gets its adds in ascending d, so float tables are
bit-for-bit those of one pass per d.  In integer mode the adds run in the
narrowest integer lane that holds the proven entry cap (divisors._lane_dtype),
so they cannot wrap, and every chunk and prefix sum is at most the total,
which _brute_root bounds below 2**63.  summatory_fast needs only O(x^(1/a))
terms: interchanging the summations gives

    sum_{n <= x} sigma_{a,alpha}(n)
        = sum_{d <= x^(1/a)} d^alpha * (floor(x/d) - d^(a-1) + 1),

and writing floor(t) = t - 1/2 - psi(t) splits that into the four
Chowla-Walum components

    x*G_{a,alpha-1,0}(x) - G_{a,alpha+a-1,0}(x)
        + (1/2)*G_{a,alpha,0}(x) - G_{a,alpha,1}(x).

The power sums sum d^m come from cw_sums._power_sums (a closed form in
Bernoulli polynomials, past its degree cap one pass over d for every
degree), so in integer mode only one sum runs over d.  At alpha = 0 it is
sum floor(x/d).  At alpha >= 1, d^alpha floor(x/d) = d^(alpha-1) (x - (x mod d))
gives

    sum d^alpha floor(x/d) = x * sum d^(alpha-1) - sum d^(alpha-1) (x mod d),

and every term of the last sum is below d^alpha <= D^alpha whatever x is,
so its chunks stay int64 up to D^alpha * 2^14 < 2^63: at alpha = 1 always,
at alpha = 2 up to D of about 2.37e7.  That sum runs over the chunks of
cw_sums._floor_sum, and float mode over those of cw_sums._float_floor_sums;
the cw_sums module docstring states their chunk rules.
An exact call whose cutoff is below _LOOP_CUTOFF sums that one sum in a
plain for loop on Python ints instead, the same integer terms, so the same
result: there numpy's fixed cost per call (one chunk's slice, a few ufunc
calls and a sum, 2-4 us) exceeds a few dozen integer divisions, and the
oracle sweeps make thousands of such calls.  The loop allocates no GC-tracked
object.  Float mode always runs the chunks, whose rounding its outputs pin.
Totals are Python ints in integer mode, so "fast equals brute force" is an
exact integer equality, not a tolerance.  The power sums run before the
chunks, so their budget refuses first; every other G sum is
cw_sums._range_sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import cw_sums, divisors
from .divisors import DivisorSpec, float64_guarded, integer_root, require_count, restricted_sigma_table

BRUTEFORCE_LIMIT = 10**8
_CHUNK = 10**7
# smallest cutoff at which exact summatory_fast runs the numpy chunks; below it
# a Python-int loop is faster.  Loop time over chunk time of whole exact calls
# at a = 2, alpha 0 / 1 / 2 / 3, medians of 21 interleaved alternations in one
# process (2-vCPU x86-64): cutoff 64 0.87 / 0.67 / 0.77 / 0.82x, 80
# 1.00 / 0.77 / 0.89 / 0.92x, 96 1.15 / 0.86 / 0.99 / 1.04x and 128
# 1.40 / 1.03 / 1.19 / 1.27x (BENCH_33.json "crossover").  The crossovers lie
# near 80 / 120 / 100 / 90.  At 100 no alpha pays more than about 1.2x for
# the slower path (alpha 0 at cutoff 99), less than under any other constant
_LOOP_CUTOFF = 100


@dataclass
class SummatoryBreakdown:
    """Value of sum_{n <= x} sigma_{a,alpha}(n) with its four components.

    total is eager (exact int in integer mode).  The component terms are
    materialized lazily: term_main and term_psi require sum d^(alpha-1),
    kept by exact summatory_fast at alpha >= 1, else cw_sums._range_sum's;
    at exact alpha = 0 it is a harmonic number whose exact denominator grows
    like e^cutoff, so they refuse a cutoff past cw_sums._EXACT_TERMS_LIMIT.
    Their exact identity  total = main + power + half + psi  holds whenever
    they are materialized.
    """

    x: int
    spec: DivisorSpec
    total: int | float
    cutoff: int
    _s_floor: int | float = field(repr=False)
    _s_pow: int | float = field(repr=False)
    _s_alpha: int | float = field(repr=False)
    # sum d^(alpha-1), kept where exact summatory_fast built it (alpha >= 1)
    _s_lower: int | None = field(default=None, repr=False)

    @cached_property
    def _sum_alpha_minus_one(self):
        if self._s_lower is not None:
            return self._s_lower
        return cw_sums._range_sum(self.x, self.spec.alpha - 1, 0, 1, self.cutoff)

    @property
    def _x_half(self):
        """x and 1/2 in the mode's number type: int and Fraction, or floats."""
        return (self.x, Fraction(1, 2)) if self.spec.exact else (float(self.x), 0.5)

    @cached_property
    def term_main(self):
        """x * G_{a,alpha-1,0}(x)."""
        return self._x_half[0] * self._sum_alpha_minus_one

    @property
    def term_power(self):
        """-G_{a,alpha+a-1,0}(x)."""
        return -self._s_pow

    @property
    def term_half(self):
        """(1/2) * G_{a,alpha,0}(x)."""
        return self._x_half[1] * self._s_alpha

    @cached_property
    def term_psi(self):
        """-G_{a,alpha,1}(x), reconstructed from the integer accumulators."""
        x, half = self._x_half
        return -x * self._sum_alpha_minus_one + self._s_floor + half * self._s_alpha

    def terms(self):
        return (self.term_main, self.term_power, self.term_half, self.term_psi)


def summatory_fast(x: int, spec: DivisorSpec) -> SummatoryBreakdown:
    """Sublinear evaluator: O(x^(1/a)) terms, exact in integer mode, float needs x < 2**63."""
    require_count("x", x, 0)
    if not spec.exact and x >= 2**63:
        raise ValueError("float mode needs x < 2**63; use an integer alpha for exact mode")
    a, alpha = spec.a, spec.alpha
    cut = integer_root(x, a) if x >= 1 else 0
    if spec.exact:
        if alpha:
            s_lower, s_pow, s_alpha = cw_sums._power_sums(1, cut, alpha - 1, alpha + a - 1, alpha)
        else:
            s_lower, (s_pow, s_alpha) = None, cw_sums._power_sums(1, cut, a - 1, 0)
        s = 0  # sum floor(x/d) at alpha = 0, else sum d^(alpha-1) * (x mod d)
        if cut >= _LOOP_CUTOFF:
            s = cw_sums._floor_sum(x, alpha, cut)
        elif not alpha:  # plain loops on Python ints below _LOOP_CUTOFF (module docstring)
            for d in range(1, cut + 1):
                s += x // d
        elif alpha == 1:
            for d in range(1, cut + 1):
                s += x % d
        else:
            for d in range(1, cut + 1):
                s += d ** (alpha - 1) * (x % d)
        s_floor = x * s_lower - s if alpha else s
        return SummatoryBreakdown(x, spec, s_floor - s_pow + s_alpha, cut, s_floor, s_pow, s_alpha, s_lower)
    total, s_floor, s_pow, s_alpha = float64_guarded(alpha, x, cw_sums._float_floor_sums, x, a, alpha, cut)
    return SummatoryBreakdown(x, spec, total, cut, s_floor, s_pow, s_alpha)


def _brute_root(x: int, spec: DivisorSpec) -> int:
    """The sieve's divisor range R = x^(1/a), past a guard that raises OverflowError
    before anything is allocated unless, in integer mode, every sum fits int64.

    The total T(x) = sum_{d <= R} d^alpha (floor(x/d) - d^(a-1) + 1) is at most
    x sum_{d <= R} d^(alpha-1) <= x R^alpha H_R < x R^alpha (R.bit_length() + 1),
    as the harmonic number H_R <= 1 + ln R.  Every entry is >= 0, so that
    bounds every prefix and chunk sum too.
    """
    root = integer_root(x, spec.a)
    if spec.exact and x * root**spec.alpha * (root.bit_length() + 1) >= 2**63:
        raise OverflowError("brute-force sums may exceed int64 at this scale; use summatory_fast")
    return root


def summatory_bruteforce(x: int, spec: DivisorSpec):
    """Pair-enumeration oracle for sum_{n <= x} sigma_{a,alpha}(n).

    Guarded at x <= 10^8 (O(x log x) work); beyond that, refuse and point
    to summatory_fast.  Exact Python-int total in integer mode.
    """
    require_count("x", x, 0)
    if x > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute force is guarded at x <= {BRUTEFORCE_LIMIT}; use summatory_fast")
    root = _brute_root(x, spec)
    buf = np.empty(min(x, _CHUNK), dtype=divisors._lane_dtype(x, root, spec))

    def chunk_sums():
        total: int | float = 0 if spec.exact else 0.0
        for lo in range(1, x + 1, _CHUNK):
            buf.fill(0)
            chunk = divisors._sieve_into(buf[: x + 1 - lo], lo, spec, root)
            total += int(chunk.sum(dtype=np.int64)) if spec.exact else float(chunk.sum())
        return total

    return float64_guarded(spec.alpha, x, chunk_sums)


def summatory_bruteforce_table(limit: int, spec: DivisorSpec) -> np.ndarray:
    """Cumulative array c with c[n] = sum_{m <= n} sigma_{a,alpha}(m).

    Batch form of the brute-force oracle for sweeps: the prefix sum of
    restricted_sigma_table, taken in place: in integer mode _brute_root
    proves, before the table is allocated, that no prefix sum wraps int64.
    """
    require_count("limit", limit, 1)
    if limit > BRUTEFORCE_LIMIT:
        raise ValueError(f"limit must be in [1, {BRUTEFORCE_LIMIT}]")
    _brute_root(limit, spec)
    full = restricted_sigma_table(limit, spec)
    float64_guarded(spec.alpha, limit, lambda: np.cumsum(full, out=full))
    return full
