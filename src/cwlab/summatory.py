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

summatory_fast sums over d in the chunks of cw_sums._d_chunks: int64 where
_fast_sum_bound proves no sum can wrap, else object arrays.  Below x = 2^53
the floor quotients come from cw_sums._quotient, exact there, and
x mod d = x - d*floor(x/d); from 2^53 on they are integer divisions.  The
power sums sum d^m have a closed form in Bernoulli polynomials, and past
its degree cap one pass over d serves every degree (cw_sums._power_sums),
so in integer mode only one sum runs over the chunks.  At alpha = 0 it is
sum floor(x/d).  At alpha >= 1, d^alpha floor(x/d) = d^(alpha-1) (x - (x mod d))
gives

    sum d^alpha floor(x/d) = x * sum d^(alpha-1) - sum d^(alpha-1) (x mod d),

and every term of the last sum is below d^alpha <= D^alpha whatever x is,
so its chunks stay int64 up to D^alpha * 2^14 < 2^63: at alpha = 1 always,
at alpha = 2 up to D of about 2.37e7.
An exact call whose cutoff is below _LOOP_CUTOFF sums that one sum in a
plain for loop on Python ints instead, the same integer terms, so the same
result: there numpy's fixed cost per call (a row, a few ufunc calls and a
sum, about 6 us) exceeds a few dozen integer divisions, and the oracle
sweeps make thousands of such calls.  The loop allocates no GC-tracked
object.  Float mode always runs the chunks, whose rounding its outputs pin.

Below x = 2^53, exact alpha 0 and 1 and float mode take d as float64
chunks, exact alpha 0 and 1 sum each chunk in float64, and every
intermediate is written with out= into a few float64 rows of
min(cutoff, 2^14) entries, allocated once per call, so a tiny call
allocates a few hundred bytes.
Exact sums stay exact: at alpha = 1 every x mod d is below d <= D < 2^27,
so a chunk of at most 2^14 sums below 2^41, and a float sum of nonnegative
integers is exact while its total is below 2^53, since every partial sum
is an integer no larger than the total.  At alpha = 0 that holds a
posteriori: a float sum of nonnegative integers, in any order, rounds only
where a partial sum reaches 2^53, and rounding is monotone and 2^53 a
float, so every later partial sum, and the total, stay at or above 2^53.
A float total below 2^53 is therefore exact; past it the quotients are
summed again in int64, exact under _fast_sum_bound.
Totals are Python ints in integer mode, so "fast equals brute force" is an
exact integer equality, not a tolerance.  The power sums run before the
chunks, so their budget refuses first; every other G sum is a cw_sums range
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import cw_sums
from .divisors import (DivisorSpec, _lane_dtype, _sieve_into, float64_guarded, integer_root, require_count,
                       restricted_sigma_table)

BRUTEFORCE_LIMIT = 10**8
_CHUNK = 10**7
# smallest cutoff at which exact summatory_fast runs the numpy chunks; below it
# a Python-int loop is faster.  Loop time over chunk time of whole exact calls
# at a = 2, alpha 0 / 1 / 2 / 3, medians of interleaved alternations in one
# process (2-vCPU x86-64): cutoff 16 0.44 / 0.45 / 0.40 / 0.41x (15), 96
# 0.82 / 0.68 / 1.00 / 1.07x, 104 0.88 / 0.72 / 1.05 / 1.14x and 128
# 1.00 / 0.79 / 1.21 / 1.29x (21 each; BENCH_31.json "crossover")
_LOOP_CUTOFF = 100


@dataclass
class SummatoryBreakdown:
    """Value of sum_{n <= x} sigma_{a,alpha}(n) with its four components.

    total is eager (exact int in integer mode).  The component terms are
    materialized lazily: term_main and term_psi require sum d^(alpha-1),
    at exact alpha = 0 a harmonic number whose exact denominator grows like
    e^cutoff: cw_sums' exact range sum (its float one at float alpha), so
    they refuse a cutoff past cw_sums._EXACT_TERMS_LIMIT.
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
        kernel = cw_sums._exact_range_sum if self.spec.exact else cw_sums._float_range_sum
        return kernel(self.x, self.spec.alpha - 1, 0, 1, self.cutoff)

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
            s = _chunk_sum(x, alpha, cut)
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
    total, s_floor, s_pow, s_alpha = float64_guarded(alpha, x, _float_sums, x, a, alpha, cut)
    return SummatoryBreakdown(x, spec, total, cut, s_floor, s_pow, s_alpha)


def _chunk_sum(x: int, alpha: int, cut: int) -> int:
    """Exact sum over d <= cut of floor(x/d) at alpha = 0, else of d^(alpha-1) * (x mod d), on _d_chunks."""
    s = 0
    # below 2**53 the quotients go to one row, and at alpha 0 and 1 d is
    # float and, at alpha = 1, so are the chunk sums (module docstring)
    q_row = np.empty(min(cut, cw_sums._FAST_CHUNK)) if x < 2**53 else None
    for d in cw_sums._d_chunks(1, cut, _fast_sum_bound, x, alpha, as_float=x < 2**53 and alpha <= 1):
        if x < 2**53 and d.dtype != object:
            t = cw_sums._quotient(x, d, out=q_row[: len(d)])
            if not alpha:
                v = t.sum()  # exact below 2**53, else the int64 sum is (module docstring)
                s += int(v) if v < 2**53 else int(t.sum(dtype=np.int64))
                continue
            if alpha > 1:
                t = t.astype(np.int64)
            t *= d
            np.subtract(x, t, out=t)
        else:
            t = cw_sums._mod(x, d) if alpha else x // d
        if alpha > 1:
            t *= d if alpha == 2 else d ** (alpha - 1)
        s += int(t.sum())
    return s


def _float_sums(x: int, a: int, alpha: float, cut: int) -> tuple[float, float, float, float]:
    """Float summatory_fast over d <= cut: the total, sum floor(x/d) d^alpha, sum d^(alpha+a-1), sum d^alpha."""
    s_floor = s_pow = s_alpha = 0.0
    as_float = x < 2**53  # float d, floor(x/d) and d^(a-1) are exact floats
    n = min(cut, cw_sums._FAST_CHUNK)
    q_row, p_row, w_row = np.empty(n), np.empty(n), np.empty(n)
    for d in cw_sums._d_chunks(1, cut, None, as_float=as_float):
        n = len(d)
        q, p = q_row[:n], p_row[:n]  # floor(x/d) and d^(a-1), then times d^alpha
        if as_float:
            cw_sums._quotient(x, d, out=q)
            np.copyto(p, d)
            for _ in range(a - 2):  # d^k <= d^(a-1) < x: every product is exact
                p *= d
        else:
            np.copyto(q, x // d)
            np.copyto(p, d if a == 2 else d ** (a - 1))
        if alpha == 0:  # pow(d, 0.0) = 1: every weight is 1
            s_alpha += n
        else:
            w = cw_sums._float_weights(d, alpha, w_row)
            p *= w
            q *= w
            s_alpha += float(w.sum())
        s_pow += float(p.sum())
        s_floor += float(q.sum())
    return s_floor - s_pow + s_alpha, s_floor, s_pow, s_alpha


def _fast_sum_bound(lo: int, hi: int, x: int, alpha: int) -> int:
    # alpha >= 1: 0 <= x mod d < d, so d^(alpha-1) * (x mod d) < d^alpha <= hi^alpha,
    # and its factors are below that too, whatever x is (cw_sums._mod brings x mod d
    # into int64 from x >= 2**63).  alpha = 0: floor(x/d) <= x/d, and the
    # k-th of the (hi // lo).bit_length() dyadic pieces lo*2^k <= d < lo*2^(k+1),
    # which cover lo..hi, has at most lo*2^k terms of at most x/(lo*2^k), so
    # sums to at most x; x // d needs x itself in int64, and at x >= 2**63 the
    # bound is past 2**63 too
    if alpha >= 1:
        return hi**alpha * (hi - lo + 1)
    return x * (hi // lo).bit_length()


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
    buf = np.empty(min(x, _CHUNK), dtype=_lane_dtype(x, root, spec))

    def chunk_sums():
        total: int | float = 0 if spec.exact else 0.0
        for lo in range(1, x + 1, _CHUNK):
            buf.fill(0)
            chunk = _sieve_into(buf[: x + 1 - lo], lo, spec, root)
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
