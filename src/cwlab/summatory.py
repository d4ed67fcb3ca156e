"""Two independent evaluators of sum_{n <= x} sigma_{a,alpha}(n).

summatory_bruteforce enumerates every divisor pair n = d*k with
k >= d**(a-1) and accumulates d^alpha per pair (vectorized, chunked, cost
O(x log x)).  summatory_fast needs only O(x^(1/a)) terms: interchanging the
summations gives

    sum_{n <= x} sigma_{a,alpha}(n)
        = sum_{d <= x^(1/a)} d^alpha * (floor(x/d) - d^(a-1) + 1),

and writing floor(t) = t - 1/2 - psi(t) splits that into the four
Chowla-Walum components

    x*G_{a,alpha-1,0}(x) - G_{a,alpha+a-1,0}(x)
        + (1/2)*G_{a,alpha,0}(x) - G_{a,alpha,1}(x).

Integer mode keeps everything in Python ints and exact Fractions, so
"fast equals brute force" is an exact integer equality, not a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .divisors import DivisorSpec, _sieve_chunk, integer_root

BRUTEFORCE_LIMIT = 10**8
_CHUNK = 10**7


@dataclass
class SummatoryBreakdown:
    """Value of sum_{n <= x} sigma_{a,alpha}(n) with its four components.

    total is eager (exact int in integer mode).  The component terms are
    materialized lazily: term_main and term_psi require sum d^(alpha-1),
    which for alpha = 0 is a harmonic number whose exact denominator grows
    like e^cutoff — affordable on demand, wasteful on every call.
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

    @cached_property
    def _sum_alpha_minus_one(self):
        alpha, cut = self.spec.alpha, self.cutoff
        if self.spec.exact:
            if alpha >= 1:
                return sum(d ** (alpha - 1) for d in range(1, cut + 1))
            return sum(Fraction(1, d) for d in range(1, cut + 1))
        return math.fsum(d ** (alpha - 1.0) for d in range(1, cut + 1))

    @cached_property
    def term_main(self):
        """x * G_{a,alpha-1,0}(x)."""
        if self.spec.exact:
            return self.x * self._sum_alpha_minus_one
        return float(self.x) * self._sum_alpha_minus_one

    @property
    def term_power(self):
        """-G_{a,alpha+a-1,0}(x)."""
        return -self._s_pow

    @property
    def term_half(self):
        """(1/2) * G_{a,alpha,0}(x)."""
        if self.spec.exact:
            return Fraction(self._s_alpha, 2)
        return 0.5 * self._s_alpha

    @cached_property
    def term_psi(self):
        """-G_{a,alpha,1}(x), reconstructed from the integer accumulators."""
        if self.spec.exact:
            return -self.x * self._sum_alpha_minus_one + self._s_floor + Fraction(self._s_alpha, 2)
        return -float(self.x) * self._sum_alpha_minus_one + self._s_floor + 0.5 * self._s_alpha

    def terms(self):
        return (self.term_main, self.term_power, self.term_half, self.term_psi)


def summatory_fast(x: int, spec: DivisorSpec) -> SummatoryBreakdown:
    """Sublinear evaluator: O(x^(1/a)) terms, exact in integer mode."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"x must be an integer, got {x!r}")
    if x < 0:
        raise ValueError("x must be >= 0")
    a, alpha = spec.a, spec.alpha
    cut = integer_root(x, a) if x >= 1 else 0
    if spec.exact:
        s_floor = s_pow = s_alpha = 0
        for d in range(1, cut + 1):
            da = d**alpha
            s_floor += da * (x // d)
            s_pow += da * d ** (a - 1)
            s_alpha += da
        total = s_floor - s_pow + s_alpha
        return SummatoryBreakdown(x, spec, total, cut, s_floor, s_pow, s_alpha)
    d = np.arange(1, cut + 1, dtype=np.int64)
    w = d.astype(np.float64) ** alpha
    s_floor = float(np.sum(w * (x // d)))
    s_pow = float(np.sum(w * d.astype(np.float64) ** (a - 1)))
    s_alpha = float(np.sum(w))
    return SummatoryBreakdown(x, spec, s_floor - s_pow + s_alpha, cut, s_floor, s_pow, s_alpha)


def _sieve_chunks(x: int, spec: DivisorSpec):
    """(lo, chunk) pairs with chunk[i] = sigma_{a,alpha}(lo + i), covering 1..x.

    Not itself a generator: the int64 guard raises at the call, before the
    caller allocates anything.  Chunks are computed one at a time.
    """
    root = integer_root(x, spec.a)
    # per-entry bound: every counted divisor power is <= root**alpha and a
    # single n has < 2*sqrt(n) divisors; chunk sums stay below int64
    if spec.exact and (root**spec.alpha) * 2 * (math.isqrt(x) + 1) * _CHUNK >= 2**63:
        raise OverflowError("sieve chunk sums may exceed int64 at this scale")
    return (
        (lo, _sieve_chunk(lo, min(lo + _CHUNK, x + 1), spec, root))
        for lo in range(1, x + 1, _CHUNK)
    )


def summatory_bruteforce(x: int, spec: DivisorSpec):
    """Pair-enumeration oracle for sum_{n <= x} sigma_{a,alpha}(n).

    Guarded at x <= 10^8 (O(x log x) work); beyond that, refuse and point
    to summatory_fast.  Exact Python-int total in integer mode.
    """
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"x must be an integer, got {x!r}")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x > BRUTEFORCE_LIMIT:
        raise ValueError(
            f"brute force is guarded at x <= {BRUTEFORCE_LIMIT}; use summatory_fast"
        )
    total: int | float = 0 if spec.exact else 0.0
    for _, chunk in _sieve_chunks(x, spec):
        total += int(chunk.sum()) if spec.exact else float(chunk.sum())
    return total


def summatory_bruteforce_table(limit: int, spec: DivisorSpec) -> np.ndarray:
    """Cumulative array c with c[n] = sum_{m <= n} sigma_{a,alpha}(m).

    Batch form of the brute-force oracle for sweeps; the cumulative total is
    re-verified against an independently accumulated Python-int sum so an
    int64 wrap cannot go unnoticed.
    """
    if limit < 1 or limit > BRUTEFORCE_LIMIT:
        raise ValueError(f"limit must be in [1, {BRUTEFORCE_LIMIT}]")
    chunks = _sieve_chunks(limit, spec)
    full = np.zeros(limit + 1, dtype=np.int64 if spec.exact else np.float64)
    for lo, chunk in chunks:
        full[lo : lo + len(chunk)] = chunk
        del chunk  # free it before the next chunk is sieved and the cumsum runs
    if spec.exact:
        exact_total = sum(int(full[i : i + _CHUNK].sum()) for i in range(0, limit + 1, _CHUNK))
        cum = np.cumsum(full)
        if int(cum[-1]) != exact_total or (cum < 0).any():
            raise OverflowError("cumulative sums exceeded int64")
        return cum
    return np.cumsum(full)
