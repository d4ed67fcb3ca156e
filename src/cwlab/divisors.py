"""Exact per-n arithmetic functions with root-restricted divisor ranges.

sigma_{a,alpha}(n) sums d^alpha over the divisors d of n with d^a <= n;
a = 2 gives the half-range sum sigma~_alpha, alpha = 0 gives the counting
function tau_a.  The membership test is always the integer comparison
d**a <= n — never a floating root, which misclassifies perfect powers.

Exact integer results use Python ints throughout (arbitrary precision, so
"overflow" cannot silently wrap).  The batch sieves use int64 arrays behind
explicit magnitude guards and refuse rather than risk wrapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np


@dataclass(frozen=True)
class DivisorSpec:
    """Restriction root a (integer >= 2) and weight exponent alpha.

    An int alpha selects exact-integer mode; a float alpha selects real mode
    (compensated float summation).  alpha must be >= 0 either way.
    """

    a: int
    alpha: int | float = 0

    def __post_init__(self):
        if not isinstance(self.a, int) or isinstance(self.a, bool) or self.a < 2:
            raise ValueError(f"restriction root a must be an integer >= 2, got {self.a!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, (int, float)):
            raise ValueError(f"alpha must be an int or float, got {self.alpha!r}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")

    @property
    def exact(self) -> bool:
        return isinstance(self.alpha, int)


def integer_root(n: int, a: int) -> int:
    """Largest D >= 0 with D**a <= n, by integer arithmetic only.

    A floating (or Newton, for huge n) seed is corrected by exact powering,
    so boundary cases like n = D**a are always classified correctly.
    """
    if a < 2 or not isinstance(a, int) or isinstance(a, bool):
        raise ValueError(f"root index must be an integer >= 2, got {a!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    if a == 2:
        return isqrt(n)
    if a >= n.bit_length():
        return 1
    if n.bit_length() <= 52:
        d = int(n ** (1.0 / a))
    else:
        # integer Newton iteration from a bit-length seed
        d = 1 << -(-n.bit_length() // a)
        while True:
            nd = ((a - 1) * d + n // d ** (a - 1)) // a
            if nd >= d:
                break
            d = nd
    while d > 0 and d**a > n:
        d -= 1
    while (d + 1) ** a <= n:
        d += 1
    return d


def _divisors(n: int) -> list[int]:
    """All divisors of n >= 1, via trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return out


def divisor_sum_restricted(n: int, spec: DivisorSpec):
    """sigma_{a,alpha}(n) = sum of d**alpha over divisors d with d**a <= n.

    Exact int in integer-alpha mode; math.fsum of d**alpha otherwise.
    """
    divs = [d for d in _divisors(n) if d**spec.a <= n]
    if spec.exact:
        return sum(d**spec.alpha for d in divs)
    return math.fsum(d**spec.alpha for d in divs)


def tau(n: int) -> int:
    """Number of divisors of n."""
    return len(_divisors(n))


def sigma_alpha(n: int, alpha):
    """Full divisor power sum sigma_alpha(n) over all divisors."""
    divs = _divisors(n)
    if isinstance(alpha, int) and not isinstance(alpha, bool):
        return sum(d**alpha for d in divs)
    return math.fsum(d**alpha for d in divs)


def is_square(n: int) -> int:
    """1 if n is a perfect square, else 0."""
    if n < 0:
        return 0
    r = isqrt(n)
    return 1 if r * r == n else 0


def tau_tilde_via_identity(n: int) -> int:
    """Half-range divisor count via (tau(n) + 1_square(n)) / 2.

    tau(n) and the square indicator always have equal parity (divisors pair
    off as (d, n/d) except the square root), so the division is exact; a
    parity violation would mean tau itself is broken.
    """
    t = tau(n)
    s = is_square(n)
    if (t + s) % 2 != 0:
        raise AssertionError(f"parity breach: tau({n})={t}, square={s}")
    return (t + s) // 2


# ---------------------------------------------------------------------------
# Batch sieves.  These realize the same per-n functions over 1..limit at
# sweep scale (the per-(d,k) pair enumeration, executed vectorized).
# ---------------------------------------------------------------------------

_INT64_GUARD = 2**62


def _sieve_chunk(lo: int, hi: int, spec: DivisorSpec, root: int) -> np.ndarray:
    """sigma_{a,alpha}(n) for n in [lo, hi) as one vectorized chunk.

    Adds d**alpha at every n = d*k in range with k >= d**(a-1), for d <= root.
    The caller guards int64 magnitudes in integer mode.
    """
    dtype = np.int64 if spec.exact else np.float64
    arr = np.zeros(hi - lo, dtype=dtype)
    for d in range(1, root + 1):
        start = d**spec.a
        if start >= hi:
            break
        if start < lo:
            start = ((lo + d - 1) // d) * d
        if start < hi:
            arr[start - lo :: d] += d**spec.alpha if spec.exact else float(d) ** spec.alpha
    return arr


def restricted_sigma_table(limit: int, spec: DivisorSpec) -> np.ndarray:
    """Array t with t[n] = sigma_{a,alpha}(n) for 1 <= n <= limit (t[0] = 0).

    Enumerates every pair n = d*k with k >= d**(a-1) and adds d**alpha.
    Integer mode refuses (rather than wraps) if values could exceed int64.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    root = integer_root(limit, spec.a)
    if spec.exact:
        # crude per-entry bound: every divisor power <= root**alpha, and
        # there are at most 2*sqrt(limit) of them
        bound = (root**spec.alpha) * 2 * (isqrt(limit) + 1)
        if bound >= _INT64_GUARD:
            raise OverflowError(
                "restricted_sigma_table entries may exceed int64; "
                "use divisor_sum_restricted per n instead"
            )
    return _sieve_chunk(0, limit + 1, spec, root)


def tau_table(limit: int) -> np.ndarray:
    """Array t with t[n] = tau(n) for 1 <= n <= limit (t[0] = 0)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    table = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        table[d::d] += 1
    return table


def square_table(limit: int) -> np.ndarray:
    """Array t with t[n] = 1 iff n is a perfect square, 1 <= n <= limit."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    table = np.zeros(limit + 1, dtype=np.int64)
    roots = np.arange(1, isqrt(limit) + 1, dtype=np.int64)
    table[roots * roots] = 1
    return table
