"""Exact per-n arithmetic functions with root-restricted divisor ranges.

sigma_{a,alpha}(n) sums d^alpha over the divisors d of n with d^a <= n;
a = 2 gives the half-range sum sigma~_alpha, alpha = 0 gives the counting
function tau_a.  The membership test is always the integer comparison
d**a <= n — never a floating root, which misclassifies perfect powers.

The per-n functions enumerate divisors by trial division behind a work
budget of isqrt(n) <= 10**8.  While isqrt(n) <= 2**14 every d <= isqrt(n)
is tried in one chunk.  Past that only the odd d <= isqrt(n) are tried, on
the odd part m of n = 2**k m: an odd d divides n exactly when it divides m,
and every divisor d <= isqrt(n) of n is 2**i t with t odd, t | m and
t <= d, so the divisors up to isqrt(n) are the 2**i t <= isqrt(n) with
i <= k, and the rest are their cofactors n // d.  The bound stays isqrt(n),
not isqrt(m): the work is then a function of the size of n alone, where
stopping at isqrt(m) would make it swing by a factor 2**(k/2) with the
2-adic valuation k of n.  Below m = 2**53 the test is in float64: m and
every d are exact floats, and d divides m exactly when fl(m / d) is an
integer.  If d | m, m / d is an integer below 2**53, so the correctly
rounded quotient is m / d itself.  If not, m / d lies at least 1/d from
every integer (its fractional part is r/d with 1 <= r <= d - 1), and the
rounding error is at most (m / d) * 2**-53 < 1/d, so fl(m / d) is no
integer either.  The argument needs only m < 2**53, so an even n >= 2**53
whose odd part is below 2**53 takes the float test too.  A float division
and floor cost a fraction of the hardware integer division of an int64
m % d.  From 2**53 on the test is m % d in int64: every n the budget
accepts is below (10**8 + 1)**2 < 2**63, so m, d and m % d are exact int64
values.  The sums over the divisors run on Python ints, so they cannot wrap.
The batch sieves add in the narrowest integer lane that holds the proven
entry cap, and refuse any table whose cap no int64 holds before allocating
it (_lane_dtype).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from math import isqrt

import numpy as np

# work budget of _divisors: isqrt(n) <= this (n < 1e16); about 0.2 s for a prime at the edge on a 2-vCPU x86-64 host
_TRIAL_DIVISION_LIMIT = 10**8
_TRIAL_CHUNK = 1 << 14  # trial divisors per chunk; cw_sums imports it as _FAST_CHUNK
# float64 0, 1, ..., 2^14, read-only: the float d chunks of cw_sums._d_chunks
# are slices of it or _BASE[:k] + start written into a row; _divisors takes a
# slice for one chunk, and past that the odd d 2 * _BASE[:-1] + 1 into a row
_BASE = np.arange(_TRIAL_CHUNK + 1, dtype=np.float64)
_BASE.flags.writeable = False


def require_finite(**values) -> None:
    """Raise ValueError naming the first float value that is NaN or infinite."""
    for name, v in values.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def require_count(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an int, not a bool, and at least least."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def float64_guarded(alpha, n: int, fn, *args):
    """fn(*args), a float-mode computation over powers of integers up to n, refused
    with a ValueError naming alpha if it overflows float64.

    fn sums at most n terms, each a weight d**alpha <= n**max(alpha, 0) times
    at most a factor <= 4n (floor(x/d), d**(a-1) or a sieve entry's divisor
    count) and a B_j or Horner value below sum |c_k| < 2**(3j + 1) <= 2**193
    (j <= bernoulli.MAX_DEGREE), so every value it forms, at most a few such
    sums, is below 2**((max(alpha, 0) + 2) * b + 200), b = n.bit_length().
    That covers each caller's tighter bound: (alpha + 1) b for divisor powers
    and the sieve table, (alpha + 2) b + 2 for float summatory_fast and the
    brute-force sums and table (alpha >= 0 at all of these), and
    3j + 1 + (max(alpha, 0) + 1) b for the G kernels.  Below 1000 fn runs as it
    is, outside numpy's error state (about 1.5 us, a seventh of a tiny float
    summatory_fast call).  Otherwise numpy overflow and invalid operations
    raise inside fn, as do a Python d**alpha and math.fsum past float64, and
    so does a float fn returns, alone or in a tuple, once a sum of finite
    terms reached inf: no inf or NaN is returned and no numpy warning printed.
    """
    if (alpha + 2 if alpha > 0 else 2) * n.bit_length() + 200 < 1000:  # the bound, without a call of max()
        return fn(*args)
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = fn(*args)
        for v in out if isinstance(out, tuple) else (out,):
            if isinstance(v, float) and not math.isfinite(v):
                raise OverflowError
        return out
    except (OverflowError, FloatingPointError):
        raise ValueError(f"alpha = {alpha!r} is too large: d**alpha or a sum of such terms "
                         "overflows float64; pass a smaller alpha") from None


@dataclass(frozen=True)
class DivisorSpec:
    """Restriction root a (integer >= 2) and weight exponent alpha.

    An int alpha selects exact-integer mode; a float alpha selects real mode
    (compensated float summation).  alpha must be >= 0 either way.
    """

    a: int
    alpha: int | float = 0

    def __post_init__(self):
        require_count("restriction root a", self.a, 2)
        _require_alpha(self.alpha)

    @property
    def exact(self) -> bool:
        return isinstance(self.alpha, int)


def _require_alpha(alpha) -> None:
    """Raise ValueError unless the weight exponent alpha is a finite int (exact-integer
    mode) or float (real mode) >= 0, not a bool."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ValueError(f"alpha must be an int or float, got {alpha!r}")
    require_finite(alpha=alpha)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")


def integer_root(n: int, a: int) -> int:
    """Largest D >= 0 with D**a <= n, by integer arithmetic only.

    A floating (or Newton, for huge n) seed is corrected by exact powering,
    so boundary cases like n = D**a are always classified correctly.
    """
    require_count("root index", a, 2)
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
    """All divisors of n >= 1 in ascending order, by trial division up to isqrt(n).

    While isqrt(n) <= 2**14 one float64 chunk, a slice of _BASE, keeps the
    d with fl(n / d) == floor(fl(n / d)).  Past that, n = 2**k m with m odd:
    _odd_divisors_upto(m, isqrt(n)) gives the odd t <= isqrt(n) dividing m,
    and the divisors up to isqrt(n) are the 2**i t <= isqrt(n) with i <= k.
    Either way the cofactors n // d follow in reverse.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = isqrt(n)
    if r > _TRIAL_DIVISION_LIMIT:
        raise ValueError(f"sqrt(n) exceeds the work budget of {_TRIAL_DIVISION_LIMIT} trial divisions")
    if r < len(_BASE):  # one chunk, a slice of _BASE: no rows
        q = float(n) / _BASE[1 : r + 1]
        hits = (q == np.floor(q)).nonzero()[0]
        hits += 1
        small = hits.tolist()
    else:
        k = (n & -n).bit_length() - 1
        small = sorted(t << i for t in _odd_divisors_upto(n >> k, r) for i in range(k + 1) if t << i <= r)
    return small + [n // d for d in reversed(small) if d * d != n]


def _odd_divisors_upto(m: int, r: int) -> list[int]:
    """The odd d <= r that divide m >= 1, ascending, by trial division.

    The odd d run in chunks of _TRIAL_CHUNK, so memory stays bounded
    whatever r is.  Below m = 2**53 a chunk is float64 and keeps the d with
    fl(m / d) == floor(fl(m / d)), exact by the module docstring's argument:
    the d are one row, 2 * _BASE[:-1] + 1 moved up by 2 * _TRIAL_CHUNK a
    chunk, and the quotients go to rows allocated once per call.  From
    2**53 on a chunk is int64 and keeps d[m % d == 0], exact since the
    budget keeps m below 2**63.
    """
    span = 2 * _TRIAL_CHUNK  # integers spanned by a chunk of odd d
    small = []
    if m >= 2**53:
        for start in range(1, r + 1, span):
            d = np.arange(start, min(start + span, r + 1), 2, dtype=np.int64)
            small += d[m % d == 0].tolist()
        return small
    x = float(m)
    d_row, q_row, f_row = np.empty((3, _TRIAL_CHUNK))
    hit_row = np.empty(_TRIAL_CHUNK, dtype=bool)
    np.multiply(_BASE[:-1], 2.0, out=d_row)
    d_row += 1.0
    for start in range(1, r + 1, span):  # d_row[0] == start
        j = min(_TRIAL_CHUNK, (r - start) // 2 + 1)  # the odd d in [start, r]
        q = np.divide(x, d_row[:j], out=q_row[:j])
        hits = np.equal(q, np.floor(q, out=f_row[:j]), out=hit_row[:j]).nonzero()[0]
        hits *= 2
        hits += start
        small += hits.tolist()
        d_row += span
    return small


def divisor_sum_restricted(n: int, spec: DivisorSpec, divs: list[int] | None = None):
    """sigma_{a,alpha}(n) = sum of d**alpha over divisors d with d**a <= n.

    Exact int in integer-alpha mode; math.fsum of d**alpha otherwise, refused
    past float64.  divs, if given, is _divisors(n), enumerated once for
    several values.  The divisors come ascending, so the test stops at the
    first d with d**a > n.
    """
    divs = takewhile(lambda d: d**spec.a <= n, _divisors(n) if divs is None else divs)
    return _divisor_power_sum(divs, spec.alpha, n)


def tau(n: int) -> int:
    """Number of divisors of n."""
    return len(_divisors(n))


def sigma_alpha(n: int, alpha):
    """Full divisor power sum sigma_alpha(n) over all divisors, alpha as in DivisorSpec."""
    _require_alpha(alpha)
    return _divisor_power_sum(_divisors(n), alpha, n)


def _divisor_power_sum(divs, alpha, n: int):
    """Sum of d**alpha over divs, divisors of n: an exact int at int alpha, else
    math.fsum of the float powers, refused past float64."""
    if isinstance(alpha, int):
        return sum(d**alpha for d in divs)
    return float64_guarded(alpha, n, math.fsum, (d**alpha for d in divs))  # fsum draws the powers inside


def is_square(n: int) -> int:
    """1 if n is a perfect square, else 0."""
    if n < 0:
        return 0
    r = isqrt(n)
    return 1 if r * r == n else 0


def tau_tilde_via_identity(n: int, t: int | None = None) -> int:
    """Half-range divisor count via (tau(n) + 1_square(n)) / 2; t, if given, is tau(n).

    tau(n) and the square indicator always have equal parity (divisors pair
    off as (d, n/d) except the square root), so the division is exact; a
    parity violation would mean tau itself is broken.
    """
    t = tau(n) if t is None else t
    s = is_square(n)
    if (t + s) % 2 != 0:
        raise AssertionError(f"parity breach: tau({n})={t}, square={s}")
    return (t + s) // 2


# ---------------------------------------------------------------------------
# Batch sieves.  These realize the same per-n functions over 1..limit at
# sweep scale (the per-(d,k) pair enumeration, executed vectorized).
# ---------------------------------------------------------------------------

# _sieve_into's tiers: divisors up to _WHEEL_D add one pattern of period
# _WHEEL = lcm(1..12); divisors up to _BLOCK_D sweep sub-blocks of 1 MB,
# within a 2 MB per-core L2 cache: _BLOCK int64 or float64 entries, and
# two or four times as many in an int32 or int16 lane.
_WHEEL_D, _WHEEL = 12, 27720
_BLOCK_D, _BLOCK = 256, 1 << 17


def _sieve_into(arr: np.ndarray, lo: int, spec: DivisorSpec, root: int) -> np.ndarray:
    """Add sigma_{a,alpha}(n) into arr[n - lo] for n in [lo, lo + len(arr)), in place; return arr.

    Adds d**alpha at every n = d*k in range with k >= d**(a-1), for d <= root.
    The caller zeroes arr (contiguous) and, in integer mode, picks its dtype
    by _lane_dtype, so that no entry can wrap.

    A strided add that leaves the cache costs ten or more times a contiguous one, so
    the divisors run in three tiers:
      1. d <= _WHEEL_D: from n = _WHEEL_D**a on every such d divides n with
         k >= d**(a-1), so their adds repeat with period _WHEEL.  One pattern,
         built aligned to the wheel's first entry, is added a period at a
         time through a (rows, _WHEEL) view, when the range holds a whole
         period; the entries below _WHEEL_D**a take one pass per d.
      2. _WHEEL_D < d <= _BLOCK_D: the passes sweep one 1 MB sub-block
         (_BLOCK * 8 // arr.itemsize entries) at a time, all d before the
         next block.
      3. d > _BLOCK_D: one pass over the whole range per d.
    Each entry still receives its adds in ascending d, starting from 0: the
    pattern sums its weights in ascending d from 0, and 0 + p = p.  So float
    tables are bit-for-bit those of one pass per d, not only the exact ones.
    """
    a, alpha, hi = spec.a, spec.alpha, lo + len(arr)  # int ** float is float(int) ** float

    def passes(ds, b0, b1):  # d**alpha at the multiples of each d in [max(b0, d**a), b1)
        for d in ds:
            if d**a >= b1:
                break
            view = arr[max(d**a, -(-b0 // d) * d) - lo : b1 - lo : d]
            view += d**alpha  # in place: `arr[...] += w` would also assign the view back

    small = range(1, min(root, _WHEEL_D) + 1)
    n0 = max(lo, _WHEEL_D**a)
    rows = (hi - n0) // _WHEEL
    passes(small, lo, n0 if rows > 0 else hi)
    if rows > 0:
        pattern = np.zeros(_WHEEL, dtype=arr.dtype)
        for d in small:
            pattern[-n0 % d :: d] += d**alpha
        body = arr[n0 - lo : n0 - lo + rows * _WHEEL].reshape(rows, _WHEEL, copy=False)
        body += pattern
        arr[n0 - lo + rows * _WHEEL :] += pattern[: (hi - n0) % _WHEEL]
    if root > _WHEEL_D:
        middle = range(_WHEEL_D + 1, min(root, _BLOCK_D) + 1)
        step = _BLOCK * 8 // arr.itemsize  # 1 MB in every lane
        for b0 in range(lo, hi, step):
            passes(middle, b0, min(b0 + step, hi))
        passes(range(_BLOCK_D + 1, root + 1), lo, hi)
    return arr


def _lane_dtype(limit: int, root: int, spec: DivisorSpec) -> type:
    """The dtype _sieve_into adds in for n <= limit: float64 in float mode, else the
    narrowest of int16, int32 and int64 that holds the entry cap, or OverflowError.

    An entry sigma_{a,alpha}(n), n <= limit, adds fewer than 2 (isqrt(limit) + 1)
    positive powers d**alpha <= root**alpha, so each of its partial sums is at
    most the cap, their product: a lane that holds the cap cannot wrap.  A
    narrower lane moves a quarter or half of int64's bytes per strided add,
    and so fits four or two times the entries in a cache.
    """
    if not spec.exact:
        return np.float64
    cap = root**spec.alpha * 2 * (isqrt(limit) + 1)
    for lane in (np.int16, np.int32, np.int64):
        if cap <= np.iinfo(lane).max:
            return lane
    raise OverflowError("sieve entries may exceed int64; use divisor_sum_restricted per n instead")


def _sieve_in_lane(out: np.ndarray, lo: int, spec: DivisorSpec, root: int, lane: type) -> np.ndarray:
    """_sieve_into(out, lo, spec, root) run in the dtype lane, which holds every entry; return out.

    out is zeroed and contiguous, int64 or float64.  Where lane is out's own
    dtype this is _sieve_into.  Otherwise the lane is a view of out's own
    first bytes, so nothing is allocated, and after the sieve it is widened
    in place from the top down, in dyadic blocks out[b:2b] = lane[b:2b] for
    b = 2**k, ..., 2, 1, then out[0].  With lane width w <= 4 bytes, block
    b reads bytes [w*b, 2*w*b), which end at or before 8*b, where the
    bytes [8*b, 16*b) it writes begin; the blocks above it wrote only from
    16*b on, past what it reads, and the blocks below it read only below
    w*b, before what it writes.  So every entry is read before it is
    overwritten, and no copy overlaps its source.
    """
    if lane == out.dtype:
        return _sieve_into(out, lo, spec, root)
    narrow = _sieve_into(out.view(lane)[: len(out)], lo, spec, root)
    b = (1 << (len(out) - 1).bit_length()) >> 1
    while b:
        out[b : 2 * b] = narrow[b : 2 * b]
        b >>= 1
    out[0] = narrow[0]
    return out


def restricted_sigma_table(limit: int, spec: DivisorSpec) -> np.ndarray:
    """Array t with t[n] = sigma_{a,alpha}(n) for 1 <= n <= limit (t[0] = 0).

    Enumerates every pair n = d*k with k >= d**(a-1) and adds d**alpha.
    Integer mode refuses (rather than wraps) before the table is allocated
    if values could exceed int64 (_lane_dtype), float mode past float64.
    """
    require_count("limit", limit, 1)
    root = integer_root(limit, spec.a)
    lane = _lane_dtype(limit, root, spec)
    out = np.zeros(limit + 1, dtype=np.int64 if spec.exact else np.float64)
    return float64_guarded(spec.alpha, limit, _sieve_in_lane, out, 0, spec, root, lane)


def _sigma_table(limit: int, alpha: int) -> np.ndarray:
    """Array t with t[n] = sigma_alpha(n) for 1 <= n <= limit (t[0] = 0), int64.

    Hyperbola split at s = isqrt(limit): a divisor d <= s of n is added by a
    stride-d pass; a divisor m > s by the stride-k pass of its cofactor
    k = n/m <= limit // (s + 1), which adds m**alpha at n = m*k for m > s.
    About 2 sqrt(limit) numpy passes instead of limit.
    """
    s = isqrt(limit)
    table = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, s + 1):
        table[d::d] += d**alpha
    powers = np.arange(s + 1, limit + 1, dtype=np.int64) ** alpha
    for k in range(1, limit // (s + 1) + 1):
        table[(s + 1) * k :: k] += powers[: limit // k - s]
    return table


def tau_table(limit: int) -> np.ndarray:
    """Array t with t[n] = tau(n), 1 <= n <= limit (t[0] = 0), by the hyperbola split of _sigma_table:
    it splits at isqrt(limit), not at sqrt(n), so 2 tau~ = tau + 1_square stays a check."""
    require_count("limit", limit, 1)
    return _sigma_table(limit, 0)


def square_table(limit: int) -> np.ndarray:
    """Array t with t[n] = 1 iff n is a perfect square, 1 <= n <= limit."""
    require_count("limit", limit, 1)
    table = np.zeros(limit + 1, dtype=np.int64)
    roots = np.arange(1, isqrt(limit) + 1, dtype=np.int64)
    table[roots * roots] = 1
    return table
