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
so they cannot wrap: the total's chunk buffer is in the lane dtype and
summed in int64.  summatory_fast needs only O(x^(1/a)) terms:
interchanging the summations gives

    sum_{n <= x} sigma_{a,alpha}(n)
        = sum_{d <= x^(1/a)} d^alpha * (floor(x/d) - d^(a-1) + 1),

and writing floor(t) = t - 1/2 - psi(t) splits that into the four
Chowla-Walum components

    x*G_{a,alpha-1,0}(x) - G_{a,alpha+a-1,0}(x)
        + (1/2)*G_{a,alpha,0}(x) - G_{a,alpha,1}(x).

summatory_fast sums over d in the chunks of _d_chunks, shared with cw_sums:
int64 where a per-chunk bound proves no sum can wrap, else object arrays.
Below x = 2^53 the floor quotients come from a float64 division and floor,
exactly (see _quotient), and x mod d = x - d*floor(x/d); from 2^53 on they
are integer divisions.  The power sums sum d^m have a closed form in
Bernoulli polynomials (_power_sum), so in integer mode only one sum runs
over the chunks.  At alpha = 0 it is sum floor(x/d).  At alpha >= 1,
d^alpha floor(x/d) = d^(alpha-1) (x - (x mod d)) gives

    sum d^alpha floor(x/d) = x * sum d^(alpha-1) - sum d^(alpha-1) (x mod d),

and every term of the last sum is below d^alpha <= D^alpha whatever x is,
so its chunks stay int64 up to D^alpha * 2^14 < 2^63: at alpha = 1 always,
at alpha = 2 up to D of about 2.37e7.

The chunk kernels below x = 2^53 (exact alpha 0 and 1, float mode, and
float G in cw_sums) take d as float64 and build no array per chunk.
_d_chunks(..., as_float=True) gives d as a slice of divisors._BASE = 0, 1,
..., 2^14 in float64 or, past it, as _BASE[:n] + start written into one
row: both addends and the sum are integers below 2^53, so d is exact, with
no int64 arange and no cast.  Either way the chunk is read-only: the float
weights d^alpha come from _float_weights, d itself at alpha = 1, else
raised in a row of the caller.  Every other intermediate is written with
out= into a few float64 rows of min(range, _FAST_CHUNK) entries, the
workspace, allocated once per call, so a tiny call allocates a few hundred
bytes.
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
exact integer equality, not a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bernoulli import MAX_DEGREE, _scaled_coefficients
from .divisors import _TRIAL_CHUNK as _FAST_CHUNK  # divisors._BASE is longer than any chunk
from .divisors import (_BASE, DivisorSpec, _lane_dtype, _sieve_entry_bound, _sieve_into, float64_guarded,
                       integer_root, restricted_sigma_table)

BRUTEFORCE_LIMIT = 10**8
_CHUNK = 10**7
# work budget of every _d_chunks range in terms (x <= 1e18 at a = 2); the cost
# is linear: for 1e8 terms (x = 1e16 at a = 2) exact summatory_fast takes 0.5 s
# at alpha = 0 or 1 on int64 chunks and 15 s at alpha = 3 on object chunks
_FAST_CUTOFF_LIMIT = 10**9
# fewest leaves whose fraction tree (_fraction_sum) starts in int64 numpy: a
# numpy level has a fixed cost of several µs, and on the fractions of exact G
# blocks at x = 4e7 (2-vCPU x86-64) 64 leaves took 1.2-1.5x the time of the
# Python-int loop, 128 leaves 0.87-0.94x and 1024 leaves 0.54-0.65x
_INT64_TREE_FLOOR = 128


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
    # sum d^(alpha-1), kept where exact summatory_fast built it (alpha >= 1)
    _s_lower: int | None = field(default=None, repr=False)

    @cached_property
    def _sum_alpha_minus_one(self):
        if self._s_lower is not None:
            return self._s_lower
        alpha, cut = self.spec.alpha, self.cutoff
        if self.spec.exact:  # alpha = 0: the harmonic number H_cut
            nums, dens = [], []
            for d in _d_chunks(1, cut, None):
                num, den = _fraction_sum(np.ones_like(d), d)
                nums.append(num)
                dens.append(den)
            return Fraction(*_fraction_sum(nums, dens))
        return math.fsum(d ** (alpha - 1.0) for d in range(1, cut + 1))

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
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"x must be an integer, got {x!r}")
    if x < 0:
        raise ValueError("x must be >= 0")
    if not spec.exact and x >= 2**63:
        raise ValueError("float mode needs x < 2**63; use an integer alpha for exact mode")
    a, alpha = spec.a, spec.alpha
    cut = integer_root(x, a) if x >= 1 else 0
    s_lower = None
    if spec.exact:
        s = 0  # sum floor(x/d) at alpha = 0, else sum d^(alpha-1) * (x mod d)
        # below 2**53 the quotients go to one row, and at alpha 0 and 1 d is
        # float and, at alpha = 1, so are the chunk sums (module docstring)
        q_row = np.empty(min(cut, _FAST_CHUNK)) if x < 2**53 else None
        for d in _d_chunks(1, cut, _fast_sum_bound, x, alpha, as_float=x < 2**53 and alpha <= 1):
            if x < 2**53 and d.dtype != object:
                t = _quotient(x, d, out=q_row[: len(d)])
                if not alpha:
                    v = t.sum()  # exact below 2**53, else the int64 sum is (module docstring)
                    s += int(v) if v < 2**53 else int(t.sum(dtype=np.int64))
                    continue
                if alpha > 1:
                    t = t.astype(np.int64)
                t *= d
                np.subtract(x, t, out=t)
            else:
                t = _mod(x, d) if alpha else x // d
            if alpha > 1:
                t *= d if alpha == 2 else d ** (alpha - 1)
            s += int(t.sum())
        s_lower = _power_sum(cut, alpha - 1) if alpha else None
        s_pow, s_alpha = _power_sum(cut, alpha + a - 1), _power_sum(cut, alpha)
        s_floor = x * s_lower - s if alpha else s
    else:
        # every weight is at most cut**alpha, every product and sum at most x * cut**(alpha + 1)
        top = (alpha + 2) * x.bit_length()
        s_floor, s_pow, s_alpha = float64_guarded(alpha, top, _float_sums, x, a, alpha, cut)
    return SummatoryBreakdown(x, spec, s_floor - s_pow + s_alpha, cut, s_floor, s_pow, s_alpha, s_lower)


def _float_sums(x: int, a: int, alpha: float, cut: int) -> tuple[float, float, float]:
    """Float-mode summatory_fast: sum floor(x/d) d^alpha, sum d^(alpha+a-1) and sum d^alpha over d <= cut."""
    s_floor = s_pow = s_alpha = 0.0
    as_float = x < 2**53  # float d, floor(x/d) and d^(a-1) are exact floats
    n = min(cut, _FAST_CHUNK)
    q_row, p_row, w_row = np.empty(n), np.empty(n), np.empty(n)
    for d in _d_chunks(1, cut, None, as_float=as_float):
        n = len(d)
        q, p = q_row[:n], p_row[:n]  # floor(x/d) and d^(a-1), then times d^alpha
        if as_float:
            _quotient(x, d, out=q)
            np.copyto(p, d)
            for _ in range(a - 2):  # d^k <= d^(a-1) < x: every product is exact
                p *= d
        else:
            np.copyto(q, x // d)
            np.copyto(p, d if a == 2 else d ** (a - 1))
        if alpha == 0:  # pow(d, 0.0) = 1: every weight is 1
            s_alpha += n
        else:
            w = _float_weights(d, alpha, w_row)
            p *= w
            q *= w
            s_alpha += float(w.sum())
        s_pow += float(p.sum())
        s_floor += float(q.sum())
    if not math.isfinite(s_floor - s_pow + s_alpha):  # a Python float sum reached inf
        raise OverflowError
    return s_floor, s_pow, s_alpha


def _power_sum(n: int, m: int) -> int:
    """sum_{d <= n} d^m = (B_{m+1}(n + 1) - B_{m+1}(1)) / (m + 1), exactly.

    B_{m+1} is evaluated by Horner's rule on Python ints with the cached
    integer-scaled coefficients, so the cost does not grow with n.  Past
    bernoulli.MAX_DEGREE the coefficients would cost more than the terms
    (their recurrence grows faster than quadratically in the degree), so
    d^m is summed directly.
    """
    if m == 0:
        return n
    if m >= MAX_DEGREE:
        return sum(d**m for d in range(1, n + 1))
    den_c, c = _scaled_coefficients(m + 1)
    acc = 0
    for ck in reversed(c):
        acc = acc * (n + 1) + ck
    return (acc - sum(c)) // (den_c * (m + 1))


def _quotient(x: int, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x // d as float64, for 0 <= x < 2**53 and a chunk of integers 1 <= d < 2**53.

    The chunk may be int64 or float64: its entries are exact floats either
    way.  floor(fl(x / d)) = x // d, and x - d * q is the exact remainder.
    Proof: with q = x // d, x/d lies in [q, q + 1 - 1/d], and q is a float.
    Rounding is monotone, so fl(x/d) >= q, and its error is below
    (x/d) * 2**-53 < 1/d, so fl(x/d) < q + 1.  Then d * q <= x < 2**53 and
    x - d * q are exact too.  A float division and a floor cost less than
    half of an int64 x // d or x % d.  At x >= 2**53 only those are exact.
    out, if given, receives the quotients.
    """
    q = np.divide(float(x), d, out=out)
    return np.floor(q, out=q)


def _d_chunks(lo: int, hi: int, sum_bound, *args, as_float: bool = False):
    """d = lo..hi in numpy chunks of at most _FAST_CHUNK, refused past _FAST_CUTOFF_LIMIT terms.

    A chunk d = start..end is int64 when sum_bound(start, end, *args), a bound on
    every integer term the caller sums over it and on their sum, is below 2**63,
    else a Python-int object array.  Callers that sum no integer term over d
    in numpy (float sums, fraction trees on Python ints) pass None.  With
    as_float, for hi < 2**53, a chunk that would be int64 is a read-only
    float64 array instead: the slice _BASE[start:end + 1] while end <
    len(_BASE), past it _BASE[:n] + start written into one row of
    min(hi - lo + 1, _FAST_CHUNK) entries, allocated once per loop.  No int64
    arange and no cast is built.
    """
    if hi - lo + 1 > _FAST_CUTOFF_LIMIT:
        raise ValueError(f"{hi - lo + 1} terms exceed the work budget of {_FAST_CUTOFF_LIMIT} terms")
    row = None
    for start in range(lo, hi + 1, _FAST_CHUNK):
        end = min(start + _FAST_CHUNK - 1, hi)
        n = end - start + 1
        fits = sum_bound is None or sum_bound(start, end, *args) < 2**63
        if not (fits and as_float):
            yield np.arange(start, end + 1, dtype=np.int64 if fits else object)
        elif end < len(_BASE):
            yield _BASE[start : end + 1]
        else:
            if row is None:
                row = np.empty(min(hi - lo + 1, _FAST_CHUNK))
            d = np.add(_BASE[:n], start, out=row[:n])
            d.flags.writeable = False
            yield d


def _float_weights(d: np.ndarray, alpha, row: np.ndarray) -> np.ndarray:
    """d**float(alpha) in float64 for a chunk d of _d_chunks, alpha != 0, not to be written.

    A float chunk at alpha = 1 is its own weight; otherwise d is copied into
    row[:len(d)] and raised there with **=, the operator of the float
    references in the tests, so the weights match theirs bit for bit.
    """
    if alpha == 1 and d.dtype == np.float64:
        return d
    w = row[: len(d)]
    np.copyto(w, d)
    if alpha != 1:  # pow(d, 1.0) = d
        w **= float(alpha)
    return w


def _mod(x: int, d: np.ndarray) -> np.ndarray:
    """x mod d in d's dtype: r < d fits it even where x does not.

    From x = 2**63 on, an int64 chunk whose d are all below 2**31 reduces x by
    its 32-bit limbs, most significant first, as r = ((r << 32) | limb) % d:
    r < d < 2**31 before each step, so (r << 32) | limb < 2**63 stays in
    int64.  Every chunk of summatory_fast qualifies, since its range starts at
    1 and holds at most _FAST_CUTOFF_LIMIT = 10**9 < 2**31 terms.  Object
    chunks, and int64 chunks of larger d (block ranges in cw_sums), take
    Python ints.
    """
    if x < 2**63 or d.dtype == object:
        return x % d
    if d[-1] >= 2**31:
        return (x % d.astype(object)).astype(d.dtype)
    r = np.zeros_like(d)
    for shift in range((x.bit_length() - 1) // 32 * 32, -1, -32):
        r <<= 32
        r |= (x >> shift) & 0xFFFFFFFF
        r %= d
    return r


def _fast_sum_bound(lo: int, hi: int, x: int, alpha: int) -> int:
    # alpha >= 1: 0 <= x mod d < d, so d^(alpha-1) * (x mod d) < d^alpha <= hi^alpha,
    # and its factors are below that too, whatever x is (_mod brings x mod d
    # into int64 from x >= 2**63).  alpha = 0: floor(x/d) <= x/d, and the
    # k-th of the (hi // lo).bit_length() dyadic pieces lo*2^k <= d < lo*2^(k+1),
    # which cover lo..hi, has at most lo*2^k terms of at most x/(lo*2^k), so
    # sums to at most x; x // d needs x itself in int64, and at x >= 2**63 the
    # bound is past 2**63 too
    if alpha >= 1:
        return hi**alpha * (hi - lo + 1)
    return x * (hi // lo).bit_length()


def _fraction_sum(num, base, e: int = 1) -> tuple[int, int]:
    """(n, b) with n / b**e = sum of num[i] / base[i]**e, base[i] > 0, unreduced; (0, 1) if empty.

    A pairwise tree: each level merges neighbours a / b**e and c / f**e as

        g = gcd(b, f),   n = a * (f//g)**e + c * (b//g)**e,   base (b//g) * f,

    so a node's base is the lcm of its leaves' bases and its denominator,
    that base to the e, the lcm of their denominators; (n, b) does not depend
    on the tree's shape.  The gcds run on the bases, e times shorter than the
    denominators.  An int64 array of at least _INT64_TREE_FLOOR leaves runs
    its first levels in numpy, as many as _int64_levels proves stay below
    2**63; the rest, and any other input, runs on Python ints, where nothing
    can overflow.  The callers pass arrays of one _d_chunks chunk, at most
    _FAST_CHUNK leaves, which bounds the Python-int tree and its peak memory.
    """
    if isinstance(base, np.ndarray):
        if len(base) >= _INT64_TREE_FLOOR and base.dtype == np.int64:
            num, base = _int64_levels(num, base, e)
        num, base = num.tolist(), base.tolist()
    while len(base) > 1:
        merged_num, merged_base = [], []
        if e == 1:  # no powers: they, or a test per merge, slow small trees by 3-24 %
            for a, b, c, f in zip(num[::2], base[::2], num[1::2], base[1::2]):
                g = math.gcd(b, f)
                b //= g
                merged_num.append(a * (f // g) + c * b)
                merged_base.append(b * f)
        else:
            for a, b, c, f in zip(num[::2], base[::2], num[1::2], base[1::2]):
                g = math.gcd(b, f)
                b //= g
                merged_num.append(a * (f // g) ** e + c * b**e)
                merged_base.append(b * f)
        if len(base) % 2:
            merged_num.append(num[-1])
            merged_base.append(base[-1])
        num, base = merged_num, merged_base
    return (num[0], base[0]) if base else (0, 1)


def _int64_levels(num: np.ndarray, base: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The first levels of _fraction_sum's tree, merged in int64 numpy.

    With A = max |num| and M = max base, a node of level l has base at most
    B_l = M**(2**l) and |numerator| at most N_l = 2**l * A * M**(e*(2**l - 1)),
    since N_{l+1} = 2 * N_l * B_l**e.  Every product and sum of the merge into
    level l + 1 is at most N_{l+1} or B_{l+1}, so a level runs in int64 while
    both stay below 2**63 (A is taken as at least 1, so that N_{l+1} also
    covers (b//g)**e <= B_l**e).  As in the Python-int loop, a level of odd
    length carries its last node to the next.
    """
    n_top, b_top = max(int(np.abs(num).max()), 1), int(base.max())
    while len(base) > 1:
        n_top, b_top = 2 * n_top * b_top**e, b_top * b_top
        if n_top >= 2**63 or b_top >= 2**63:
            break
        m = len(base) // 2 * 2
        b, f = base[:m:2], base[1:m:2]
        g = np.gcd(b, f)
        b = b // g
        num = np.concatenate((num[:m:2] * (f // g) ** e + num[1:m:2] * b**e, num[m:]))
        base = np.concatenate((b * f, base[m:]))
    return num, base


def _brute_root(x: int, spec: DivisorSpec) -> int:
    """The sieve's divisor range x^(1/a), past a guard that raises before anything
    is allocated unless, in integer mode, every sum of _CHUNK entries fits int64."""
    root = integer_root(x, spec.a)
    if spec.exact and _sieve_entry_bound(x, root, spec.alpha) * _CHUNK >= 2**63:
        raise OverflowError("sieve chunk sums may exceed int64 at this scale")
    return root


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
        raise ValueError(f"brute force is guarded at x <= {BRUTEFORCE_LIMIT}; use summatory_fast")
    root = _brute_root(x, spec)
    buf = np.empty(min(x, _CHUNK), dtype=_lane_dtype(x, root, spec))

    def chunk_sums():
        total: int | float = 0 if spec.exact else 0.0
        for lo in range(1, x + 1, _CHUNK):
            buf.fill(0)
            chunk = _sieve_into(buf[: x + 1 - lo], lo, spec, root)
            total += int(chunk.sum(dtype=np.int64)) if spec.exact else float(chunk.sum())
        if not (spec.exact or math.isfinite(total)):  # a Python float sum reached inf
            raise OverflowError
        return total

    # an entry is at most 2 (sqrt(x) + 1) root**alpha <= 4 x**(alpha + 1), a sum x times
    # that; in exact mode nothing can overflow either way, as the lane holds every entry
    return float64_guarded(spec.alpha, (spec.alpha + 2) * x.bit_length() + 2, chunk_sums)


def summatory_bruteforce_table(limit: int, spec: DivisorSpec) -> np.ndarray:
    """Cumulative array c with c[n] = sum_{m <= n} sigma_{a,alpha}(m).

    Batch form of the brute-force oracle for sweeps: the prefix sum of
    restricted_sigma_table, taken in place.  In integer mode the last entry
    is re-verified against the table's total summed in Python ints, so an
    int64 wrap cannot go unnoticed.
    """
    if limit < 1 or limit > BRUTEFORCE_LIMIT:
        raise ValueError(f"limit must be in [1, {BRUTEFORCE_LIMIT}]")
    _brute_root(limit, spec)  # refuses before the table is allocated
    full = restricted_sigma_table(limit, spec)
    if spec.exact:  # in Python ints over int64 sums of _CHUNK entries, which _brute_root proves fit
        total = sum(int(full[lo : lo + _CHUNK].sum()) for lo in range(0, limit + 1, _CHUNK))
    # as in summatory_bruteforce: every cumulative sum is at most limit times 4 limit**(alpha + 1)
    float64_guarded(spec.alpha, (spec.alpha + 2) * limit.bit_length() + 2, lambda: np.cumsum(full, out=full))
    if spec.exact and (int(full[-1]) != total or full.min() < 0):  # an int64 wrap cannot match total
        raise OverflowError("cumulative sums exceeded int64")
    return full
