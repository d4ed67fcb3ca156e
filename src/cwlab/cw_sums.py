"""Chowla-Walum sums G_{a,alpha,j}(x), their dyadic block pieces, and the d-range kernels under them.

    G_{a,alpha,j}(x) = sum_{d <= x^(1/a)} d^alpha * B_j({x/d})

with B_j the periodic Bernoulli functions (B_0 = 1, B_1 = psi).  a = 2
recovers the classical sums whose cancellation behaviour the Chowla-Walum
conjecture quantifies; j = 0 additionally admits negative alpha.

Every sum over a range of d, here and in summatory_fast, runs the chunks
of _d_chunks within one work budget in terms, with x // d and x mod d from
_quotient and _mod and float weights d^alpha from _float_weights.  Exact
mode (integer x, integer alpha) takes the power sums (j = 0, alpha >= 0)
from _power_sums and splits every other term at its remainder r = x mod d
into an integer part, summed over numpy chunks in int64 where a bound
proves it safe, and a proper fraction s/d^e.  Every exact sum is one
reducer, _exact_sum, over a generator of (whole, s, d) per chunk: the
fractions of each chunk go to the pairwise tree _fraction_sum, one more
tree sums the chunk sums, and one Fraction is built at the end, so
cancellation-prone values are never touched by rounding.  Exact shifted
psi block sums feed the same reducer: per chunk of n, one bernoulli.psi
call on int64 remainders of 16x modulo 4(4n + a') gives the exact psi
values as unreduced (numerator, denominator) arrays, so no Fraction is
built per term.
An exact summatory_fast call whose cutoff is below summatory._LOOP_CUTOFF
sums over d in a Python-int loop, not in chunks.
Float mode is a double-precision pass over the same chunks of d, building
no array per chunk: every intermediate is written into three float64 rows
allocated once per call.  With integer x the fractional parts
{x/d} = r/d come from the exact remainder r = x mod d, which keeps the
sawtooth accurate even when x/d is far above 2^53 * ulp territory.

The cutoff D = floor(x^(1/a)) is decided exactly for integer a and for
a = p/q, a Fraction or a float with q <= 16, as D**p <= floor(x**q); any
other float a, where an exact tie needs x >= 2**33, by logs at 20 digits
more than x has (at least 40), which leave a correction sweep of a step or
two at any size of x.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bernoulli import MAX_DEGREE, _scaled_coefficients, bernoulli_coefficients, psi
from .divisors import _TRIAL_CHUNK as _FAST_CHUNK  # divisors._BASE is longer than any chunk
from .divisors import _BASE, float64_guarded, integer_root, require_count, require_finite

# work budget of one exact range sum in terms * max(e, 1), e = max(j - alpha, 0):
# the common denominator grows by about 0.43 * e digits a term; at the limit
# G_{2,1,2} (e = 1, x = 1.1e12 at a = 2) takes 21 s and G_{2,0,2} (e = 2,
# x = 2.7e11) 9.5 s (2-vCPU x86-64)
_EXACT_TERMS_LIMIT = 1 << 20
# work budget of one exact shifted_psi_block_sum in N: the lcm of the 4(4n + a')
# grows by about 5.8 bits a term, so the cost grows faster than N; 0.49-0.53 s at
# the limit, 42-44 ms at 2**14 and 0.11-0.12 ms at N = 260 (2-vCPU x86-64)
_PSI_BLOCK_LIMIT = 1 << 16
# work budget of every _d_chunks range in terms (x <= 1e18 at a = 2); the cost
# is linear: for 1e8 terms (x = 1e16 at a = 2) exact summatory_fast takes 0.5 s
# at alpha = 0 or 1 on int64 chunks and 15 s at alpha = 3 on object chunks
_FAST_CUTOFF_LIMIT = 10**9
# fewest leaves whose fraction tree (_fraction_sum) starts in int64 numpy: a
# numpy level has a fixed cost of several µs, and on the fractions of exact G
# blocks at x = 4e7 (2-vCPU x86-64) 64 leaves took 1.2-1.5x the time of the
# Python-int loop, 128 leaves 0.87-0.94x and 1024 leaves 0.54-0.65x
_INT64_TREE_FLOOR = 128


@dataclass(frozen=True)
class GSumSpec:
    """Parameters of one Chowla-Walum sum.

    a may be an int, Fraction, or float > 1.  j = 0 permits any real alpha;
    j >= 1 requires alpha >= 0.  Exact mode needs integer x and integer
    alpha so every B_j({x/d}) is an exact rational.
    """

    a: int | Fraction | float
    alpha: int | float
    j: int
    x: int | float

    def __post_init__(self):
        require_finite(a=self.a, alpha=self.alpha, x=self.x)
        if isinstance(self.alpha, bool) or isinstance(self.x, bool):
            raise ValueError(f"alpha and x must be ints or floats, got alpha={self.alpha!r}, x={self.x!r}")
        if self.a <= 1:
            raise ValueError(f"restriction root a must exceed 1, got {self.a!r}")
        require_count("Bernoulli index j", self.j, 0)
        if self.j >= 1 and self.alpha < 0:
            raise ValueError(f"alpha must be >= 0 when j >= 1, got alpha={self.alpha!r}")
        if self.x < 0:
            raise ValueError(f"evaluation point must be >= 0, got {self.x!r}")

    @property
    def exact(self) -> bool:
        return isinstance(self.x, int) and isinstance(self.alpha, int)

    @property
    def cutoff(self) -> int:
        return gsum_cutoff(self.x, self.a)


def gsum_cutoff(x, a) -> int:
    """Largest integer D >= 0 with D**a <= x, exact for integer a and for a = p/q, a Fraction
    or a float with q <= 16, as D**p <= floor(x**q) for int and float x (module docstring)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x < 1:
        return 0
    if isinstance(a, int) and not isinstance(a, bool):
        return integer_root(math.floor(x), a)
    if isinstance(a, float) and Fraction(a).denominator <= 16:
        a = Fraction(a)
    if isinstance(a, Fraction):
        return integer_root(math.floor(Fraction(x) ** a.denominator), a.numerator)
    from mpmath import mp
    # 20 digits more than x has put the estimate within a step of D, for any size of x
    with mp.workdps(max(40, int(math.log10(x)) + 20)):
        lx = mp.log(mp.mpf(x))
        la = mp.mpf(a)
        d = int(mp.floor(mp.exp(lx / la)))
        while d > 0 and la * mp.log(d) > lx:
            d -= 1
        while la * mp.log(d + 1) <= lx:
            d += 1
        return d


def _d_chunks(lo: int, hi: int, sum_bound, *args, as_float: bool = False):
    """d = lo..hi in numpy chunks of at most _FAST_CHUNK, refused past _FAST_CUTOFF_LIMIT terms.

    A chunk d = start..end is int64 when sum_bound(start, end, *args), a bound on
    every integer term the caller sums over it and on their sum, is below 2**63,
    else a Python-int object array.  Callers that sum no integer term over d
    in numpy (float sums, fraction trees on Python ints) pass None.  With
    as_float, for hi < 2**53, a chunk that would be int64 is a read-only
    float64 array instead: the slice _BASE[start:end + 1] while end <
    len(_BASE), past it _BASE[:n] + start written into one row of
    min(hi - lo + 1, _FAST_CHUNK) entries, allocated once per loop: both
    addends and the sum are integers below 2**53, so d is exact, with no
    int64 arange and no cast.
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


def _mod(x: int, d: np.ndarray) -> np.ndarray:
    """x mod d in d's dtype: r < d fits it even where x does not.

    From x = 2**63 on, an int64 chunk whose d are all below 2**31 reduces x by
    its 32-bit limbs, most significant first, as r = ((r << 32) | limb) % d:
    r < d < 2**31 before each step, so (r << 32) | limb < 2**63 stays in
    int64.  Every chunk of summatory_fast qualifies, since its range starts at
    1 and holds at most _FAST_CUTOFF_LIMIT = 10**9 < 2**31 terms.  Object
    chunks, and int64 chunks of larger d (blocks of G), take Python ints.
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


def _power_sums(lo: int, hi: int, *degrees: int) -> list[int]:
    """[sum_{lo <= d <= hi} d^m for each m >= 0 of degrees], exactly (0 if lo > hi).

    Below bernoulli.MAX_DEGREE it is (B_{m+1}(hi + 1) - B_{m+1}(lo)) / (m + 1),
    B_{m+1} by Horner's rule on Python ints with the cached integer-scaled
    coefficients, so the cost does not grow with the range.  From MAX_DEGREE
    on the coefficients would cost more than the terms (their recurrence grows
    faster than quadratically in the degree), so d^m is summed directly, for
    all such degrees in one pass over d: d^m at the lowest, each higher one
    from the one below times a small power of d.  The pass is refused before
    it runs past _EXACT_TERMS_LIMIT terms.
    """
    if lo > hi:
        return [0] * len(degrees)
    sums, looped = [], False
    for m in degrees:
        if m >= MAX_DEGREE:
            looped = True
            sums.append(0)
        elif m:
            den_c, c = _scaled_coefficients(m + 1)
            top, bottom, end = 0, 0, hi + 1
            # c by index, not reversed(c): every exact summatory_fast call runs
            # this, and with one GC-tracked object fewer at its peak a gen0
            # collection no longer fell inside one call in 700 (BENCH_31.json)
            for k in range(m + 1, -1, -1):
                top = top * end + c[k]
                bottom = bottom * lo + c[k]
            sums.append((top - bottom) // (den_c * (m + 1)))
        else:
            sums.append(hi - lo + 1)
    if not looped:
        return sums
    if hi - lo + 1 > _EXACT_TERMS_LIMIT:
        raise ValueError(f"{hi - lo + 1} terms of degree {max(degrees)} exceed the work budget of {_EXACT_TERMS_LIMIT}")
    head, *rest = high = sorted({m for m in degrees if m >= MAX_DEGREE})
    steps = [(m, m - k) for k, m in zip(high, rest)]
    high_sums = dict.fromkeys(high, 0)
    for d in range(lo, hi + 1):
        p = d**head
        high_sums[head] += p
        for m, step in steps:
            p *= d**step
            high_sums[m] += p
    return [high_sums.get(m, s) for m, s in zip(degrees, sums)]


def _exact_range_sum(x: int, alpha: int, j: int, lo: int, hi: int):
    """sum_{lo <= d <= hi} d^alpha B_j({x/d}) in exact arithmetic.

    At j = 0 and alpha >= 0 it is the int of _power_sums.  Every other sum
    runs within the work budget, as _exact_sum of _range_chunks.
    """
    if j == 0 and alpha >= 0:
        return _power_sums(lo, hi, alpha)[0]
    e, lift = max(j - alpha, 0), max(alpha - j, 0)
    if (hi - lo + 1) * max(e, 1) > _EXACT_TERMS_LIMIT:
        raise ValueError(
            f"{hi - lo + 1} exact terms of degree {e} exceed the work budget of {_EXACT_TERMS_LIMIT}"
        )
    den_c, c = _scaled_coefficients(j)
    return _exact_sum(_range_chunks(x, j, lo, hi, c, e, lift, max(j, abs(alpha))), e, den_c)


def _range_chunks(x: int, j: int, lo: int, hi: int, c, e: int, lift: int, power: int):
    """(whole, s, d) per chunk of d = lo..hi, for den_c * d^alpha B_j({x/d}) = whole + s / d^e.

    With r = x mod d and c = den_c * B_j scaled to integer coefficients, each
    term is P_d / d^e, where e = max(j - alpha, 0) and
    P_d = d^lift * sum_k c_k r^k d^(j-k), lift = max(alpha - j, 0);
    divmod(P_d, d^e) splits it into a whole part, summed in numpy, and a
    proper fraction s_d / d^e.  At e = 0 a chunk is its whole part only.
    """
    for d in _d_chunks(lo, hi, _horner_bound, sum(map(abs, c)), power):
        if j:
            r = _mod(x, d)
        # homogeneous Horner: p = sum_{i >= k} c_i r^(i-k) d^(j-i) at step k
        p, d_pow = np.full_like(d, c[j]), 1
        for k in range(j - 1, -1, -1):
            d_pow = d_pow * d
            p = p * r
            if c[k]:
                p += c[k] * d_pow
        if lift:
            p *= d**lift
        if not e:
            yield int(p.sum()), None, None
            continue
        den = d**e
        yield int((p // den).sum()), p % den, d


def _exact_sum(chunks, e: int, den_c: int = 1) -> Fraction:
    """(sum of whole + sum_i s[i] / d[i]**e over the chunks) / den_c, one reduced Fraction.

    chunks yields (whole, s, d) per chunk: an int and two integer arrays of
    equal length with d > 0, or None, None for a chunk of whole parts only.
    A chunk's nonzero s and their d go to _fraction_sum before the next
    chunk is built, the chunk sums to one more tree (module docstring).
    """
    whole, nums, bases = 0, [], []
    for chunk_whole, s, d in chunks:
        whole += chunk_whole
        if s is not None:
            keep = s != 0
            num, base = _fraction_sum(s[keep], d[keep], e)
            nums.append(num)
            bases.append(base)
    num, base = _fraction_sum(nums, bases, e)
    den = base**e
    return Fraction(whole * den + num, den * den_c)


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


def _horner_bound(lo: int, hi: int, weight: int, power: int) -> int:
    # every Horner value, power of d and whole part over d <= hi is at most
    # weight * hi**power, with weight the sum of |c_k|, so a chunk sum is at
    # most its length times that
    return weight * hi**power * (hi - lo + 1)


def _float_range_sum(x, alpha, j: int, lo: int, hi: int) -> float:
    """_float_chunk_sums(x, alpha, j, lo, hi), refused past float64 (divisors.float64_guarded)."""
    return float64_guarded(alpha, hi, _float_chunk_sums, x, alpha, j, lo, hi)


def _float_chunk_sums(x, alpha, j: int, lo: int, hi: int) -> float:
    """Double-precision sum over lo <= d <= hi: one numpy sum of
    B_j({x/d}) * d**alpha per chunk, the chunk sums added in order.

    Every step writes into float64 rows of min(hi - lo + 1, 2^14) entries,
    allocated once per call: {x/d}, B_j({x/d}) (then times d**alpha) and
    the weights d**alpha of _float_weights.  d comes as float64 from
    _d_chunks below d = 2^53, and with integer x below 2^53, else as int64.
    With integer x, {x/d} = r/d for r = x - d * _quotient(x, d) on float
    chunks, else r = _mod(x, d).  B_j runs by Horner's rule in place, the
    multiplies and adds of np.polyval in its order; B_j is monic, so its
    first step 1.0 * t + c_1 is t + c_1.  The power is skipped at alpha = 0 and 1,
    where pow(d, alpha) is exactly 1 and d."""
    coeffs = [float(c) for c in reversed(bernoulli_coefficients(j))]
    exact_x = isinstance(x, int)
    as_float = hi < 2**53 and not (exact_x and x >= 2**53)
    n = max(min(hi - lo + 1, _FAST_CHUNK), 0)
    frac_row, b_row, w_row = np.empty(n), np.empty(n), np.empty(n)
    total = 0.0
    for d in _d_chunks(lo, hi, None, as_float=as_float):
        n = len(d)
        frac, b = frac_row[:n], b_row[:n]  # {x/d}, then B_j({x/d}) and times d**alpha
        if j:
            if not exact_x:
                np.divide(float(x), d, out=frac)
                np.modf(frac, out=(frac, b))
            elif as_float:
                _quotient(x, d, out=frac)
                frac *= d
                np.subtract(x, frac, out=frac)
                frac /= d
            else:
                np.divide(_mod(x, d), d, out=frac)
            np.add(frac, coeffs[1], out=b)
            for c in coeffs[2:]:
                b *= frac
                b += c
        if alpha == 0:
            total += float(np.sum(b)) if j else n
            continue
        w = _float_weights(d, alpha, w_row)
        if j:
            b *= w
        total += float(np.sum(b if j else w))
    return total


def g_sum(spec: GSumSpec):
    """G_{a,alpha,j}(x).  Exact rational in exact mode, float otherwise.

    x in [0, 1) gives the empty sum 0.  Exact mode is one integer-split
    range sum over 1..cutoff, within the work budget of _exact_range_sum;
    the d = 1 head term plus the dyadic blocks of block_g reassemble it.
    """
    cut = spec.cutoff
    if cut == 0:
        return Fraction(0) if spec.exact else 0.0
    if not spec.exact:
        return _float_range_sum(spec.x, spec.alpha, spec.j, 1, cut)
    return _exact_range_sum(spec.x, spec.alpha, spec.j, 1, cut)


def block_g(n_start: int, spec: GSumSpec):
    """Dyadic block sum over n_start < d <= min(2*n_start, cutoff).

    Summing block_g over n_start = 1, 2, 4, ... plus the d = 1 head term
    reassembles g_sum exactly in exact mode.
    """
    require_count("block start", n_start, 1)
    cut = spec.cutoff
    lo, hi = n_start + 1, min(2 * n_start, cut)
    if spec.exact:
        return _exact_range_sum(spec.x, spec.alpha, spec.j, lo, hi)
    return _float_range_sum(spec.x, spec.alpha, spec.j, lo, hi)


def _psi_chunks(n_start: int, x: int, shift_a: int, shift_b: int):
    """(0, num, den) per chunk of n = N + 1..2N, psi(4x/(4n + shift_a) + shift_b/4) = num / den.

    With m = 4n + shift_a that is psi((16x + shift_b * m) / q), q = 4m < 2**22,
    and 16x + shift_b * m = r mod q for r = (16x mod q) + shift_b * m,
    |r| < 2q: one psi call on int64 arrays per chunk, exact for every x,
    since _mod reduces 16x >= 2**63 by 32-bit limbs.
    """
    for n in _d_chunks(n_start + 1, 2 * n_start, None):
        m = 4 * n + shift_a
        yield (0, *psi(_mod(16 * x, 4 * m) + shift_b * m, 4 * m))


def shifted_psi_block_sum(n_start: int, x, shift_a: int = 0, shift_b: int = 0):
    """sum_{N < n <= 2N} psi(4x/(4n + shift_a) + shift_b/4).

    The block sums whose cancellation drives the sharpest unconditional
    error exponents.  Requires |shift_a| + |shift_b| <= 1 and
    3 <= N <= sqrt(x).  Integer x gives the exact rational sum for N up to
    _PSI_BLOCK_LIMIT, _exact_sum of _psi_chunks, with no Fraction per term;
    other x a float sum over numpy chunks of n, within the _d_chunks work
    budget.
    """
    if abs(shift_a) + abs(shift_b) > 1:
        raise ValueError("|shift_a| + |shift_b| must be <= 1")
    require_count("block start", n_start, 3)
    require_finite(x=x)
    if x < 1:
        raise ValueError("x must be >= 1")
    if n_start * n_start > x:
        raise ValueError(f"block start {n_start} exceeds sqrt(x)")
    if isinstance(x, int):
        if n_start > _PSI_BLOCK_LIMIT:
            raise ValueError(f"{n_start} exact block terms exceed the work budget of {_PSI_BLOCK_LIMIT}")
        return _exact_sum(_psi_chunks(n_start, x, shift_a, shift_b), 1)
    chunks = (
        psi(4.0 * x / (4 * n + shift_a) + shift_b / 4.0).tolist()
        for n in _d_chunks(n_start + 1, 2 * n_start, None)
    )
    return math.fsum(itertools.chain.from_iterable(chunks))
