"""Chowla-Walum sums G_{a,alpha,j}(x) and their dyadic block pieces.

    G_{a,alpha,j}(x) = sum_{d <= x^(1/a)} d^alpha * B_j({x/d})

with B_j the periodic Bernoulli functions (B_0 = 1, B_1 = psi).  a = 2
recovers the classical sums whose cancellation behaviour the Chowla-Walum
conjecture quantifies; j = 0 additionally admits negative alpha.

Exact mode (integer x, integer alpha) takes the power sums (j = 0,
0 <= alpha < bernoulli.MAX_DEGREE) from summatory._power_sum and splits
every other term at its remainder r = x mod d into an integer part, summed
over numpy chunks in int64 where a bound proves it safe, and a proper
fraction s/d^e.  Every exact sum is one reducer, _exact_sum, over a
generator of (whole, s, d) per chunk of summatory._d_chunks.  The fractions
of each chunk are summed by summatory._fraction_sum, a pairwise tree on the
pairs (s, d) whose nodes keep the lcm of their d, so its gcds run on
numbers e times shorter than d^e; its first levels run in int64 numpy as
far as a closed-form bound allows, the rest on Python ints.  One more tree
sums the chunk sums, the common denominator (lcm of the d)^e is formed
once, and one Fraction at the end, so cancellation-prone values are never
touched by rounding.  Exact shifted psi block sums feed the same reducer:
per chunk of n, one bernoulli.psi call on int64 remainders of 16x modulo
4(4n + a') gives the exact psi values as unreduced (numerator, denominator)
arrays, so no Fraction is built per term.
Float mode is a double-precision pass over the same chunks of d, within
the summatory_fast work budget, building no array per chunk: every
intermediate is written into three float64 rows allocated once per call.
Below d = 2^53, and with integer x below 2^53, the chunks of d are exact
float64 views (summatory._d_chunks with as_float, whose exactness the
summatory module docstring proves); elsewhere they are int64, and numpy
casts them to float64 as it divides or copies them.  With integer x the
fractional parts {x/d} = r/d come from the exact remainder r = x mod d,
which keeps the sawtooth accurate even when x/d is far above 2^53 * ulp
territory.  Below x = 2^53, r = x - d*q with the float64 quotient
q = summatory._quotient(x, d), which is exact (d*q <= x and x - d*q are
integers below 2^53); from 2^53 on r is an integer remainder.

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

from . import summatory
from .bernoulli import MAX_DEGREE, _scaled_coefficients, bernoulli_coefficients, psi
from .divisors import float64_guarded, integer_root, require_count, require_finite

# work budget of one exact range sum in terms * max(e, 1), e = max(j - alpha, 0):
# the common denominator grows by about 0.43 * e digits a term; at the limit
# G_{2,1,2} (e = 1, x = 1.1e12 at a = 2) takes 21 s and G_{2,0,2} (e = 2,
# x = 2.7e11) 9.5 s (2-vCPU x86-64)
_EXACT_TERMS_LIMIT = 1 << 20
# work budget of one exact shifted_psi_block_sum in N: the lcm of the 4(4n + a')
# grows by about 5.8 bits a term, so the cost grows faster than N; 0.49-0.53 s at
# the limit, 42-44 ms at 2**14 and 0.11-0.12 ms at N = 260 (2-vCPU x86-64)
_PSI_BLOCK_LIMIT = 1 << 16


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
        if self.a <= 1:
            raise ValueError(f"restriction root a must exceed 1, got {self.a!r}")
        if not isinstance(self.j, int) or isinstance(self.j, bool) or self.j < 0:
            raise ValueError(f"Bernoulli index j must be an integer >= 0, got {self.j!r}")
        if self.j >= 1 and self.alpha < 0:
            raise ValueError(f"alpha must be >= 0 when j >= 1, got alpha={self.alpha!r}")
        if self.x < 0:
            raise ValueError(f"evaluation point must be >= 0, got {self.x!r}")

    @property
    def exact(self) -> bool:
        return isinstance(self.x, int) and isinstance(self.alpha, int) and not (
            isinstance(self.x, bool) or isinstance(self.alpha, bool)
        )

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


def _exact_range_sum(x: int, alpha: int, j: int, lo: int, hi: int):
    """sum_{lo <= d <= hi} d^alpha B_j({x/d}) in exact arithmetic.

    At j = 0 and 0 <= alpha < bernoulli.MAX_DEGREE it is an int, two
    summatory._power_sum apart, at any cutoff.  Every other sum runs within
    the work budget, as _exact_sum of _range_chunks.  Past MAX_DEGREE a
    power sum (j = 0, e = 0) is whole parts only, summed over lo..hi on
    object chunks, and stays an int.
    """
    if j == 0 and 0 <= alpha < MAX_DEGREE:
        return summatory._power_sum(hi, alpha) - summatory._power_sum(lo - 1, alpha) if lo <= hi else 0
    e, lift = max(j - alpha, 0), max(alpha - j, 0)
    if (hi - lo + 1) * max(e, 1) > _EXACT_TERMS_LIMIT:
        raise ValueError(
            f"{hi - lo + 1} exact terms of degree {e} exceed the work budget of {_EXACT_TERMS_LIMIT}"
        )
    den_c, c = _scaled_coefficients(j)
    total = _exact_sum(_range_chunks(x, j, lo, hi, c, e, lift, max(j, abs(alpha))), e, den_c)
    return total.numerator if j == 0 and alpha >= 0 else total


def _range_chunks(x: int, j: int, lo: int, hi: int, c, e: int, lift: int, power: int):
    """(whole, s, d) per chunk of d = lo..hi, for den_c * d^alpha B_j({x/d}) = whole + s / d^e.

    With r = x mod d and c = den_c * B_j scaled to integer coefficients, each
    term is P_d / d^e, where e = max(j - alpha, 0) and
    P_d = d^lift * sum_k c_k r^k d^(j-k), lift = max(alpha - j, 0);
    divmod(P_d, d^e) splits it into a whole part, summed in numpy, and a
    proper fraction s_d / d^e.  At e = 0 a chunk is its whole part only.
    """
    for d in summatory._d_chunks(lo, hi, _horner_bound, sum(map(abs, c)), power):
        if j:
            r = summatory._mod(x, d)
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
    A chunk's nonzero s and their d go to summatory._fraction_sum before the
    next chunk is built, the chunk sums to one more tree (module docstring).
    """
    whole, nums, bases = 0, [], []
    for chunk_whole, s, d in chunks:
        whole += chunk_whole
        if s is not None:
            keep = s != 0
            num, base = summatory._fraction_sum(s[keep], d[keep], e)
            nums.append(num)
            bases.append(base)
    num, base = summatory._fraction_sum(nums, bases, e)
    den = base**e
    return Fraction(whole * den + num, den * den_c)


def _horner_bound(lo: int, hi: int, weight: int, power: int) -> int:
    # every Horner value, power of d and whole part over d <= hi is at most
    # weight * hi**power, with weight the sum of |c_k|, so a chunk sum is at
    # most its length times that
    return weight * hi**power * (hi - lo + 1)


def _float_range_sum(x, alpha, j: int, lo: int, hi: int) -> float:
    """_float_chunk_sums(x, alpha, j, lo, hi), refused past float64 (divisors.float64_guarded)."""
    # on [0, 1) B_j and Horner's partial values are at most sum |c_k| < 2**(3j + 1)
    # (j <= bernoulli.MAX_DEGREE), a weight at most hi**alpha, and a sum hi times that
    top = 3 * j + 1 + (max(alpha, 0) + 1) * hi.bit_length()
    return float64_guarded(alpha, top, _float_chunk_sums, x, alpha, j, lo, hi)


def _float_chunk_sums(x, alpha, j: int, lo: int, hi: int) -> float:
    """Double-precision sum over lo <= d <= hi: one numpy sum of
    B_j({x/d}) * d**alpha per chunk, the chunk sums added in order.

    Every step writes into float64 rows of min(hi - lo + 1, 2^14) entries,
    allocated once per call: {x/d}, B_j({x/d}) (then times d**alpha) and
    the weights d**alpha of summatory._float_weights.  d comes as float64
    from summatory._d_chunks below d = 2^53, and with integer x below 2^53,
    else as int64.  B_j runs by Horner's rule in place, the multiplies and
    adds of np.polyval in its order; B_j is monic, so its first step
    1.0 * t + c_1 is t + c_1.  The power is skipped at alpha = 0 and 1,
    where pow(d, alpha) is exactly 1 and d."""
    coeffs = [float(c) for c in reversed(bernoulli_coefficients(j))]
    exact_x = isinstance(x, int)
    as_float = hi < 2**53 and not (exact_x and x >= 2**53)
    n = max(min(hi - lo + 1, summatory._FAST_CHUNK), 0)
    frac_row, b_row, w_row = np.empty(n), np.empty(n), np.empty(n)
    total = 0.0
    for d in summatory._d_chunks(lo, hi, None, as_float=as_float):
        n = len(d)
        frac, b = frac_row[:n], b_row[:n]  # {x/d}, then B_j({x/d}) and times d**alpha
        if j:
            if not exact_x:
                np.divide(float(x), d, out=frac)
                np.modf(frac, out=(frac, b))
            elif as_float:
                summatory._quotient(x, d, out=frac)
                frac *= d
                np.subtract(x, frac, out=frac)
                frac /= d
            else:
                np.divide(summatory._mod(x, d), d, out=frac)
            np.add(frac, coeffs[1], out=b)
            for c in coeffs[2:]:
                b *= frac
                b += c
        if alpha == 0:
            total += float(np.sum(b)) if j else n
            continue
        w = summatory._float_weights(d, alpha, w_row)
        if j:
            b *= w
        total += float(np.sum(b if j else w))
    if not math.isfinite(total):  # a Python float sum reached inf
        raise OverflowError
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
    since summatory._mod reduces 16x >= 2**63 by 32-bit limbs.
    """
    for n in summatory._d_chunks(n_start + 1, 2 * n_start, None):
        m = 4 * n + shift_a
        yield (0, *psi(summatory._mod(16 * x, 4 * m) + shift_b * m, 4 * m))


def shifted_psi_block_sum(n_start: int, x, shift_a: int = 0, shift_b: int = 0):
    """sum_{N < n <= 2N} psi(4x/(4n + shift_a) + shift_b/4).

    The block sums whose cancellation drives the sharpest unconditional
    error exponents.  Requires |shift_a| + |shift_b| <= 1 and
    3 <= N <= sqrt(x).  Integer x gives the exact rational sum for N up to
    _PSI_BLOCK_LIMIT, _exact_sum of _psi_chunks, with no Fraction per term;
    other x a float sum over numpy chunks of n, within the summatory_fast
    work budget.
    """
    if abs(shift_a) + abs(shift_b) > 1:
        raise ValueError("|shift_a| + |shift_b| must be <= 1")
    if not isinstance(n_start, int) or n_start < 3:
        raise ValueError(f"block start must be an integer >= 3, got {n_start!r}")
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
        for n in summatory._d_chunks(n_start + 1, 2 * n_start, None)
    )
    return math.fsum(itertools.chain.from_iterable(chunks))
