import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwlab import cw_sums, invariants
from cwlab.bernoulli import MAX_DEGREE, bernoulli_coefficients, psi
from cwlab.cw_sums import (
    _EXACT_TERMS_LIMIT,
    _PSI_BLOCK_LIMIT,
    GSumSpec,
    _exact_range_sum,
    _horner_bound,
    _power_sums,
    block_g,
    g_sum,
    gsum_cutoff,
    shifted_psi_block_sum,
)
from cwlab.divisors import integer_root


def reference_range_sum(x: int, alpha: int, j: int, lo: int, hi: int):
    # per-term Fraction loop over lo <= d <= hi: the exact kernel's reference
    if lo > hi:
        return 0 if j == 0 and alpha >= 0 else Fraction(0)
    if j == 0:
        if alpha >= 0:
            return sum(d**alpha for d in range(lo, hi + 1))
        return sum(Fraction(1, d**-alpha) for d in range(lo, hi + 1))
    if j == 1:
        if alpha >= 1:
            # d^alpha * psi(x/d) = d^(alpha-1) r_d - d^alpha / 2, all integer
            num = 0
            half = 0
            for d in range(lo, hi + 1):
                num += d ** (alpha - 1) * (x % d)
                half += d**alpha
            return num - Fraction(half, 2)
        total = Fraction(0)
        for d in range(lo, hi + 1):
            total += Fraction(x % d, d)
        return total - Fraction(hi - lo + 1, 2)
    coeffs = bernoulli_coefficients(j)
    total = Fraction(0)
    for d in range(lo, hi + 1):
        f = Fraction(x % d, d)
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * f + c
        total += d**alpha * acc
    return total


def float_reference_range_sum(x, alpha, j: int, lo: int, hi: int) -> float:
    # the float kernel as it was before the float64 quotient: x mod d in the
    # chunk's dtype, then np.polyval
    coeffs = [float(c) for c in reversed(bernoulli_coefficients(j))]
    total = 0.0
    for d in cw_sums._d_chunks(lo, hi, None):
        frac = 0.0
        if j:
            frac = cw_sums._mod(x, d) / d if isinstance(x, int) else np.modf(float(x) / d)[0]
        total += float(np.sum(np.polyval(coeffs, frac) * d.astype(np.float64) ** float(alpha)))
    return total


def same(got, want) -> bool:
    return type(got) is type(want) and got == want


def test_spec_validation():
    with pytest.raises(ValueError):
        GSumSpec(1, 0, 1, 10)          # a must exceed 1
    with pytest.raises(ValueError):
        GSumSpec(2, -1, 1, 10)         # negative alpha only allowed at j=0
    with pytest.raises(ValueError):
        GSumSpec(2, 0, -1, 10)
    with pytest.raises(ValueError):
        GSumSpec(2, 0, 1, -3)          # x < 0 rejected
    GSumSpec(2, -1, 0, 10)             # j=0 allows any real alpha
    for args in ((2, True, 1, 10**6), (2, 1, 1, True)):
        with pytest.raises(ValueError, match="^(alpha|x) must be an int, Fraction or float"):
            GSumSpec(*args)            # a bool is neither exact nor float mode
    # a numpy int x would select float mode (-15.499999999999984 for -31/2), and
    # a numpy int a fail inside mpmath once the cutoff is read
    for args in ((2, 1, 1, np.int64(100)), (2, np.int64(1), 1, 100), (np.int64(2), 1, 1, 100), (2, 1, 1, "100")):
        with pytest.raises(ValueError, match="^(a|alpha|x) must be an int, Fraction or float"):
            GSumSpec(*args)
    for bad in ((True, 2), (np.int64(100), 2), (100, np.int64(2)), (100, True)):
        with pytest.raises(ValueError, match="^(x|a) must be an int, Fraction or float"):
            gsum_cutoff(*bad)
    assert g_sum(GSumSpec(2, 1, 1, 100)) == Fraction(-31, 2)
    assert g_sum(GSumSpec(2, 1, 1, np.float64(100))) == g_sum(GSumSpec(2, 1, 1, 100.0))  # a numpy float is a float
    assert GSumSpec(Fraction(3, 2), 1, 1, Fraction(201, 2)).cutoff == gsum_cutoff(100.5, 1.5) == 21


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_spec_rejects_non_finite(bad):
    for args in ((bad, 0, 1, 10), (2, bad, 0, 10), (2, bad, 1, 10), (2, 0, 1, bad)):
        with pytest.raises(ValueError, match="finite"):
            GSumSpec(*args)


def test_g_sum_examples():
    assert g_sum(GSumSpec(2, 0, 1, 4)) == -1
    assert g_sum(GSumSpec(2, 0, 0, 9)) == 3
    assert g_sum(GSumSpec(2, -1, 0, 4)) == Fraction(3, 2)
    assert g_sum(GSumSpec(3, 0, 1, 10)) == -1


def test_g_sum_empty_range():
    assert g_sum(GSumSpec(2, 0, 1, 0)) == 0
    assert g_sum(GSumSpec(2, 3, 2, 0.5)) == 0.0


def test_g_sum_brutal_oracle():
    # definitional double-check against a from-scratch loop
    rng = random.Random(31)
    for _ in range(60):
        x = rng.randrange(1, 5000)
        a = rng.choice((2, 3))
        alpha = rng.choice((0, 1, 2))
        j = rng.choice((0, 1, 2, 3))
        expected = Fraction(0)
        d = 1
        while d**a <= x:
            if j == 0:
                expected += d**alpha
            else:
                from cwlab.bernoulli import bernoulli_func

                expected += d**alpha * bernoulli_func(j, Fraction(x, d))
            d += 1
        assert g_sum(GSumSpec(a, alpha, j, x)) == expected, (x, a, alpha, j)


def test_block_examples():
    assert block_g(1, GSumSpec(2, 0, 1, 4)) == Fraction(-1, 2)
    assert block_g(99, GSumSpec(2, 0, 1, 4)) == 0
    for bad in (0, 2.0, True):
        with pytest.raises(ValueError, match="block start must be"):
            block_g(bad, GSumSpec(2, 0, 1, 4))


def test_block_decomposition_reassembles():
    invariants.block_decomposition(random.Random(37), 1000)


def test_j0_consistency():
    invariants.j0_consistency(random.Random(41), 200)


def test_trivial_psi_bound():
    invariants.psi_bound(random.Random(43), 200)


def test_exact_float_agreement():
    invariants.exact_float_agreement(random.Random(47), 60)


def test_cutoff_rational_and_float_a():
    # 4**(3/2) = 8: the boundary divisor is included exactly
    assert gsum_cutoff(8, Fraction(3, 2)) == 4
    assert gsum_cutoff(8, 1.5) == 4
    assert gsum_cutoff(7, Fraction(3, 2)) == 3
    assert gsum_cutoff(10**12, Fraction(3, 2)) == integer_root(10**24, 3)
    # float-a cutoff agrees with the exact rational one on a sample
    rng = random.Random(53)
    for _ in range(200):
        x = rng.randrange(1, 10**9)
        assert gsum_cutoff(x, 1.5) == gsum_cutoff(x, Fraction(3, 2))
        assert gsum_cutoff(x, 3.0) == gsum_cutoff(x, 3)
    # both sides of every perfect-power boundary x = u**p, where (u**q)**(p/q) = x:
    # the cutoff is u**q at x and u**q - 1 just below it, for int and float x
    for a in (2.0, 3.0, 4.0, 5.0, 1.5, 2.5, 1.25, Fraction(4, 3), Fraction(5, 3), Fraction(3, 2)):
        p, q = Fraction(a).numerator, Fraction(a).denominator
        for u in range(1, 200):
            x, t = u**p, u**q
            assert (gsum_cutoff(x, a), gsum_cutoff(x - 1, a)) == (t, t - 1), (a, x)
            if x < 2**52:
                assert (gsum_cutoff(float(x), a), gsum_cutoff(x - 0.5, a)) == (t, t - 1), (a, x)


def test_g_sum_real_a():
    # brute-force oracle for a = 3/2 on integer x
    x = 5000
    cut = gsum_cutoff(x, Fraction(3, 2))
    expected = sum(Fraction(x % d, d) - Fraction(1, 2) for d in range(1, cut + 1))
    assert g_sum(GSumSpec(Fraction(3, 2), 0, 1, x)) == expected
    assert g_sum(GSumSpec(1.5, 0.0, 1, x)) == pytest.approx(float(expected), rel=1e-10)


def test_shifted_psi_block_examples():
    assert shifted_psi_block_sum(3, 16, 0, 0) == Fraction(-19, 30)
    # oracle: exact sawtooth at each of n = 4, 5, 6
    expected = psi(Fraction(48, 17)) + psi(Fraction(48, 21)) + psi(Fraction(48, 25))
    assert shifted_psi_block_sum(3, 12, 1, 0) == expected
    assert expected == Fraction(3149, 5950)


def test_shifted_psi_block_reduces_to_psi_tail():
    # shift (0,0): psi(4x/(4n)) = psi(x/n), the plain sawtooth block
    x = 400
    got = shifted_psi_block_sum(5, x, 0, 0)
    assert got == sum(psi(Fraction(x, n)) for n in range(6, 11))


def test_shifted_psi_block_validation():
    with pytest.raises(ValueError):
        shifted_psi_block_sum(3, 16, 1, 1)
    with pytest.raises(ValueError):
        shifted_psi_block_sum(2, 16, 0, 0)
    with pytest.raises(ValueError):
        shifted_psi_block_sum(5, 16, 0, 0)   # N > sqrt(x)
    with pytest.raises(ValueError):
        shifted_psi_block_sum(3, 0.5, 0, 0)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_shifted_psi_block_rejects_non_finite_x(bad):
    with pytest.raises(ValueError, match="finite"):
        shifted_psi_block_sum(3, bad)


SHIFTS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def psi_loop(n_start, x, shift_a, shift_b):
    # one exact sawtooth per n, added one Fraction at a time: the tree's reference
    return sum((psi(Fraction(4 * x, 4 * n + shift_a) + Fraction(shift_b, 4))
                for n in range(n_start + 1, 2 * n_start + 1)), Fraction(0))


def psi_float_loop(n_start, x, shift_a, shift_b):
    # one float sawtooth per n: the chunked float path must give the same fsum
    return math.fsum(psi(4.0 * x / (4 * n + shift_a) + shift_b / 4.0)
                     for n in range(n_start + 1, 2 * n_start + 1))


@settings(max_examples=200, deadline=None)
@given(
    shift=st.sampled_from(SHIFTS),
    n_start=st.integers(3, 400),
    # small x, and x past 2**59 where 16x leaves int64 and _mod reduces it by limbs
    x=st.one_of(st.integers(0, 10**7), st.integers(2**59 - 100, 2**80)),
)
# either side of cw_sums._INT64_TREE_FLOOR = 128 leaves, where the tree's int64 levels start
@example(shift=(1, 0), n_start=127, x=0)
@example(shift=(0, -1), n_start=128, x=2**59 + 1)
@example(shift=(-1, 0), n_start=129, x=2**63 - 1)
# past one chunk of n, with x just below and above 2**59 and 2**63
@example(shift=(0, 1), n_start=2**14 + 1, x=2**59 - 1)
@example(shift=(1, 0), n_start=2**14 + 13, x=2**59 + 1)
@example(shift=(-1, 0), n_start=2**14 + 27, x=2**63 - 1)
@example(shift=(0, -1), n_start=2**14 + 40, x=2**63 + 1)
def test_shifted_psi_block_matches_psi_loop(shift, n_start, x):
    x = max(x, n_start * n_start)
    assert shifted_psi_block_sum(n_start, x, *shift) == psi_loop(n_start, x, *shift)


def test_cutoff_float_a_at_any_size_of_x():
    # the log path keeps 20 digits more than x has, so its correction sweep stays a
    # step or two however large x is; checked at 30 digits more
    from mpmath import mp, mpf
    for x in (10**20, 10**120, 10**300):
        for a in (1.1, 2.7, 3.3):
            d = gsum_cutoff(x, a)
            with mp.workdps(len(str(x)) + 30):
                assert mpf(d) ** mpf(a) <= x < mpf(d + 1) ** mpf(a), (x, a)


@pytest.mark.parametrize("a, alpha, x", [(2.7, 1.0, 10**6), (Fraction(6, 5), 1, 10**6), (2, 0, 10**6 + 3)])
def test_cutoff_computed_once_per_spec(monkeypatch, a, alpha, x):
    # g_sum and ten block_g calls on one spec make one gsum_cutoff call; the
    # cached value leaves the fields, equality, hash and repr as they were
    calls = []
    monkeypatch.setattr(cw_sums, "gsum_cutoff", lambda *args: calls.append(args) or gsum_cutoff(*args))
    spec = GSumSpec(a, alpha, 1, x)
    want = (hash(spec), repr(spec))
    g_sum(spec)
    for k in range(10):
        block_g(2**k, spec)
    assert calls == [(x, a)] and spec.cutoff == gsum_cutoff(x, a)
    assert spec == GSumSpec(a, alpha, 1, x) and (hash(spec), repr(spec)) == want


def test_shifted_psi_block_float_mode():
    e = shifted_psi_block_sum(3, 16, 0, -1)
    f = shifted_psi_block_sum(3, 16.0, 0, -1)
    assert f == pytest.approx(float(e), abs=1e-12)
    # 20,000 terms cross a chunk boundary of n and still sum to the loop's fsum
    for shift in SHIFTS:
        assert shifted_psi_block_sum(20_000, 4.5e8 + 0.25, *shift) == psi_float_loop(
            20_000, 4.5e8 + 0.25, *shift)


# j in 0..4 with alpha in -3..4, negative alpha only at j = 0
ALPHA_J = st.integers(0, 4).flatmap(
    lambda j: st.tuples(st.integers(-3 if j == 0 else 0, 4), st.just(j))
)


@settings(max_examples=300, deadline=None)
@given(
    a=st.sampled_from((2, 3, Fraction(3, 2))),
    x=st.one_of(st.integers(0, 10**5), st.integers(0, 2**70), st.integers(2**63 - 50, 2**63 + 50)),
    alpha_j=ALPHA_J,
    data=st.data(),
)
def test_kernel_matches_fraction_loop(a, x, alpha_j, data):
    alpha, j = alpha_j
    cut = gsum_cutoff(x, a)
    lo = data.draw(st.integers(1, max(cut, 1)), label="lo")
    hi = data.draw(st.integers(lo - 1, min(cut, lo + 400)), label="hi")
    assert same(_exact_range_sum(x, alpha, j, lo, hi), reference_range_sum(x, alpha, j, lo, hi))
    if cut <= 2000:
        want = reference_range_sum(x, alpha, j, 1, cut) if cut else Fraction(0)
        assert same(g_sum(GSumSpec(a, alpha, j, x)), want)


def test_kernel_chunk_boundaries(monkeypatch):
    p = 97
    cases = [(x, alpha, j, lo, hi) for x in (10**6 + 3, 2**63 + 9)
             for alpha, j in ((0, 1), (1, 2), (0, 2), (-2, 0), (3, 3), (0, 4))
             for lo, hi in ((1, p - 1), (1, p), (1, p + 1), (5, 3 * p + 4), (p, 5 * p))]
    straddling = ((10**9 + 7, 4, 0, 17_000, 18_000, 1), (2**64 + 7, 0, 4, 5_000, 5_600, 121))
    cases += [case[:5] for case in straddling]
    want = [_exact_range_sum(*case) for case in cases]
    monkeypatch.setattr(cw_sums, "_FAST_CHUNK", p)
    # in chunks of 97, weight * d**4 * 97 < 2**63 holds for the first chunks of
    # these ranges and fails for the last: G_{a,4,0} (weight 1) and
    # G_{a,0,4} (weight 121, B_4 scaled by 30)
    for x, alpha, j, lo, hi, weight in straddling:
        dtypes = {d.dtype for d in cw_sums._d_chunks(lo, hi, _horner_bound, weight, 4)}
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    for case, w in zip(cases, want):
        got = _exact_range_sum(*case)
        assert same(got, w) and same(got, reference_range_sum(*case)), case
    # float mode over the same 97-term chunks, x mod d taken past 2**63
    spec = GSumSpec(5, 1, 2, 2**63 + 5)
    exact = float(g_sum(spec))
    assert g_sum(GSumSpec(5, 1.0, 2, spec.x)) == pytest.approx(exact, rel=1e-12)
    # float shifted psi blocks over 97-term chunks of n
    for shift in SHIFTS:
        assert shifted_psi_block_sum(300, 1e10 + 0.5, *shift) == psi_float_loop(300, 1e10 + 0.5, *shift)


@pytest.mark.parametrize("chunk", (None, 97))
def test_float_kernel_bit_equal_to_integer_remainder(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(cw_sums, "_FAST_CHUNK", chunk)
    xs = [1, 17, 10**4 + 1, 2**31 + 11, 10**9 + 7, 10**12 + 39, 2**53 - 1, 2**53, 2**53 + 1,
          2**63 + 5, 10.5, 1e10 + 0.25, 4.5e15]
    for a in (2, 3, 5):
        for x in xs:
            cut = gsum_cutoff(x, a)
            if cut > (10**6 if chunk is None else 10**5):
                continue
            for alpha, j in ((0.0, 0), (-1.5, 0), (1.0, 1), (0.0, 1), (1.0, 2), (0.5, 2), (2.5, 3), (0.0, 4)):
                spec = GSumSpec(a, alpha, j, x)
                assert g_sum(spec) == float_reference_range_sum(x, alpha, j, 1, cut), (a, x, alpha, j)
                lo, hi = 2**9 + 1, min(2**10, cut)
                assert block_g(2**9, spec) == float_reference_range_sum(x, alpha, j, lo, hi)
    # blocks of d across and past 2**53, where start + k would round an odd
    # start first: d is an int64 chunk cast to float64 there, as in the reference
    x = float((2**53 + 40) ** 2)
    for n_start in (2**53 - 30, 2**53 + 2):
        for alpha, j in ((0.0, 0), (1.0, 1), (0.5, 2)):
            spec = GSumSpec(2, alpha, j, x)
            lo, hi = n_start + 1, min(2 * n_start, spec.cutoff)
            assert 2 < hi - lo < 100
            assert block_g(n_start, spec) == float_reference_range_sum(x, alpha, j, lo, hi)


def test_kernel_on_benchmark_inputs():
    # the benchmark's exact G sums at its smallest scale, over the full cutoff
    for alpha, j in ((0, 1), (1, 1), (1, 2), (0, 2), (-1, 0)):
        spec = GSumSpec(2, alpha, j, 10**7 + 12_345)
        assert same(g_sum(spec), reference_range_sum(spec.x, alpha, j, 1, spec.cutoff))


def test_exact_g_sum_memory_bounded():
    # each chunk's fractions are summed by one tree before the next chunk is
    # built; a list of all 31,622 pairs would raise the peak to about 4.5 MB
    for alpha, j in ((0, 1), (1, 2), (0, 2)):
        tracemalloc.start()
        try:
            g_sum(GSumSpec(2, alpha, j, 10**9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, (alpha, j)


def test_exact_work_budget():
    # refused from the cutoff alone, before any term is computed
    x = (_EXACT_TERMS_LIMIT + 1) ** 2
    with pytest.raises(ValueError, match="work budget"):
        g_sum(GSumSpec(2, 1, 2, x))
    with pytest.raises(ValueError, match="work budget"):
        block_g(_EXACT_TERMS_LIMIT + 1, GSumSpec(2, 0, 1, 10**20))
    # terms count times the fraction degree e = j - alpha: 2**18 + 1 terms at e = 4
    with pytest.raises(ValueError, match="work budget"):
        g_sum(GSumSpec(2, 0, 4, (2**18 + 1) ** 2))
    # float mode is bounded by the _d_chunks budget, far above this
    assert isinstance(g_sum(GSumSpec(2, 1.0, 2, x)), float)


def test_j0_power_sums_take_the_closed_form(monkeypatch):
    # G_{a,m,0} for m >= 0 is cw_sums._power_sums at any cutoff: Faulhaber at n = 10**15
    n = 10**15
    faulhaber = (n, n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6, (n * (n + 1) // 2) ** 2)
    for m, want in enumerate(faulhaber):
        assert same(g_sum(GSumSpec(2, m, 0, 10**30)), want), m
    # empty, partial and full blocks equal a loop, also past bernoulli.MAX_DEGREE
    spec_x = 10**6 + 3  # cutoff 1000 at a = 2
    for m in (0, 1, 2, 3, MAX_DEGREE, MAX_DEGREE + 6):
        spec = GSumSpec(2, m, 0, spec_x)
        for n_start in (1, 300, 600, 999, 1000, 5000):
            want = sum(d**m for d in range(n_start + 1, min(2 * n_start, 1000) + 1))
            assert same(block_g(n_start, spec), want), (m, n_start)
    # _power_sums over any range, empty ones included, equals a loop on both sides
    # of MAX_DEGREE, where the closed form gives way to summing the terms
    for m in (0, 1, 2, MAX_DEGREE - 1, MAX_DEGREE, MAX_DEGREE + 6):
        for lo in (1, 2, 300, 999, 1000, 1001):
            for hi in (lo - 2, lo - 1, lo, 1000):
                assert same(*_power_sums(lo, hi, m), sum(d**m for d in range(lo, hi + 1))), (m, lo, hi)
    # at the budget edge past MAX_DEGREE, from d = 3: 2**20 terms run (checked
    # modulo the Mersenne prime 2**61 - 1) and 2**20 + 1 terms are refused
    n, lo, p = _EXACT_TERMS_LIMIT, 3, 2**61 - 1
    (got,) = _power_sums(lo, lo + n - 1, MAX_DEGREE)
    assert type(got) is int and got % p == sum(pow(d, MAX_DEGREE, p) for d in range(lo, lo + n)) % p
    with pytest.raises(ValueError, match="work budget"):
        _power_sums(lo, lo + n, MAX_DEGREE)
    # past MAX_DEGREE a block sums its own terms only: one term past d = 2**20 runs,
    # and an empty block there is 0
    assert same(block_g(n, GSumSpec(2, MAX_DEGREE, 0, (n + 1) ** 2)), (n + 1) ** MAX_DEGREE)
    assert same(block_g(n + 1, GSumSpec(2, MAX_DEGREE, 0, (n + 1) ** 2)), 0)
    # a block of 2**20 + 1 terms is refused by its length, before any chunk is built
    def no_chunks(*args, **kwargs):
        raise AssertionError("a chunk was built")

    monkeypatch.setattr(cw_sums, "_d_chunks", no_chunks)
    with pytest.raises(ValueError, match="work budget"):
        block_g(n + 1, GSumSpec(2, MAX_DEGREE, 0, (2 * n + 2) ** 2))


def test_shifted_psi_block_work_budget():
    # exact mode is refused from N alone, before any term is computed
    with pytest.raises(ValueError, match="work budget"):
        shifted_psi_block_sum(_PSI_BLOCK_LIMIT + 1, 10**17, 1, 0)
    # float mode shares the _d_chunks budget, refused before any chunk is built
    limit = cw_sums._FAST_CUTOFF_LIMIT
    with pytest.raises(ValueError, match="work budget"):
        shifted_psi_block_sum(limit + 1, 1e19, 1, 0)
    # far below it, 2**20 + 1 float terms run
    n = 2**20 + 1
    assert isinstance(shifted_psi_block_sum(n, float(n * n), 1, 0), float)


def test_float_work_budget():
    # refused from the range length alone, before any chunk is built
    limit = cw_sums._FAST_CUTOFF_LIMIT
    for spec in (GSumSpec(2, 1.0, 1, 2**63 + 5), GSumSpec(2, 1.0, 2, 4.0 * limit * limit),
                 GSumSpec(3, 0, 1, 1e30)):
        with pytest.raises(ValueError, match="work budget"):
            g_sum(spec)
    with pytest.raises(ValueError, match="work budget"):
        block_g(limit + 1, GSumSpec(2, 0.0, 1, 10**20))
    # the budget counts the block's terms, not the cutoff
    assert isinstance(block_g(2**16, GSumSpec(2, 0.0, 1, 10**20)), float)


def test_float_g_sum_tiny_call_memory():
    # the workspace is sized by the range, not by the chunk length: at cutoff
    # 17, and for a 17-term block past 2**14, where d is written into a row
    calls = [(g_sum, spec) for spec in (GSumSpec(2, 1.0, 2, 300), GSumSpec(2, 0.0, 1, 300),
                                         GSumSpec(2, 2.5, 3, 300.5))]
    calls.append((partial(block_g, 2**20), GSumSpec(2, 1.0, 2, (2**20 + 17) ** 2)))
    for f, spec in calls:
        f(spec)
        tracemalloc.start()
        try:
            f(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**10, (spec, peak)


def test_float_g_sum_memory_bounded():
    # chunks of 2**14 terms: a cutoff-length float64 array is 8 MB at x = 1e12
    tracemalloc.start()
    try:
        g_sum(GSumSpec(2, 1.0, 2, 10**12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_bernoulli_coefficient_mass_bound():
    # float G runs without numpy's error state while its values stay far
    # below the float64 range; its bound takes sum |c_k| < 2**(3j + 1) for B_j
    for j in range(MAX_DEGREE + 1):
        assert sum(abs(c) for c in bernoulli_coefficients(j)) < 2 ** (3 * j + 1), j


def test_float_g_near_overflow_stays_finite():
    # values near the top of the float64 range run under the overflow guard
    # and still come out, equal to the block sums they split into
    spec = GSumSpec(2, 100.0, 3, 10**6)
    value = g_sum(spec)
    assert 1e298 < value < 1e300
    blocks = bernoulli_coefficients(3)[0] + sum(block_g(2**k, spec) for k in range(10))
    assert value == pytest.approx(float(blocks), rel=1e-12)
