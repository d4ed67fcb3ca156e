import math
import random
import tracemalloc
import warnings
from math import isqrt

import numpy as np
import pytest

from cwlab import divisors, invariants, summatory
from cwlab.divisors import (
    _TRIAL_CHUNK,
    _TRIAL_DIVISION_LIMIT,
    DivisorSpec,
    _divisors,
    _sigma_table,
    divisor_sum_restricted,
    integer_root,
    is_square,
    restricted_sigma_table,
    sigma_alpha,
    tau,
    tau_table,
    tau_tilde_via_identity,
)
from cwlab.summatory import summatory_bruteforce, summatory_bruteforce_table


def test_spec_validation():
    with pytest.raises(ValueError):
        DivisorSpec(1, 0)
    for bad in (-1, True, math.nan):  # sigma_alpha takes alpha by the same rule
        with pytest.raises(ValueError, match="alpha"):
            DivisorSpec(2, bad)
        with pytest.raises(ValueError, match="alpha"):
            sigma_alpha(36, bad)
    assert DivisorSpec(2, 0).exact
    assert not DivisorSpec(2, 0.0).exact


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_spec_rejects_non_finite_alpha(bad):
    with pytest.raises(ValueError, match="finite"):
        DivisorSpec(2, bad)


def test_integer_root_examples():
    assert integer_root(64, 3) == 4
    assert integer_root(63, 3) == 3
    assert integer_root(0, 5) == 0
    assert integer_root(1, 2) == 1
    with pytest.raises(ValueError):
        integer_root(10, 1)
    with pytest.raises(ValueError):
        integer_root(-1, 2)


def test_integer_root_exactness_random():
    invariants.integer_root_exact(random.Random(23), 100_000)


def test_integer_root_huge():
    n = 12**345 + 1
    d = integer_root(n, 5)
    assert d**5 <= n < (d + 1) ** 5
    assert integer_root(12**345, 5) == 12**69


def test_divisor_sum_examples():
    assert divisor_sum_restricted(12, DivisorSpec(2, 0)) == 3
    assert divisor_sum_restricted(1, DivisorSpec(5, 3)) == 1
    assert divisor_sum_restricted(64, DivisorSpec(3, 1)) == 7
    assert divisor_sum_restricted(10, DivisorSpec(3, 0)) == 2
    with pytest.raises(ValueError):
        divisor_sum_restricted(0, DivisorSpec(2, 0))


def test_divisor_sum_real_mode():
    exact = divisor_sum_restricted(720, DivisorSpec(2, 2))
    approx = divisor_sum_restricted(720, DivisorSpec(2, 2.0))
    assert approx == pytest.approx(float(exact), rel=1e-12)


def test_tau_sigma_square():
    assert tau(12) == 6
    assert tau(1) == 1
    assert sigma_alpha(6, 1) == 12
    assert sigma_alpha(36, 0.5) == math.fsum(d**0.5 for d in (1, 2, 3, 4, 6, 9, 12, 18, 36))
    assert is_square(36) == 1
    assert is_square(35) == 0


def test_tau_tilde_examples():
    assert tau_tilde_via_identity(36) == 5
    assert tau_tilde_via_identity(12) == 3
    assert tau_tilde_via_identity(1) == 1


def test_identity_sweep_small():
    # per-n: restricted sum at a=2, alpha=0 equals (tau + square)/2
    for n in range(1, 3000):
        assert divisor_sum_restricted(n, DivisorSpec(2, 0)) == tau_tilde_via_identity(n)


def test_tables_match_per_n():
    invariants.tau_tilde_identity(random.Random(29), 10**5, 300)


def test_tables_float_mode():
    rng = random.Random(31)
    limit = 2 * 10**4
    for a in (2, 3):
        for alpha in (0.5, 2.0):
            spec = DivisorSpec(a, alpha)
            table = restricted_sigma_table(limit, spec)
            assert table.dtype == np.float64
            for n in [1, 2**a, limit, *rng.sample(range(1, limit + 1), 100)]:
                assert table[n] == pytest.approx(divisor_sum_restricted(n, spec), rel=1e-12)


def _reference_sigma_tables(limit):
    """Row n holds sigma_0(n), sigma_1(n), sigma_2(n): one stride-d pass per d <= limit / 2.

    A d > limit / 2 divides no n <= limit but d itself, so those d are one add.
    """
    powers = np.arange(limit + 1, dtype=np.int64)[:, None] ** np.arange(3)
    table = np.zeros((limit + 1, 3), dtype=np.int64)
    for d in range(1, limit // 2 + 1):
        table[d::d] += powers[d]
    table[limit // 2 + 1 :] += powers[limit // 2 + 1 :]
    return table


def test_sigma_table_hyperbola_split():
    # every L to 300, and L around s^2 and s(s+1), where isqrt(L) and
    # L // (isqrt(L) + 1) step; sigma_alpha(n) does not depend on L, so one
    # reference table to the largest L serves every L as a prefix
    edges = [L for s in (100, 317, 1000) for L in (s * s - 1, s * s, s * s + 1, s * (s + 1) - 1, s * (s + 1))]
    ref = _reference_sigma_tables(max(edges))
    for alpha in (0, 1, 2):
        for L in [*range(1, 301), *edges]:
            assert (_sigma_table(L, alpha) == ref[: L + 1, alpha]).all(), (L, alpha)


def test_tau_table_matches_tau():
    limit = 10**6
    taus = tau_table(limit)
    for n in [1, 2, limit, *random.Random(37).sample(range(1, limit + 1), 500)]:
        assert taus[n] == tau(n), n


def test_monotone_bound():
    invariants.monotone_bound(10**5)


def test_boundary_inclusion():
    invariants.boundary_inclusion(50)


def test_table_overflow_guard():
    with pytest.raises(OverflowError):
        restricted_sigma_table(10**6, DivisorSpec(2, 12))


@pytest.mark.parametrize("call", [
    lambda: restricted_sigma_table(10**5, DivisorSpec(2, 300.0)),
    lambda: summatory.summatory_bruteforce_table(10**5, DivisorSpec(2, 300.0)),
    lambda: sigma_alpha(36, 10000.0),
], ids=["restricted_sigma_table", "summatory_bruteforce_table", "sigma_alpha"])
def test_float_alpha_past_float64_refused(call):
    # a ValueError that names alpha, not a bare OverflowError (34, 'Numerical result out of range')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"alpha = \S+ is too large: .* overflows float64"):
            call()


def test_divisors_work_budget():
    # refused from isqrt(n) alone: trial division to 2**200 would never end
    for n in ((_TRIAL_DIVISION_LIMIT + 1) ** 2, 10**18, 2**400):
        for fn in (tau, lambda n: sigma_alpha(n, 1), lambda n: divisor_sum_restricted(n, DivisorSpec(2, 1))):
            with pytest.raises(ValueError, match="work budget"):
                fn(n)


def _loop_divisors(n):
    # the enumerator before its int64 chunks: one Python trial division per d
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return out


def _check_divisors(n, want):
    got = _divisors(n)
    assert got == sorted(want), n
    assert all(d < e for d, e in zip(got, got[1:])), n  # ascending, no repeats
    assert all(type(d) is int for d in got), n


def test_divisors_match_loop():
    rng = random.Random(41)
    for n in [*range(1, 2 * 10**4 + 1), *(rng.randrange(1, 10**7) for _ in range(2_000))]:
        _check_divisors(n, _loop_divisors(n))


def test_divisors_chunk_edges():
    # isqrt(n) at the end of a chunk, one past it and one short of it: the
    # one chunk of every d ends at 2**14, the chunks of odd d past it at
    # 2**15 and 2**16
    for r in (_TRIAL_CHUNK - 1, _TRIAL_CHUNK, _TRIAL_CHUNK + 1, 2 * _TRIAL_CHUNK - 1, 2 * _TRIAL_CHUNK,
              2 * _TRIAL_CHUNK + 1, 4 * _TRIAL_CHUNK - 1, 4 * _TRIAL_CHUNK, 4 * _TRIAL_CHUNK + 1):
        for n in (r * r - 1, r * r, r * r + 1, r * (r + 1)):
            _check_divisors(n, _loop_divisors(n))


def test_divisors_match_sympy():
    sympy = pytest.importorskip("sympy")  # an independent oracle, not a runtime dependency
    rng = random.Random(43)
    # n log-uniform below 10**16, so most draws stay cheap; then prime squares
    # with isqrt(n) near 2**26 and at the budget's 10**8, and products of two close primes
    ns = [int(10 ** rng.uniform(0, 16)) for _ in range(200)]
    ns += [p * p for p in (sympy.prevprime(2**26), sympy.nextprime(2**26), sympy.prevprime(10**8))]
    for m in (10**7, 2**26, 10**8):
        p = sympy.prevprime(m)
        ns += [p * sympy.prevprime(p), p * sympy.nextprime(p)]
    for n in ns:
        _check_divisors(n, sympy.divisors(n))


def test_divisors_float_limit():
    # the float64 test runs below 2**53, the int64 one from there on: the
    # neighbours of 2**53, the largest prime below it, a prime square below it
    # and a product of two close primes just above it.  float(n) rounds from
    # 2**53 + 1 on (2**53 + 1 would read as 2**53), so a float test there would
    # list wrong divisors.  A Python loop to isqrt(n) = 9.5e7 takes about 9 s
    # per n, so the oracle is sympy's factorization.
    sympy = pytest.importorskip("sympy")
    p, q = 94906249, 94906297
    assert sympy.isprime(p) and sympy.nextprime(p) == q and p * p < 2**53 < p * q
    assert sympy.prevprime(2**53) == 9007199254740881
    for n in (2**53 - 1, 2**53, 2**53 + 1, 9007199254740881, p * p, p * q):
        want = sympy.divisors(n)
        assert all(n % d == 0 for d in want)
        _check_divisors(n, want)


def test_divisors_chunk_edges_int64():
    # on the int64 path isqrt(n) ends a full chunk, then sits alone in the last one
    sympy = pytest.importorskip("sympy")
    r0 = (isqrt(2**53) // _TRIAL_CHUNK + 1) * _TRIAL_CHUNK
    for r in (r0, r0 + 1):
        assert r * r >= 2**53
        _check_divisors(r * r, sympy.divisors(r * r))


def test_divisors_odd_chunk_edges():
    # past one chunk only the odd d are tried, on the odd part m of
    # n = 2**k m: isqrt(m) around the chunk edges, for odd m alone and for
    # 2**k m
    for r in (_TRIAL_CHUNK - 1, _TRIAL_CHUNK, _TRIAL_CHUNK + 1, 2 * _TRIAL_CHUNK - 1, 2 * _TRIAL_CHUNK + 1,
              4 * _TRIAL_CHUNK - 1, 4 * _TRIAL_CHUNK + 1):
        odd = [m for m in (r * r, r * r + 1, r * r + 2, r * (r + 1) - 1, r * (r + 1) + 1, r * (r + 2)) if m % 2]
        assert len(odd) >= 3 and all(isqrt(m) == r for m in odd)
        for m in odd:
            for k in (0, 1, 2, 5):
                _check_divisors(m << k, _loop_divisors(m << k))


def test_divisors_odd_chunk_edges_int64():
    # odd n >= 2**53, tried by odd d in int64 chunks of _TRIAL_CHUNK odd d
    # that span 2 * _TRIAL_CHUNK integers: with r0 a multiple of the span,
    # the chunk that ends below r0 holds d = r0 - 1 in its last slot, and
    # d = r0 + 1 sits alone in the next one; then r0 a multiple of
    # _TRIAL_CHUNK alone, the middle of a chunk
    sympy = pytest.importorskip("sympy")
    for span in (2 * _TRIAL_CHUNK, _TRIAL_CHUNK):
        r0 = (isqrt(2**53) // span + 1) * span
        for n in ((r0 - 1) * (r0 + 1), r0 * r0 + 1, (r0 + 1) ** 2, (r0 + 1) * (r0 + 3)):
            assert n % 2 and n >= 2**53
            _check_divisors(n, sympy.divisors(n))


def test_divisors_work_ignores_two_adic_valuation(monkeypatch):
    # the odd part is tried up to isqrt(n) whatever the power of 2 in n, so
    # the work depends on the size of n alone
    bounds = []
    real = divisors._odd_divisors_upto

    def spy(m, r):
        bounds.append(r)
        return real(m, r)

    monkeypatch.setattr(divisors, "_odd_divisors_upto", spy)
    ns = (10**12 + 39, 10**12, 2**40, 3 * 2**38)
    for n in ns:
        _divisors(n)
    assert bounds == [isqrt(n) for n in ns]


def test_divisors_powers_of_two():
    # the odd part m = 1: no trial division past d = 1, every divisor a shift
    for e in range(54):
        _check_divisors(2**e, [2**i for i in range(e + 1)])


def test_divisors_two_adic_split_sympy():
    # an even n >= 2**53 whose odd part is a prime below 2**53 (the float
    # test), an odd n >= 2**53 (the int64 test), and 2**k times a prime near
    # 2**40; twice the largest prime below 2**53 is past the work budget
    sympy = pytest.importorskip("sympy")
    p53 = sympy.nextprime(2**52)
    p40 = sympy.prevprime(2**40)
    ns = [2 * p53, 94906249 * 94906297, *(p40 << k for k in (1, 2, 5, 13))]
    assert 2 * p53 >= 2**53 and p40 << 13 < 10**16
    for n in ns:
        _check_divisors(n, sympy.divisors(n))
    with pytest.raises(ValueError, match="work budget"):
        tau(2 * 9007199254740881)


def test_divisors_budget_edge():
    # the largest n the budget accepts are exact int64 values: a prime below
    # 10**16, about 0.25 s, and 10**16 = 2**16 5**16 itself; the
    # temporaries are one chunk's, whatever n is, on the int64 path and on
    # the float64 one (the largest prime below 2**53)
    assert (_TRIAL_DIVISION_LIMIT + 1) ** 2 - 1 < 2**63
    for n in (9999999999999937, 9007199254740881):
        tracemalloc.start()
        try:
            assert tau(n) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (n, peak)
    assert tau(10**16) == 289


def test_one_float_base():
    # the float d chunks of _divisors and of summatory._d_chunks share one read-only base
    assert summatory._BASE is divisors._BASE
    assert not divisors._BASE.flags.writeable
    assert len(divisors._BASE) > max(_TRIAL_CHUNK, summatory._FAST_CHUNK)


@pytest.mark.parametrize("a", (2, 3, 4))
def test_divisor_sum_restricted_matches_filter(a):
    # the ascending early stop against the test of every divisor
    rng = random.Random(47)
    for n in [*range(1, 2_000), *(k**a + e for k in range(2, 60) for e in (-1, 0, 1)),
              *(rng.randrange(1, 10**9) for _ in range(300))]:
        divs = [d for d in _loop_divisors(n) if d**a <= n]
        assert divisor_sum_restricted(n, DivisorSpec(a, 0)) == len(divs), (n, a)
        assert divisor_sum_restricted(n, DivisorSpec(a, 2)) == sum(d * d for d in divs), (n, a)


def _one_pass_sieve_into(arr, lo, spec, root):
    # the kernel before its tiers: one pass over the whole range per d
    hi = lo + len(arr)
    for d in range(1, root + 1):
        if d**spec.a >= hi:
            break
        start = max(d**spec.a, -(-lo // d) * d)
        arr[start - lo :: d] += d**spec.alpha if spec.exact else float(d) ** spec.alpha
    return arr


def _sieve_callers(limit, spec):
    return (restricted_sigma_table(limit, spec), summatory_bruteforce_table(limit, spec),
            summatory_bruteforce(limit, spec))


def _no_lanes(limit, root, spec):
    return np.int64 if spec.exact else np.float64


@pytest.mark.parametrize("a", (2, 3, 4))
@pytest.mark.parametrize("alpha", (0, 1, 2, 0.5, 2.0))
def test_sieve_tiers_match_one_pass(monkeypatch, a, alpha):
    # limits at each tier's edge: the wheel's start w = 12**a, its first
    # whole period (limit w + 27719 is the first that holds all of
    # [w, w + 27720)), multiples of the period and one 2**17 block; every
    # table must equal the one-pass kernel's with ==, floats too.  The
    # reference also sieves int64 throughout, not in int16 or int32 lanes
    spec, w = DivisorSpec(a, alpha), 12**a
    grid = [(None, None, (w - 1, w + 1, w + 27718, w + 27719, 27719, 27721, 55439, 55441,
                          2**17 - 1, 2**17 + 1)),
            # sub-blocks and chunks that start at arbitrary n
            (97, 7_919, (w - 1, w + 1, w + 27718, w + 27719))]
    for block, chunk, limits in grid:
        if block:
            monkeypatch.setattr(divisors, "_BLOCK", block)
            monkeypatch.setattr(summatory, "_CHUNK", chunk)
        for limit in limits:
            got = _sieve_callers(limit, spec)
            with monkeypatch.context() as m:
                m.setattr(divisors, "_sieve_into", _one_pass_sieve_into)
                m.setattr(summatory, "_sieve_into", _one_pass_sieve_into)
                m.setattr(divisors, "_lane_dtype", _no_lanes)
                m.setattr(summatory, "_lane_dtype", _no_lanes)
                want = _sieve_callers(limit, spec)
            assert (got[0] == want[0]).all() and (got[1] == want[1]).all(), (limit, block)
            assert got[2] == want[2] and type(got[2]) is type(want[2]), (limit, block)


# (a, alpha, limit, lane): limit is the first whose lane is one size wider
# than the lane at limit - 1
_LANE_EDGES = [(2, 1, 128**2, np.int16), (2, 2, 26**2, np.int16), (2, 2, 1024**2, np.int32),
               (2, 3, 12**2, np.int16), (2, 3, 181**2, np.int32), (3, 1, 341**2, np.int16),
               (3, 3, 27**2, np.int16), (4, 2, 135**2, np.int16)]
# (a, alpha, limit) whose largest entry passes the next narrower lane:
# 1081080 = 2^3 3^3 5 7 11 13 is the first n with tau~(n) = 128 > 2^7 - 1 and
# sigma~_1(n) = 35204 > 2^15 - 1; sigma~_2(6720) = 34275 > 2^15 - 1; and
# sigma~_3(388080) = 2195757404 > 2^31 - 1
_LANE_OVERFULL = [(2, 0, 1081080), (2, 1, 1081080), (2, 2, 6720), (2, 3, 388080)]


def _lane_cases():
    for a, alpha, limit, _ in _LANE_EDGES:
        yield from ((a, alpha, n) for n in (limit - 1, limit, limit + 1))
    yield from _LANE_OVERFULL
    for k in (4, 11, 13):  # tables of length 2**k and 2**k + 1, and chunks too
        yield from ((2, alpha, n) for alpha in (0, 1) for n in (2**k - 1, 2**k, 2**k + 1))
    yield from ((a, alpha, n) for a in (2, 3) for alpha in (0, 2) for n in (1, 2, 3))


@pytest.mark.parametrize("a, alpha, limit", [pytest.param(*c, id="-".join(map(str, c))) for c in _lane_cases()])
def test_sieve_lanes_match_int64(monkeypatch, a, alpha, limit):
    # every exact caller against an int64 table of one pass per d, built
    # without _sieve_in_lane, at whole-table chunks and at _CHUNK = 7919
    # (chunks start off every power of 2, and the last one is short)
    spec = DivisorSpec(a, alpha)
    ref = _one_pass_sieve_into(np.zeros(limit + 1, dtype=np.int64), 0, spec, integer_root(limit, a))
    cum = np.cumsum(ref)
    assert (restricted_sigma_table(limit, spec) == ref).all()
    for chunk in (summatory._CHUNK, 7_919):
        monkeypatch.setattr(summatory, "_CHUNK", chunk)
        assert (summatory_bruteforce_table(limit, spec) == cum).all(), chunk
        assert summatory_bruteforce(limit, spec) == int(cum[-1]), chunk


def test_lane_choice():
    # each edge of _LANE_EDGES widens its lane there; the limits of
    # _LANE_OVERFULL sieve in a lane of which the next narrower one wraps
    for a, alpha, limit, narrow in _LANE_EDGES:
        spec = DivisorSpec(a, alpha)
        lanes = [divisors._lane_dtype(n, integer_root(n, a), spec) for n in (limit - 1, limit)]
        assert lanes == [narrow, np.int32 if narrow is np.int16 else np.int64], (a, alpha, limit)
    for a, alpha, limit in _LANE_OVERFULL:
        spec = DivisorSpec(a, alpha)
        lane = divisors._lane_dtype(limit, integer_root(limit, a), spec)
        narrower = {np.int16: np.int8, np.int32: np.int16, np.int64: np.int32}[lane]
        assert divisor_sum_restricted(limit, spec) > np.iinfo(narrower).max, (a, alpha, limit)
    assert divisors._lane_dtype(100, 10, DivisorSpec(2, 0.5)) is np.float64


def test_lane_widening_in_place():
    # the lane is laid over the output's own bytes: nothing limit-sized is
    # allocated besides the output, in every lane
    limit = 10**6
    for spec in (DivisorSpec(2, 0), DivisorSpec(2, 1), DivisorSpec(2, 3)):
        tracemalloc.start()
        try:
            restricted_sigma_table(limit, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8 * (limit + 1), (spec, peak)
