import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlab import cw_sums, invariants
from cwlab.bernoulli import MAX_DEGREE
from cwlab import summatory as s
from cwlab.cw_sums import _FAST_CHUNK, _FAST_CUTOFF_LIMIT, _d_chunks, _fast_sum_bound, _fraction_sum, _quotient
from cwlab.divisors import (DivisorSpec, divisor_sum_restricted, integer_root, restricted_sigma_table, square_table,
                            tau_table)
from cwlab.invariants import SPECS
from cwlab.summatory import (
    BRUTEFORCE_LIMIT,
    summatory_bruteforce,
    summatory_bruteforce_table,
    summatory_fast,
)

def per_n_reference(x: int, spec: DivisorSpec):
    # definitional oracle: sum the per-n restricted divisor sums
    return sum(divisor_sum_restricted(n, spec) for n in range(1, x + 1))


def loop_reference(x: int, spec: DivisorSpec):
    # term-by-term Python-int loop over d <= x^(1/a): the kernel's reference
    a, alpha = spec.a, spec.alpha
    cut = integer_root(x, a) if x >= 1 else 0
    s_floor = s_pow = s_alpha = 0
    for d in range(1, cut + 1):
        da = d**alpha
        s_floor += da * (x // d)
        s_pow += da * d ** (a - 1)
        s_alpha += da
    return s_floor - s_pow + s_alpha, cut, s_floor, s_pow, s_alpha


def float_fast_reference(x: int, spec: DivisorSpec):
    # the float kernel as it was before the float64 quotient: x // d in int64
    cut = integer_root(x, spec.a) if x >= 1 else 0
    s_floor = s_pow = s_alpha = 0.0
    for d in _d_chunks(1, cut, None):
        w = d.astype(np.float64) ** spec.alpha
        s_floor += float((w * (x // d)).sum())
        s_pow += float((w * d ** (spec.a - 1)).sum())
        s_alpha += float(w.sum())
    return s_floor - s_pow + s_alpha, s_floor, s_pow, s_alpha


def fast_fields(x: int, spec: DivisorSpec):
    # term_psi reads _s_floor and _s_alpha, so all accumulators must match
    b = summatory_fast(x, spec)
    fields = (b.total, b.cutoff, b._s_floor, b._s_pow, b._s_alpha)
    assert all(type(v) is int for v in fields)
    return fields


def test_examples():
    assert summatory_fast(10, DivisorSpec(2, 0)).total == 15
    assert summatory_fast(10, DivisorSpec(3, 0)).total == 12
    assert summatory_bruteforce(10, DivisorSpec(2, 0)) == 15
    assert summatory_bruteforce(10, DivisorSpec(3, 0)) == 12
    assert summatory_bruteforce(1, DivisorSpec(4, 2)) == 1
    assert summatory_fast(0, DivisorSpec(2, 0)).total == 0
    assert summatory_bruteforce(100, DivisorSpec(2, 0)) == 246


def test_floor_form_example():
    # x=10, a=3: sum_{d<=2} (floor(10/d) - d^2 + 1) = 10 + 2
    b = summatory_fast(10, DivisorSpec(3, 0))
    assert b.cutoff == 2
    assert b.total == (10 - 1 + 1) + (5 - 4 + 1)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_three_way_oracle_small(spec):
    for x in (1, 2, 3, 10, 99, 100, 543, 1000):
        ref = per_n_reference(x, spec)
        assert summatory_fast(x, spec).total == ref
        assert summatory_bruteforce(x, spec) == ref


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_fast_equals_brute_random(spec):
    rng = random.Random(59)
    for _ in range(25):
        x = rng.randrange(1, 10**6)
        assert summatory_fast(x, spec).total == summatory_bruteforce(x, spec)


def test_breakdown_terms_equal_g_sums():
    invariants.breakdown_identity(random.Random(61), 50)


def test_breakdown_interchange_identity():
    # the four-component total reproduces the floor-form sum exactly
    rng = random.Random(67)
    for _ in range(50):
        x = rng.randrange(1, 10**5)
        spec = rng.choice(SPECS)
        b = summatory_fast(x, spec)
        floor_form = sum(
            d**spec.alpha * ((x // d) - d ** (spec.a - 1) + 1) for d in range(1, b.cutoff + 1)
        )
        assert b.total == floor_form
        assert sum(b.terms()) == floor_form


def test_monotone_in_x():
    invariants.summatory_monotone(2000)


def test_bruteforce_guard():
    with pytest.raises(ValueError, match="summatory_fast"):
        summatory_bruteforce(BRUTEFORCE_LIMIT + 1, DivisorSpec(2, 0))


def test_bruteforce_overflow_guard():
    # the int64 guards refuse before anything limit-sized is allocated: the
    # total of (10**6, (2, 6)) is about 4e22, and (2, 12) has entries past int64
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError):
            summatory_bruteforce(10**6, DivisorSpec(2, 6))
        with pytest.raises(OverflowError):
            summatory_bruteforce_table(10**6, DivisorSpec(2, 6))
        with pytest.raises(OverflowError):
            restricted_sigma_table(10**6, DivisorSpec(2, 12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # an int64 array of 10**6 entries is 8 MB
    # its total, 1.3e14, fits int64 however many entries a chunk sums
    assert summatory_bruteforce(10**6, DivisorSpec(2, 3)) == 133469155883732


def test_sieve_entry_bound_boundary(monkeypatch):
    # at limit 10**4 (root 100) the entry cap is 100**alpha * 202: the table
    # needs it in int64 (alpha <= 8); brute force needs the total bound
    # 10**4 * 100**alpha * 8 below 2**63 (alpha <= 7)
    limit = 10**4
    table = restricted_sigma_table(limit, DivisorSpec(2, 8))
    assert table[limit] == divisor_sum_restricted(limit, DivisorSpec(2, 8))
    with pytest.raises(OverflowError):
        restricted_sigma_table(limit, DivisorSpec(2, 9))
    want = summatory_fast(limit, DivisorSpec(2, 7)).total
    for chunk in (s._CHUNK, 7_919):
        monkeypatch.setattr(s, "_CHUNK", chunk)
        assert summatory_bruteforce(limit, DivisorSpec(2, 7)) == want, chunk
        assert summatory_bruteforce_table(limit, DivisorSpec(2, 7))[-1] == want, chunk
        for refused in (summatory_bruteforce, summatory_bruteforce_table):
            with pytest.raises(OverflowError):
                refused(limit, DivisorSpec(2, 8))


def test_bruteforce_chunking(monkeypatch):
    # exact totals and all tables must not depend on chunk boundaries, and the
    # table is the prefix sum of restricted_sigma_table, equal with == for floats too
    limit = 3 * 10**4
    want = summatory_bruteforce(limit, DivisorSpec(2, 1))
    for chunk in (s._CHUNK, 7_919):
        monkeypatch.setattr(s, "_CHUNK", chunk)
        assert summatory_bruteforce(limit, DivisorSpec(2, 1)) == want, chunk
        for spec in (DivisorSpec(2, 1), DivisorSpec(3, 0), DivisorSpec(2, 0.5), DivisorSpec(3, 2.0)):
            want_table = np.cumsum(restricted_sigma_table(limit, spec))
            assert (summatory_bruteforce_table(limit, spec) == want_table).all(), (spec, chunk)


def test_bruteforce_table_peak_memory():
    # the table is sieved into its one output array and summed in place: a
    # separate chunk copy or an out-of-place cumsum doubles the peak, and a
    # bool mask for the wrap check adds an eighth
    limit = 10**6
    for spec in (DivisorSpec(2, 1), DivisorSpec(3, 0.5)):
        tracemalloc.start()
        try:
            summatory_bruteforce_table(limit, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8 * (limit + 1), (spec, peak)


def test_table_matches_scalar():
    spec = DivisorSpec(3, 1)
    table = summatory_bruteforce_table(5000, spec)
    for x in (1, 2, 100, 4999, 5000):
        assert int(table[x]) == summatory_bruteforce(x, spec)


def test_real_alpha_mode():
    spec_f = DivisorSpec(2, 1.0)
    spec_i = DivisorSpec(2, 1)
    for x in (10, 1000, 99_991):
        f = summatory_fast(x, spec_f)
        assert f.total == pytest.approx(float(summatory_fast(x, spec_i).total), rel=1e-12)
        assert sum(f.terms()) == pytest.approx(f.total, rel=1e-12)
    b = summatory_bruteforce(10**4, DivisorSpec(2, 1.5))
    fast = summatory_fast(10**4, DivisorSpec(2, 1.5)).total
    assert b == pytest.approx(fast, rel=1e-9)


def test_fast_chunk_boundaries(monkeypatch):
    import cwlab.summatory as s

    p = 97
    cases = [(c**2 + r, DivisorSpec(2, alpha)) for c in (p - 1, p, p + 1, 3 * p, 5 * p + 2)
             for r in (-1, 0, 1) for alpha in (0, 1, 2)]
    cases.append((10**10, DivisorSpec(2, 3)))
    # cutoff 10**5 in chunks of 97: the int64 bound hi^5 * 97 < 2**63 holds up
    # to hi of about 2,500, so early chunks are int64 and later ones object
    cases.append((10**10, DivisorSpec(2, 5)))
    # alpha = 0: later chunks pass the term bound, so only x < 2**63 keeps them off int64
    cases.append((2**63 + 1, DivisorSpec(4, 0)))
    want = [fast_fields(x, spec) for x, spec in cases]
    monkeypatch.setattr(cw_sums, "_FAST_CHUNK", p)
    dtypes = {d.dtype for d in _d_chunks(1, 10**5, _fast_sum_bound, 10**10, 5)}
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    for (x, spec), w in zip(cases, want):
        assert fast_fields(x, spec) == w == loop_reference(x, spec)


@pytest.mark.parametrize("a", (2, 3, 4))
def test_fast_perfect_powers(a):
    for D in (1, 2, 10, 97, _FAST_CHUNK - 1, _FAST_CHUNK, _FAST_CHUNK + 1):
        if D**a > 10**15:
            continue
        for x in (D**a - 1, D**a):
            for alpha in (0, 1, 2):
                spec = DivisorSpec(a, alpha)
                assert fast_fields(x, spec) == loop_reference(x, spec)


@pytest.mark.parametrize("alpha", (0, 1, 2, 3))
def test_fast_near_int64_limit(monkeypatch, alpha):
    # cutoffs 55k-100k with a = 4; x >= 2**63 must take the object dtype at
    # alpha = 0, and x mod d comes from 32-bit limbs at alpha >= 1
    spec = DivisorSpec(4, alpha)
    for x in (2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64 + 7, 10**20 + 3):
        want = loop_reference(x, spec)
        for chunk in (_FAST_CHUNK, 97):
            monkeypatch.setattr(cw_sums, "_FAST_CHUNK", chunk)
            assert fast_fields(x, spec) == want, (x, chunk)


def test_mod_by_limbs():
    # x mod d from x = 2**63 on: 32-bit limbs in int64 for d < 2**31, Python
    # ints for larger d and object chunks, against Python's %
    rng = random.Random(83)
    chunks = [np.arange(1, 300), np.arange(2**31 - 300, 2**31), np.arange(2**31 - 5, 2**31 + 5),
              np.array([rng.randrange(1, 2**31) for _ in range(300)]),
              np.arange(2**40, 2**40 + 50), np.arange(1, 300, dtype=object)]
    for base in (2**63, 2**64, 10**20, 2**95, 10**40):
        for x in (base - 1, base, base + 1, base + rng.randrange(2**40)):
            for d in chunks:
                d = np.sort(d)
                r = cw_sums._mod(x, d)
                assert r.dtype == d.dtype and r.tolist() == [x % v for v in d.tolist()], (x, d[-1])


def test_fast_object_dtype_below_int64():
    # x < 2**63, but d^4 * floor(x/d) summed over a chunk would wrap int64
    x, spec = 10**10, DivisorSpec(2, 4)
    assert next(_d_chunks(1, _FAST_CHUNK, _fast_sum_bound, x, 4)).dtype == object
    # float chunks are exact and read-only, slices of _BASE and rows alike
    # (the row is refilled for the next chunk, so each is checked as it comes)
    seen = []
    for d in _d_chunks(1, 2 * _FAST_CHUNK + 5, None, as_float=True):
        assert d.dtype == np.float64 and not d.flags.writeable
        seen += d.tolist()
    assert seen == list(range(1, 2 * _FAST_CHUNK + 6))
    assert fast_fields(x, spec) == loop_reference(x, spec)


def test_fast_float_refuses_x_beyond_int64():
    for a in (2, 10):
        with pytest.raises(ValueError, match=r"2\*\*63"):
            summatory_fast(2**64 + 7, DivisorSpec(a, 1.0))
    # exact mode accepts any x
    spec = DivisorSpec(10, 1)
    assert fast_fields(2**64 + 7, spec) == loop_reference(2**64 + 7, spec)


def test_fast_memory_bounded():
    # no array longer than one chunk: 1e6 terms would need 8 MB per int64 array
    for spec in (DivisorSpec(2, 1.0), DivisorSpec(2, 1)):
        tracemalloc.start()
        try:
            summatory_fast(10**12, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, spec


def test_input_validation():
    with pytest.raises(ValueError):
        summatory_fast(-1, DivisorSpec(2, 0))
    with pytest.raises(ValueError):
        summatory_fast(10.5, DivisorSpec(2, 0))
    with pytest.raises(ValueError):
        summatory_bruteforce(-2, DivisorSpec(2, 0))
    # every count argument takes one check: an int, not a bool, in range
    spec = DivisorSpec(2, 1)
    calls = [lambda v: summatory_fast(v, spec), lambda v: summatory_bruteforce(v, spec),
             lambda v: summatory_bruteforce_table(v, spec), lambda v: restricted_sigma_table(v, spec),
             tau_table, square_table]
    for call in calls:
        for bad in (1e4, 10.0, True, "10", None, np.float64(10)):
            with pytest.raises(ValueError, match="must be an integer"):
                call(bad)
        with pytest.raises(ValueError, match="must be >= "):
            call(-1)
    for call in calls[2:]:
        with pytest.raises(ValueError, match="must be >= 1"):
            call(0)


def test_fast_work_budget():
    # refused from the cutoff alone, before any chunk is built
    for a, alpha in ((2, 0), (2, 1), (2, 1.0), (3, 2)):
        with pytest.raises(ValueError, match="work budget"):
            summatory_fast((_FAST_CUTOFF_LIMIT + 1) ** a, DivisorSpec(a, alpha))
    with pytest.raises(ValueError, match="work budget"):
        summatory_fast(10**24, DivisorSpec(2, 1))


def test_budget_refuses_before_any_chunk(monkeypatch):
    x = (2**20 + 1) ** 2
    b = summatory_fast(x, DivisorSpec(2, 0))
    assert b.cutoff == 2**20 + 1

    def no_chunks(*args, **kwargs):
        raise AssertionError("a chunk was built")

    monkeypatch.setattr(cw_sums, "_d_chunks", no_chunks)
    # the exact harmonic number H_cutoff is an exact range sum of cw_sums, within its budget
    for read in (lambda: b.term_main, lambda: b.term_psi, b.terms):
        with pytest.raises(ValueError, match="work budget"):
            read()
    # a power sum past bernoulli.MAX_DEGREE (degree 99 here) at cutoff 1e9
    with pytest.raises(ValueError, match="work budget"):
        summatory_fast(10**18, DivisorSpec(2, 100))


def test_float_term_main_matches_fsum():
    x = 10**10
    for alpha in (0.5, 1.5, 2.0):
        b = summatory_fast(x, DivisorSpec(2, alpha))
        want = x * math.fsum(d ** (alpha - 1.0) for d in range(1, b.cutoff + 1))
        assert b.term_main == pytest.approx(want, rel=1e-12), alpha


def test_harmonic_sum_matches_fraction_loop():
    for x in (1, 2, 17, 10**4 + 1, 4 * 10**6 + 3):
        b = summatory_fast(x, DivisorSpec(2, 0))
        want = sum(Fraction(1, d) for d in range(1, b.cutoff + 1))
        assert b.term_main == x * want and type(b.term_main) is Fraction


def _check_fraction_sum(num, base, e=1):
    got = _fraction_sum(num, base, e)
    want = sum((Fraction(int(p), int(q) ** e) for p, q in zip(num, base)), Fraction(0))
    assert Fraction(got[0], got[1] ** e) == want
    return got


def test_fraction_sum_merge(monkeypatch):
    check = _check_fraction_sum

    rng = random.Random(71)
    assert _fraction_sum(np.zeros(0, np.int64), np.zeros(0, np.int64)) == (0, 1)
    assert _fraction_sum([], []) == (0, 1)
    # odd and even lengths, negative numerators, as int64 arrays, object
    # arrays and lists, which must all give the same unreduced pair
    for n in (1, 2, 3, 7, 8, 9, 63, 64, 65, 100, 1025):
        num = [rng.randrange(-10**6, 10**6) for _ in range(n)]
        den = [rng.randrange(1, 10**4) for _ in range(n)]
        got = check(np.array(num), np.array(den))
        assert check(np.array(num, dtype=object), np.array(den, dtype=object)) == got
        assert check(num, den) == got
    # int64 input with denominators near 2**31: the lcms of the second level
    # pass 2**63, so the merges must not run in int64
    num = np.array([rng.randrange(-2**20, 2**20) for _ in range(257)])
    den = np.array([2**31 - 1 - 2 * rng.randrange(2**20) for _ in range(257)])
    check(num, den)
    den = np.array([2**31 - 1 - 2 * k for k in range(1000)])
    assert _fraction_sum(np.zeros(1000, dtype=np.int64), den) == (0, math.lcm(*den.tolist()))
    # object input past 2**63
    check(np.array([3**50 + k for k in range(-40, 41)], dtype=object),
          np.array([2**70 + k for k in range(81)], dtype=object))
    # denominators stay at the lcm, not the product
    for n in (40, 100, 300):
        lcm = math.lcm(*range(1, n + 1))
        assert _fraction_sum(np.ones(n, dtype=np.int64), np.arange(1, n + 1))[1] == lcm
        assert _fraction_sum([1] * n, list(range(1, n + 1)))[1] == lcm
    # leaves s / d**e: the base stays at the lcm of the d at every e
    for e in (2, 3, 4):
        for n in (5, 200):
            base = np.arange(1, n + 1)
            num = np.array([rng.randrange(-(d**e) + 1, d**e) for d in base.tolist()])
            got = check(num, base, e)
            assert got[1] == math.lcm(*base.tolist())
            assert check(num.tolist(), base.tolist(), e) == got
    # tiled bases whose lcm, to the e, just passes 2**63: every node of the
    # second level holds that lcm, so that level must leave int64
    for e in (1, 2):
        k = math.isqrt(math.isqrt(2**63)) // (1 if e == 1 else 2**8)
        while math.lcm(k, k + 1, k + 2, k + 3) ** e < 2**63:
            k += 1
        assert math.lcm(k - 1, k, k + 1, k + 2) ** e < 2**63
        base = np.array([k, k + 1, k + 2, k + 3] * 64)
        num = np.array([rng.randrange(-(k**e), k**e) for _ in range(len(base))])
        assert check(num, base, e) == check(num.tolist(), base.tolist(), e)
    # leaves that reach the int64 bound of the first level: coprime bases k
    # and k + 2 whose product passes 2**63, and numerators A whose merged sum
    # A * (2k + 2) does, though A * (k + 2) does not
    floor = cw_sums._INT64_TREE_FLOOR
    for k, a in ((math.isqrt(2**63) | 1, 1), (2**20 + 1, 2**63 // (2 * 2**20 + 4) + 1)):
        base, num = np.array([k, k + 2] * floor), np.full(2 * floor, a)
        assert check(num, base) == check(num.tolist(), base.tolist())
    # int64 arrays of at least _INT64_TREE_FLOOR leaves, and only those, run
    # the numpy levels
    lengths, levels = [], cw_sums._int64_levels
    monkeypatch.setattr(cw_sums, "_int64_levels", lambda num, base, e: lengths.append(len(base)) or levels(num, base, e))
    for n in (floor - 1, floor):
        check(np.ones(n, dtype=np.int64), np.arange(1, n + 1))
        check(np.ones(n, dtype=object), np.arange(1, n + 1, dtype=object))
    assert lengths == [floor]


def _int64_edge(levels: int, a: int, e: int) -> int:
    # the largest M for which _int64_levels's closed-form bound allows
    # `levels` levels: M**(2**l) < 2**63 and 2**l * A * M**(e*(2**l - 1)) < 2**63
    lo, hi = 1, 2**32
    while lo < hi:
        m = (lo + hi + 1) // 2
        l = 2**levels
        if m**l < 2**63 and l * a * m ** (e * (l - 1)) < 2**63:
            lo = m
        else:
            hi = m - 1
    return lo


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fraction_sum_int64_levels(data):
    # int64 arrays near the leaf-count floor, with bases just below and just
    # above the edge of each level's int64 bound and numerators near A, must
    # give the pair of the Python-int list path and the Fraction sum
    floor = cw_sums._INT64_TREE_FLOOR
    n = data.draw(st.sampled_from((floor - 1, floor, floor + 1, 2 * floor + 3, 1000)), label="n")
    e = data.draw(st.integers(1, 4), label="e")
    levels = data.draw(st.integers(1, 4), label="levels")
    a_max = data.draw(st.sampled_from((1, 2**20, 2**40)), label="A")
    edge = _int64_edge(levels, a_max, e)
    m = max(2, edge + data.draw(st.integers(-2, 3), label="offset"))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    span = max(1, min(m - 1, 2**10))
    base = [m] + [m - rng.randrange(span) for _ in range(n - 1)]
    num = [a_max] + [rng.choice((-1, 1)) * (a_max - rng.randrange(min(a_max, 2**10))) for _ in range(n - 1)]
    got = _check_fraction_sum(np.array(num), np.array(base), e)
    assert _fraction_sum(num, base, e) == got


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_quotient_is_floor_division(data):
    # near 2**53 the rounding of x / d is coarsest, and at x = k*d - 1 the
    # quotient sits just below an integer
    x = data.draw(st.one_of(st.integers(0, 2**53 - 1), st.integers(2**53 - 2**20, 2**53 - 1)), label="x")
    top = max(math.isqrt(x), 1)
    ds = data.draw(st.lists(st.one_of(st.integers(1, top), st.integers(1, 100)), min_size=1, max_size=40),
                   label="d")
    if data.draw(st.booleans(), label="x = k*d - 1"):
        kmax = 2**53 // ds[0]
        x = data.draw(st.one_of(st.integers(1, kmax), st.just(kmax)), label="k") * ds[0] - 1
    for d in (np.array(ds, dtype=np.int64), np.array(ds, dtype=np.float64)):
        q = _quotient(x, d)
        assert q.dtype == np.float64
        assert q.tolist() == [x // v for v in ds]
        assert (x - d * q).tolist() == [x % v for v in ds]


def test_fast_near_float_quotient_limit(monkeypatch):
    # x // d and x mod d run through float64 below 2**53 and in integers from
    # 2**53 on.  a = 3, alpha = 0 has an object first chunk at 2**53 - 1 in
    # chunks of 2**14 and float chunks past it, whose quotients sum past 2**53
    # in chunks of 97 (an int64 sum keeps them exact).  alpha = 1 runs float
    # chunks below 2**53 and int64 chunks from it on, alpha = 2 int64 chunks
    # throughout
    cases = [(x, DivisorSpec(a, alpha)) for x in (2**53 - 1, 2**53, 2**53 + 1)
             for a, alpha in ((3, 0), (4, 1), (4, 2))]
    # cutoffs 2**14 - 1, 2**14 and 2**14 + 1: the workspace holds a whole
    # range, one full chunk, or a full chunk and a chunk of one
    cases += [(D**3, DivisorSpec(3, alpha)) for D in (2**14 - 1, 2**14, 2**14 + 1) for alpha in (0, 1)]
    want = [loop_reference(x, spec) for x, spec in cases]
    calls = []
    quotient = cw_sums._quotient
    monkeypatch.setattr(cw_sums, "_quotient", lambda x, d, **kw: calls.append(x) or quotient(x, d, **kw))
    for chunk in (_FAST_CHUNK, 97):
        monkeypatch.setattr(cw_sums, "_FAST_CHUNK", chunk)
        calls.clear()
        for (x, spec), w in zip(cases, want):
            assert fast_fields(x, spec) == w, (chunk, x, spec)
        assert set(calls) == {x for x, _ in cases if x < 2**53}, chunk


@pytest.mark.parametrize("chunk", (_FAST_CHUNK, 97))
def test_float_fast_bit_equal_to_integer_quotient(monkeypatch, chunk):
    monkeypatch.setattr(cw_sums, "_FAST_CHUNK", chunk)
    xs = [1, 2, 17, 100, 300, 10**4 + 1, 10**6 + 3, 2**31 + 11, 10**9 + 7, 10**12 + 39,
          2**53 - 1, 2**53, 2**53 + 1, 2**59 + 3, 2**63 - 25]
    for a in (2, 3, 4):
        for x in xs:
            if integer_root(x, a) > (10**6 if chunk == _FAST_CHUNK else 3 * 10**5):
                continue
            for alpha in (0.0, 1.0, 0.5, 2.5):
                b = summatory_fast(x, DivisorSpec(a, alpha))
                got = (b.total, b._s_floor, b._s_pow, b._s_alpha)
                assert got == float_fast_reference(x, DivisorSpec(a, alpha)), (a, x, alpha)
    if chunk == _FAST_CHUNK:
        # a = 2 past 2**53 (cutoff 9.5e7, about 2 s): int64 d, d itself as d^(a-1)
        x, spec = 2**53 + 1, DivisorSpec(2, 1.0)
        b = summatory_fast(x, spec)
        assert (b.total, b._s_floor, b._s_pow, b._s_alpha) == float_fast_reference(x, spec)


@pytest.mark.parametrize("a", (2, 3))
def test_fast_exact_high_alpha(a):
    # alpha + a past bernoulli.MAX_DEGREE: the power sums are summed term by
    # term, below it they come from the closed form; neither is refused
    for alpha in range(60, 71):
        spec = DivisorSpec(a, alpha)
        for x in (1, 2**a - 1, 2**a, 10**6 + 3):
            assert fast_fields(x, spec) == loop_reference(x, spec), (alpha, x)
        b = summatory_fast(10**6 + 3, spec)
        assert b.term_main == (10**6 + 3) * sum(d ** (alpha - 1) for d in range(1, b.cutoff + 1))


# x near each switch of the remainder form: x mod d on float chunks (alpha
# = 1) or by the float64 quotient below 2**53, by integer x % d up to 2**63,
# by 32-bit limbs past it; 2**42 = (2**14)**3 puts the cutoff at one chunk.
# loop_reference needs a cutoff of at most about 2e5, so a = 2 stays below
# 2**35, a = 3 reaches 2**53 and a = 4 reaches 10**20.
_REMAINDER_ANCHORS = {2: (2**34,), 3: (2**34, 2**53, 2**42), 4: (2**53, 2**63, 2**64, 10**20)}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fast_remainder_form_near_switches(data):
    a = data.draw(st.sampled_from((2, 3, 4)), label="a")
    anchor = data.draw(st.sampled_from(_REMAINDER_ANCHORS[a]), label="anchor")
    x = anchor + data.draw(st.integers(-2**12, 2**12), label="offset")
    spec = DivisorSpec(a, data.draw(st.integers(1, 3), label="alpha"))
    want = loop_reference(x, spec)
    for chunk in (_FAST_CHUNK, 97):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cw_sums, "_FAST_CHUNK", chunk)
            assert fast_fields(x, spec) == want, chunk


def _chunk_dtypes(monkeypatch):
    seen = []
    chunks = cw_sums._d_chunks

    def recording(*args, **kwargs):
        for d in chunks(*args, **kwargs):
            seen.append(d.dtype)
            yield d

    monkeypatch.setattr(cw_sums, "_d_chunks", recording)
    return seen


def test_fast_remainder_form_stays_int64(monkeypatch):
    # every term d^(alpha-1) * (x mod d) is below hi^alpha, whatever x is, so
    # these sums never need object chunks: alpha = 1 below 2**53 runs on
    # float64 chunks, alpha = 2 on int64 chunks; the quotient form
    # d^alpha * floor(x/d) needed object chunks here (the pinned values are
    # its output)
    seen = _chunk_dtypes(monkeypatch)
    for x, alpha, total, s_floor in (
        (10**15, 1, 21081850817857931440746, 31622775750068736801346),
        (10**14, 2, 2500000166775227865588729498, 5000000333441869532253729498),
    ):
        seen.clear()
        b = summatory_fast(x, DivisorSpec(2, alpha))
        assert (b.total, b._s_floor) == (total, s_floor)
        assert seen and set(seen) == {np.dtype(np.float64) if alpha == 1 else np.dtype(np.int64)}, (x, alpha)


def test_alpha0_dyadic_sum_bound(monkeypatch):
    # a chunk's floor(x/d) sum to at most x * (hi // lo).bit_length(), so
    # the first chunk (d = 1..2**14) stays off object arrays up to
    # x * 15 < 2**63, past the old term bound's switch at x * 2**14 = 2**63
    # (x = 2**49); below 2**53 every chunk is float64
    seen = _chunk_dtypes(monkeypatch)
    first = (2**63 - 1) // 15  # the last x whose first chunk is int64
    for x, a, dtypes in ((2**49 - 1, 3, [np.float64]), (2**49 + 1, 3, [np.float64]),
                         (first, 4, [np.int64]), (first + 1, 4, [object, np.int64])):
        spec = DivisorSpec(a, 0)
        seen.clear()
        assert fast_fields(x, spec) == loop_reference(x, spec), x
        assert len(seen) > 1 and sorted(set(seen), key=str) == sorted(map(np.dtype, dtypes), key=str), x
        assert seen[0] == np.dtype(dtypes[0]), x
    # float chunk sums between 2**53 and 2**54: the first chunk's x + x // 2
    # is odd at these x, so its float sum rounds, and only the int64 sum is exact
    spec = DivisorSpec(4, 0)
    for x in (2**53 - 3, 2**53 - 7):
        want = loop_reference(x, spec)
        for chunk in (2, 3):
            monkeypatch.setattr(cw_sums, "_FAST_CHUNK", chunk)
            assert fast_fields(x, spec) == want, (x, chunk)


def test_breakdown_keeps_power_sum(monkeypatch):
    # term_main and term_psi read the sum d^(alpha-1) that exact
    # summatory_fast built; past bernoulli.MAX_DEGREE a second sum would be
    # another term-by-term pass over d
    passes = []
    power_sums = cw_sums._power_sums
    monkeypatch.setattr(cw_sums, "_power_sums", lambda lo, hi, *ms: passes.append(ms) or power_sums(lo, hi, *ms))
    x = 10**6 + 3
    for alpha in (1, 2, 70):
        b = summatory_fast(x, DivisorSpec(2, alpha))
        passes.clear()
        lower = sum(d ** (alpha - 1) for d in range(1, b.cutoff + 1))
        assert b.term_main == x * lower
        assert b.term_psi == -x * lower + b._s_floor + Fraction(b._s_alpha, 2)
        assert passes == [], alpha


def _all_fields(b):
    return [getattr(b, f.name) for f in dataclasses.fields(b)]


@pytest.mark.parametrize("a", (2, 3, 4))
def test_small_cutoff_loop(monkeypatch, a):
    # below s._LOOP_CUTOFF exact summatory_fast sums its one d-dependent sum in
    # a Python-int loop and builds no chunk.  From there, in the float regime
    # (x < 2**53, alpha <= 1; float mode at any alpha), a cutoff of at most
    # _FAST_CHUNK is one chunk, a slice of _BASE, with no _d_chunks generator;
    # past either edge the chunks run.  Every exact field equals the term loop
    # and the numpy path (the constant patched to 0), on both sides of each
    # edge, and float mode equals its reference bit for bit
    c = s._LOOP_CUTOFF
    cases = [(x, (0, 1, 2, 3, 64, 70)) for x in [0, 1] + [x for k in (c - 1, c, c + 1)
                                                         for x in (k**a - 1, k**a, (k + 1) ** a - 1)]]
    # ranges whose top is 2**14 (one chunk: len(_BASE) is 2**14 + 1) and 2**14 + 1,
    # and x at 2**53, where a = 2 would put the cutoff at 9.5e7; at a = 4 the one
    # chunk of x = 2**50 + 1 has a float sum of floor(x/d) that rounds past 2**53
    edges = [x for k in (_FAST_CHUNK, _FAST_CHUNK + 1) for x in (k**a, (k + 1) ** a - 1)]
    cases += [(x, (0, 1, 2, 1.0, 0.5)) for x in edges + ([2**50 + 1, 2**53 - 1, 2**53, 2**53 + 1] if a > 2 else [])]
    built = []
    chunks = cw_sums._d_chunks

    def recording(*args, **kwargs):
        built.append(args[:2])
        return chunks(*args, **kwargs)

    monkeypatch.setattr(cw_sums, "_d_chunks", recording)
    for x, alphas in cases:
        cut = integer_root(x, a) if x else 0
        for alpha in alphas:
            spec = DivisorSpec(a, alpha)
            built.clear()
            b = summatory_fast(x, spec)
            one_chunk = x < 2**53 and cut <= _FAST_CHUNK and (not spec.exact or alpha <= 1)
            assert built == ([] if one_chunk or spec.exact and cut < c else [(1, cut)]), (alpha, x)
            if not spec.exact:
                assert (b.total, b._s_floor, b._s_pow, b._s_alpha) == float_fast_reference(x, spec), (alpha, x)
                continue
            assert fast_fields(x, spec) == loop_reference(x, spec), (alpha, x)
            assert b._s_lower == (sum(d ** (alpha - 1) for d in range(1, cut + 1)) if alpha else None)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(s, "_LOOP_CUTOFF", 0)
                assert _all_fields(summatory_fast(x, spec)) == _all_fields(b), (alpha, x)
            if cut < c:
                assert sum(b.terms()) == b.total, (alpha, x)


@pytest.mark.parametrize("a", (2, 3))
def test_high_degree_power_sums_one_pass(monkeypatch, a):
    # the degrees alpha - 1, alpha and alpha + a - 1 at or past
    # bernoulli.MAX_DEGREE are summed in one pass over d = 1..cutoff, the
    # rest by the closed form; past 2**20 terms the pass is refused before
    # it or any chunk runs
    passes = []  # the ranges d = lo..hi of cw_sums; _d_chunks and Horner's rule step theirs

    def recording(*args):
        if len(args) == 2:
            passes.append(args)
        return range(*args)

    monkeypatch.setattr(cw_sums, "range", recording, raising=False)
    for alpha in (62, 63, 64, 65, 70):
        spec = DivisorSpec(a, alpha)
        for x in (3**a - 1, 10**4 + 1, 2000**a + 7):
            passes.clear()
            assert fast_fields(x, spec) == loop_reference(x, spec), (alpha, x)
            cut = integer_root(x, a)
            assert passes == ([] if alpha + a - 1 < MAX_DEGREE else [(1, cut + 1)]), (alpha, x)

    def no_chunks(*args, **kwargs):
        raise AssertionError("a chunk was built")

    monkeypatch.setattr(cw_sums, "_d_chunks", no_chunks)
    for alpha in (63, 64, 65, 70):
        passes.clear()
        with pytest.raises(ValueError, match="work budget"):
            summatory_fast((2**20 + 1) ** a, DivisorSpec(a, alpha))
        assert passes == []


def test_tiny_call_memory():
    # the workspace is sized by the cutoff, not by _FAST_CHUNK: a call at
    # cutoff 17 allocates a few hundred bytes, not three rows of 128 KiB
    specs = [DivisorSpec(a, alpha) for a in (2, 3) for alpha in (0, 1, 2, 0.0, 1.0, 2.5)]
    for spec in specs:
        summatory_fast(300, spec)
        tracemalloc.start()
        try:
            summatory_fast(300, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**10, (spec, peak)


def test_fast_remainder_form_object_chunks(monkeypatch):
    # alpha = 3: a full chunk of 2**14 has hi^3 * 2**14 past 2**63 from hi of
    # about 82,500, so a cutoff of 10**5 (a = 2) or 2.1e5 (a = 3) runs int64
    # chunks first and object chunks after them
    seen = _chunk_dtypes(monkeypatch)
    for x, a in ((10**10 + 7, 2), (2**53 + 10**10, 3)):
        spec = DivisorSpec(a, 3)
        seen.clear()
        assert fast_fields(x, spec) == loop_reference(x, spec)
        assert seen[:5] == [np.dtype(np.int64)] * 5 and np.dtype(object) in seen, x


def test_float_near_overflow_stays_finite():
    # a float sum near the top of the float64 range runs under the overflow
    # guard and is still returned; one step of alpha further is refused
    spec = DivisorSpec(2, 120.0)
    fast, brute = summatory_fast(10**5, spec).total, summatory_bruteforce(10**5, spec)
    assert 1e300 < fast < 1e302 and fast == pytest.approx(brute, rel=1e-12)
    assert 1e299 < divisor_sum_restricted(99856, DivisorSpec(2, 120.0)) < math.inf
    for f in (summatory_fast, summatory_bruteforce, divisor_sum_restricted):
        with pytest.raises(ValueError, match="alpha = 130.0"):
            f(99856, DivisorSpec(2, 130.0))
