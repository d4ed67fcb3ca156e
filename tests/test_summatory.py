import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from cwlab.cw_sums import GSumSpec, g_sum
from cwlab.divisors import DivisorSpec, divisor_sum_restricted
from cwlab.summatory import (
    BRUTEFORCE_LIMIT,
    summatory_bruteforce,
    summatory_bruteforce_table,
    summatory_fast,
)

SPECS = [DivisorSpec(a, alpha) for a in (2, 3, 4) for alpha in (0, 1, 2)]


def per_n_reference(x: int, spec: DivisorSpec):
    # definitional oracle: sum the per-n restricted divisor sums
    return sum(divisor_sum_restricted(n, spec) for n in range(1, x + 1))


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
    rng = random.Random(61)
    for _ in range(50):
        x = rng.randrange(1, 20_000)
        spec = rng.choice(SPECS)
        b = summatory_fast(x, spec)
        a, alpha = spec.a, spec.alpha
        assert b.term_main == x * g_sum(GSumSpec(a, alpha - 1, 0, x))
        assert b.term_power == -g_sum(GSumSpec(a, alpha + a - 1, 0, x))
        assert b.term_half == Fraction(g_sum(GSumSpec(a, alpha, 0, x)), 2)
        assert b.term_psi == -g_sum(GSumSpec(a, alpha, 1, x))
        assert sum(b.terms()) == b.total


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
    spec = DivisorSpec(2, 1)
    prev = 0
    for x in range(1, 2000):
        cur = summatory_fast(x, spec).total
        assert cur >= prev
        prev = cur


def test_bruteforce_guard():
    with pytest.raises(ValueError, match="summatory_fast"):
        summatory_bruteforce(BRUTEFORCE_LIMIT + 1, DivisorSpec(2, 0))


def test_bruteforce_overflow_guard():
    # the int64 guard refuses before anything limit-sized is allocated
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError):
            summatory_bruteforce(10**6, DivisorSpec(2, 3))
        with pytest.raises(OverflowError):
            summatory_bruteforce_table(10**6, DivisorSpec(2, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # an int64 array of 10**6 entries is 8 MB


def test_bruteforce_chunking():
    # totals and tables must not depend on chunk boundaries
    import cwlab.summatory as s

    spec = DivisorSpec(2, 1)
    want = summatory_bruteforce(3 * 10**4, spec)
    want_table = summatory_bruteforce_table(3 * 10**4, spec)
    old = s._CHUNK
    try:
        s._CHUNK = 7_919
        assert summatory_bruteforce(3 * 10**4, spec) == want
        assert (summatory_bruteforce_table(3 * 10**4, spec) == want_table).all()
    finally:
        s._CHUNK = old


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


def test_input_validation():
    with pytest.raises(ValueError):
        summatory_fast(-1, DivisorSpec(2, 0))
    with pytest.raises(ValueError):
        summatory_fast(10.5, DivisorSpec(2, 0))
    with pytest.raises(ValueError):
        summatory_bruteforce(-2, DivisorSpec(2, 0))
