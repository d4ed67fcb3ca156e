import random

import numpy as np
import pytest

from cwlab import invariants
from cwlab.divisors import (
    DivisorSpec,
    divisor_sum_restricted,
    integer_root,
    is_square,
    restricted_sigma_table,
    sigma_alpha,
    tau,
    tau_tilde_via_identity,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        DivisorSpec(1, 0)
    with pytest.raises(ValueError):
        DivisorSpec(2, -1)
    assert DivisorSpec(2, 0).exact
    assert not DivisorSpec(2, 0.0).exact


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


def test_monotone_bound():
    invariants.monotone_bound(10**5)


def test_boundary_inclusion():
    invariants.boundary_inclusion(50)


def test_table_overflow_guard():
    with pytest.raises(OverflowError):
        restricted_sigma_table(10**6, DivisorSpec(2, 12))
