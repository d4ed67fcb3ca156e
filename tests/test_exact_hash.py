"""Bit-for-bit gate on the exact evaluators.

A SHA-256 over exact summatory_fast fields and exact g_sum / block_g values
on a fixed grid that crosses the kernels' switches: x around 2^53 (float
quotients below, integer divisions from there on) and 2^63 (int64 quotients
below), cutoffs across one and several chunks, alpha 0..3 and negative
alpha at j = 0.  A kernel rewrite that changes any exact output changes the
hash.  Values are hashed as hex integers and hex numerator/denominator pairs.

A second SHA-256 covers the tables of the three sieve callers
(restricted_sigma_table, summatory_bruteforce_table, summatory_bruteforce),
exact and float, at limits across the sieve kernel's tiers: the wheel's
start 12**a and first whole period of 27720, its multiples, 2**17-entry
blocks, and chunks that start off the wheel's phase.  Tables are hashed as
little-endian int64 / float64 bytes, scalar totals as hex ints / float.hex,
so float tables must match bit for bit too.

A third SHA-256 covers the exact sums the first one does not reach: exact
shifted_psi_block_sum at every shift, at block starts from 3 to past 1024,
and the alpha = 0 term_main and term_psi of summatory_fast, whose harmonic
sum runs the fraction tree on 1/d.
"""

import hashlib
from fractions import Fraction

import numpy as np

from cwlab import summatory
from cwlab.cw_sums import GSumSpec, block_g, g_sum, shifted_psi_block_sum
from cwlab.divisors import DivisorSpec, restricted_sigma_table
from cwlab.summatory import summatory_bruteforce, summatory_bruteforce_table, summatory_fast

EXACT_SHA256 = "41eaac3a89817df7c2a099256084f0dc333dddd08e9485e292947520a71c081a"
EXACT_ITEMS = 2046
TABLE_SHA256 = "da42a936f00a3a76d95300054109eb703fd71d0df727c05fc12f5a62a656a57c"
TABLE_ITEMS = 660
TREE_SHA256 = "9fe14737814a703498aa13ca918d561c7c6d940db9626c098c89242dc3a1f47c"
TREE_ITEMS = 52

XS = (0, 1, 2, 17, 100, 300, 10**4 + 1, 10**6 + 3, 2**31 + 11, 10**9 + 7, 10**12 + 39,
      2**53 - 1, 2**53, 2**53 + 1, 2**59 + 3, 2**63 - 25, 2**63 + 5, 2**64 + 7)
GX = (0, 1, 17, 1000, 10**4 + 1, 2**31 + 11, 10**9 + 7, 10**12 + 39, 2**53 - 1, 2**53,
      2**53 + 1, 2**63 - 25, 2**63 + 5)


def _enc(v) -> str:
    if isinstance(v, Fraction):
        return f"F({v.numerator:x},{v.denominator:x})"
    if isinstance(v, int):
        return f"{v:x}"
    assert isinstance(v, tuple), v
    return "(" + ",".join(map(_enc, v)) + ")"


def exact_items():
    for a in (2, 3, 4):
        for alpha in (0, 1, 2, 3):
            spec = DivisorSpec(a, alpha)
            for x in XS:
                if x ** (1 / a) > 2**20:
                    continue
                b = summatory_fast(x, spec)
                yield a, alpha, x, b.total, b.cutoff, b._s_floor, b._s_pow, b._s_alpha
    for a in (2, 3, Fraction(3, 2)):
        for j in range(5):
            for alpha in range(-2 if j == 0 else 0, 4):
                for x in GX:
                    spec = GSumSpec(a, alpha, j, x)
                    if spec.cutoff * max(j - alpha, 1) > 1 << 13:
                        continue
                    yield a, alpha, j, x, g_sum(spec)
                    for n in (1, 3, 64, 1000):
                        yield a, alpha, j, x, n, block_g(n, spec)


def test_exact_outputs_hash():
    h, count = hashlib.sha256(), 0
    for item in exact_items():
        h.update(_enc(item).encode())
        count += 1
    assert (h.hexdigest(), count) == (EXACT_SHA256, EXACT_ITEMS)


def tree_items():
    for x in (2**21 + 7, 4 * 10**7 + 9):
        for n in (3, 64, 260, 1025):
            for shift in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                yield x, n, shift, shifted_psi_block_sum(n, x, *shift)
    for a in (2, 3):
        for x in (1, 2, 17, 10**4 + 1, 2**20 + 3, 4 * 10**6 + 3):
            b = summatory_fast(x, DivisorSpec(a, 0))
            yield a, x, b.term_main, b.term_psi


def test_tree_outputs_hash():
    h, count = hashlib.sha256(), 0
    for item in tree_items():
        h.update(_enc(item).encode())
        count += 1
    assert (h.hexdigest(), count) == (TREE_SHA256, TREE_ITEMS)


def table_items(monkeypatch):
    p = 27720  # lcm(1..12), the sieve's wheel period
    for a in (2, 3, 4):
        w = 12**a
        for alpha in (0, 1, 2, 0.5, 2.0):
            spec = DivisorSpec(a, alpha)
            for limit in (1, 2, 3, w - 1, w, w + 1, w + p - 1, w + p, w + p + 1, 2 * p + 1,
                          2**17 - 1, 2**17 + 1, 5 * p + 11, 2**18 + 3):
                yield restricted_sigma_table(limit, spec)
                yield summatory_bruteforce_table(limit, spec)
                yield summatory_bruteforce(limit, spec)
            # chunks that start off the wheel's phase and hold whole periods
            with monkeypatch.context() as m:
                m.setattr(summatory, "_CHUNK", 3 * p + 7)
                yield summatory_bruteforce_table(2**18 + 3, spec)
                yield summatory_bruteforce(2**18 + 3, spec)


def _table_bytes(v) -> bytes:
    if isinstance(v, np.ndarray):
        return v.astype("<i8" if v.dtype == np.int64 else "<f8").tobytes()
    return (f"{v:x}" if isinstance(v, int) else float.hex(v)).encode()


def test_sieve_tables_hash(monkeypatch):
    h, count = hashlib.sha256(), 0
    for item in table_items(monkeypatch):
        h.update(_table_bytes(item))
        count += 1
    assert (h.hexdigest(), count) == (TABLE_SHA256, TABLE_ITEMS)
