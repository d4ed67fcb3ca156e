"""Bit-for-bit gate on the exact evaluators.

A SHA-256 over exact summatory_fast fields and exact g_sum / block_g values
on a fixed grid that crosses the kernels' switches: x around 2^53 (float
quotients below, integer divisions from there on) and 2^63 (int64 quotients
below), cutoffs across one and several chunks, alpha 0..3 and negative
alpha at j = 0.  A kernel rewrite that changes any exact output changes the
hash.  Values are hashed as hex integers and hex numerator/denominator pairs.
"""

import hashlib
from fractions import Fraction

from cwlab.cw_sums import GSumSpec, block_g, g_sum
from cwlab.divisors import DivisorSpec
from cwlab.summatory import summatory_fast

EXACT_SHA256 = "41eaac3a89817df7c2a099256084f0dc333dddd08e9485e292947520a71c081a"
EXACT_ITEMS = 2046

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
