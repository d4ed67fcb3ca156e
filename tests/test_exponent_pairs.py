import random
import time
from fractions import Fraction

import pytest

from cwlab import invariants
from cwlab.exponent_pairs import (
    BOURGAIN_SEED,
    ExponentPair,
    apply_word,
    gsum_exponent_bound,
    parse_rational,
    parse_word,
    settled_a_range,
    theorem4_exponents,
    transform_A,
    transform_B,
)

F = Fraction


def test_pair_validation():
    ExponentPair(F(0), F(1, 2))
    ExponentPair(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        ExponentPair(F(3, 5), F(4, 5))    # k > 1/2
    with pytest.raises(ValueError):
        ExponentPair(F(1, 4), F(2, 5))    # l < 1/2
    with pytest.raises(ValueError):
        ExponentPair(F(-1, 4), F(3, 4))


def test_transform_A_examples():
    assert transform_A(BOURGAIN_SEED) == ExponentPair(F(13, 194), F(76, 97))
    assert transform_A(ExponentPair(F(0), F(1, 2))) == ExponentPair(F(0), F(3, 4))
    assert transform_A(ExponentPair(F(13, 194), F(76, 97))) == ExponentPair(F(13, 414), F(359, 414))


def test_transform_B_examples():
    assert transform_B(ExponentPair(F(13, 414), F(359, 414))) == ExponentPair(F(76, 207), F(110, 207))
    assert transform_B(ExponentPair(F(13, 194), F(76, 97))) == ExponentPair(F(55, 194), F(55, 97))


def test_b_involution_random():
    invariants.b_involution(random.Random(73), 1000)


def test_word_parsing():
    assert parse_word("BA^2") == ["B", "A", "A"]
    assert parse_word("") == []
    assert parse_word("A^3B") == ["A", "A", "A", "B"]
    with pytest.raises(ValueError):
        parse_word("BAX")
    with pytest.raises(ValueError):
        parse_word("B^")


def test_word_letter_cap():
    # the cap itself is accepted; one letter more, a 20-digit count and a
    # long run of letters are refused at once
    assert len(parse_word("A^4096")) == 4096
    assert parse_word("A^0003B") == ["A", "A", "A", "B"]
    apply_word("A^4096", BOURGAIN_SEED)
    for word in ("A^4097", "A^4096B", "BA^4096", "A^99999999999999999999", "A" * 5000):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="more than 4096 letters"):
            apply_word(word, BOURGAIN_SEED)
        assert time.perf_counter() - t0 < 0.5, word


def test_apply_word_chains():
    assert apply_word("BA^2", BOURGAIN_SEED) == ExponentPair(F(76, 207), F(110, 207))
    assert apply_word("BA", BOURGAIN_SEED) == ExponentPair(F(55, 194), F(55, 97))
    assert apply_word("", BOURGAIN_SEED) == BOURGAIN_SEED
    invariants.b_involution(random.Random(79), 200)


def test_domain_preservation_words_up_to_6():
    invariants.domain_preservation(6)


def test_gsum_exponent_bound_j1():
    pair = apply_word("BA^2", BOURGAIN_SEED)
    bound = gsum_exponent_bound(pair, 1)
    assert bound.primary_const == F(76, 283)
    assert bound.primary_inv_a == F(34, 283)
    # offset at a: 76/283 + 34/(283 a)
    assert bound.primary_offset(3) == F(76, 283) + F(34, 283 * 3)


def test_gsum_exponent_bound_j2():
    pair = apply_word("BA", BOURGAIN_SEED)
    bound = gsum_exponent_bound(pair, 2)
    assert bound.primary_const == F(55, 194)
    assert bound.primary_inv_a == 0          # l = 2k exactly, a-independent
    assert bound.primary_offset(2) == bound.primary_offset(F(97, 55)) == F(55, 194)


def test_secondary_exponent():
    pair = apply_word("BA", BOURGAIN_SEED)
    for a in (F(3, 2), 2, 3):
        off, sec = theorem4_exponents(pair, a, 2, alpha=0)
        assert sec == F(2) / F(a) - 1
    with pytest.raises(ValueError):
        theorem4_exponents(pair, 1, 2)


def test_side_conditions():
    # l < 2k with alpha = 0 violates the j >= 2 condition
    with pytest.raises(ValueError, match="side condition"):
        gsum_exponent_bound(ExponentPair(F(1, 2), F(1, 2)), 2, 0)
    # same pair passes once alpha is large enough
    gsum_exponent_bound(ExponentPair(F(1, 2), F(1, 2)), 2, 1)
    with pytest.raises(ValueError):
        gsum_exponent_bound(BOURGAIN_SEED, 0)


def test_settled_range():
    assert settled_a_range(apply_word("BA", BOURGAIN_SEED)) == (F(3, 2), F(97, 55))
    # upper endpoint solves k*a + (l-2k) = 1/2:  a = (1/2)/(55/194) = 97/55
    assert (F(1, 2) - F(55, 97) + 2 * F(55, 194)) / F(55, 194) == F(97, 55)
    # large-offset pair: no a >= 3/2 works
    assert settled_a_range(ExponentPair(F(1, 2), F(1))) is None
    # k = 0, l = 1/2: settled for every a >= 3/2
    assert settled_a_range(ExponentPair(F(0), F(1, 2))) == (F(3, 2), None)


def test_parse_rational():
    assert parse_rational("13/84") == F(13, 84)
    assert parse_rational("2") == 2
    with pytest.raises(ValueError):
        parse_rational("13//84")
