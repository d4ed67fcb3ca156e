"""Exact-rational exponent-pair algebra: the van der Corput A/B processes.

An exponent pair (k, l) quantifies bounds for exponential sums; the classical
processes map pairs to pairs:

    A(k, l) = (k/(2k+2), (k+l+1)/(2k+2))        B(k, l) = (l - 1/2, k + 1/2)

Words like "BA^2" compose left-to-right in operator order (rightmost letter
applied first), so BA^2 applied to (13/84, 55/84) lands on Bourgain's pair
(76/207, 110/207), and BA lands on (55/194, 55/97).

From any pair, the dyadic-block machinery yields upper bounds for the
Chowla-Walum sums G_{a,alpha,j}(x) of the form

    j = 1 :  x^(alpha/a + (k(a-1)+l)/(a(k+1)))  + x^((alpha+2)/a - 1) log x
    j >= 2:  x^(alpha/a + (k(a-2)+l)/a)         + x^((alpha+2)/a - 1) log x

subject to the side conditions alpha(k+1) + l - k >= 0 resp.
alpha + l - 2k >= 0.  The conjectured exponent is alpha/a + 1/(2a); solving
"proven <= conjectured" in exact rationals gives the range of a where the
conjecture is settled by these bounds.

Epsilon-fattened pairs from the analytic literature are handled as their
exact rational cores; downstream tolerances carry the slack explicitly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

HALF = Fraction(1, 2)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {text!r}") from exc


@dataclass(frozen=True)
class ExponentPair:
    """Exact rational pair (k, l) with 0 <= k <= 1/2 <= l <= 1 and k <= l."""

    k: Fraction
    l: Fraction

    def __post_init__(self):
        k, l = Fraction(self.k), Fraction(self.l)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        if not (0 <= k <= HALF <= l <= 1 and k <= l):
            raise ValueError(f"({k}, {l}) violates 0 <= k <= 1/2 <= l <= 1, k <= l")

    def __str__(self):
        return f"{self.k},{self.l}"


BOURGAIN_SEED = ExponentPair(Fraction(13, 84), Fraction(55, 84))


def transform_A(p: ExponentPair) -> ExponentPair:
    """A-process: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2))."""
    den = 2 * p.k + 2
    return ExponentPair(p.k / den, (p.k + p.l + 1) / den)


def transform_B(p: ExponentPair) -> ExponentPair:
    """B-process (an involution): (k, l) -> (l - 1/2, k + 1/2)."""
    return ExponentPair(p.l - HALF, p.k + HALF)


# the count's leading zeros stay outside the group, so its digits bound its size
_WORD_TOKEN = re.compile(r"([AB])(?:\^0*(\d+))?")
_MAX_WORD_LETTERS = 4096


def parse_word(word: str) -> list[str]:
    """Expand a transform word like 'BA^2' into its letter sequence.

    A word of more than _MAX_WORD_LETTERS letters is refused before more
    than that many are expanded; a count with more digits than the cap is
    refused unread.
    """
    word = word.strip()
    letters: list[str] = []
    pos = 0
    while pos < len(word):
        m = _WORD_TOKEN.match(word, pos)
        if m is None:
            raise ValueError(f"malformed transform word {word!r} at position {pos}")
        digits = m.group(2) or "1"
        count = int(digits) if len(digits) <= len(str(_MAX_WORD_LETTERS)) else _MAX_WORD_LETTERS + 1
        if len(letters) + count > _MAX_WORD_LETTERS:
            raise ValueError(f"transform word {word!r} has more than {_MAX_WORD_LETTERS} letters")
        letters.extend(m.group(1) * count)
        pos = m.end()
    return letters


def apply_word(word: str, seed: ExponentPair) -> ExponentPair:
    """Apply a transform word in operator order (rightmost letter first)."""
    p = seed
    for letter in reversed(parse_word(word)):
        p = transform_A(p) if letter == "A" else transform_B(p)
    return p


@dataclass(frozen=True)
class GSumExponentBound:
    """Proven exponents for G_{a,alpha,j} from one exponent pair.

    The primary offset beyond alpha/a is primary_const + primary_inv_a / a;
    the secondary term's full exponent is (alpha+2)/a - 1 (its own offset
    beyond alpha/a, 2/a - 1, does not depend on alpha).
    """

    pair: ExponentPair
    j: int
    alpha: Fraction
    primary_const: Fraction
    primary_inv_a: Fraction

    def primary_offset(self, a) -> Fraction:
        return self.primary_const + self.primary_inv_a / Fraction(a)

    def secondary_exponent(self, a) -> Fraction:
        return (self.alpha + 2) / Fraction(a) - 1


def gsum_exponent_bound(pair: ExponentPair, j: int, alpha=0) -> GSumExponentBound:
    """Exponent-pair bound for G_{a,alpha,j}; j = 1 and j >= 2 differ."""
    if j < 1:
        raise ValueError("Bernoulli index j must be >= 1")
    alpha = Fraction(alpha)
    k, l = pair.k, pair.l
    if j == 1:
        side = alpha * (k + 1) + l - k
        if side < 0:
            raise ValueError(f"side condition alpha(k+1)+l-k >= 0 fails: {side} < 0")
        return GSumExponentBound(pair, j, alpha, k / (k + 1), (l - k) / (k + 1))
    side = alpha + l - 2 * k
    if side < 0:
        raise ValueError(f"side condition alpha+l-2k >= 0 fails: {side} < 0")
    return GSumExponentBound(pair, j, alpha, k, l - 2 * k)


def theorem4_exponents(pair: ExponentPair, a, j: int, alpha=0):
    """(primary offset beyond alpha/a, secondary full exponent) at this a."""
    a = Fraction(a)
    if a <= 1:
        raise ValueError("a must exceed 1")
    bound = gsum_exponent_bound(pair, j, alpha)
    return bound.primary_offset(a), bound.secondary_exponent(a)


def settled_a_range(pair: ExponentPair, alpha=0):
    """Range of a where the proven j >= 2 bound meets the conjectured
    exponent alpha/a + 1/(2a); (lo, hi) with exact endpoints, hi = None if
    unbounded, or None if empty.

    Solves, in exact rationals,

        k + (l - 2k)/a <= 1/(2a)    (primary term)
        2/a - 1        <= 1/(2a)    (secondary term, giving a >= 3/2).
    """
    bound = gsum_exponent_bound(pair, 2, alpha)
    lo = Fraction(3, 2)
    # k*a + c <= 1/2 for a > 1, with k and c = l - 2k from the j >= 2 bound
    k, c = bound.primary_const, bound.primary_inv_a
    if k == 0:
        return None if c > HALF else (lo, None)
    hi = (HALF - c) / k
    return None if hi < lo else (lo, hi)
