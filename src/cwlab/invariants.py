"""The identities the results rest on, one plain function per invariant.

`cwlab verify` runs each one at reduced scale and the tests at full scale,
drawing from the `random.Random` passed in.  A failure raises AssertionError
naming the input, through `_check`, which `python -O` keeps.  A new invariant
gets a function here, a call in a suite of `cli._SUITES`, and a test.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .asymptotics import error_exponent, euler_gamma, euler_maclaurin_partial_sum
from .bernoulli import bernoulli_coefficients, bernoulli_fourier_truncated, bernoulli_func, bernoulli_poly
from .cw_sums import GSumSpec, block_g, g_sum, gsum_cutoff
from .divisors import DivisorSpec, divisor_sum_restricted, integer_root, is_square
from .divisors import _sigma_table, restricted_sigma_table, square_table, tau, tau_table
from .experiments import GridSpec, fit_loglog
from .exponent_pairs import BOURGAIN_SEED, ExponentPair, apply_word, transform_B
from .summatory import summatory_bruteforce_table, summatory_fast

SPECS = [DivisorSpec(a, alpha) for a in (2, 3, 4) for alpha in (0, 1, 2)]


def _check(ok, what: str, **inputs) -> None:
    if not ok:
        raise AssertionError(f"{what} fails" + "".join(f" {k}={v!r}" for k, v in inputs.items()))


def bernoulli_periodicity(rng, draws: int) -> None:
    """B_j({x + 1}) = B_j({x}) to 1e-12 at random x in [-10, 10], j in 1..6."""
    for _ in range(draws):
        x, j = rng.uniform(-10, 10), rng.randint(1, 6)
        _check(abs(bernoulli_func(j, x + 1) - bernoulli_func(j, x)) <= 1e-12, "periodicity", j=j, x=x)


def bernoulli_recurrence(rng, draws: int) -> None:
    """B_j' = j B_{j-1} to 1e-6 by central differences at random x in [0, 1], all j <= 6."""
    for _ in range(draws):
        x = rng.uniform(0, 1)
        for j in range(1, 7):
            deriv = (bernoulli_poly(j, x + 1e-6) - bernoulli_poly(j, x - 1e-6)) / 2e-6
            _check(abs(deriv - j * bernoulli_poly(j - 1, x)) <= 1e-6, "recurrence", j=j, x=x)


def bernoulli_integral(j: int, n: int) -> None:
    """B_j integrates to 0: exactly from its coefficients, and to 1e-10 by Simpson on the grid i/n."""
    _check(sum(c / (i + 1) for i, c in enumerate(bernoulli_coefficients(j))) == 0, "exact integral", j=j)
    vals = [float(bernoulli_poly(j, Fraction(i, n))) for i in range(n + 1)]
    total = (vals[0] + vals[-1] + 4 * sum(vals[1:-1:2]) + 2 * sum(vals[2:-1:2])) / (3 * n)
    _check(abs(total) <= 1e-10, "Simpson integral", j=j, value=total)


def bernoulli_fourier(rng, degrees, draws: int, terms: int) -> None:
    """For each j in degrees, B_j's Fourier series cut after `terms` is within 1e-3 of it at random t."""
    for j in degrees:
        for _ in range(draws):
            t = rng.uniform(0, 1)
            gap = bernoulli_fourier_truncated(j, t, terms) - float(bernoulli_func(j, t))
            _check(abs(gap) <= 1e-3, "Fourier truncation", j=j, t=t, gap=gap)


def tau_tilde_identity(rng, limit: int, samples: int) -> None:
    """2 sigma_{2,0} = tau + 1_square at every n <= limit; the three tables match per-n values on a sample."""
    table = restricted_sigma_table(limit, DivisorSpec(2, 0))
    taus, squares = tau_table(limit), square_table(limit)
    bad = np.flatnonzero(2 * table != taus + squares)
    _check(not bad.size, "tau~ identity", n=bad[:1].tolist())
    for n in rng.sample(range(1, limit + 1), samples):
        per_n = (divisor_sum_restricted(n, DivisorSpec(2, 0)), tau(n), is_square(n))
        _check((table[n], taus[n], squares[n]) == per_n, "table = per-n", n=n)


def monotone_bound(limit: int) -> None:
    """sigma_{a,alpha}(n) <= sigma_alpha(n) for every n <= limit, a in 2..4, alpha in 0..2."""
    for alpha in (0, 1, 2):
        full = _sigma_table(limit, alpha)
        for a in (2, 3, 4):
            bad = np.flatnonzero(restricted_sigma_table(limit, DivisorSpec(a, alpha)) > full)
            _check(not bad.size, "monotone bound", n=bad[:1].tolist(), a=a, alpha=alpha)


def boundary_inclusion(roots: int) -> None:
    """n = d^a counts d: tau_a(n) is one more than the e < d dividing n, found by trial division."""
    for a in (2, 3, 4):
        for d in range(1, roots + 1):
            smaller = sum(1 for e in range(1, d) if d**a % e == 0)
            _check(divisor_sum_restricted(d**a, DivisorSpec(a, 0)) == smaller + 1, "boundary", d=d, a=a)


def integer_root_exact(rng, draws: int) -> None:
    """d = integer_root(n, a) has d^a <= n < (d+1)^a at random n < 1e18, a in 2..9."""
    for _ in range(draws):
        n, a = rng.randrange(10**18), rng.randrange(2, 10)
        d = integer_root(n, a)
        _check(d**a <= n < (d + 1) ** a, "integer root", n=n, a=a)


def j0_consistency(rng, draws: int) -> None:
    """G_{a,m,0}(x) = sum_{d <= x^(1/a)} d^m, summed term by term, at random x < 1e6, a in (2, 3, 5), m in 0..3."""
    for _ in range(draws):
        x = rng.randrange(1, 10**6)
        for a in (2, 3, 5):
            ds = range(1, integer_root(x, a) + 1)
            for m in range(4):
                _check(g_sum(GSumSpec(a, m, 0, x)) == sum(d**m for d in ds), "j=0 consistency", x=x, a=a, m=m)


def psi_bound(rng, draws: int) -> None:
    """|G_{a,0,1}(x)| <= cutoff / 2 at random x < 1e6, a in (2, 3)."""
    for _ in range(draws):
        x, a = rng.randrange(1, 10**6), rng.choice((2, 3))
        _check(abs(g_sum(GSumSpec(a, 0, 1, x))) <= Fraction(gsum_cutoff(x, a), 2), "psi bound", x=x, a=a)


def block_decomposition(rng, draws: int) -> None:
    """The d = 1 term plus the block_g blocks at 1, 2, 4, ... below the cutoff add up to g_sum exactly."""
    for _ in range(draws):
        x, a = rng.randrange(1, 200_000), rng.choice((2, 3, 4))
        alpha, j = rng.choice((0, 1, 2)), rng.choice((0, 1, 2))
        spec = GSumSpec(a, alpha, j, x)
        blocks = sum(block_g(2**k, spec) for k in range((spec.cutoff - 1).bit_length()))
        _check(g_sum(GSumSpec(a, alpha, j, 1)) + blocks == g_sum(spec), "blocks", x=x, a=a, alpha=alpha, j=j)


def exact_float_agreement(rng, draws: int) -> None:
    """Exact and float G sums agree to 1e-8 relative at random x < 1e6 and fixed x up to 2**64 + 7."""
    cases = [(rng.randrange(10, 10**6), rng.choice((2, 3)), rng.choice((0, 1, 2)), rng.choice((1, 2, 3)))
             for _ in range(draws)]
    cases += [(10**9, 2, 2, 1), (10**9 - 7, 2, 0, 1), (10**9, 2, 1, 2), (999_999_937, 3, 2, 3),
              (2**62 + 3, 5, 0, 1), (2**63 + 5, 5, 1, 2), (2**64 + 7, 5, 2, 3)]
    for x, a, alpha, j in cases:
        e, f = float(g_sum(GSumSpec(a, alpha, j, x))), g_sum(GSumSpec(a, float(alpha), j, x))
        _check(abs(e - f) <= 1e-8 * max(1.0, abs(e)), "exact/float", x=x, a=a, alpha=alpha, j=j)


def oracle_equivalence(rng, limit: int, exhaustive: int, draws: int) -> None:
    """Per spec, summatory_fast equals the brute-force table at x <= exhaustive and random x <= limit."""
    random_xs = [rng.randrange(1, limit + 1) for _ in range(draws)]
    for spec in SPECS:
        table = summatory_bruteforce_table(limit, spec)
        for x in itertools.chain(range(1, exhaustive + 1), random_xs):
            _check(summatory_fast(x, spec).total == int(table[x]), "fast = brute", x=x, spec=spec)
        del table  # free it before the next table is sieved


def breakdown_identity(rng, draws: int) -> None:
    """At random x < 20000, the four breakdown terms equal their G sums and a
    term-by-term Fraction loop over d <= x^(1/a) (cutoff at most 141), and add up to the total."""
    for _ in range(draws):
        x, spec = rng.randrange(1, 20_000), rng.choice(SPECS)
        b, a, alpha = summatory_fast(x, spec), spec.a, spec.alpha
        want = (x * g_sum(GSumSpec(a, alpha - 1, 0, x)), -g_sum(GSumSpec(a, alpha + a - 1, 0, x)),
                Fraction(g_sum(GSumSpec(a, alpha, 0, x)), 2), -g_sum(GSumSpec(a, alpha, 1, x)))
        ds = range(1, integer_root(x, a) + 1)
        loop = (x * sum(Fraction(d) ** (alpha - 1) for d in ds), -sum(d ** (alpha + a - 1) for d in ds),
                Fraction(sum(d**alpha for d in ds), 2),
                -sum(d**alpha * (Fraction(x % d, d) - Fraction(1, 2)) for d in ds))
        _check(b.terms() == want == loop and sum(want) == b.total, "breakdown", x=x, spec=spec)


def summatory_monotone(stop: int) -> None:
    """sum_{n <= x} sigma_{2,1}(n) does not decrease over x < stop."""
    totals = [summatory_fast(x, DivisorSpec(2, 1)).total for x in range(stop)]
    bad = [x for x in range(1, stop) if totals[x] < totals[x - 1]]
    _check(not bad, "monotone in x", x=bad[:1])


def gamma_cross_check() -> None:
    """The stored gamma is within 1e-20 of H_n - log n - 1/(2n) + sum_{k<=4} B_2k/(2k n^2k), n = 100."""
    n = 100
    part = sum(Fraction(1, d) for d in range(1, n + 1)) - Fraction(1, 2 * n) + sum(
        bernoulli_poly(2 * k, 0) / (2 * k * Fraction(n) ** (2 * k)) for k in range(1, 5))
    from mpmath import mp
    with mp.workdps(60):
        diff = abs(euler_gamma(60) - (mp.mpf(part.numerator) / part.denominator - mp.log(n)))
        _check(diff < mp.mpf("1e-20"), "gamma cross-check", diff=diff)


def theta_order() -> None:
    """On alpha = i/7, i <= 14, theta_alpha rises with slope exactly 1/2, and the CW form stays below."""
    alphas = [Fraction(i, 7) for i in range(15)]
    for lo, hi in zip(alphas, alphas[1:]):
        for cw in (False, True):
            _check(error_exponent(hi, cw) - error_exponent(lo, cw) == (hi - lo) / 2, "theta slope", alpha=hi, cw=cw)
    for alpha in alphas:
        _check(error_exponent(alpha, True) <= error_exponent(alpha), "theta ordering", alpha=alpha)


def em_residual_window(rng, draws: int) -> None:
    """At random x <= 1e12, sum_{d <= sqrt x} d minus its EM value is psi(sqrt x)^2/2, in [0, 1/8]."""
    from mpmath import mp
    for _ in range(draws):
        x = rng.randrange(1, 10**12 + 1)
        d = math.isqrt(x)
        with mp.workdps(50):
            resid = mp.mpf(d * (d + 1) // 2) - euler_maclaurin_partial_sum(x, 2, 1)
            exact = abs(resid - (mp.sqrt(x) - d - mp.mpf(1) / 2) ** 2 / 2) < mp.mpf("1e-30")
            window = -mp.mpf("1e-15") <= resid <= mp.mpf("0.125") + mp.mpf("1e-15")
            _check(exact and window, "EM residual", x=x, resid=resid)


def em_harmonic_error() -> None:
    """The Euler-Maclaurin value of sum_{d <= sqrt x} 1/d is within 10/x of it at x = 1e3 .. 1e9."""
    for x in (10**e for e in range(3, 10)):
        exact = math.fsum(1.0 / d for d in range(1, math.isqrt(x) + 1))
        _check(abs(exact - float(euler_maclaurin_partial_sum(x, 2, -1))) <= 10.0 / x, "harmonic EM", x=x)


def b_involution(rng, draws: int) -> None:
    """B(B(p)) = p, directly and through the word BB, at random pairs on a 1/4000 grid."""
    for _ in range(draws):
        p = ExponentPair(Fraction(rng.randrange(0, 2001), 4000), Fraction(rng.randrange(2000, 4001), 4000))
        _check(transform_B(transform_B(p)) == p == apply_word("BB", p), "B involution", p=p)


def domain_preservation(max_len: int) -> None:
    """Words of up to max_len A/B letters keep (13/84, 55/84) and (0, 1/2) in 0 <= k <= 1/2 <= l <= 1."""
    for word in ("".join(w) for n in range(max_len + 1) for w in itertools.product("AB", repeat=n)):
        for seed in (BOURGAIN_SEED, ExponentPair(Fraction(0), Fraction(1, 2))):
            p = apply_word(word, seed)
            _check(0 <= p.k <= Fraction(1, 2) <= p.l <= 1, "domain", word=word, seed=seed)


def fit_recovers_power_laws(rng, draws: int) -> None:
    """fit_loglog recovers s to 1e-9 from 3.7 x^s on a 12-point doubling grid, s random in [0, 2]."""
    points = GridSpec(10, 2.0, 12).points()
    for _ in range(draws):
        s = rng.uniform(0, 2)
        _check(abs(fit_loglog([(x, 3.7 * x**s) for x in points]).slope - s) <= 1e-9, "power-law fit", s=s)
