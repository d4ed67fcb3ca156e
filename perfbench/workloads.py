"""The four benchmark workloads.

Each workload draws its inputs from the seed, builds its specs and models, and
then offers one round of fixed work as a list of operations.  A round runs
closed-loop in one process: each operation is issued when the previous one has
returned.  Every operation has a check that compares its output, after the
round and outside the timed region, with an independent path.  Slope bounds
are never checked: a fitted slope is a finding, not an invariant.

Inputs move only inside narrow bands with the seed, so every seed does nearly
the same amount of work and run-to-run spread comes from the host, not from
the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Ref:
    """An argument that is the output of an earlier operation of the round."""

    key: tuple


@dataclass(frozen=True)
class Op:
    key: tuple
    fn: str                 # public library name, looked up in the api namespace
    args: tuple
    check: Callable         # check(key, output, outputs, references) -> bool


def stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One integer drawn from each of k equal strata of [lo, hi)."""
    edges = [lo + (i * (hi - lo)) // k for i in range(k + 1)]
    return [a + rng.randrange(max(1, b - a)) for a, b in zip(edges, edges[1:])]


class Workload:
    name: str
    expects: tuple[str, ...]   # span names every traced round must record

    def __init__(self, api, seed: int):
        self.inputs = self.draw(random.Random(f"{self.name}:{seed}"))
        self.ops = self.build(api)

    def draw(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def build(self, api) -> list[Op]:
        raise NotImplementedError

    def references(self, api) -> dict:
        """Independent values the checks compare against, computed once."""
        return {}

    def warm_up(self, api) -> None:
        raise NotImplementedError


# -- residual_fit: the `cwlab fit` path -------------------------------------

FIT_PARAMS = ((2, 0), (2, 1), (3, 0), (3, 1))
FIT_RATIO, FIT_COUNT = 4.0, 14
BRUTE_X = 10**6
# The float evaluator sums at most 10^6 float64 terms pairwise and the three
# partial sums do not cancel (total >= s_floor / 3), so its relative error
# stays below about 1e-14; 1e-12 leaves a factor of 100.
FLOAT_REL = 1e-12


class ResidualFit(Workload):
    name = "residual_fit"
    expects = (
        "summatory.fast_exact",
        "summatory.fast_float",
        "asymptotics.evaluate",
        "experiments.residual_series",
        "experiments.fit",
        "experiments.cw_series",
        "cw_sums.float",
    )

    def draw(self, rng):
        # x0 * 4**13 stays within 2 % below RESIDUAL_X_LIMIT = 10**12, so the
        # costliest points barely move with the seed
        return {"x0": rng.randint(14_600, 14_900)}

    def build(self, api):
        grid = api.GridSpec(self.inputs["x0"], FIT_RATIO, FIT_COUNT)
        self.points = grid.points()
        ops = []
        for a, alpha in FIT_PARAMS:
            exact, real = api.DivisorSpec(a, alpha), api.DivisorSpec(a, float(alpha))
            if a == 2:
                model = api.sqrt_restricted_model(alpha)
            else:
                model = api.root_restricted_model(alpha, a)
            for x in self.points:
                ops.append(Op(("exact", a, alpha, x), "summatory_fast", (x, exact), self._fast))
                ops.append(Op(("float", a, alpha, x), "summatory_fast", (x, real), self._fast))
            series = ("series", a, alpha)
            ops.append(Op(series, "residual_series", (exact, model, grid), self._series))
            ops.append(Op(("fit", a, alpha), "fit_loglog", (Ref(series),), self._fit))
        for alpha, j in ((1, 2), (0, 1)):
            ops.append(Op(("slope", alpha, j), "cw_slope_test", (2, alpha, j, grid), self._fit))
        return ops

    def references(self, api):
        return {
            (a, alpha): api.summatory_bruteforce_table(BRUTE_X, api.DivisorSpec(a, alpha))
            for a, alpha in FIT_PARAMS
        }

    def warm_up(self, api):
        grid = api.GridSpec(10_000, FIT_RATIO, 3)
        spec = api.DivisorSpec(2, 1)
        api.summatory_fast(10**6, api.DivisorSpec(2, 1.0))
        series = api.residual_series(spec, api.sqrt_restricted_model(1), grid)
        api.fit_loglog(series)
        api.cw_slope_test(2, 1, 2, grid)

    def _fast(self, key, out, outs, refs):
        _, a, alpha, x = key
        exact = outs[("exact", a, alpha, x)].total
        if x <= BRUTE_X and exact != int(refs[a, alpha][x]):
            return False
        return abs(exact - outs[("float", a, alpha, x)].total) <= FLOAT_REL * exact

    def _series(self, key, out, outs, refs):
        _, a, alpha = key
        return [p.x for p in out] == self.points and all(
            p.exact == outs[("exact", a, alpha, p.x)].total for p in out
        )

    def _fit(self, key, out, outs, refs):
        return math.isfinite(out.slope) and out.n_points_used + out.n_dropped_zero == len(
            self.points
        )


# -- oracle_sweep: fast evaluator and sieves against brute force -------------

ORACLE_PARAMS = FIT_PARAMS
TABLE_LIMIT = 4_000_000
SMALL_X = 300
RANDOM_X = 400
SIEVE_LIMIT = 200_000
SPOT_N = 200


class OracleSweep(Workload):
    name = "oracle_sweep"
    expects = (
        "summatory.fast_exact",
        "summatory.brute_table",
        "divisors.sieve",
        "divisors.tau_table",
        "divisors.per_n",
    )

    def draw(self, rng):
        return {
            "random_x": {
                p: stratified(rng, SMALL_X + 1, TABLE_LIMIT + 1, RANDOM_X) for p in ORACLE_PARAMS
            },
            "spot_n": stratified(rng, 1, SIEVE_LIMIT + 1, SPOT_N),
        }

    def build(self, api):
        ops = []
        for a, alpha in ORACLE_PARAMS:
            spec = api.DivisorSpec(a, alpha)
            table = ("table", a, alpha)
            ops.append(Op(table, "summatory_bruteforce_table", (TABLE_LIMIT, spec), self._table))
            for x in [*range(1, SMALL_X + 1), *self.inputs["random_x"][a, alpha]]:
                ops.append(Op(("fast", a, alpha, x), "summatory_fast", (x, spec), self._fast))
        half = api.DivisorSpec(2, 0)
        ops.append(Op(("sieve",), "restricted_sigma_table", (SIEVE_LIMIT, half), self._identity))
        ops.append(Op(("tau_table",), "tau_table", (SIEVE_LIMIT,), self._identity))
        ops.append(Op(("square_table",), "square_table", (SIEVE_LIMIT,), self._identity))
        for i, n in enumerate(self.inputs["spot_n"]):
            ops.append(Op(("spot", i, n), "divisor_sum_restricted", (n, half), self._spot))
        return ops

    def references(self, api):
        return {
            (a, alpha): api.summatory_fast(TABLE_LIMIT, api.DivisorSpec(a, alpha)).total
            for a, alpha in ORACLE_PARAMS
        }

    def warm_up(self, api):
        spec = api.DivisorSpec(2, 1)
        api.summatory_bruteforce_table(10_000, spec)
        api.summatory_fast(10_000, spec)
        api.restricted_sigma_table(1_000, api.DivisorSpec(2, 0))
        api.tau_table(1_000)
        api.square_table(1_000)
        api.divisor_sum_restricted(1_000, spec)

    def _table(self, key, out, outs, refs):
        _, a, alpha = key
        return len(out) == TABLE_LIMIT + 1 and int(out[TABLE_LIMIT]) == refs[a, alpha]

    def _fast(self, key, out, outs, refs):
        _, a, alpha, x = key
        return out.total == int(outs[("table", a, alpha)][x])

    def _identity(self, key, out, outs, refs):
        # 2 * tau~(n) = tau(n) + 1_square(n), entry by entry
        sieve, tau, square = outs[("sieve",)], outs[("tau_table",)], outs[("square_table",)]
        return bool((2 * sieve == tau + square).all())

    def _spot(self, key, out, outs, refs):
        return out == int(outs[("sieve",)][key[2]])


# -- gsum_exact: exact Chowla-Walum sums ------------------------------------

GSUM_PARAMS = ((0, 1), (1, 1), (1, 2), (0, 2), (-1, 0))
GSUM_X = (10**7, 2 * 10**7, 4 * 10**7)
BW_SHIFTS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
# float g_sum: each of the D terms has |term| <= D**max(alpha, 0) and a few
# roundings, and pairwise summation adds log2(D) more, so the error stays below
# 3e-15 * D**(1 + max(alpha, 0)) at D < 10**4; the bound leaves a factor of 30.
GSUM_FLOAT_REL = 1e-13


def psi_block_reference(n_start: int, x: int, shift_a: int, shift_b: int) -> Fraction:
    """sum_{N < n <= 2N} psi(4x/(4n + a') + b'/4) by integer remainders.

    With t = (16x + b'(4n + a')) / (4(4n + a')), psi(t) = (num mod den)/den - 1/2.
    """
    total = Fraction(0)
    for n in range(n_start + 1, 2 * n_start + 1):
        den = 4 * (4 * n + shift_a)
        total += Fraction((16 * x + shift_b * (4 * n + shift_a)) % den, den)
    return total - Fraction(n_start, 2)


class GsumExact(Workload):
    name = "gsum_exact"
    expects = ("cw_sums.exact", "cw_sums.block", "cw_sums.bw", "bernoulli.psi")

    def draw(self, rng):
        return {
            "x": [x + rng.randrange(x // 100) for x in GSUM_X],
            "bw_n": [rng.randint(250, 270) for _ in GSUM_X],
        }

    def build(self, api):
        ops = []
        self.specs = {}
        for x, n_start in zip(self.inputs["x"], self.inputs["bw_n"]):
            for alpha, j in GSUM_PARAMS:
                spec = self.specs[x, alpha, j] = api.GSumSpec(2, alpha, j, x)
                ops.append(Op(("g", x, alpha, j), "g_sum", (spec,), self._exact))
                n = 1
                while n < spec.cutoff:
                    ops.append(Op(("block", x, alpha, j, n), "block_g", (n, spec), self._blocks))
                    n *= 2
            for sa, sb in BW_SHIFTS:
                args = (n_start, x, sa, sb)
                ops.append(Op(("bw", *args), "shifted_psi_block_sum", args, self._bw))
        return ops

    def references(self, api):
        refs = {}
        for (x, alpha, j), spec in self.specs.items():
            refs["float", x, alpha, j] = api.g_sum(api.GSumSpec(2, float(alpha), j, x))
            # the d = 1 term: 1**alpha * B_j({x}) = B_j(0) for integer x
            refs["head", x, alpha, j] = api.bernoulli_poly(j, 0)
        for op in self.ops:
            if op.key[0] == "bw":
                refs[op.key] = psi_block_reference(*op.args)
        return refs

    def warm_up(self, api):
        for alpha, j in GSUM_PARAMS:
            spec = api.GSumSpec(2, alpha, j, 10_000)
            api.g_sum(spec)
            api.g_sum(api.GSumSpec(2, float(alpha), j, 10_000))
            api.block_g(8, spec)
        api.shifted_psi_block_sum(10, 10_000, 1, 0)

    def _exact(self, key, out, outs, refs):
        _, x, alpha, j = key
        cutoff = self.specs[x, alpha, j].cutoff
        bound = GSUM_FLOAT_REL * cutoff ** (1 + max(alpha, 0))
        return isinstance(out, (int, Fraction)) and abs(out - refs["float", x, alpha, j]) <= bound

    def _blocks(self, key, out, outs, refs):
        _, x, alpha, j, _n = key
        blocks = sum(v for k, v in outs.items() if k[0] == "block" and k[1:4] == (x, alpha, j))
        return refs["head", x, alpha, j] + blocks == outs[("g", x, alpha, j)]

    def _bw(self, key, out, outs, refs):
        return out == refs[key]


# -- divisor_queries: per-n divisor functions --------------------------------

QUERY_STRATA = 100
QUERY_LOG10 = (2, 12)


class DivisorQueries(Workload):
    name = "divisor_queries"
    expects = ("divisors.per_n", "divisors.integer_root")

    def draw(self, rng):
        # one n from the middle fifth of each of QUERY_STRATA equal strata of
        # log10 n: the magnitudes, and so the work, barely move with the seed
        lo, hi = QUERY_LOG10
        width = (hi - lo) / QUERY_STRATA
        return {
            "n": [
                int(10 ** (lo + (i + 0.4 + 0.2 * rng.random()) * width))
                for i in range(QUERY_STRATA)
            ]
        }

    def build(self, api):
        half = api.DivisorSpec(2, 0)
        ops = []
        for i, n in enumerate(self.inputs["n"]):
            ops += [
                Op(("restricted", i), "divisor_sum_restricted", (n, half), self._half_count),
                Op(("tau", i), "tau", (n,), self._tau),
                Op(("sigma0", i), "sigma_alpha", (n, 0), self._tau),
                Op(("tilde", i), "tau_tilde_via_identity", (n,), self._half_count),
                Op(("root2", i), "integer_root", (n, 2), self._root),
                Op(("root3", i), "integer_root", (n, 3), self._root),
            ]
        return ops

    def warm_up(self, api):
        n = 10**6 + 1
        api.divisor_sum_restricted(n, api.DivisorSpec(2, 0))
        api.tau(n)
        api.sigma_alpha(n, 0)
        api.tau_tilde_via_identity(n)
        api.integer_root(n, 3)

    def _half_count(self, key, out, outs, refs):
        return outs[("restricted", key[1])] == outs[("tilde", key[1])]

    def _tau(self, key, out, outs, refs):
        return outs[("tau", key[1])] == outs[("sigma0", key[1])]

    def _root(self, key, out, outs, refs):
        n, a = self.inputs["n"][key[1]], int(key[0][-1])
        return out**a <= n < (out + 1) ** a


WORKLOADS = {w.name: w for w in (ResidualFit, OracleSweep, GsumExact, DivisorQueries)}
