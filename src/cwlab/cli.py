"""Command-line front end with machine-readable CSV/JSON output.

Subcommands
-----------
divisor    per-n values: restricted divisor sum, tau, tau~, square indicator
gsum       Chowla-Walum sum G_{a,alpha,j}(x)
bw         dyadic block sum of the shifted sawtooth psi(4x/(4n+a') + b'/4)
summatory  sum_{n <= x} sigma_{a,alpha}(n), --mode fast|brute|both
asympt     main-term model values, error exponents, absorption threshold
pairs      exponent-pair transform words, bound exponents, settled a-range
fit        residual series + log-log slope (or G-sum slope with --j >= 1)
verify     reduced-scale invariant suites; nonzero exit on any failure

Exit codes: 0 success, 2 input validation failure, 3 internal invariant
breach (e.g. fast != brute under --mode both, or a verify failure).
Errors go to stderr with an "error:" prefix.

Exact rationals are printed as p/q, high-precision reals with 30
significant digits, so every numeric field round-trips at its emitted
precision.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
import time
from fractions import Fraction

from mpmath import mp

from . import asymptotics, bernoulli, cw_sums, divisors, exponent_pairs, summatory
from .cw_sums import GSumSpec, g_sum, gsum_cutoff, shifted_psi_block_sum
from .divisors import DivisorSpec
from .exponent_pairs import ExponentPair, apply_word, gsum_exponent_bound, parse_rational
from .experiments import DEFAULT_GRID, GridSpec, cw_series, fit_loglog, residual_series
from .summatory import summatory_bruteforce, summatory_fast

MPF_DIGITS = 30


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, mp.mpf):
        return mp.nstr(v, MPF_DIGITS, strip_zeros=True)
    if v is None:
        return ""
    return str(v)


def _jsonable(v):
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, (Fraction, mp.mpf)):
        return _fmt(v)
    return str(v)


def _emit(command: str, params: dict, rows: list[dict], args, extra: dict | None = None) -> None:
    """Format the whole output, then write it: a value too long to print
    raises before any byte reaches stdout or --out is opened."""
    if args.format == "json":
        payload = {
            "command": command,
            "params": {k: _jsonable(v) for k, v in params.items()},
        }
        if len(rows) == 1 and extra is None:
            payload["result"] = {k: _jsonable(v) for k, v in rows[0].items()}
        else:
            payload["result"] = [{k: _jsonable(v) for k, v in r.items()} for r in rows]
        if extra is not None:
            payload.update({k: {kk: _jsonable(vv) for kk, vv in v.items()} if isinstance(v, dict) else _jsonable(v) for k, v in extra.items()})
        text = json.dumps(payload) + "\n"
    else:
        flat_extra = {}
        if extra is not None:
            for k, v in extra.items():
                if isinstance(v, dict):
                    for kk, vv in v.items():
                        flat_extra[f"{k}_{kk}"] = vv
                else:
                    flat_extra[k] = v
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(rows[0].keys()) + list(flat_extra.keys()))
        for r in rows:
            writer.writerow([_fmt(x) for x in list(r.values()) + list(flat_extra.values())])
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be x0:ratio:count, got {text!r}")
    return GridSpec(int(parts[0]), float(parts[1]), int(parts[2]))


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_number(text: str):
    """int when integral, Fraction for p/q, float otherwise."""
    t = text.strip()
    try:
        return int(t)
    except ValueError:
        pass
    if "/" in t:
        return Fraction(t)
    return float(t)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> _Parser:
    p = _Parser(
        prog="cwlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "CSV column orders (stable):\n"
            "  divisor:   n,a,alpha,sigma_restricted,tau,tau_tilde,is_square\n"
            "  gsum:      a,alpha,j,x,cutoff,value\n"
            "  bw:        n_start,x,shift_a,shift_b,value\n"
            "  summatory: x,a,alpha,mode,fast,brute,match\n"
            "  asympt:    a,alpha,cw,x,value,theta,absorption_threshold\n"
            "  pairs:     word,seed,k,l[,a,j,primary_offset,secondary_exponent]"
            "[,settled_lo,settled_hi]\n"
            "  fit (residual): x,exact,model_value,residual + fit_* columns\n"
            "  fit (--j):      x,g_value + fit_* columns\n"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("divisor", help="per-n restricted divisor values")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", type=int, default=2)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    add_common(sp)
    sp.set_defaults(func=_cmd_divisor)

    sp = sub.add_parser("gsum", help="Chowla-Walum sum G_{a,alpha,j}(x)")
    sp.add_argument("--a", type=_parse_number, default=2)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--x", type=_parse_number, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_gsum)

    sp = sub.add_parser("bw", help="block sum of psi(4x/(4n+a') + b'/4) over n in (N, 2N]")
    sp.add_argument("--n", type=int, required=True, help="block start N >= 3")
    sp.add_argument("--x", type=_parse_number, required=True)
    sp.add_argument("--shift-a", type=int, default=0, dest="shift_a")
    sp.add_argument("--shift-b", type=int, default=0, dest="shift_b")
    add_common(sp)
    sp.set_defaults(func=_cmd_bw)

    sp = sub.add_parser("summatory", help="sum_{n<=x} sigma_{a,alpha}(n)")
    sp.add_argument("--a", type=int, default=2)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--mode", choices=("fast", "brute", "both"), default="fast")
    add_common(sp)
    sp.set_defaults(func=_cmd_summatory)

    sp = sub.add_parser("asympt", help="main-term model values and error exponents")
    sp.add_argument("--a", type=int, default=2)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    sp.add_argument("--cw", type=_parse_bool, default=False)
    sp.add_argument("--x", type=_parse_number, default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_asympt)

    sp = sub.add_parser("pairs", help="exponent-pair words and bound exponents")
    sp.add_argument("--word", default="")
    sp.add_argument("--seed", default="13/84,55/84", help="seed pair k,l")
    sp.add_argument("--a", type=_parse_number, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    add_common(sp)
    sp.set_defaults(func=_cmd_pairs)

    sp = sub.add_parser("fit", help="residual series and log-log slope")
    sp.add_argument("--a", type=_parse_number, default=2)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    sp.add_argument("--j", type=int, default=None,
                    help="fit |G_{a,alpha,j}| instead of the summatory residual")
    sp.add_argument("--cw", type=_parse_bool, default=False)
    sp.add_argument("--grid", type=_parse_grid, default=None, help="x0:ratio:count")
    add_common(sp)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("verify", help="reduced-scale invariant suites")
    add_common(sp)
    sp.set_defaults(func=_cmd_verify)

    return p


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_divisor(args) -> int:
    spec = DivisorSpec(args.a, args.alpha if not isinstance(args.alpha, Fraction) else float(args.alpha))
    row = {
        "n": args.n,
        "a": args.a,
        "alpha": args.alpha,
        "sigma_restricted": divisors.divisor_sum_restricted(args.n, spec),
        "tau": divisors.tau(args.n),
        "tau_tilde": divisors.tau_tilde_via_identity(args.n),
        "is_square": divisors.is_square(args.n),
    }
    _emit("divisor", {"n": args.n, "a": args.a, "alpha": args.alpha}, [row], args)
    return 0


def _cmd_gsum(args) -> int:
    spec = GSumSpec(args.a, args.alpha, args.j, args.x)
    value = g_sum(spec)
    row = {
        "a": args.a,
        "alpha": args.alpha,
        "j": args.j,
        "x": args.x,
        "cutoff": spec.cutoff,
        "value": value,
    }
    _emit("gsum", row, [row], args)
    return 0


def _cmd_bw(args) -> int:
    value = shifted_psi_block_sum(args.n, args.x, args.shift_a, args.shift_b)
    row = {
        "n_start": args.n,
        "x": args.x,
        "shift_a": args.shift_a,
        "shift_b": args.shift_b,
        "value": value,
    }
    _emit("bw", row, [row], args)
    return 0


def _cmd_summatory(args) -> int:
    spec = DivisorSpec(args.a, args.alpha if not isinstance(args.alpha, Fraction) else float(args.alpha))
    fast = brute = None
    if args.mode in ("fast", "both"):
        fast = summatory_fast(args.x, spec).total
    if args.mode in ("brute", "both"):
        brute = summatory_bruteforce(args.x, spec)
    match = None
    if args.mode == "both":
        match = fast == brute if spec.exact else math.isclose(fast, brute, rel_tol=1e-9)
    row = {
        "x": args.x,
        "a": args.a,
        "alpha": args.alpha,
        "mode": args.mode,
        "fast": fast,
        "brute": brute,
        "match": match,
    }
    _emit("summatory", {"x": args.x, "a": args.a, "alpha": args.alpha, "mode": args.mode}, [row], args)
    if args.mode == "both" and not match:
        print(f"error: fast ({fast}) != brute ({brute}) at x={args.x}", file=sys.stderr)
        return 3
    return 0


def _cmd_asympt(args) -> int:
    if args.a == 2:
        model = asymptotics.sqrt_restricted_model(args.alpha, args.cw)
        absorption = asymptotics.absorption_threshold(args.cw)
    else:
        model = asymptotics.root_restricted_model(args.alpha, args.a)
        absorption = None
    value = model.evaluate(args.x) if args.x is not None else None
    row = {
        "a": args.a,
        "alpha": args.alpha,
        "cw": args.cw if args.a == 2 else None,
        "x": args.x,
        "value": value,
        "theta": model.theta,
        "absorption_threshold": absorption,
    }
    terms = ";".join(
        f"{_fmt(t.coeff)}*x^{_fmt(t.exponent)}" + ("*logx" if t.with_log else "")
        for t in model.terms
    )
    row["terms"] = terms
    _emit("asympt", {"a": args.a, "alpha": args.alpha, "cw": args.cw}, [row], args)
    return 0


def _cmd_pairs(args) -> int:
    k_str, _, l_str = args.seed.partition(",")
    seed = ExponentPair(parse_rational(k_str), parse_rational(l_str))
    result = apply_word(args.word, seed)
    row = {"word": args.word, "seed": args.seed, "k": result.k, "l": result.l}
    if args.j is not None:
        bound = gsum_exponent_bound(result, args.j, args.alpha)
        if args.a is not None:
            a = Fraction(args.a)
            row["a"] = args.a
            row["j"] = args.j
            row["primary_offset"] = bound.primary_offset(a)
            row["secondary_exponent"] = bound.secondary_exponent(a)
        else:
            row["j"] = args.j
            row["primary_const"] = bound.primary_const
            row["primary_inv_a"] = bound.primary_inv_a
        if args.j >= 2:
            settled = exponent_pairs.settled_a_range(result, args.alpha)
            row["settled_lo"] = settled[0] if settled else None
            row["settled_hi"] = (settled[1] if settled[1] is not None else "inf") if settled else None
    _emit("pairs", {"word": args.word, "seed": args.seed}, [row], args)
    return 0


def _cmd_fit(args) -> int:
    grid = args.grid if args.grid is not None else DEFAULT_GRID
    if args.j is not None:
        series = cw_series(args.a, args.alpha, args.j, grid)
        report = fit_loglog(series)
        rows = [{"x": x, "g_value": v} for x, v in series]
        params = {"a": args.a, "alpha": args.alpha, "j": args.j,
                  "grid": f"{grid.x0}:{grid.ratio}:{grid.count}"}
    else:
        if not isinstance(args.a, int):
            raise ValueError("summatory residual fits require integer a")
        alpha = args.alpha if not isinstance(args.alpha, Fraction) else float(args.alpha)
        spec = DivisorSpec(args.a, alpha)
        if args.a == 2:
            model = asymptotics.sqrt_restricted_model(alpha, args.cw)
        else:
            model = asymptotics.root_restricted_model(alpha, args.a)
        series = residual_series(spec, model, grid)
        report = fit_loglog(series)
        rows = [
            {"x": p.x, "exact": p.exact, "model_value": p.model_value, "residual": p.residual}
            for p in series
        ]
        params = {"a": args.a, "alpha": args.alpha, "cw": args.cw,
                  "grid": f"{grid.x0}:{grid.ratio}:{grid.count}"}
    fit_fields = {
        "slope": report.slope,
        "intercept": report.intercept,
        "max_abs_log_residual": report.max_abs_log_residual,
        "n_points_used": report.n_points_used,
        "n_dropped_zero": report.n_dropped_zero,
    }
    _emit("fit", params, rows, args, extra={"fit": fit_fields})
    return 0


# ---------------------------------------------------------------------------
# verify: reduced-scale invariant suites (deterministic, < 60 s total)
# ---------------------------------------------------------------------------


def _suite_bernoulli() -> tuple[bool, str]:
    rng = random.Random(101)
    for _ in range(400):
        x = rng.uniform(-10, 10)
        j = rng.randint(1, 6)
        if abs(bernoulli.bernoulli_func(j, x + 1) - bernoulli.bernoulli_func(j, x)) > 1e-12:
            return False, f"periodicity fails at j={j} x={x}"
    h = 1e-6
    for _ in range(100):
        x = rng.uniform(0, 1)
        j = rng.randint(1, 6)
        deriv = (bernoulli.bernoulli_poly(j, x + h) - bernoulli.bernoulli_poly(j, x - h)) / (2 * h)
        target = j * bernoulli.bernoulli_poly(j - 1, x)
        if abs(deriv - target) > 1e-6:
            return False, f"derivative recurrence fails at j={j} x={x}"
    for j in range(1, 7):
        coeffs = bernoulli.bernoulli_coefficients(j)
        integral = sum(c / (i + 1) for i, c in enumerate(coeffs))
        if integral != 0:
            return False, f"exact integral of B_{j} is {integral}"
        n = 2000
        xs = [i / n for i in range(n + 1)]
        vals = [float(bernoulli.bernoulli_poly(j, Fraction(i, n))) for i in range(n + 1)]
        simpson = (
            vals[0] + vals[-1]
            + 4 * sum(vals[1:-1:2])
            + 2 * sum(vals[2:-1:2])
        ) / (3 * n)
        if abs(simpson) > 1e-10:
            return False, f"Simpson integral of B_{j} is {simpson}"
    for j in (2, 3, 4):
        for _ in range(30):
            t = rng.uniform(0, 1)
            diff = abs(bernoulli.bernoulli_fourier_truncated(j, t, 2000) - float(bernoulli.bernoulli_func(j, t)))
            if diff > 1e-3:
                return False, f"Fourier truncation off by {diff} at j={j}"
    return True, "periodicity, recurrence, quadrature, Fourier"


def _suite_divisors() -> tuple[bool, str]:
    rng = random.Random(202)
    limit = 10**5
    tab = divisors.restricted_sigma_table(limit, DivisorSpec(2, 0))
    tt = divisors.tau_table(limit)
    sq = divisors.square_table(limit)
    if not (2 * tab[1:] == tt[1:] + sq[1:]).all():
        return False, "tau~ identity sweep fails"
    for a in (2, 3, 4):
        for alpha in (0, 1, 2):
            rt = divisors.restricted_sigma_table(2 * 10**4, DivisorSpec(a, alpha))
            for n in rng.sample(range(1, 2 * 10**4), 50):
                if rt[n] > divisors.sigma_alpha(n, alpha):
                    return False, f"monotone bound fails at n={n} a={a} alpha={alpha}"
    for a in (2, 3, 4):
        for d in range(1, 51):
            n = d**a
            if divisors.divisor_sum_restricted(n, DivisorSpec(a, 0)) < 1:
                return False, "boundary inclusion fails"
            if d not in [e for e in divisors._divisors(n) if e**a <= n]:
                return False, f"boundary divisor {d} missing from n={n} a={a}"
    for _ in range(2 * 10**4):
        n = rng.randrange(10**18)
        a = rng.randrange(2, 8)
        d = divisors.integer_root(n, a)
        if not (d**a <= n < (d + 1) ** a):
            return False, f"root exactness fails at n={n} a={a}"
    return True, "identity sweep 1e5, monotone, boundary, roots"


def _suite_cw_sums() -> tuple[bool, str]:
    rng = random.Random(303)
    for _ in range(50):
        x = rng.randrange(1, 10**6)
        for a in (2, 3):
            if g_sum(GSumSpec(a, 0, 0, x)) != divisors.integer_root(x, a):
                return False, f"j=0 consistency fails at x={x} a={a}"
            cut = gsum_cutoff(x, a)
            if abs(g_sum(GSumSpec(a, 0, 1, x))) > Fraction(cut, 2):
                return False, f"psi bound fails at x={x} a={a}"
    for _ in range(40):
        x = rng.randrange(2, 10**5)
        a = rng.choice((2, 3))
        alpha = rng.choice((0, 1, 2))
        j = rng.choice((0, 1, 2))
        spec = GSumSpec(a, alpha, j, x)
        total = cw_sums._exact_range_sum(x, alpha, j, 1, 1)
        n = 1
        cut = spec.cutoff
        while n < cut:
            total += cw_sums.block_g(n, spec)
            n *= 2
        if total != g_sum(spec):
            return False, f"block decomposition fails at x={x} a={a} alpha={alpha} j={j}"
    for _ in range(25):
        x = rng.randrange(10, 10**6)
        a = rng.choice((2, 3))
        alpha = rng.choice((0, 1, 2))
        j = rng.choice((1, 2, 3))
        e = g_sum(GSumSpec(a, alpha, j, x))
        f = g_sum(GSumSpec(a, float(alpha), j, x))
        if abs(float(e) - f) > 1e-8 * max(1.0, abs(float(e))):
            return False, f"exact/float disagreement at x={x} a={a} alpha={alpha} j={j}"
    return True, "j=0 consistency, psi bound, blocks, exact/float"


def _suite_summatory() -> tuple[bool, str]:
    rng = random.Random(404)
    specs = [DivisorSpec(a, al) for a in (2, 3, 4) for al in (0, 1, 2)]
    for spec in specs:
        table = summatory.summatory_bruteforce_table(1500, spec)
        for x in range(1, 1501):
            if summatory_fast(x, spec).total != int(table[x]):
                return False, f"oracle equivalence fails at x={x} {spec}"
        for _ in range(5):
            x = rng.randrange(1, 10**6)
            if summatory_fast(x, spec).total != summatory_bruteforce(x, spec):
                return False, f"oracle equivalence fails at x={x} {spec}"
    for _ in range(20):
        x = rng.randrange(1, 10**4)
        spec = rng.choice(specs)
        b = summatory_fast(x, spec)
        if sum(b.terms()) != b.total:
            return False, f"breakdown identity fails at x={x} {spec}"
    prev = 0
    for x in range(1, 300):
        cur = summatory_fast(x, DivisorSpec(2, 1)).total
        if cur < prev:
            return False, f"monotonicity fails at x={x}"
        prev = cur
    return True, "fast=brute (1500 exhaustive + random 1e6), breakdown, monotone"


def _suite_asymptotics() -> tuple[bool, str]:
    rng = random.Random(505)
    diff = abs(asymptotics.euler_gamma(60) - asymptotics.euler_gamma_independent())
    if diff > mp.mpf("1e-20"):
        return False, f"gamma cross-check off by {diff}"
    model = asymptotics.sqrt_restricted_model(1)
    coeffs = {t.exponent: t.coeff for t in model.terms}
    if coeffs != {Fraction(3, 2): Fraction(2, 3), Fraction(1): Fraction(-1, 4)}:
        return False, "alpha=1 model coefficients wrong"
    prev_cw = prev_un = -1
    for alpha in (0, Fraction(1, 2), 1, Fraction(3, 2), 2):
        cwv = asymptotics.error_exponent(alpha, True)
        unv = asymptotics.error_exponent(alpha, False)
        if cwv > unv or cwv <= prev_cw or unv <= prev_un:
            return False, "theta monotonicity fails"
        prev_cw, prev_un = cwv, unv
    for _ in range(200):
        x = rng.randrange(10**4, 10**12)
        d = math.isqrt(x)
        with mp.workdps(50):
            # cancellation of ~12 digits: keep the subtraction at 50 digits
            resid = mp.mpf(d * (d + 1) // 2) - asymptotics.euler_maclaurin_partial_sum(x, 2, 1)
            if not (-mp.mpf("1e-15") <= resid <= mp.mpf("0.125") + mp.mpf("1e-15")):
                return False, f"beta=1 residual window fails at x={x}: {resid}"
    for exp10 in range(3, 10):
        x = 10**exp10
        exact = math.fsum(1.0 / d for d in range(1, math.isqrt(x) + 1))
        approx = float(asymptotics.euler_maclaurin_partial_sum(x, 2, -1))
        if abs(exact - approx) > 10.0 / x:
            return False, f"harmonic EM error too large at x={x}"
    return True, "gamma, corollary coeffs, theta order, EM windows"


def _suite_exponent_pairs() -> tuple[bool, str]:
    rng = random.Random(606)
    seed = exponent_pairs.BOURGAIN_SEED
    if apply_word("BA^2", seed) != ExponentPair(Fraction(76, 207), Fraction(110, 207)):
        return False, "BA^2 chain broken"
    if apply_word("BA", seed) != ExponentPair(Fraction(55, 194), Fraction(55, 97)):
        return False, "BA chain broken"
    for _ in range(200):
        k = Fraction(rng.randrange(0, 500), 1000)
        l = Fraction(rng.randrange(500, 1001), 1000)
        if k > l:
            continue
        p = ExponentPair(k, l)
        if apply_word("BB", p) != p:
            return False, f"B involution fails at {p}"
    for length in range(7):
        for bits in range(2**length):
            word = "".join("AB"[(bits >> i) & 1] for i in range(length))
            apply_word(word, seed)
            apply_word(word, ExponentPair(Fraction(0), Fraction(1, 2)))
    if exponent_pairs.settled_a_range(apply_word("BA", seed)) != (Fraction(3, 2), Fraction(97, 55)):
        return False, "settled range wrong"
    if asymptotics.error_exponent(1) - asymptotics.error_exponent(0) != Fraction(1, 2):
        return False, "theta cross-check fails"
    return True, "chains, involution, domain words<=6, settled range"


def _suite_experiments() -> tuple[bool, str]:
    rng = random.Random(707)
    grid = GridSpec(10, 2.0, 12)
    for _ in range(10):
        s = rng.uniform(0, 2)
        rep = fit_loglog([(x, x**s) for x in grid.points()])
        if abs(rep.slope - s) > 1e-9:
            return False, f"synthetic slope {s} recovered as {rep.slope}"
    return True, "synthetic power laws"


_SUITES = [
    ("bernoulli", _suite_bernoulli),
    ("divisors", _suite_divisors),
    ("cw_sums", _suite_cw_sums),
    ("summatory", _suite_summatory),
    ("asymptotics", _suite_asymptotics),
    ("exponent_pairs", _suite_exponent_pairs),
    ("experiments", _suite_experiments),
]


def _cmd_verify(args) -> int:
    failures = 0
    for name, suite in _SUITES:
        t0 = time.perf_counter()
        try:
            ok, detail = suite()
        except Exception as exc:  # a crash in a suite is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name:<15} {detail} [{elapsed:.1f}s]")
        if not ok:
            failures += 1
    if failures:
        print(f"error: {failures} invariant suite(s) failed", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large to allocate", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: invariant breach: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
