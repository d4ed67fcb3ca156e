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
breach (e.g. fast != brute under --mode both, or a verify failure),
1 if the reader closes stdout before all output is written.
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
import os
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction

from . import asymptotics, divisors, exponent_pairs
from .cw_sums import GSumSpec, g_sum, shifted_psi_block_sum
from .divisors import DivisorSpec
from .exponent_pairs import ExponentPair, apply_word, gsum_exponent_bound, parse_rational
from .experiments import DEFAULT_GRID, GridSpec, cw_series, fit_loglog, residual_series
from .summatory import summatory_bruteforce, summatory_fast

MPF_DIGITS = 30


def _fmt(v) -> str:
    """str(v), except bool as true/false, mpf at MPF_DIGITS digits and None as ''."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if "mpmath" in sys.modules:  # no mpf exists before mpmath is loaded
        from mpmath import mp
        if isinstance(v, mp.mpf):
            return mp.nstr(v, MPF_DIGITS, strip_zeros=True)
    return "" if v is None else str(v)


def _jsonable(v):
    return v if v is None or isinstance(v, (bool, int, float)) else _fmt(v)


def _overlong(args) -> ValueError:
    return ValueError(f"the exact value has more than {sys.get_int_max_str_digits()} digits, "
                      f"too many to print; {args.overlong_hint}")


@contextmanager
def _printable(args):
    """Turn the ValueError of an int past Python's int-to-str digit limit into
    an error that gives the command's own hint."""
    try:
        yield
    except ValueError as exc:
        raise _overlong(args) from exc


def _refuse_overlong(args, base: int, alpha) -> None:
    """Refuse before any work an exact value of at least base**alpha (int alpha)
    that provably has more digits than Python prints: alpha * log10(base)
    reaches the limit plus one digit, which no rounding of the float log can
    close."""
    limit = sys.get_int_max_str_digits()
    if limit and base > 1 and isinstance(alpha, int) and alpha >= (limit + 1) / math.log10(base):
        raise _overlong(args)


def _emit(command: str, params: dict, rows: list[dict], args, fit: dict | None = None) -> None:
    """Format the whole output, then write it: a value too long to print
    raises before any byte reaches stdout or --out is opened.  With fit,
    the result is a list and fit goes under "fit" (JSON) or as fit_*
    columns on every row (CSV)."""
    with _printable(args):
        if args.format == "json":
            result = [{k: _jsonable(v) for k, v in r.items()} for r in rows]
            payload = {
                "command": command,
                "params": {k: _jsonable(v) for k, v in params.items()},
                "result": result if fit is not None else result[0],
            }
            if fit is not None:
                payload["fit"] = {k: _jsonable(v) for k, v in fit.items()}
            text = json.dumps(payload) + "\n"
        else:
            rows = [r | {f"fit_{k}": v for k, v in (fit or {}).items()} for r in rows]
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0].keys())
            writer.writerows([_fmt(v) for v in r.values()] for r in rows)
            text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)


def _parse_grid(text: str) -> GridSpec:
    try:
        x0, ratio, count = text.split(":")
        x0, ratio, count = int(x0), float(ratio), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be x0:ratio:count, got {text!r}") from None
    try:
        return GridSpec(x0, ratio, count)
    except ValueError as exc:  # its message names the field
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _parse_number(text: str):
    """int when integral, Fraction for p/q, float otherwise."""
    t = text.strip()
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return Fraction(t) if "/" in t else float(t)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, p/q or a float, got {text!r}") from None


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
    sp.set_defaults(func=_cmd_divisor, overlong_hint="pass a smaller --alpha or --n")

    sp = sub.add_parser("gsum", help="Chowla-Walum sum G_{a,alpha,j}(x)")
    sp.add_argument("--a", type=_parse_number, default=2)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--x", type=_parse_number, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_gsum, overlong_hint=(
        "pass a float --alpha (e.g. 1.0) or a float --x to get a double-precision value"))

    sp = sub.add_parser("bw", help="block sum of psi(4x/(4n+a') + b'/4) over n in (N, 2N]")
    sp.add_argument("--n", type=int, required=True, help="block start N >= 3")
    sp.add_argument("--x", type=_parse_number, required=True)
    sp.add_argument("--shift-a", type=int, default=0, dest="shift_a")
    sp.add_argument("--shift-b", type=int, default=0, dest="shift_b")
    add_common(sp)
    sp.set_defaults(func=_cmd_bw, overlong_hint=(
        "pass a float --x (e.g. 1e11) to get a double-precision value"))

    sp = sub.add_parser("summatory", help="sum_{n<=x} sigma_{a,alpha}(n)")
    sp.add_argument("--a", type=int, default=2)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--mode", choices=("fast", "brute", "both"), default="fast")
    add_common(sp)
    sp.set_defaults(func=_cmd_summatory, overlong_hint="pass a smaller --alpha or --x")

    sp = sub.add_parser("asympt", help="main-term model values and error exponents")
    sp.add_argument("--a", type=int, default=2)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    sp.add_argument("--cw", type=_parse_bool, default=False)
    sp.add_argument("--x", type=_parse_number, default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_asympt, overlong_hint="pass an --alpha with fewer digits")

    sp = sub.add_parser("pairs", help="exponent-pair words and bound exponents")
    sp.add_argument("--word", default="")
    sp.add_argument("--seed", default="13/84,55/84", help="seed pair k,l")
    sp.add_argument("--a", type=_parse_number, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    add_common(sp)
    sp.set_defaults(func=_cmd_pairs, overlong_hint="pass an --a or --alpha with fewer digits")

    sp = sub.add_parser("fit", help="residual series and log-log slope")
    sp.add_argument("--a", type=_parse_number, default=2)
    sp.add_argument("--alpha", type=_parse_number, default=0)
    sp.add_argument("--j", type=int, default=None,
                    help="fit |G_{a,alpha,j}| instead of the summatory residual")
    sp.add_argument("--cw", type=_parse_bool, default=False)
    sp.add_argument("--grid", type=_parse_grid, default=None, help="x0:ratio:count")
    add_common(sp)
    sp.set_defaults(func=_cmd_fit, overlong_hint="pass a smaller --alpha")

    sp = sub.add_parser("verify", help="reduced-scale invariant suites")
    sp.set_defaults(func=_cmd_verify)

    return p


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _divisor_spec(args) -> DivisorSpec:
    """DivisorSpec(--a, --alpha), a Fraction --alpha taken as its float (real mode)."""
    return DivisorSpec(args.a, float(args.alpha) if isinstance(args.alpha, Fraction) else args.alpha)


def _cmd_divisor(args) -> int:
    spec = _divisor_spec(args)
    divs = divisors._divisors(args.n)  # enumerated once for all three values
    # the restricted sum is at least d_max**alpha, d_max its largest divisor d <= n**(1/a)
    root = divisors.integer_root(args.n, args.a)
    _refuse_overlong(args, max(d for d in divs if d <= root), spec.alpha)
    row = {
        "n": args.n,
        "a": args.a,
        "alpha": args.alpha,
        "sigma_restricted": divisors.divisor_sum_restricted(args.n, spec, divs),
        "tau": len(divs),
        "tau_tilde": divisors.tau_tilde_via_identity(args.n, len(divs)),
        "is_square": divisors.is_square(args.n),
    }
    _emit("divisor", {"n": args.n, "a": args.a, "alpha": args.alpha}, [row], args)
    return 0


def _cmd_gsum(args) -> int:
    spec = GSumSpec(args.a, args.alpha, args.j, args.x)
    if spec.exact and spec.j == 0:  # G_{a,alpha,0}(x) = sum_{d <= D} d**alpha >= D**alpha
        _refuse_overlong(args, spec.cutoff, spec.alpha)
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
    spec = _divisor_spec(args)
    if args.x >= 1:  # the total is at least D**alpha, from d = D, since floor(x/D) >= D**(a-1)
        _refuse_overlong(args, divisors.integer_root(args.x, args.a), spec.alpha)
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
    model = asymptotics.restricted_model(args.alpha, args.a, args.cw)
    value = model.evaluate(args.x) if args.x is not None else None
    row = {
        "a": args.a,
        "alpha": args.alpha,
        "cw": args.cw if args.a == 2 else None,
        "x": args.x,
        "value": value,
        "theta": model.theta,
        "absorption_threshold": asymptotics.absorption_threshold(args.cw) if args.a == 2 else None,
    }
    with _printable(args):
        row["terms"] = ";".join(
            f"{_fmt(t.coeff)}*x^{_fmt(t.exponent)}" + ("*logx" if t.with_log else "")
            for t in model.terms
        )
    _emit("asympt", {"a": args.a, "alpha": args.alpha, "cw": args.cw}, [row], args)
    return 0


def _cmd_pairs(args) -> int:
    if args.a is not None:
        divisors.require_number("a", args.a)
    divisors.require_number("alpha", args.alpha)
    k_str, _, l_str = args.seed.partition(",")
    seed = ExponentPair(parse_rational(k_str), parse_rational(l_str))
    result = apply_word(args.word, seed)
    row = {"word": args.word, "seed": args.seed, "k": result.k, "l": result.l}
    if args.j is not None:
        if args.a is not None:
            offset, secondary = exponent_pairs.theorem4_exponents(result, args.a, args.j, args.alpha)
            row.update(a=args.a, j=args.j, primary_offset=offset, secondary_exponent=secondary)
        else:
            bound = gsum_exponent_bound(result, args.j, args.alpha)
            row.update(j=args.j, primary_const=bound.primary_const, primary_inv_a=bound.primary_inv_a)
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
        spec = _divisor_spec(args)
        series = residual_series(spec, asymptotics.restricted_model(spec.alpha, args.a, args.cw), grid)
        report = fit_loglog(series)
        rows = [asdict(p) for p in series]
        params = {"a": args.a, "alpha": args.alpha, "cw": args.cw,
                  "grid": f"{grid.x0}:{grid.ratio}:{grid.count}"}
    _emit("fit", params, rows, args, fit=asdict(report))
    return 0


# verify: registry invariants at reduced scale, drawn from a Random seeded with the suite's name;
# a suite takes the invariants module, which only verify imports
_SUITES = [
    ("bernoulli", "periodicity, recurrence, quadrature, Fourier", lambda rng, inv: (
        inv.bernoulli_periodicity(rng, 400), inv.bernoulli_recurrence(rng, 100),
        [inv.bernoulli_integral(j, 2000) for j in range(1, 7)], inv.bernoulli_fourier(rng, (2, 3, 4), 30, 2000))),
    ("divisors", "identity sweep 1e5, monotone, boundary, roots", lambda rng, inv: (
        inv.tau_tilde_identity(rng, 10**5, 50), inv.monotone_bound(10**4),
        inv.boundary_inclusion(50), inv.integer_root_exact(rng, 2 * 10**4))),
    ("cw_sums", "j=0 consistency, psi bound, blocks, exact/float", lambda rng, inv: (
        inv.j0_consistency(rng, 50), inv.psi_bound(rng, 100),
        inv.block_decomposition(rng, 40), inv.exact_float_agreement(rng, 25))),
    ("summatory", "fast=brute (1500 exhaustive + random 1e6), breakdown, monotone", lambda rng, inv: (
        inv.oracle_equivalence(rng, 10**6, 1500, 45), inv.breakdown_identity(rng, 20), inv.summatory_monotone(300))),
    ("asymptotics", "gamma, theta order, EM windows", lambda rng, inv: (
        inv.gamma_cross_check(), inv.theta_order(), inv.em_residual_window(rng, 200), inv.em_harmonic_error())),
    ("exponent_pairs", "involution, domain words<=6", lambda rng, inv: (
        inv.b_involution(rng, 200), inv.domain_preservation(6))),
    ("experiments", "synthetic power laws", lambda rng, inv: inv.fit_recovers_power_laws(rng, 10)),
]


def _cmd_verify(args) -> int:
    from . import invariants

    failures = 0
    for name, detail, suite in _SUITES:
        t0 = time.perf_counter()
        try:
            suite(random.Random(name), invariants)
            status = "PASS"
        except AssertionError as exc:
            status, detail = "FAIL", str(exc)
        except Exception as exc:  # a crash in a suite is a failure, not an abort
            status, detail = "FAIL", f"exception: {exc!r}"
        print(f"{status} {name:<15} {detail} [{time.perf_counter() - t0:.1f}s]")
        failures += status == "FAIL"
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early (`cwlab verify | head -1`): devnull keeps the final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
