import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from cwlab.cli import main

DATA = Path(__file__).parent / "data"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_summatory_both_mode():
    code, out, err = run(["summatory", "--a", "2", "--alpha", "0", "--x", "10", "--mode", "both"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,a,alpha,mode,fast,brute,match"
    assert lines[1] == "10,2,0,both,15,15,true"


def test_summatory_golden():
    code, out, _ = run(["summatory", "--a", "2", "--alpha", "1", "--x", "1000", "--mode", "both"])
    assert code == 0
    assert out == (DATA / "golden_summatory.csv").read_text()


def test_pairs_golden():
    code, out, _ = run(["pairs", "--word", "BA", "--seed", "13/84,55/84", "--j", "2"])
    assert code == 0
    assert out == (DATA / "golden_pairs.csv").read_text()


def test_pairs_word_examples():
    code, out, _ = run(["pairs", "--word", "BA^2", "--seed", "13/84,55/84"])
    assert code == 0
    assert out.strip().splitlines()[1].endswith("76/207,110/207")
    code, out, _ = run(["pairs", "--word", "BB", "--seed", "13/84,55/84"])
    assert code == 0
    assert out.strip().splitlines()[1].endswith("13/84,55/84")


def test_pairs_json_roundtrip():
    code, out, _ = run(["pairs", "--word", "BA", "--j", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["k"] == "55/194"
    assert doc["result"]["settled_hi"] == "97/55"


def test_gsum_exact_output():
    code, out, _ = run(["gsum", "--a", "2", "--alpha", "-1", "--j", "0", "--x", "4"])
    assert code == 0
    assert out.strip().splitlines()[1] == "2,-1,0,4,2,3/2"


def test_bw_output():
    code, out, _ = run(["bw", "--n", "3", "--x", "16"])
    assert code == 0
    assert out.strip().splitlines()[1].endswith("-19/30")


def test_divisor_output():
    code, out, _ = run(["divisor", "--n", "36"])
    assert code == 0
    assert out.strip().splitlines()[1] == "36,2,0,5,9,5,1"


def test_asympt_json():
    code, out, _ = run(["asympt", "--alpha", "1", "--x", "100", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["theta"] == "1341/1648"
    assert doc["result"]["absorption_threshold"] == "1131/824"
    # 30-digit value round-trips at emitted precision
    assert float(doc["result"]["value"]) == pytest.approx(641.6666666, abs=1e-6)


def test_fit_golden_exact_columns():
    code, out, _ = run(["fit", "--a", "2", "--alpha", "1", "--grid", "100:10:4"])
    assert code == 0
    golden = (DATA / "golden_fit.csv").read_text().splitlines()
    got = out.splitlines()
    assert got[0] == golden[0]
    assert len(got) == len(golden)
    for g_line, w_line in zip(got[1:], golden[1:]):
        g, w = g_line.split(","), w_line.split(",")
        assert g[:4] == w[:4]            # x, exact, model_value, residual: deterministic
        for gi, wi in zip(g[4:7], w[4:7]):   # float fit columns: tolerance
            assert float(gi) == pytest.approx(float(wi), rel=1e-12)
        assert g[7:] == w[7:]


def test_fit_json_gsum_mode():
    code, out, _ = run(["fit", "--a", "2", "--alpha", "1", "--j", "2",
                        "--grid", "1000:10:3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]) == 3
    assert "slope" in doc["fit"]


def test_csv_numeric_roundtrip():
    code, out, _ = run(["fit", "--a", "3", "--alpha", "0", "--grid", "1000:10:3"])
    assert code == 0
    rows = out.strip().splitlines()
    header = rows[0].split(",")
    for line in rows[1:]:
        vals = dict(zip(header, line.split(",")))
        assert int(vals["x"]) > 0
        assert int(vals["exact"]) > 0
        float(vals["model_value"])
        float(vals["residual"])


def test_out_file(tmp_path):
    target = tmp_path / "result.csv"
    code, out, _ = run(["gsum", "--a", "2", "--alpha", "0", "--j", "1", "--x", "4",
                        "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == "2,0,1,4,2,-1"


def test_invalid_input_exit_2():
    code, _, err = run(["summatory", "--a", "2", "--alpha", "0", "--x", "-5"])
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(["gsum", "--a", "1", "--alpha", "0", "--j", "1", "--x", "10"])
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(["summatory", "--x", "10", "--mode", "bogus"])
    assert code == 2
    assert err.startswith("error:")


# each subcommand with valid arguments, and the options that take a number in it
NUMBER_OPTIONS = (
    (["divisor", "--n", "10"], ("--n", "--a", "--alpha")),
    (["gsum", "--j", "1", "--x", "100"], ("--a", "--alpha", "--j", "--x")),
    (["bw", "--n", "3", "--x", "100"], ("--n", "--x", "--shift-a", "--shift-b")),
    (["summatory", "--x", "100"], ("--a", "--alpha", "--x")),
    (["asympt", "--x", "100"], ("--a", "--alpha", "--x")),
    (["pairs", "--word", "BA", "--j", "2", "--a", "3"], ("--a", "--j", "--alpha")),
    (["fit", "--grid", "100:2:3"], ("--a", "--alpha")),
    (["fit", "--j", "1", "--grid", "100:2:3"], ("--a", "--alpha", "--j")),
)


def test_malformed_numbers_exit_2():
    for base, options in NUMBER_OPTIONS:
        assert run(base)[0] == 0
        for option in options:
            for bad in ("1/0", "nan", "inf", "1e400"):
                argv = [*base, option, bad]
                code, out, err = run(argv)
                assert (code, out) == (2, ""), argv
                assert err.count("error:") == 1 and err.startswith("error:"), (argv, err)
                assert "Traceback" not in err and "_parse_" not in err, (argv, err)
    # a parser's own message, not argparse's "invalid _parse_... value"
    for argv, message in ((["gsum", "--x", "1/0"], "zero denominator in '1/0'"),
                          (["gsum", "--x", "ten"], "got 'ten'"),
                          (["asympt", "--cw", "maybe"], "expected true or false, got 'maybe'"),
                          (["fit", "--grid", "10:2"], "grid must be x0:ratio:count, got '10:2'"),
                          (["fit", "--grid", "ten:2:3"], "grid must be x0:ratio:count")):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert err.count("error:") == 1 and message in err and "_parse_" not in err, (argv, err)


def test_pairs_non_finite_without_j_exit_2():
    for option in ("--a", "--alpha"):
        for bad in ("nan", "inf", "-inf"):
            code, out, err = run(["pairs", "--word", "BA", f"{option}={bad}"])
            assert (code, out) == (2, ""), (option, bad)
            assert err.count("error:") == 1 and err.startswith("error:"), (option, bad, err)
            assert "finite" in err, err


def test_fit_non_finite_grid_ratio_exit_2():
    for bad in ("nan", "inf"):
        code, out, err = run(["fit", "--grid", f"100:{bad}:3"])
        assert (code, out) == (2, "")
        assert err.count("error:") == 1 and "grid ratio must be finite" in err, err


def test_fit_overflowing_grid_exit_2():
    code, out, err = run(["fit", "--grid", "100:1e300:5", "--alpha", "1"])
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and "argument --grid: grid ratio 1e+300 and count 5 overflow" in err, err


def test_pairs_a_outside_theorem4_exit_2():
    for a in ("1", "0", "-3"):
        code, out, err = run(["pairs", "--word", "BA", "--j", "2", "--a", a])
        assert (code, out) == (2, "")
        assert err.startswith("error:")


def test_float_mode_x_beyond_int64_exit_2():
    code, _, err = run(["summatory", "--x", "18446744073709551623", "--alpha", "1.0",
                        "--mode", "fast"])
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_bruteforce_guard_exit_2():
    code, _, err = run(["summatory", "--a", "2", "--alpha", "0", "--x", str(10**9),
                        "--mode", "brute"])
    assert code == 2
    assert "error:" in err


def test_verify_runs_clean():
    code, out, err = run(["verify"])
    assert code == 0, err
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 7
    assert all(l.startswith("PASS") for l in lines)


def test_verify_rejects_format_and_out(tmp_path):
    # verify writes text lines only, so it refuses the output options rather than ignore them
    target = tmp_path / "v.json"
    for argv in (["verify", "--format", "json"], ["verify", "--out", str(target)]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "unrecognized arguments" in err
    assert not target.exists()


def test_verify_closed_pipe_no_traceback():
    # `cwlab verify | head -1`: the reader closes the pipe after the first line;
    # unbuffered, the later suites' lines then hit the closed pipe
    import cwlab

    env = dict(os.environ, PYTHONPATH=str(Path(cwlab.__file__).parents[1]), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", "cwlab.cli", "verify"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    code = proc.wait(timeout=120)
    assert first.startswith(b"PASS bernoulli")
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert code == 1


def test_verify_failure_exit_3(monkeypatch):
    import cwlab.cli as cli

    def broken(rng, inv):
        raise AssertionError("forced failure")

    monkeypatch.setattr(cli, "_SUITES", [("stub", "never printed", broken)])
    code, out, err = run(["verify"])
    assert code == 3
    assert out.startswith("FAIL stub")
    assert err.startswith("error:")


def test_verify_calls_every_invariant(monkeypatch):
    # an invariant left out of verify's suites fails here
    import inspect

    from cwlab import invariants

    public = [name for name, f in inspect.getmembers(invariants, inspect.isfunction)
              if f.__module__ == invariants.__name__ and not name.startswith("_")]
    called = set()
    for name in public:
        monkeypatch.setattr(invariants, name, lambda *args, name=name: called.add(name))
    code, out, err = run(["verify"])
    assert code == 0, err
    assert public and called == set(public)


def test_internal_breach_exit_3(monkeypatch):
    # an AssertionError from library internals maps to exit code 3
    import cwlab.cli as cli

    def boom(args):
        raise AssertionError("fast != brute")

    monkeypatch.setitem(cli.__dict__, "_cmd_divisor", boom)
    parser_cmd = ["divisor", "--n", "10"]
    code, _, err = run(parser_cmd)
    assert code == 3
    assert err.startswith("error: invariant breach")


def test_memory_error_exit_2(monkeypatch):
    # an input too large to allocate fails cleanly with exit code 2
    import cwlab.cli as cli

    def too_large(args):
        raise MemoryError

    monkeypatch.setitem(cli.__dict__, "_cmd_summatory", too_large)
    code, _, err = run(["summatory", "--x", "10"])
    assert code == 2
    assert err.startswith("error:")


def test_overlong_exact_value_writes_nothing(tmp_path):
    # the value's numerator passes the 4,300-digit int-to-str limit
    argv = ["gsum", "--x", "1000000000", "--alpha", "1", "--j", "2", "--a", "2"]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert "set_int_max_str_digits" not in err
    assert "--alpha" in err
    target = tmp_path / "result.json"
    code, out, err = run(argv + ["--format", "json", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert not target.exists()


@pytest.mark.parametrize("argv, hint", [
    (["bw", "--n", "65536", "--x", "100000000000"], "pass a float --x (e.g. 1e11) to get a double-precision value"),
    (["divisor", "--n", "36", "--alpha", "10000"], "pass a smaller --alpha or --n"),
    (["summatory", "--x", "100000", "--alpha", "3000"], "pass a smaller --alpha or --x"),
    (["pairs", "--word", "BA", "--j", "1", "--a", str(10**4299 + 7)], "pass an --a or --alpha with fewer digits"),
    (["asympt", "--alpha", f"1/{10**4299}"], "pass an --alpha with fewer digits"),
])
def test_overlong_value_hint_names_own_options(argv, hint):
    # each command's advice names only options that it has and that help
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: the exact value has more than 4300 digits, too many to print; {hint}\n"


def test_pairs_word_cap_exit_2():
    code, out, _ = run(["pairs", "--word", "A^4096"])
    assert code == 0 and len(out) > 3000
    for word in ("A^4097", "B^20000000", "A^99999999999999999999"):
        t0 = time.perf_counter()
        code, out, err = run(["pairs", "--word", word])
        assert time.perf_counter() - t0 < 0.5, word
        assert (code, out) == (2, "")
        assert err == f"error: transform word {word!r} has more than 4096 letters\n"


# JSON pinned byte for byte: fit in both modes (its fit field), an exact Fraction and an mpf value
JSON_GOLDENS = {
    "golden_fit.json": ["fit", "--a", "2", "--alpha", "1", "--grid", "100:10:4"],
    "golden_fit_j.json": ["fit", "--a", "2", "--alpha", "1", "--j", "2", "--grid", "1000:10:3"],
    "golden_gsum.json": ["gsum", "--a", "2", "--alpha", "1", "--j", "2", "--x", "1000"],
    "golden_asympt.json": ["asympt", "--a", "2", "--alpha", "1", "--x", "1000"],
}


@pytest.mark.parametrize("name", JSON_GOLDENS)
def test_json_golden(name):
    code, out, _ = run([*JSON_GOLDENS[name], "--format", "json"])
    assert code == 0
    assert out == (DATA / name).read_text()


def test_float_gsum_work_budget_exit_2():
    code, out, err = run(["gsum", "--x", "1e20", "--alpha", "1.0"])
    assert (code, out) == (2, "")
    assert "work budget" in err and err.startswith("error:")


def test_float_a_cutoff_at_large_x_reaches_the_budget():
    # a float a that is no p/q with q <= 16 takes the log cutoff, whose steps do not grow with x
    code, out, err = run(["gsum", "--a", "2.7", "--alpha", "1", "--j", "2", "--x", "1e121"])
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and err.startswith("error:") and "work budget" in err, err


def test_bw_work_budget_exit_2():
    code, out, err = run(["bw", "--n", str(10**8), "--x", str(10**17)])
    assert (code, out) == (2, "")
    assert "work budget" in err and err.startswith("error:")


def test_divisor_work_budget_exit_2():
    code, out, err = run(["divisor", "--n", str(10**18)])
    assert (code, out) == (2, "")
    assert "work budget" in err and err.startswith("error:")


def test_summatory_work_budget_exit_2():
    code, out, err = run(["summatory", "--x", str(10**24), "--alpha", "1"])
    assert (code, out) == (2, "")
    assert "work budget" in err and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["summatory", "--x", "100000", "--alpha", "300.0"],
    ["summatory", "--x", "100000", "--alpha", "300.0", "--mode", "brute"],
    ["fit", "--alpha", "3000.0", "--grid", "100:2:3"],
    ["gsum", "--alpha", "3000.0", "--x", "1000000", "--j", "1"],
    ["divisor", "--n", "36", "--alpha", "10000.0"],
], ids=["summatory", "summatory-brute", "fit", "gsum", "divisor"])
def test_float_alpha_overflow_exit_2(argv):
    # d**alpha past float64 is refused with one error line that names
    # alpha: no nan on stdout, no numpy warning, no bare errno message
    alpha = argv[argv.index("--alpha") + 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == (f"error: alpha = {alpha} is too large: d**alpha or a sum of such terms overflows "
                   "float64; pass a smaller alpha\n")


@pytest.mark.parametrize("argv, kernels", [
    (["divisor", "--n", "36", "--alpha", "100000000"], [("divisors", "divisor_sum_restricted")]),
    (["summatory", "--x", "1000000", "--alpha", "100000"], [("cli", "summatory_fast")]),
    (["summatory", "--x", "1000000", "--alpha", "100000", "--mode", "both"],
     [("cli", "summatory_fast"), ("cli", "summatory_bruteforce")]),
    (["gsum", "--x", "1000000", "--alpha", "100000", "--j", "0"], [("cli", "g_sum")]),
], ids=["divisor", "summatory", "summatory-both", "gsum"])
def test_overlong_exact_alpha_refused_before_work(monkeypatch, argv, kernels):
    # the value is at least D**alpha, which provably passes the digit limit: no kernel runs
    import cwlab.cli as cli
    from cwlab import divisors

    def never(*args):
        raise AssertionError("the kernel ran")

    for module, name in kernels:
        monkeypatch.setattr({"cli": cli, "divisors": divisors}[module], name, never)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    hint = {
        "divisor": "pass a smaller --alpha or --n",
        "gsum": "pass a float --alpha (e.g. 1.0) or a float --x to get a double-precision value",
    }.get(argv[0], "pass a smaller --alpha or --x")
    assert err == f"error: the exact value has more than 4300 digits, too many to print; {hint}\n"


@pytest.mark.parametrize("argv, digits", [
    (["divisor", "--n", "36", "--alpha", "5525"], 4300),      # 6**5525 < sigma < 2 * 6**5525
    (["summatory", "--x", "10000", "--alpha", "2149"], 4299),  # the d = D = 100 term leads
    (["gsum", "--x", "10000", "--alpha", "2149", "--j", "0"], 4299),  # 100**2149 < G < 2 * 100**2149
], ids=["divisor", "summatory", "gsum"])
def test_exact_alpha_just_under_the_digit_bound_prints(argv, digits):
    code, out, err = run(argv)
    assert code == 0, err
    value = out.splitlines()[1].split(",")[{"summatory": 4, "gsum": 5}.get(argv[0], 3)]
    assert len(value) == digits


def test_divisor_enumerates_once(monkeypatch):
    # sigma_restricted, tau and tau_tilde all come from one _divisors(n)
    from cwlab import divisors

    calls, enumerate_divisors = [], divisors._divisors
    monkeypatch.setattr(divisors, "_divisors", lambda n: calls.append(n) or enumerate_divisors(n))
    for n, line in ((720720, "720720,2,1,27815,240,120,0"), (36, "36,2,1,16,9,5,1"), (1, "1,2,1,1,1,1,1")):
        calls.clear()
        code, out, _ = run(["divisor", "--n", str(n), "--alpha", "1"])
        assert (code, calls) == (0, [n])
        assert out == f"n,a,alpha,sigma_restricted,tau,tau_tilde,is_square\n{line}\n"
