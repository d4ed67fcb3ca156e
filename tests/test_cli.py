import contextlib
import io
import json
import math
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


def test_verify_failure_exit_3(monkeypatch):
    import cwlab.cli as cli

    monkeypatch.setattr(cli, "_SUITES", [("stub", lambda: (False, "forced failure"))])
    code, out, err = run(["verify"])
    assert code == 3
    assert out.startswith("FAIL stub")
    assert err.startswith("error:")


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
