"""mpmath is loaded only by the paths that compute with it.

Each case runs in a fresh interpreter, so sys.modules shows what importing
cwlab and running one command loaded.  Where a golden output exists, the
command's stdout must still match it byte for byte.
"""

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import cwlab

DATA = Path(__file__).parent / "data"

# runs `cwlab <argv>` and reports on stderr whether mpmath was loaded
PROBE = (
    "import sys\n"
    "from cwlab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print('mpmath' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _python(*args, timeout: float = 120) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(cwlab.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def test_package_import_graph_is_acyclic():
    # module -> the cwlab modules its `from .m import` and `from . import m`
    # statements name, those inside functions included
    package = Path(cwlab.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        edges = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                edges |= {node.module} if node.module else {alias.name for alias in node.names}
        graph[name] = edges & modules
    assert "cw_sums" in graph["summatory"] and "invariants" in graph["cli"]  # module- and function-level edges
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def test_only_float64_guarded_decides_float_overflow():
    # np.errstate and a bare `raise OverflowError` (no message) appear in
    # divisors.float64_guarded alone: no kernel makes its own overflow check
    package = Path(cwlab.__file__).parent
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = (where[0], node.name)
        raised = ast.unparse(node.exc) if isinstance(node, ast.Raise) and node.exc else None
        bare = raised in ("OverflowError", "OverflowError()")
        if bare or isinstance(node, ast.Attribute) and node.attr == "errstate":
            found.add((*where, "raise OverflowError" if bare else "np.errstate"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in package.glob("*.py"):
        visit(ast.parse(path.read_text()), (path.stem, None))
    guard = {("divisors", "float64_guarded", check) for check in ("np.errstate", "raise OverflowError")}
    assert found == guard, sorted(found - guard)


def test_only_require_number_decides_numeric_inputs():
    # a float's finiteness is tested (math.isfinite) only by divisors.require_number
    # and float64_guarded, and a bool is told apart (isinstance(v, bool)) only by
    # require_count, require_number and the CLI formatters: no function keeps a
    # type rule of its own for numeric input
    package = Path(cwlab.__file__).parent
    found = set()

    def names_bool(node):
        kinds = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = (where[0], node.name)
        if (isinstance(node, ast.Attribute) and node.attr == "isfinite" and isinstance(node.value, ast.Name)
                and node.value.id == "math") or (isinstance(node, ast.ImportFrom) and node.module == "math"
                                                 and any(alias.name == "isfinite" for alias in node.names)):
            found.add((*where, "math.isfinite"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2 and names_bool(node.args[1])):
            found.add((*where, "isinstance bool"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in package.glob("*.py"):
        visit(ast.parse(path.read_text()), (path.stem, None))
    allowed = {("divisors", "require_number", "math.isfinite"), ("divisors", "float64_guarded", "math.isfinite"),
               ("divisors", "require_count", "isinstance bool"), ("divisors", "require_number", "isinstance bool"),
               ("cli", "_fmt", "isinstance bool"), ("cli", "_jsonable", "isinstance bool")}
    assert found == allowed, sorted(found ^ allowed)


def test_chunk_rules_stay_in_cw_sums():
    # the helpers that decide how x is divided by a chunk of d are named in
    # cw_sums alone, and no module binds another's private function by
    # `from .m import _f`, which a patch of m._f would not reach
    package = Path(cwlab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    functions = {name: {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
                 for name, tree in trees.items()}
    chunk_rules = {"_d_chunks", "_quotient", "_mod", "_float_weights", "_FAST_CHUNK"}
    outside, bound = set(), set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            elif isinstance(node, ast.alias):
                used = {node.name, node.asname}
            else:
                used = set()
            if name != "cw_sums":
                outside |= {(name, ref) for ref in used & chunk_rules}
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in functions:
                bound |= {(name, alias.name) for alias in node.names
                          if alias.name.startswith("_") and alias.name in functions[node.module]}
    assert not outside, sorted(outside)
    assert not bound, sorted(bound)


def test_import_cwlab_leaves_mpmath_out():
    proc = _python("-c", "import sys, cwlab; print('mpmath' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


# argv, whether the command loads mpmath, golden file or expected last line of stdout
CASES = [
    (["divisor", "--n", "36"], False, "36,2,0,5,9,5,1"),
    (["summatory", "--a", "2", "--alpha", "1", "--x", "1000", "--mode", "both"], False, "golden_summatory.csv"),
    (["gsum", "--a", "2", "--alpha", "1", "--j", "2", "--x", "1000", "--format", "json"], False, "golden_gsum.json"),
    (["gsum", "--a", "5/2", "--x", "1000"], False, "5/2,0,1,1000,15,-40919/18018"),
    (["bw", "--n", "3", "--x", "16"], False, "3,16,0,0,-19/30"),
    (["pairs", "--word", "BA", "--seed", "13/84,55/84", "--j", "2"], False, "golden_pairs.csv"),
    (["gsum", "--a", "2.5", "--x", "1000"], False, "2.5,0,1,1000,15,-40919/18018"),
    (["gsum", "--a", "2.7", "--x", "1000"], True, "2.7,0,1,1000,12,-1933/693"),
    (["asympt", "--a", "2", "--alpha", "1", "--x", "1000", "--format", "json"], True, "golden_asympt.json"),
    (["fit", "--a", "2", "--alpha", "1", "--grid", "100:10:4", "--format", "json"], True, "golden_fit.json"),
]


@pytest.mark.parametrize("argv, loads, expected", CASES, ids=[" ".join(c[0][:3]) for c in CASES])
def test_command_loads_mpmath_only_where_it_computes(argv, loads, expected):
    proc = _python("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{loads}\n"
    if expected is not None and expected.startswith("golden_"):
        assert proc.stdout == (DATA / expected).read_text()
    elif expected is not None:
        assert proc.stdout.splitlines()[-1] == expected


def test_summatory_past_the_power_sum_budget_exits_fast():
    # alpha - 1 = 99 is past bernoulli.MAX_DEGREE at cutoff 1e9: the power sum
    # is refused before any chunk is built instead of running for hours
    proc = _python("-m", "cwlab.cli", "summatory", "--x", "1000000000000000000", "--alpha", "100", timeout=30)
    assert proc.returncode == 2 and "work budget" in proc.stderr, proc.stderr
