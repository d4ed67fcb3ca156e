"""Load the cwlab library from the checkout's src/ tree, and describe the host.

The package import is tried first.  If `import cwlab` raises (it does while
`cwlab/__init__.py` names an export a submodule lacks), a bare package stub is
registered and the seven library submodules are imported by name.  Both paths
import the same submodules, so fixing the package import does not move
`setup_s`.
"""

from __future__ import annotations

import importlib
import os
import platform
import sys
import types
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = (
    "bernoulli",
    "divisors",
    "cw_sums",
    "asymptotics",
    "exponent_pairs",
    "summatory",
    "experiments",
)

# The public names the workloads call, by module.  Workloads reach the library
# only through a namespace of these, so the traced run can wrap each call.
API = {
    "bernoulli": ("bernoulli_poly",),
    "divisors": (
        "DivisorSpec",
        "integer_root",
        "divisor_sum_restricted",
        "tau",
        "sigma_alpha",
        "tau_tilde_via_identity",
        "restricted_sigma_table",
        "tau_table",
        "square_table",
    ),
    "cw_sums": ("GSumSpec", "g_sum", "block_g", "shifted_psi_block_sum"),
    "asymptotics": ("sqrt_restricted_model", "root_restricted_model"),
    "summatory": ("summatory_fast", "summatory_bruteforce_table"),
    "experiments": ("GridSpec", "residual_series", "fit_loglog", "cw_slope_test"),
}


def load() -> tuple[str, SimpleNamespace]:
    """Import the library submodules; return the import path taken and the modules."""
    package = SRC / "cwlab"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no cwlab sources at {package}")
    sys.path.insert(0, str(SRC))
    try:
        importlib.import_module("cwlab")
        import_path = "package"
    except ImportError:
        stub = types.ModuleType("cwlab")
        stub.__path__ = [str(package)]
        sys.modules["cwlab"] = stub
        import_path = "stub"
    modules = SimpleNamespace(
        **{name: importlib.import_module(f"cwlab.{name}") for name in SUBMODULES}
    )
    for module in vars(modules).values():
        if Path(module.__file__).resolve().parent != package.resolve():
            raise ImportError(f"{module.__name__} loaded from {module.__file__}, not {package}")
    return import_path, modules


def api(modules: SimpleNamespace) -> SimpleNamespace:
    """The namespace of public library names the workloads call."""
    return SimpleNamespace(
        **{
            name: getattr(getattr(modules, module), name)
            for module, names in API.items()
            for name in names
        }
    )


def metadata(import_path: str, seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "import_path": import_path,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "CWLAB_THREADS": os.environ.get("CWLAB_THREADS"),
        "seed": seed,
    }
