import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import string_sausage as ss

ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_every_name_the_demos_and_tests_use():
    """The package namespace is trimmed to what callers reach as `ss.<name>`."""
    files = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("tests/*.py"))
    used = {name for f in files for name in re.findall(r"\bss\.(\w+)", f.read_text(encoding="utf-8"))}
    assert {"simulate", "ModelParams", "annealed_hard"} <= used
    assert sorted(name for name in used if not hasattr(ss, name)) == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_import_check_sees_a_dropped_name():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == ["math", "path"]


def test_library_modules_use_every_import():
    # the package's __init__ imports names to export them, not to use them
    modules = [f for f in sorted(ROOT.glob("src/string_sausage/*.py")) if f.name != "__init__.py"]
    assert modules
    unused = {f.name: unused_imports(f.read_text(encoding="utf-8")) for f in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def callers(source: str, hit) -> list[str]:
    """Functions (module level: `<module>`) holding a node for which `hit` is true."""
    tree = ast.parse(source)
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if hit(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def reaches_fft(node) -> bool:
    """The node names `np.fft` / `numpy.fft` or imports from an fft module."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "fft"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ) or (isinstance(node, ast.ImportFrom) and node.module and "fft" in node.module.split("."))


def builds_estimate(node) -> bool:
    """The node calls `SurvivalEstimate(...)`."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "SurvivalEstimate"
        or getattr(node.func, "attr", None) == "SurvivalEstimate"
    )


def test_fft_check_sees_a_second_caller():
    source = "import numpy as np\ndef a(x):\n    return np.fft.rfft(x)\ndef b(x):\n    return np.fft.irfft(x)\n"
    assert callers(source, reaches_fft) == ["a", "b"]


def test_only_grid_values_reaches_the_fft():
    # one field-evaluation path: coefficients reach the grid through spectral.grid_values
    reached = {
        (f.stem, name)
        for f in sorted(ROOT.glob("src/string_sausage/*.py"))
        for name in callers(f.read_text(encoding="utf-8"), reaches_fft)
    }
    assert reached == {("spectral", "grid_values")}


def test_estimate_check_sees_a_second_builder():
    source = (
        "def a(p):\n    return SurvivalEstimate(1.0, 0.0, 100, 'm', p)\n"
        "def b(p):\n    return survival.SurvivalEstimate(1.0, 0.0, 100, 'm', p)\n"
    )
    assert callers(source, builds_estimate) == ["a", "b"]


def test_only_the_estimator_body_builds_an_estimate():
    # one estimator body: every SurvivalEstimate comes out of survival._estimate
    builders = {
        (f.stem, name)
        for f in sorted(ROOT.glob("src/string_sausage/*.py"))
        for name in callers(f.read_text(encoding="utf-8"), builds_estimate)
    }
    assert builders == {("survival", "_estimate")}


# Runs in a fresh interpreter: imports the CLI, runs the four workload shapes
# of the benchmark and the commands that reach the voxel estimator and the
# diameter through `cli.main`, and reports each exit code with the scipy
# modules loaded so far.  With "blocked", every scipy import fails.
WORKLOAD_SHAPES = r"""
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
import string_sausage.cli as cli

def scipy_loaded():
    return sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None)

model = ["--d", "2", "--K", "16", "--M", "64", "--dt", "0.05", "--a", "0.3", "--eps-tail", "2e-3",
         "--T", "0.25", "--n", "100", "--threads", "1", "--seed", "5"]
shapes = {
    "hard": ["survival", "--hard", *model],
    "via_volume": ["survival", "--hard", "--via-volume", *model],
    "soft_env": ["survival", "--soft", "--env", sys.argv[2], *model],
    "run": ["run", "--config", sys.argv[3]],
    "simulate": ["simulate", "--M", "256", "--K", "64", "--seed", "7"],
    "voxel": ["sausage", "--method", "voxel", "--T", "0.24", "--seed", "5"],
    "diagnostics": ["diagnostics", "--M", "256", "--K", "64", "--seed", "7"],
}
report = {"import": scipy_loaded()}
for name, argv in shapes.items():
    with contextlib.redirect_stdout(io.StringIO()):
        report[name] = [cli.main(argv), scipy_loaded()]
print(json.dumps(report))
"""


def test_workload_shapes_and_cli_commands_load_numpy_only(tmp_path):
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"nu": 1.0, "box": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
                               "points": [[0.4, 0.1], [-0.5, 0.6], [1.2, -1.1]]}))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"experiment": "survival", "method": "hard_via_volume", "seed": 5,
                                 "n_replicas": 100, "T": [0.25], "d": 2, "K": 16, "M": 64,
                                 "dt": 0.05, "a": 0.3, "eps_tail": 2e-3, "threads": 1}))
    shapes = ("hard", "via_volume", "soft_env", "run", "simulate", "voxel", "diagnostics")
    want = {"import": [], **{name: [0, []] for name in shapes}}
    for mode in ("open", "blocked"):
        proc = subprocess.run([sys.executable, "-c", WORKLOAD_SHAPES, mode, str(env), str(sweep)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want, mode
