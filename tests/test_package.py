import ast
import re
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
