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
