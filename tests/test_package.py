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
