import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcl"
ALLOWED = {"numpy", "mvcl"}


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules imported by ``source`` that are neither the standard library, numpy nor mvcl."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside mvcl
        found += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names | ALLOWED]
    return found


def test_guard_flags_a_foreign_import():
    assert _foreign_imports("import os\nfrom numpy import linalg\nfrom . import loss") == []
    assert _foreign_imports("import scipy.linalg\ndef f():\n    from pandas import DataFrame") == [
        "scipy.linalg", "pandas"]


def test_library_imports_only_stdlib_numpy_and_itself():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {f.name: _foreign_imports(f.read_text()) for f in files}
    assert {name: mods for name, mods in foreign.items() if mods} == {}
