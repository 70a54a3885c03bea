import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcl"
# Public names that only tests and perfbench read: each head's loss alone, which the acceptance suite imports
# and perfbench's tracer times, and ``data.split``, which perfbench's ``_protocol_grad_probe`` and tests read until
# they split with ``split_indices`` and ``take`` as ``benchmark`` does.
ALLOWED = {"loss.sample_level_loss", "loss.feature_level_loss", "loss.recovery_level_loss", "data.split"}


def _unread(sources: dict[str, str]) -> set[str]:
    """``module.name`` of each top-level function and class in ``sources`` (file name -> text) that no
    top-level statement of any file reads: code only tests (or perfbench) use. An import is no read, so a
    name that ``__init__.py`` exports is flagged too unless the library reads it.

    Reads are loaded names, so a name read anywhere counts for every definition of it; an attribute is no read
    (``np.split`` does not read ``data.split``), and a definition's reads of its own name do not count.
    """
    defined, reads = set(), set()
    for file, text in sources.items():
        module = file.removesuffix(".py")
        for top in ast.parse(text).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None:
                defined.add((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    reads.add(node.id)
    return {f"{module}.{name}" for module, name in defined if name not in reads}


def test_guard_flags_code_that_only_tests_read():
    sources = {
        "__init__.py": "from .a import public, exported\n",
        "a.py": (
            "def public():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def only_tests(k):\n    return only_tests(k - 1) if k else 0\n"
            "class Unused:\n    pass\n"
            "def exported():\n    return 2\n"
        ),
        # an import is no read, nor is an attribute of the same name
        "b.py": "from .a import only_tests\nVALUE = public() + np.only_tests(1)\n",
    }
    assert _unread(sources) == {"a.only_tests", "a.Unused", "a.exported"}


def test_every_library_definition_is_read_by_the_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert _unread({f.name: f.read_text() for f in files}) == ALLOWED
