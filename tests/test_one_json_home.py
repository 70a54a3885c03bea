import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcl"
# The library reads and writes JSON in one place each, so every file gets the same errors and layout.
JSON_HOMES = {"optim.read_json", "optim.write_json"}
JSON_CALLS = {"json.load", "json.loads", "json.dump", "json.dumps"}


def _json_callers(sources: dict[str, str]) -> set[str]:
    """``module.function`` of each function in ``sources`` (file name -> text) that calls a JSON_CALLS function."""
    found = set()
    for file, text in sources.items():
        module = file.removesuffix(".py")
        for top in ast.walk(ast.parse(text)):
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(top):
                f = node.func if isinstance(node, ast.Call) else None
                if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f"{f.value.id}.{f.attr}" in JSON_CALLS:
                    found.add(f"{module}.{top.name}")
    return found


def test_guard_flags_a_second_json_home():
    sources = {
        "optim.py": "def read_json(p):\n    return json.load(open(p))\n",
        "cli.py": "def _write(p, o):\n    with open(p, 'w') as fh:\n        json.dump(o, fh)\n",
        "data.py": "def spec(t):\n    def inner():\n        return json.loads(t)\n    return inner()\n",
    }
    assert _json_callers(sources) == {"optim.read_json", "cli._write", "data.spec", "data.inner"}


def test_only_read_json_and_write_json_touch_json():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert _json_callers({f.name: f.read_text() for f in files}) <= JSON_HOMES
