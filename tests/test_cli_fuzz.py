"""Fuzz the CLI at its file and flag boundary.

Each example starts from files that ``mvcl synth`` and ``save_model`` write and
from a valid ``--config``, mutates one of them (a key dropped, a value of
another type, deep nesting, NaN, Infinity or 0, a list of the wrong length, a
cell or row dropped, the text truncated), and runs one subcommand in-process
through ``mvcl.cli.main`` with at most a few iterations; ``synth`` and
``gradcheck``, which read no file, get one flag's valid value replaced instead.
Whatever the input, the exit code is a documented one, no exception escapes
and stderr holds at most one line. Other examples draw ``--out`` or
``--report`` from the command's own input files and other outputs, spelled
plainly, through '..' or through a symlink: each must exit 2 in one line that
names the flag, and leave every file as it was.
"""

import contextlib
import copy
import io
import json
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings, strategies as st

from mvcl.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}
# Stand-ins that json.dumps cannot write, swapped in as text after it has written the rest.
TEXT_VALUES = {
    '"<deep>"': "[" * 100_000 + "]" * 100_000,
    '"<digits>"': "1" + "0" * 5000,
}
JSON_VALUES = [None, True, "x", [], {}, [[1.0]], 0, -1, 0.0, 2.5, 10**400, float("nan"), float("inf"),
               -float("inf"), *(json.loads(k) for k in TEXT_VALUES)]
CELLS = ["nan", "inf", "-Infinity", "0", "", "x", "-1", "1.5", "1e999", "99999999999999999999", "1" * 5000]
CONFIG = {
    "schema_version": 1,
    "hyper": {"d": 2, "alpha": 0.5, "beta": 1.0, "sigma1": 0.2, "sigma2": 0.2, "sigma3": 0.2,
              "fea_include_self_view": True},
    "adam": {"gamma": 0.01, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8},
    "train": {"max_iters": 3, "tol": 1e-3, "seed": 1},
    "preprocess": {"center": True, "unit_variance": True},
}


def _run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The unmutated files: a synth data directory, a model saved by ``mvcl train`` and a config."""
    root = tmp_path_factory.mktemp("seeds")
    data = root / "data"
    assert _run("synth", "--classes", "2", "--per-class", "4", "--dims", "5,4", "--shared", "1",
                "--specific", "1", "--redundant", "1", "--seed", "3", "--out", data)[0] == 0
    views = f"{data}/view1.csv,{data}/view2.csv"
    assert _run("train", "--views", views, "--d", "2", "--unit-variance", "--max-iters", "2",
                "--out", root / "model.json")[0] == 0
    files = {f"data/{p.name}": p.read_text() for p in data.glob("*.csv")}
    return files | {"model.json": (root / "model.json").read_text(), "config.json": json.dumps(CONFIG)}


def _paths(obj, path=()):
    """The path of every value inside a JSON value, the value itself first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


@st.composite
def mutated_json(draw, text: str) -> str:
    obj = json.loads(text)
    op = draw(st.sampled_from(["drop", "swap", "resize", "truncate"]))
    if op == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    path = draw(st.sampled_from(list(_paths(obj))[1:]))
    parent, key = reduce(getitem, path[:-1], obj), path[-1]
    value = parent[key]
    if op == "drop":
        del parent[key]
    elif op == "resize" and isinstance(value, list) and value:
        parent[key] = value[:-1] if draw(st.booleans()) else value + [copy.deepcopy(value[-1])]
    else:
        parent[key] = draw(st.sampled_from(JSON_VALUES))
    out = json.dumps(obj)
    for stand_in, raw in TEXT_VALUES.items():
        out = out.replace(stand_in, raw)
    return out


@st.composite
def mutated_csv(draw, text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    op = draw(st.sampled_from(["cell", "drop_cell", "drop_row", "truncate"]))
    if op == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    if op == "cell":
        rows[i][j] = draw(st.sampled_from(CELLS))
    elif op == "drop_cell":
        del rows[i][j]
    else:
        del rows[i]
    return "".join(",".join(r) + "\n" for r in rows)


def _mutate(draw, seeds: dict, names: list[str]) -> dict:
    """``seeds`` with one of ``names`` mutated."""
    name = draw(st.sampled_from(names))
    mutate = mutated_json if name.endswith(".json") else mutated_csv
    return seeds | {name: draw(mutate(seeds[name]))}


def _write(root, files: dict) -> None:
    (root / "data").mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (root / name).write_text(text)


# synth and gradcheck read no file: an example replaces one of their valid flags' values instead.
FLAGS = {
    "synth": {"--classes": "2", "--per-class": "4", "--dims": "5,4", "--shared": "1", "--specific": "1",
              "--redundant": "1", "--noise": "1.0", "--seed": "3"},
    "gradcheck": {"--seed": "0", "--h": "1e-5", "--views": "2", "--n": "4", "--dims": "6,5", "--d": "3",
                  "--alpha": "1", "--beta": "1", "--sigma": "0.1"},
}
FLOAT_FLAGS = {"--noise", "--h", "--alpha", "--beta", "--sigma"}
INTS = ["-1", "0", "1", "7"]  # small, so that no example allocates much
FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "1e308"]
DIMS = ["3", "0,4", "4,4,4", "", "x", "5,-4", "1,1"]
# Values that start with "-" but are no plain number to argparse, which reads them as a flag in the
# separate "--flag value" form. Drawn as often as the flag's own pool, so that the usage error is met.
DASHED = ["-inf", "-nan", "-1e3", "-x"]
# The files each command reads.
READS = {
    "synth": [],
    "gradcheck": [],
    "train": ["data/view1.csv", "data/view2.csv", "config.json"],
    "eval": ["data/view1.csv", "data/view2.csv", "data/labels.csv", "model.json"],
    "benchmark": ["data/view1.csv", "data/view2.csv", "data/labels.csv"],
}


def _argv(command: str, root, draw) -> list:
    data, views = root / "data", f"{root}/data/view1.csv,{root}/data/view2.csv"
    if command in FLAGS:
        flags = dict(FLAGS[command])
        flag = draw(st.sampled_from(sorted(flags)))
        pool = DIMS if flag == "--dims" else FLOATS if flag in FLOAT_FLAGS else INTS
        flags[flag] = draw(st.sampled_from(pool) | st.sampled_from(DASHED))
        out = ["--out", root / "synth"] if command == "synth" else []
        # "--noise=-inf" reads "-inf" as a value, "--noise -inf" as a missing one: a usage error
        joined = draw(st.booleans())
        return [command, *(a for k, v in flags.items() for a in ([f"{k}={v}"] if joined else [k, v])), *out]
    if command == "train":
        return ["train", "--views", views, "--config", root / "config.json", "--max-iters", 3,
                "--out", root / "m.json"]
    if command == "eval":
        labels = data / "labels.csv"
        return ["eval", "--model", root / "model.json", "--views", views, "--labels", labels,
                "--train-views", views, "--train-labels", labels]
    return ["benchmark", "--data", data, "--M", 2, "--repeats", 2, "--d-sweep", 2, "--max-iters", 3,
            "--ablate", "cmc", "--out", root / "report.csv"]


@pytest.mark.parametrize("command", list(READS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_survives_mutated_input(seeds, tmp_path_factory, command, data):
    root = tmp_path_factory.mktemp(command)
    files = _mutate(data.draw, seeds, READS[command]) if READS[command] else seeds
    _write(root, files)
    rc, err = _run(*_argv(command, root, data.draw))
    assert rc in EXIT_CODES
    assert err.count("\n") <= 1, err


# The output flags of the commands that write files. train writes --out and its report (--report, else --out with
# the suffix .report.json); benchmark writes --out and its JSON twin (--out with the suffix .json).
WRITES = {"train": ["--out", "--report"], "benchmark": ["--out"]}


def _spelled(draw, root, name: str) -> str:
    """A path to root/name as a user might spell it: plain, through a '..' or as a symlink to it."""
    path = root / name
    how = draw(st.sampled_from(["plain", "dotdot", "link"]))
    if how == "dotdot":
        return f"{path.parent}/../{path.parent.name}/{path.name}"
    if how == "link":
        link = root / f"link-{path.name}"
        if not link.is_symlink():
            link.symlink_to(path)
        return str(link)
    return str(path)


@pytest.mark.parametrize("command", list(WRITES))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_an_output_drawn_from_the_inputs_or_outputs_exits_2_and_changes_no_file(seeds, tmp_path_factory, command,
                                                                                 data):
    root = tmp_path_factory.mktemp(f"collide-{command}")
    _write(root, seeds)
    argv = _argv(command, root, data.draw)
    # --out at an input, or (train) --report at an input or at --out, or (benchmark) --out at its own JSON twin
    taken = list(READS[command])
    flag = data.draw(st.sampled_from(WRITES[command]))
    if command == "benchmark":
        taken += ["report.json", "data/r.json"]
    elif flag == "--report":
        taken += [argv[argv.index("--out") + 1].name]
    name = data.draw(st.sampled_from(taken))
    if flag == "--report":
        argv += ["--report", _spelled(data.draw, root, name)]
    else:
        argv[-1] = _spelled(data.draw, root, name)
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    rc, err = _run(*argv)
    assert rc == 2 and err.count("\n") == 1 and flag in err and "overwrite" in err, (argv, err)
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before
