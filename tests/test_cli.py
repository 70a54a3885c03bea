import json

import numpy as np
import pytest

import mvcl.evaluate
from mvcl import (
    AdamParams,
    HyperParams,
    ProjectionSet,
    RecoverySet,
    TrainConfig,
    load_model,
    load_views,
    save_model,
)
from mvcl.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    rc = run_cli("synth", "--classes", "3", "--per-class", "10", "--dims", "12,10",
                 "--shared", "2", "--specific", "2", "--redundant", "2",
                 "--noise", "1.0", "--seed", "1", "--out", str(out))
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_expected_shapes(tmp_path):
    out = tmp_path / "d"
    assert run_cli("synth", "--classes", "3", "--per-class", "10", "--dims", "20,20",
                   "--out", str(out)) == 0
    ds = load_views([out / "view1.csv", out / "view2.csv"], out / "labels.csv")
    assert ds.n == 30 and ds.dims == (20, 20)
    spec = json.loads((out / "spec.json").read_text())
    assert spec["classes"] == 3 and spec["dims"] == [20, 20]


def test_synth_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--classes", "2", "--per-class", "5", "--dims", "8,8",
            "--shared", "2", "--specific", "1", "--redundant", "1",
            "--seed", "3", "--out"]
    assert run_cli(*args, str(a)) == 0
    assert run_cli(*args, str(b)) == 0
    for name in ("view1.csv", "view2.csv", "labels.csv", "spec.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_invalid_spec_exits_2(tmp_path):
    assert run_cli("synth", "--classes", "0", "--out", str(tmp_path / "x")) == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_defaults_echoed_in_report(synth_dir, tmp_path):
    model = tmp_path / "model.json"
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    assert run_cli("train", "--views", views, "--d", "3", "--max-iters", "20",
                   "--out", str(model)) == 0
    report = json.loads(model.with_suffix(".report.json").read_text())
    hp = report["config"]["hp"]
    assert hp["alpha"] == 1.0 and hp["beta"] == 1.0
    assert hp["sigma1"] == hp["sigma2"] == hp["sigma3"] == 0.1
    adam = report["config"]["adam"]
    assert (adam["gamma"], adam["beta1"], adam["beta2"], adam["epsilon"]) == (
        0.001, 0.9, 0.999, 1e-8)
    assert report["config"]["tol"] == 1e-3
    assert report["variant"] == "triple-head"
    assert report["preprocessing"] == {"center": True, "unit_variance": False}


def test_train_ablation_label(synth_dir, tmp_path):
    model = tmp_path / "m.json"
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    assert run_cli("train", "--views", views, "--d", "2", "--alpha", "0",
                   "--beta", "0", "--max-iters", "5", "--out", str(model)) == 0
    report = json.loads(model.with_suffix(".report.json").read_text())
    assert report["variant"] == "CMC-ablation"


def test_train_is_reproducible(synth_dir, tmp_path):
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("train", "--views", views, "--d", "2", "--max-iters", "15",
                       "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_requires_dimension(synth_dir, tmp_path):
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    assert run_cli("train", "--views", views, "--out", str(tmp_path / "m.json")) == 2


def test_train_with_config_file(synth_dir, tmp_path):
    cfg = {
        "schema_version": 1,
        "hyper": {"d": 2, "alpha": 0.5},
        "train": {"max_iters": 8, "tol": 1e-3, "seed": 4},
        "preprocess": {"center": True, "unit_variance": False},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    model = tmp_path / "m.json"
    assert run_cli("train", "--views", views, "--config", str(cfg_path),
                   "--out", str(model)) == 0
    report = json.loads(model.with_suffix(".report.json").read_text())
    assert report["config"]["hp"]["alpha"] == 0.5
    assert report["config"]["seed"] == 4
    assert report["iterations"] <= 8


def test_train_small_temperature_exits_0(synth_dir, tmp_path):
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    model = tmp_path / "m.json"
    assert run_cli("train", "--views", views, "--d", "2", "--sigma", "0.001",
                   "--max-iters", "5", "--out", str(model)) == 0
    report = json.loads(model.with_suffix(".report.json").read_text())
    assert all(np.isfinite(report["losses"]))


@pytest.mark.parametrize("flags", [
    ("--sigma", "inf"), ("--sigma", "nan"), ("--sigma", "1e-320"),
    ("--alpha", "nan"), ("--beta", "inf"), ("--tol", "nan"),
], ids=lambda f: f"{f[0][2:]}={f[1]}")
def test_train_nonfinite_hyperparameter_exits_2(synth_dir, tmp_path, capsys, flags):
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    assert run_cli("train", "--views", views, "--d", "2", *flags,
                   "--max-iters", "5", "--out", str(tmp_path / "m.json")) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("bad", [
    {"hyper": 5},
    {"hyper": {"d": "abc"}},
    {"hyper": {"d": 2.5}},
    {"hyper": {"d": 2}, "d_sweep": 5},
    {"hyper": {"d": 2}, "train": {"max_iters": "7"}},
], ids=["hyper-not-object", "d-string", "d-float", "d_sweep-not-list", "max_iters-string"])
def test_train_config_type_error_exits_2(synth_dir, tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, **bad}))
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    assert run_cli("train", "--views", views, "--config", str(cfg_path),
                   "--out", str(tmp_path / "m.json")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: config")


def test_train_divergence_exits_4(synth_dir, tmp_path):
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    assert run_cli("train", "--views", views, "--d", "2", "--alpha", "1e308",
                   "--max-iters", "5", "--out", str(tmp_path / "m.json")) == 4


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _train_model(synth_dir, tmp_path, *extra):
    model = tmp_path / "model.json"
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    assert run_cli("train", "--views", views, "--d", "3", "--max-iters", "40",
                   "--out", str(model), *extra) == 0
    return model, views


def test_eval_training_set_scores_100(synth_dir, tmp_path, capsys):
    model, views = _train_model(synth_dir, tmp_path)
    labels = str(synth_dir / "labels.csv")
    assert run_cli("eval", "--model", str(model), "--views", views, "--labels", labels,
                   "--train-views", views, "--train-labels", labels,
                   "--strategy", "per-view") == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "accuracy" in l]
    assert len(lines) == 3  # two views plus their mean
    assert all("100.00%" in l for l in lines)


def test_eval_fused_strategy(synth_dir, tmp_path, capsys):
    model, views = _train_model(synth_dir, tmp_path)
    labels = str(synth_dir / "labels.csv")
    assert run_cli("eval", "--model", str(model), "--views", views, "--labels", labels,
                   "--train-views", views, "--train-labels", labels,
                   "--strategy", "fused") == 0
    assert "II accuracy=" in capsys.readouterr().out


def test_eval_dim_mismatch_exits_2(synth_dir, tmp_path):
    other = tmp_path / "other"
    assert run_cli("synth", "--classes", "2", "--per-class", "4", "--dims", "9,9",
                   "--shared", "2", "--specific", "1", "--redundant", "0",
                   "--out", str(other)) == 0
    model, _ = _train_model(synth_dir, tmp_path)
    views = f"{other}/view1.csv,{other}/view2.csv"
    labels = str(other / "labels.csv")
    assert run_cli("eval", "--model", str(model), "--views", views, "--labels", labels,
                   "--train-views", views, "--train-labels", labels) == 2


def test_eval_zero_projection_collapses_to_first_label(synth_dir, tmp_path, capsys):
    # all-zero projections put every sample at the origin; ties resolve to
    # the lowest training index, so every query gets that sample's class
    ds = load_views([synth_dir / "view1.csv", synth_dir / "view2.csv"],
                    synth_dir / "labels.csv")
    P = ProjectionSet(tuple(np.zeros((D, 2)) for D in ds.dims))
    F = RecoverySet(tuple(np.zeros((2, D)) for D in ds.dims))
    model = tmp_path / "zero.json"
    save_model(model, P, F, None, TrainConfig(hp=HyperParams(d=2)))
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    labels = str(synth_dir / "labels.csv")
    assert run_cli("eval", "--model", str(model), "--views", views, "--labels", labels,
                   "--train-views", views, "--train-labels", labels,
                   "--strategy", "fused") == 0
    out = capsys.readouterr().out
    first_class_share = 100.0 * np.mean(ds.labels == ds.labels[0])
    assert f"II accuracy={first_class_share:.2f}%" in out


# A valid model for synth_dir's two views (12 and 10 features) with d = 1.
MODEL = {
    "schema_version": 1, "V": 2, "d": 1, "dims": [12, 10],
    "P": [[[1.0]] * 12, [[1.0]] * 10], "F": [[[1.0] * 12], [[1.0] * 10]],
    "preprocessing": None,
    "config": {"hp": {"d": 1}, "adam": {}, "max_iters": 1, "tol": 0.001, "seed": 0},
}
# A valid preprocessing record for MODEL.
STATS = {"center": True, "unit_variance": True, "means": [[0.0] * 12, [0] * 10],
         "stds": [[1.0] * 12, [2.0] * 10]}


def _with_stats(**changes):
    return MODEL | {"preprocessing": STATS | changes}


@pytest.mark.parametrize("payload,message", [
    ({"schema_version": 1}, "lacks key 'P'"),
    ({"schema_version": 1, "P": 5}, "malformed model file"),
    (MODEL | {"dims": 5}, "malformed model file"),
    (MODEL | {"dims": None}, "malformed model file"),
    (MODEL | {"config": MODEL["config"] | {"hp": {"d": 2.5}}}, "'config.hp.d' must be int"),
    (MODEL | {"config": MODEL["config"] | {"max_iters": "7"}}, "'config.max_iters' must be int"),
    (MODEL | {"config": MODEL["config"] | {"seed": True}}, "'config.seed' must be int"),
    (MODEL | {"config": MODEL["config"] | {"tol": "0.5"}}, "'config.tol' must be float"),
    (MODEL | {"preprocessing": "abc"}, "'preprocessing' must be an object or null"),
    (_with_stats(scale=2.0), "'preprocessing' has unknown keys ['scale']"),
    (MODEL | {"preprocessing": {"center": True}}, "lacks key 'unit_variance'"),
    (_with_stats(center="no"), "'preprocessing.center' must be bool, got 'no'"),
    (_with_stats(unit_variance=[]), "'preprocessing.unit_variance' must be bool, got []"),
    (_with_stats(center=1), "'preprocessing.center' must be bool, got 1"),
    (_with_stats(means="abc"), "'preprocessing.means' must be 2 lists of numbers, of lengths [12, 10]"),
    (_with_stats(means=[[0.0] * 12]), "'preprocessing.means' must be 2 lists"),
    (_with_stats(means=[[0.0] * 12, [0.0] * 9]), "'preprocessing.means' must be 2 lists"),
    (_with_stats(means=[[0.0] * 12, ["0"] * 10]), "'preprocessing.means' must be 2 lists"),
    (_with_stats(means=[[0.0] * 12, [True] * 10]), "'preprocessing.means' must be 2 lists"),
    (_with_stats(stds=[[1.0] * 12, None]), "'preprocessing.stds' must be 2 lists"),
    (_with_stats(stds=5), "'preprocessing.stds' must be 2 lists"),
    (MODEL | {"config": MODEL["config"] | {"seed": -1}}, "seed must be >= 0, got -1"),
    (MODEL | {"P": [[[1.0]] * 11 + [[1.0, 2.0]], [[1.0]] * 10]}, "malformed model file: 'P' must be a list"),
    (MODEL | {"P": [[[True]] * 12, [[1.0]] * 10]}, "malformed model file: 'P' must be"),
    (MODEL | {"F": [[["1.0"] * 12], [[1.0] * 10]]}, "malformed model file: 'F' must be"),
    (MODEL | {"F": 5}, "malformed model file: 'F' must be"),
    (_with_stats(stds=[[0.0] + [1.0] * 11, [1.0] * 10]), "'preprocessing.stds' must hold finite numbers > 0"),
    (_with_stats(stds=[[1.0] * 12, [-2.0] * 10]), "'preprocessing.stds' must hold finite numbers > 0"),
    (_with_stats(stds=[[float("inf")] * 12, [1.0] * 10]), "'preprocessing.stds' must hold finite numbers > 0"),
    (_with_stats(means=[[float("nan")] * 12, [0.0] * 10]), "'preprocessing.means' must hold finite numbers"),
    (_with_stats(means=[[0.0] * 12, [-float("inf")] * 10]), "'preprocessing.means' must hold finite numbers"),
    (MODEL | {"V": 7}, "'V' is 7, but 'P' gives 2"),
    (MODEL | {"V": "two"}, "'V' must be int, got 'two'"),
    (MODEL | {"bogus": 1}, "has unknown keys ['bogus']"),
    (MODEL | {"d": True}, "'d' must be int, got True"),
    (MODEL | {"dims": [12.0, 10.0]}, "'dims' must be a list of ints, got [12.0, 10.0]"),
])
def test_eval_incomplete_model_exits_2(synth_dir, tmp_path, capsys, payload, message):
    model = tmp_path / "partial.json"
    model.write_text(json.dumps(payload))
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    labels = str(synth_dir / "labels.csv")
    assert run_cli("eval", "--model", str(model), "--views", views, "--labels", labels,
                   "--train-views", views, "--train-labels", labels) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("command", ["eval", "train"])
def test_deeply_nested_json_exits_2(synth_dir, tmp_path, capsys, command):
    # deeper than the JSON parser's recursion limit: a model file, or a config file's 'hyper'
    path = tmp_path / "deep.json"
    deep = "[" * 100_000 + "]" * 100_000
    path.write_text(deep if command == "eval" else f'{{"schema_version": 1, "hyper": {deep}}}')
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    labels = str(synth_dir / "labels.csv")
    argv = {
        "eval": ["--model", str(path), "--views", views, "--labels", labels,
                 "--train-views", views, "--train-labels", labels],
        "train": ["--views", views, "--config", str(path), "--out", str(tmp_path / "m.json")],
    }[command]
    assert run_cli(command, *argv) == 2
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to read\n"


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("text, why", [
    (b'{"d": 2,}', "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 9 (char 8)"),
    (b'{"d": 1' + b"0" * 5000 + b"}", "a JSON integer has too many digits"),
    (b'{"d": "\xff"}', "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
], ids=["trailing-comma", "5001-digits", "not-utf-8"])
def test_unreadable_json_names_its_file(synth_dir, tmp_path, capsys, command, text, why):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    labels = str(synth_dir / "labels.csv")
    argv = {
        "eval": ["--model", str(path), "--views", views, "--labels", labels,
                 "--train-views", views, "--train-labels", labels],
        "train": ["--views", views, "--config", str(path), "--out", str(tmp_path / "m.json")],
    }[command]
    assert run_cli(command, *argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {why}\n"


def test_eval_model_with_preprocessing_record(synth_dir, tmp_path, capsys):
    # STATS itself loads (an int is a number), with or without stds.
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    labels = str(synth_dir / "labels.csv")
    for payload in (_with_stats(), _with_stats(unit_variance=False, stds=None)):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        assert run_cli("eval", "--model", str(model), "--views", views, "--labels", labels,
                       "--train-views", views, "--train-labels", labels) == 0
    assert "accuracy=" in capsys.readouterr().out


HUGE = 10**400  # a JSON integer, too large for a float


@pytest.mark.parametrize("command,payload,key", [
    ("train", {"schema_version": 1, "hyper": {"d": 2, "alpha": HUGE}}, "'hyper.alpha'"),
    ("train", {"schema_version": 1, "hyper": {"d": 2, "sigma1": HUGE}}, "'hyper.sigma1'"),
    ("eval", MODEL | {"P": [[[HUGE]] + [[1.0]] * 11, [[1.0]] * 10]}, "'P'"),
    ("eval", _with_stats(means=[[HUGE] + [0.0] * 11, [0.0] * 10]), "'preprocessing.means'"),
    ("eval", MODEL | {"config": MODEL["config"] | {"adam": {"gamma": HUGE}}}, "'config.adam.gamma'"),
], ids=["config-alpha", "config-sigma1", "model-P", "model-means", "model-gamma"])
def test_integer_past_float_range_exits_2(synth_dir, tmp_path, capsys, command, payload, key):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    labels = str(synth_dir / "labels.csv")
    argv = {
        "eval": ["--model", str(path), "--views", views, "--labels", labels,
                 "--train-views", views, "--train-labels", labels],
        "train": ["--views", views, "--config", str(path), "--out", str(tmp_path / "m.json")],
    }[command]
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err


# Flag values with which the CLI fuzzer (tests/test_cli_fuzz.py) found numpy's overflow warnings
# printed before the error line.
@pytest.mark.parametrize("argv", [
    ["synth", "--noise", "1e308"],
    ["gradcheck", "--alpha", "1e308"],
    ["gradcheck", "--h", "1e308"],
], ids=["synth-noise", "gradcheck-alpha", "gradcheck-h"])
def test_overflowing_flag_exits_2_in_one_line(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path / "s")] if argv[0] == "synth" else []
    assert run_cli(*argv, *out) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("argv, text", [
    (["--noise", "1e308"], "error: noise_std = 1e+308 overflows view 0's noise"),
    (["--noise=inf"], "error: noise_std must be finite and > 0, got inf"),
])
def test_synth_noise_past_float_range_names_noise_std(tmp_path, capsys, argv, text):
    assert run_cli("synth", *argv, "--out", str(tmp_path / "s")) == 2
    assert capsys.readouterr().err == text + "\n"


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--noise", "-inf"], "--noise"),
    (["gradcheck", "--alpha", "-inf"], "--alpha"),
    (["synth", "--classes", "two"], "--classes"),
    (["synth", "--bogus", "1"], "--bogus"),
    (["benchmark", "--M", "2"], "--data"),
], ids=["value-like-a-flag", "alpha-value-like-a-flag", "not-an-int", "unknown-flag", "missing-flag"])
def test_usage_error_returns_2_in_one_line_naming_the_flag(tmp_path, capsys, argv, flag):
    # argparse's own handling prints the usage and an error line, then raises SystemExit(2) out of main
    out = ["--out", str(tmp_path / "s")] if argv[0] == "synth" else []
    assert run_cli(*argv, *out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--help")
    assert exc.value.code == 0 and "--noise" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["eval", "benchmark"])
def test_label_past_int64_exits_2(synth_dir, tmp_path, capsys, command):
    # found by the CLI fuzzer: the label escaped as an OverflowError
    model, views = _train_model(synth_dir, tmp_path)
    labels = synth_dir / "labels.csv"
    labels.write_text("99999999999999999999\n" + labels.read_text().split("\n", 1)[1])
    argv = {
        "eval": ["--model", str(model), "--views", views, "--labels", str(labels),
                 "--train-views", views, "--train-labels", str(labels)],
        "benchmark": ["--data", str(synth_dir), "--M", "2", "--repeats", "1", "--d-sweep", "2",
                      "--max-iters", "2", "--out", str(tmp_path / "r.csv")],
    }[command]
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {labels}: row 1: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_default_passes(capsys):
    assert run_cli("gradcheck") == 0
    out = capsys.readouterr().out
    assert out.count("max_rel_err") == 4  # P and F blocks for two views


def test_gradcheck_huge_step_fails(capsys):
    assert run_cli("gradcheck", "--h", "10.0") == 5


def test_gradcheck_beta_zero_reports_zero_f_error(capsys):
    assert run_cli("gradcheck", "--beta", "0") == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("F["):
            assert "0.000e+00" in line


def test_gradcheck_flag_validation():
    assert run_cli("gradcheck", "--views", "3", "--dims", "6,5") == 2


@pytest.mark.parametrize("h", ["nan", "inf", "0", "-1"])
def test_gradcheck_bad_step_exits_2(capsys, h):
    assert run_cli("gradcheck", "--h", h) == 2
    assert capsys.readouterr().err == "error: h must be finite and > 0\n"


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_single_repeat_has_zero_std(synth_dir, tmp_path, capsys):
    out = tmp_path / "rep.csv"
    assert run_cli("benchmark", "--data", str(synth_dir), "--M", "4",
                   "--repeats", "1", "--d-sweep", "3", "--max-iters", "20",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "label,mean_acc,std_acc"
    assert len(lines) == 5
    for line in lines[1:]:
        assert float(line.split(",")[2]) == 0.0
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["report"]["config"]["d_sweep"] == [3]


def test_benchmark_with_ablation(synth_dir, tmp_path):
    out = tmp_path / "rep.csv"
    assert run_cli("benchmark", "--data", str(synth_dir), "--M", "4",
                   "--repeats", "2", "--d-sweep", "3", "--max-iters", "20",
                   "--ablate", "cmc", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("diff_mean")
    payload = json.loads(out.with_suffix(".json").read_text())
    assert "ablation" in payload
    ab_hp = payload["ablation"]["config"]["train"]["hp"]
    assert ab_hp["alpha"] == 0.0 and ab_hp["beta"] == 0.0


def test_benchmark_bad_thread_count_names_the_variable(synth_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MVCL_THREADS", "abc")
    assert run_cli("benchmark", "--data", str(synth_dir), "--M", "4", "--repeats", "1",
                   "--d-sweep", "3", "--max-iters", "2", "--out", str(tmp_path / "r.csv")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MVCL_THREADS" in err and "'abc'" in err


@pytest.mark.parametrize("command, flag, text", [
    ("synth", "--dims", "5,q"),
    ("gradcheck", "--dims", "a,b"),
    ("benchmark", "--d-sweep", "5,x"),
])
def test_integer_list_flag_names_itself(synth_dir, tmp_path, capsys, command, flag, text):
    out = tmp_path / "out"
    rest = {
        "synth": ["--out", str(out)],
        "gradcheck": [],
        "benchmark": ["--data", str(synth_dir), "--M", "4", "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert run_cli(command, flag, text, *rest) == 2
    assert capsys.readouterr().err == f"error: {flag} must be a comma list of integers, got {text!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("train", "--seed"),
    ("synth", "--seed"),
    ("gradcheck", "--seed"),
    ("benchmark", "--train-seed"),
])
def test_negative_seed_names_itself(synth_dir, tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    rest = {
        "train": ["--views", f"{synth_dir}/view1.csv,{synth_dir}/view2.csv", "--d", "3", "--out", str(out)],
        "synth": ["--out", str(out)],
        "gradcheck": [],
        "benchmark": ["--data", str(synth_dir), "--M", "4", "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert run_cli(command, flag, "-1", *rest) == 2
    # benchmark also has a split seed, --seed, which may be negative
    name = flag if command == "benchmark" else "seed"
    assert capsys.readouterr().err == f"error: {name} must be >= 0, got -1\n"
    assert not out.exists()


def test_benchmark_split_seed_may_be_negative(synth_dir, tmp_path):
    # the split seed is mixed to 64 bits before it reaches numpy
    assert run_cli("benchmark", "--data", str(synth_dir), "--M", "4", "--repeats", "1",
                   "--d-sweep", "3", "--max-iters", "2", "--seed", "-1", "--out", str(tmp_path / "r.csv")) == 0


def test_benchmark_io_failure_exits_3(synth_dir, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "rep.csv"
    assert run_cli("benchmark", "--data", str(synth_dir), "--M", "4",
                   "--repeats", "1", "--d-sweep", "3", "--max-iters", "5",
                   "--out", str(missing)) == 3


@pytest.mark.parametrize("where", ["a directory", "under a missing directory"])
def test_benchmark_checks_out_before_the_first_fit(synth_dir, tmp_path, capsys, monkeypatch, where):
    fits, train = [], mvcl.evaluate.train

    def counted(*args, **kwargs):
        fits.append(args)
        return train(*args, **kwargs)

    monkeypatch.setattr(mvcl.evaluate, "train", counted)
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "rep.csv"
    assert run_cli("benchmark", "--data", str(synth_dir), "--M", "4", "--repeats", "1",
                   "--d-sweep", "3", "--max-iters", "2", "--out", str(out)) == 3
    assert capsys.readouterr().err.count("\n") == 1 and fits == []


def test_benchmark_pure_noise_is_at_chance(tmp_path):
    # no shared, no specific, no redundant signal: accuracy should hover
    # around 1/classes regardless of training
    accs = []
    for seed in range(5):
        data = tmp_path / f"noise{seed}"
        assert run_cli("synth", "--classes", "3", "--per-class", "10",
                       "--dims", "10,10", "--shared", "0", "--specific", "0",
                       "--redundant", "0", "--seed", str(seed),
                       "--out", str(data)) == 0
        out = tmp_path / f"rep{seed}.csv"
        assert run_cli("benchmark", "--data", str(data), "--M", "4",
                       "--repeats", "2", "--d-sweep", "3", "--max-iters", "15",
                       "--out", str(out)) == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        mean_row = [r for r in payload["report"]["rows"] if r["label"] == "Mean"][0]
        accs.append(mean_row["mean_acc"])
    pooled = float(np.mean(accs))
    assert abs(pooled - 100.0 / 3.0) < 12.0


# ---------------------------------------------------------------------------
# train --config
# ---------------------------------------------------------------------------

def _train_with_config(synth_dir, tmp_path, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    views = f"{synth_dir}/view1.csv,{synth_dir}/view2.csv"
    return run_cli("train", "--views", views, "--config", str(cfg_path),
                   "--out", str(tmp_path / "m.json"))


@pytest.mark.parametrize("cfg", [
    {"schema_version": 1, "hyper": {"d": 2}, "bogus": 1},
    {"schema_version": 1, "hyper": {"d": 2, "zap": 3}},
    {"schema_version": 1, "hyper": {"d": 2}, "split": {"M": 6}},
    {"schema_version": 1, "hyper": {"d": 2}, "preprocess": {"means": []}},
], ids=["top-level", "in-hyper", "split", "in-preprocess"])
def test_config_file_rejects_unknown_keys(synth_dir, tmp_path, capsys, cfg):
    assert _train_with_config(synth_dir, tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown keys" in err
    assert not (tmp_path / "m.json").exists()


def test_config_file_requires_schema_version(synth_dir, tmp_path, capsys):
    assert _train_with_config(synth_dir, tmp_path, {"hyper": {"d": 2}}) == 2
    assert "schema_version" in capsys.readouterr().err


def test_config_file_values_reach_the_model(synth_dir, tmp_path):
    assert _train_with_config(synth_dir, tmp_path, {
        "schema_version": 1,
        "hyper": {"d": 4, "alpha": 0.25, "fea_include_self_view": False},
        "adam": {"gamma": 0.01},
        "train": {"max_iters": 5, "tol": 1e-4, "seed": 2},
        "preprocess": {"center": False, "unit_variance": True},
    }) == 0
    _, _, stats, cfg = load_model(tmp_path / "m.json")
    assert cfg == TrainConfig(
        hp=HyperParams(d=4, alpha=0.25, fea_include_self_view=False),
        adam=AdamParams(gamma=0.01), max_iters=5, tol=1e-4, seed=2,
    )
    assert (stats.center, stats.unit_variance) == (False, True)


def test_config_file_revalidates_invariants(synth_dir, tmp_path, capsys):
    assert _train_with_config(synth_dir, tmp_path, {"schema_version": 1, "hyper": {"d": 0}}) == 2
    assert capsys.readouterr().err == "error: d must be >= 1\n"
