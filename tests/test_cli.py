import json

import numpy as np
import pytest

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


@pytest.mark.parametrize("payload,message", [
    ({"schema_version": 1}, "lacks key 'P'"),
    ({"schema_version": 1, "P": 5}, "malformed model file"),
    (MODEL | {"dims": 5}, "malformed model file"),
    (MODEL | {"dims": None}, "malformed model file"),
    (MODEL | {"config": MODEL["config"] | {"hp": {"d": 2.5}}}, "'config.hp.d' must be int"),
    (MODEL | {"config": MODEL["config"] | {"max_iters": "7"}}, "'config.max_iters' must be int"),
    (MODEL | {"config": MODEL["config"] | {"seed": True}}, "'config.seed' must be int"),
    (MODEL | {"config": MODEL["config"] | {"tol": "0.5"}}, "'config.tol' must be float"),
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


def test_benchmark_io_failure_exits_3(synth_dir, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "rep.csv"
    assert run_cli("benchmark", "--data", str(synth_dir), "--M", "4",
                   "--repeats", "1", "--d-sweep", "3", "--max-iters", "5",
                   "--out", str(missing)) == 3


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
