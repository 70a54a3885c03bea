import csv
import io

import numpy as np
import pytest

import oracles as orc
from mvcl import (
    BenchmarkError,
    DimError,
    EmptyTrain,
    HyperParams,
    LabelsRequired,
    MultiViewDataset,
    ProjectionSet,
    SplitPlan,
    SynthSpec,
    TrainConfig,
    benchmark,
    default_d_sweep,
    fuse,
    knn_classify,
    project_per_view,
    report_to_csv,
    report_to_dict,
    synth_generate,
)
from mvcl.grad import random_instance

rng = np.random.default_rng(99)


# ---------------------------------------------------------------------------
# projection / fusion
# ---------------------------------------------------------------------------

def test_project_coordinate_projection():
    x = rng.standard_normal((5, 7))
    ds = MultiViewDataset((x, x.copy()))
    P = ProjectionSet((np.eye(5)[:, :2], np.eye(5)[:, :2]))
    embs = project_per_view(P, ds).embs
    np.testing.assert_array_equal(embs[0], x[:2])


def test_project_zero_views():
    ds = MultiViewDataset((np.zeros((4, 3)), np.zeros((3, 3))))
    P = ProjectionSet((rng.standard_normal((4, 2)), rng.standard_normal((3, 2))))
    for e in project_per_view(P, ds).embs:
        np.testing.assert_array_equal(e, np.zeros((2, 3)))


def test_project_matches_independent_multiply():
    ds, P, _ = random_instance(21, V=2, n=6, dims=(5, 4), d=3)
    embs = project_per_view(P, ds).embs
    for m in range(2):
        want = orc.matmul(orc.transpose(orc.mat_from(P.mats[m])), orc.mat_from(ds.views[m]))
        assert np.max(np.abs(embs[m] - np.array(want))) <= 1e-12


def test_fuse_with_zero_second_projection():
    ds, P, _ = random_instance(22, V=2, n=5, dims=(5, 4), d=2)
    P0 = ProjectionSet((P.mats[0], np.zeros((4, 2))))
    np.testing.assert_array_equal(fuse(P0, ds), project_per_view(P0, ds).embs[0])


def test_fuse_identical_views_is_scaled_projection():
    x = rng.standard_normal((4, 6))
    ds = MultiViewDataset((x, x.copy(), x.copy()))
    pm = rng.standard_normal((4, 2))
    P = ProjectionSet((pm, pm.copy(), pm.copy()))
    np.testing.assert_allclose(fuse(P, ds), 3.0 * (pm.T @ x), atol=1e-12)


def test_fuse_matches_independent_sum():
    ds, P, _ = random_instance(23, V=3, n=4, dims=(5, 4, 3), d=2)
    embs = project_per_view(P, ds).embs
    want = embs[0] + embs[1] + embs[2]
    assert np.max(np.abs(fuse(P, ds) - want)) <= 1e-12


def test_project_shape_mismatch():
    ds, _, _ = random_instance(24, V=2, n=4, dims=(5, 4), d=2)
    with pytest.raises(DimError):
        project_per_view(ProjectionSet((np.ones((6, 2)), np.ones((4, 2)))), ds)


# ---------------------------------------------------------------------------
# knn_classify
# ---------------------------------------------------------------------------

def test_knn_exact_match_takes_that_label():
    tr = np.array([[0.0, 1.0, 5.0]])
    pred = knn_classify(tr, np.array([3, 1, 2]), np.array([[1.0]]))
    assert pred.tolist() == [1]


def test_knn_two_clusters():
    tr = np.array([[0.0, 10.0]])
    pred = knn_classify(tr, np.array([0, 1]), np.array([[9.0]]))
    assert pred.tolist() == [1]


def test_knn_matches_exhaustive_oracle():
    d, n_tr, n_te = 4, 30, 25
    centers = rng.standard_normal((d, 3)) * 5.0
    tr_lab = rng.integers(0, 3, n_tr)
    te_lab = rng.integers(0, 3, n_te)
    tr = centers[:, tr_lab] + rng.standard_normal((d, n_tr))
    te = centers[:, te_lab] + rng.standard_normal((d, n_te))
    got = knn_classify(tr, tr_lab, te)
    want = orc.knn1_predict(orc.transpose(orc.mat_from(tr)), list(tr_lab),
                            orc.transpose(orc.mat_from(te)))
    assert got.tolist() == want


def test_knn_ties_resolve_to_lowest_index():
    tr = np.zeros((2, 4))
    pred = knn_classify(tr, np.array([7, 1, 2, 3]), np.zeros((2, 3)))
    assert pred.tolist() == [7, 7, 7]


def test_knn_training_subset_is_perfect():
    tr = rng.standard_normal((3, 12))
    labs = rng.integers(0, 4, 12)
    pred = knn_classify(tr, labs, tr[:, 3:8])
    assert pred.tolist() == labs[3:8].tolist()


def test_knn_errors():
    with pytest.raises(ValueError):
        knn_classify(np.ones((2, 3)), np.arange(3), np.ones((2, 1)), k=3)
    with pytest.raises(EmptyTrain):
        knn_classify(np.ones((2, 0)), np.array([], dtype=int), np.ones((2, 1)))
    with pytest.raises(DimError):
        knn_classify(np.ones((2, 3)), np.arange(3), np.ones((3, 1)))
    with pytest.raises(DimError):
        knn_classify(np.ones((2, 3)), np.arange(4), np.ones((2, 1)))


def test_knn_scale_equivariance():
    # rescaling gallery and queries together cannot change 1-NN decisions
    tr = rng.standard_normal((3, 10))
    te = rng.standard_normal((3, 6))
    labs = rng.integers(0, 3, 10)
    a = knn_classify(tr, labs, te)
    b = knn_classify(4.2 * tr, labs, 4.2 * te)
    assert a.tolist() == b.tolist()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _bench_ds(seed=0):
    return synth_generate(SynthSpec(classes=3, per_class=8, dims=(10, 9), seed=seed,
                                    shared_dims=2, specific_dims=2, redundant_copies=1))


def _cfg(d=3):
    return TrainConfig(hp=HyperParams(d=d), max_iters=30)


def test_benchmark_row_structure():
    rep = benchmark(_bench_ds(), _cfg(), SplitPlan(M=4, repeats=5, seed=0), d_sweep=[3])
    labels = [r.label for r in rep.rows]
    assert labels == ["view1", "view2", "Mean", "II"]
    assert rep.M == 4 and rep.repeats == 5
    for r in rep.rows:
        assert 0.0 <= r.mean_acc <= 100.0 and r.std_acc >= 0.0


def test_benchmark_constant_labels_score_perfectly():
    base = _bench_ds()
    ds = MultiViewDataset(base.views, np.zeros(base.n, dtype=int))
    rep = benchmark(ds, _cfg(), SplitPlan(M=4, repeats=2, seed=0), d_sweep=[3])
    for r in rep.rows:
        assert r.mean_acc == 100.0 and r.std_acc == 0.0


def test_benchmark_is_deterministic():
    a = benchmark(_bench_ds(), _cfg(), SplitPlan(M=4, repeats=3, seed=5), d_sweep=[3])
    b = benchmark(_bench_ds(), _cfg(), SplitPlan(M=4, repeats=3, seed=5), d_sweep=[3])
    assert a.rows == b.rows


def test_benchmark_parallel_matches_sequential(monkeypatch):
    seq = benchmark(_bench_ds(), _cfg(), SplitPlan(M=4, repeats=3, seed=1), d_sweep=[3])
    monkeypatch.setenv("MVCL_THREADS", "3")
    par = benchmark(_bench_ds(), _cfg(), SplitPlan(M=4, repeats=3, seed=1), d_sweep=[3])
    assert seq.rows == par.rows


def test_benchmark_mean_row_is_view_average_single_repeat():
    rep = benchmark(_bench_ds(), _cfg(), SplitPlan(M=4, repeats=1, seed=2), d_sweep=[3])
    by = {r.label: r for r in rep.rows}
    view_mean = np.mean([by["view1"].mean_acc, by["view2"].mean_acc])
    assert by["Mean"].mean_acc == pytest.approx(view_mean, abs=1e-9)
    for r in rep.rows:
        assert r.std_acc == 0.0  # single repeat


def test_benchmark_requires_labels():
    ds = MultiViewDataset(_bench_ds().views)
    with pytest.raises(LabelsRequired):
        benchmark(ds, _cfg(), SplitPlan(M=4))


def test_benchmark_names_failing_repeat():
    ds = _bench_ds()
    hp = HyperParams(d=3, sigma1=1e-320, sigma2=1e-320, sigma3=1e-320)
    diverging = TrainConfig(hp=hp, max_iters=10)
    with pytest.raises(BenchmarkError, match="repeat 0"):
        benchmark(ds, diverging, SplitPlan(M=4, repeats=1, seed=0), d_sweep=[3])


def test_benchmark_sweep_picks_argmax_dimension():
    rep = benchmark(_bench_ds(), _cfg(), SplitPlan(M=4, repeats=2, seed=3), d_sweep=[2, 3])
    for r in rep.rows:
        assert r.d in (2, 3)


def test_default_d_sweep():
    assert default_d_sweep((60, 80)) == [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
    assert default_d_sweep((20, 20)) == [5, 10, 15]
    assert default_d_sweep((5, 9)) == []


def test_report_serialisation():
    rep = benchmark(_bench_ds(), _cfg(), SplitPlan(M=4, repeats=2, seed=0), d_sweep=[3])
    rows = list(csv.reader(io.StringIO(report_to_csv(rep))))
    assert rows[0] == ["label", "mean_acc", "std_acc"]
    assert len(rows) == 1 + len(rep.rows)
    for raw, row in zip(rows[1:], rep.rows):
        assert raw[0] == row.label
        assert float(raw[1]) == row.mean_acc
    obj = report_to_dict(rep)
    assert obj["config"]["std"] == "population"
    assert obj["rows"][0]["d"] == 3


def test_report_csv_with_ablation_column():
    plan = SplitPlan(M=4, repeats=2, seed=0)
    rep = benchmark(_bench_ds(), _cfg(), plan, d_sweep=[3])
    rows = list(csv.reader(io.StringIO(report_to_csv(rep, rep))))
    assert rows[0][-1] == "diff_mean"
    assert all(float(r[-1]) == 0.0 for r in rows[1:])
