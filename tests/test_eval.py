import csv
import io
import time

import numpy as np
import pytest

import mvcl.evaluate
import mvcl.loss
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
    accuracies,
    benchmark,
    default_d_sweep,
    embeddings,
    feature_level_loss,
    init_params,
    knn_classify,
    preprocess,
    report_to_csv,
    report_to_dict,
    split,
    synth_generate,
)
from mvcl.grad import random_instance

rng = np.random.default_rng(99)


# ---------------------------------------------------------------------------
# projection / the accuracy table
# ---------------------------------------------------------------------------

def test_project_coordinate_projection():
    x = rng.standard_normal((5, 7))
    ds = MultiViewDataset((x, x.copy()))
    P = ProjectionSet((np.eye(5)[:, :2], np.eye(5)[:, :2]))
    embs = embeddings(P, ds)
    np.testing.assert_array_equal(embs[0], x[:2])


def test_project_zero_views():
    ds = MultiViewDataset((np.zeros((4, 3)), np.zeros((3, 3))))
    P = ProjectionSet((rng.standard_normal((4, 2)), rng.standard_normal((3, 2))))
    for e in embeddings(P, ds):
        np.testing.assert_array_equal(e, np.zeros((2, 3)))


def test_project_matches_independent_multiply():
    ds, P, _ = random_instance(21, V=2, n=6, dims=(5, 4), d=3)
    embs = embeddings(P, ds)
    for m in range(2):
        want = orc.matmul(orc.transpose(orc.mat_from(P.mats[m])), orc.mat_from(ds.views[m]))
        assert np.max(np.abs(embs[m] - np.array(want))) <= 1e-12


def _labelled(views, labels):
    return MultiViewDataset(tuple(views), np.asarray(labels))


def test_fuse_with_zero_second_projection():
    # II sums view 1's embeddings with zeros, so it classifies like view 1
    ds, P, _ = random_instance(22, V=2, n=12, dims=(5, 4), d=2)
    gallery = _labelled((v[:, :8] for v in ds.views), [0, 1] * 4)
    query = _labelled((v[:, 8:] for v in ds.views), [0, 0, 1, 1])
    accs = accuracies(ProjectionSet((P.mats[0], np.zeros((4, 2)))), gallery, query)
    assert accs["II"] == accs["view1"]
    assert accs["view2"] == 50.0  # every query ties at zero: the first gallery label


def test_fuse_identical_views_is_scaled_projection():
    # three copies of one view embed to 3x one embedding; 1-NN ignores the scale
    x = rng.standard_normal((4, 10))
    pm = rng.standard_normal((4, 2))
    labels = rng.integers(0, 3, 10)
    gallery = _labelled((x[:, :6],) * 3, labels[:6])
    query = _labelled((x[:, 6:],) * 3, labels[6:])
    accs = accuracies(ProjectionSet((pm, pm.copy(), pm.copy())), gallery, query)
    assert accs["II"] == accs["view1"] == accs["view2"] == accs["view3"] == accs["Mean"]


def test_fuse_matches_independent_sum():
    ds, P, _ = random_instance(23, V=3, n=24, dims=(5, 4, 3), d=2)
    labels = rng.integers(0, 3, 24)
    gallery = _labelled((v[:, :14] for v in ds.views), labels[:14])
    query = _labelled((v[:, 14:] for v in ds.views), labels[14:])
    accs = accuracies(P, gallery, query)
    assert list(accs) == ["view1", "view2", "view3", "Mean", "II"]
    fused = [np.array(orc.matmul(orc.transpose(orc.mat_from(P.mats[m])), orc.mat_from(v)))
             for m, v in enumerate(ds.views)]
    fused = fused[0] + fused[1] + fused[2]
    pred = orc.knn1_predict(orc.transpose(orc.mat_from(fused[:, :14])), list(labels[:14]),
                            orc.transpose(orc.mat_from(fused[:, 14:])))
    assert accs["II"] == 100.0 * np.mean(np.array(pred) == labels[14:])
    assert accs["Mean"] == pytest.approx(np.mean([accs[f"view{m}"] for m in (1, 2, 3)]), abs=1e-12)


def test_project_shape_mismatch():
    ds, _, _ = random_instance(24, V=2, n=4, dims=(5, 4), d=2)
    with pytest.raises(DimError):
        embeddings(ProjectionSet((np.ones((6, 2)), np.ones((4, 2)))), ds)


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
    # the 3 repeats of each d train as one batch: two batches for two threads, which fork only above SPLIT_FROM
    seq = benchmark(_bench_ds(), _cfg(), SplitPlan(M=4, repeats=3, seed=1), d_sweep=[2, 3])
    monkeypatch.setattr("mvcl.loss.SPLIT_FROM", 0)
    monkeypatch.setenv("MVCL_THREADS", "3")
    par = benchmark(_bench_ds(), _cfg(), SplitPlan(M=4, repeats=3, seed=1), d_sweep=[2, 3])
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
    hp = HyperParams(d=3, alpha=1e308)
    diverging = TrainConfig(hp=hp, max_iters=10)
    with pytest.raises(BenchmarkError, match="repeat 0"):
        benchmark(ds, diverging, SplitPlan(M=4, repeats=1, seed=0), d_sweep=[3])


def test_benchmark_names_the_diverging_repeat_of_a_batch():
    # the 3 repeats train as one batch; alpha lies between the two largest initial feature losses,
    # so that alpha * feature overflows in one repeat's fit only
    ds, plan = _bench_ds(), SplitPlan(M=4, repeats=3, seed=3)
    P0, _ = init_params(ds.dims, 3, 0)
    feature = [feature_level_loss(P0, preprocess(split(ds, plan, r)[0])[0], 0.1) for r in range(3)]
    second, worst = sorted(feature)[-2:]
    r = int(np.argmax(feature))
    assert r != 0
    cfg = TrainConfig(hp=HyperParams(d=3, alpha=1.7976e308 / np.sqrt(second * worst)), max_iters=10)
    with pytest.raises(BenchmarkError, match=f"^repeat {r} failed: initial loss of fit {r} is not finite$"):
        benchmark(ds, cfg, plan, d_sweep=[3])


@pytest.mark.parametrize("rows, batches", [(mvcl.loss.ROWS, [5]), (96, [4, 1])])
def test_benchmark_calls_train_once_per_batch(monkeypatch, rows, batches):
    # The benchmark's protocol workload wraps mvcl.evaluate.train and reads each call's third element:
    # wall_ms, the batch's wall time counted once, and iterations, the fit-iterations it ran.
    # At n = 12, V = 2 and d <= 3, ROWS = 96 allows batches of 4; the results do not depend on it.
    plan = SplitPlan(M=4, repeats=5, seed=4)
    want = benchmark(_bench_ds(), _cfg(), plan, d_sweep=[2, 3])
    calls, inner = [], mvcl.evaluate.train

    def timed(fits, cfg):
        t0 = time.perf_counter()
        out = inner(fits, cfg)
        calls.append(((time.perf_counter() - t0) * 1000.0, len(fits), out))
        return out

    monkeypatch.setattr("mvcl.evaluate.train", timed)
    monkeypatch.setattr("mvcl.loss.ROWS", rows)
    assert benchmark(_bench_ds(), _cfg(), plan, d_sweep=[2, 3]).rows == want.rows
    assert [size for _, size, _ in calls] == batches * 2
    for wall_ms, _, out in calls:
        assert 0 < out[2].wall_ms <= wall_ms
        assert out[2].iterations == sum(r.iterations for r in out[3]) > 0


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
