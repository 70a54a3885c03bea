import numpy as np
import pytest

from mvcl import (
    EmptyInput,
    FeatureStats,
    InvalidSpec,
    LabelsRequired,
    MultiViewDataset,
    ParseError,
    SplitInfeasible,
    SplitPlan,
    StatsMismatch,
    SynthSpec,
    ViewMismatch,
    accuracy_pct,
    knn_classify,
    load_views,
    preprocess,
    save_views,
    split,
    split_indices,
    synth_generate,
)
from conftest import peak_alloc

rng = np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# dataset invariants
# ---------------------------------------------------------------------------

def test_dataset_rejects_single_view():
    with pytest.raises(ViewMismatch):
        MultiViewDataset((np.ones((3, 2)),))


def test_dataset_rejects_sample_count_mismatch():
    with pytest.raises(ViewMismatch):
        MultiViewDataset((np.ones((3, 4)), np.ones((2, 5))))


def test_dataset_rejects_nonfinite():
    bad = np.ones((2, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        MultiViewDataset((bad, np.ones((2, 3))))


def test_dataset_rejects_bad_labels():
    views = (np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ViewMismatch):
        MultiViewDataset(views, labels=[0, 1])
    with pytest.raises(ValueError):
        MultiViewDataset(views, labels=[0, -1, 2])


def test_dataset_is_read_only():
    ds = MultiViewDataset((np.ones((2, 3)), np.ones((2, 3))))
    with pytest.raises(ValueError):
        ds.views[0][0, 0] = 5.0


def _read_only_view(base):
    view = base[:]
    view.setflags(write=False)
    return view


@pytest.mark.parametrize("make", [lambda base: base, _read_only_view], ids=["writable", "read-only view"])
def test_dataset_copies_an_array_that_a_caller_can_still_write(make):
    # Only an array that owns its data and is already read-only is adopted: no writable array reaches it.
    base = np.arange(12.0).reshape(3, 4)
    x = make(base)
    writeable = x.flags.writeable
    ds = MultiViewDataset((x, np.ones((2, 4))))
    base[0, 0] = 99.0
    assert ds.views[0][0, 0] == 0.0 and not np.shares_memory(ds.views[0], base)
    assert x.flags.writeable == writeable and base.flags.writeable


def test_dataset_adopts_a_frozen_array_and_still_checks_it():
    x = np.ones((3, 4))
    x.setflags(write=False)
    assert MultiViewDataset((x, x)).views[0] is x
    bad = np.ones((3, 4))
    bad[1, 1] = np.nan
    bad.setflags(write=False)
    with pytest.raises(ValueError, match="non-finite"):
        MultiViewDataset((bad, x))


# Each builds its output's arrays once and hands them to the dataset as they are: measured
# against one copy of the output, whose largest view adds a boolean finiteness mask (1/8).
_SPEC = SynthSpec(classes=3, per_class=500, dims=(400, 300), seed=2)


@pytest.mark.parametrize("step", ["synth_generate", "preprocess", "split"])
def test_data_steps_peak_at_one_copy_of_their_output(step):
    ds = synth_generate(_SPEC)
    fn = {
        "synth_generate": lambda: synth_generate(_SPEC),
        "preprocess": lambda: preprocess(ds),
        "split": lambda: split(ds, SplitPlan(M=10), 0),
    }[step]
    fn()  # first calls allocate numpy's own caches
    assert peak_alloc(fn) < 1.25 * sum(v.nbytes for v in ds.views)


# ---------------------------------------------------------------------------
# load_views
# ---------------------------------------------------------------------------

def test_load_two_wide_views(csv_writer):
    a = rng.standard_normal((165, 256))
    b = rng.standard_normal((165, 256))
    ds = load_views([csv_writer("a.csv", a), csv_writer("b.csv", b)])
    assert ds.V == 2 and ds.n == 165 and ds.dims == (256, 256)
    np.testing.assert_allclose(ds.views[0], a.T, rtol=0, atol=0)


def test_load_single_view_rejected(csv_writer):
    p = csv_writer("one.csv", np.ones((3, 2)))
    with pytest.raises(ViewMismatch):
        load_views([p])


def test_load_three_views(csv_writer):
    paths = [
        csv_writer("fac.csv", rng.standard_normal((2000, 216)), fmt="%.5g"),
        csv_writer("fou.csv", rng.standard_normal((2000, 76)), fmt="%.5g"),
        csv_writer("pix.csv", rng.standard_normal((2000, 240)), fmt="%.5g"),
    ]
    ds = load_views(paths)
    assert ds.V == 3 and ds.n == 2000 and ds.dims == (216, 76, 240)


def test_load_row_count_mismatch(csv_writer):
    a = csv_writer("a.csv", np.ones((4, 2)))
    b = csv_writer("b.csv", np.ones((3, 2)))
    with pytest.raises(ViewMismatch):
        load_views([a, b])


def test_load_non_numeric_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0,oops\n")
    q = tmp_path / "ok.csv"
    q.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ParseError):
        load_views([p, q])


def test_load_empty_file(tmp_path, csv_writer):
    p = tmp_path / "empty.csv"
    p.write_text("")
    q = csv_writer("ok.csv", np.ones((2, 2)))
    with pytest.raises(EmptyInput):
        load_views([p, q])


def test_load_header_flag(tmp_path):
    p = tmp_path / "h1.csv"
    p.write_text("f1,f2\n1.0,2.0\n3.0,4.0\n")
    q = tmp_path / "h2.csv"
    q.write_text("g1,g2,g3\n1,2,3\n4,5,6\n")
    ds = load_views([p, q], header=True)
    assert ds.n == 2 and ds.dims == (2, 3)


def test_load_labels(csv_writer, tmp_path):
    a = csv_writer("a.csv", np.ones((3, 2)))
    b = csv_writer("b.csv", np.ones((3, 2)))
    lab = tmp_path / "labels.csv"
    lab.write_text("0\n1\n1\n")
    ds = load_views([a, b], lab)
    assert list(ds.labels) == [0, 1, 1]
    lab.write_text("0\n1\n")
    with pytest.raises(ViewMismatch):
        load_views([a, b], lab)
    lab.write_text("0\nx\n1\n")
    with pytest.raises(ParseError):
        load_views([a, b], lab)


def test_load_views_peaks_below_two_copies_of_its_output(tmp_path):
    # Each row is parsed into an array as it is read and each view is stacked into its frozen
    # (D, n) layout, which the dataset adopts: no list of Python floats, no transposed copy.
    paths = save_views(synth_generate(SynthSpec(classes=3, per_class=100, dims=(200, 150), seed=2)), tmp_path)
    ds = load_views(paths[:2], paths[2])  # first calls allocate numpy's own caches
    assert peak_alloc(lambda: load_views(paths[:2], paths[2])) < 2 * sum(v.nbytes for v in ds.views)


def test_save_views_roundtrip(tmp_path):
    ds = synth_generate(SynthSpec(classes=2, per_class=3, dims=(4, 3), seed=5,
                                  shared_dims=1, specific_dims=1, redundant_copies=1))
    save_views(ds, tmp_path)
    back = load_views([tmp_path / "view1.csv", tmp_path / "view2.csv"], tmp_path / "labels.csv")
    for a, b in zip(ds.views, back.views):
        assert np.array_equal(a, b)
    assert np.array_equal(ds.labels, back.labels)


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def test_center_is_noop_on_centered_rows():
    x = np.array([[1.0, -1.0, 0.0], [2.0, 0.0, -2.0]])
    ds = MultiViewDataset((x, x))
    out, _ = preprocess(ds, center=True)
    np.testing.assert_array_equal(out.views[0], x)


def test_center_removes_row_means():
    x = np.array([[1.0, 3.0], [2.0, 2.0]])
    ds = MultiViewDataset((x, x.copy()))
    out, _ = preprocess(ds, center=True)
    np.testing.assert_array_equal(out.views[0], np.array([[-1.0, 1.0], [0.0, 0.0]]))


def test_training_stats_applied_to_heldout():
    train = MultiViewDataset((np.array([[1.0, 3.0], [4.0, 8.0]]),
                              np.array([[0.0, 2.0]])))
    held = MultiViewDataset((np.array([[5.0, 7.0], [2.0, 0.0]]),
                             np.array([[1.0, 3.0]])))
    _, stats = preprocess(train, center=True)
    out, used = preprocess(held, stats=stats)
    # independent spreadsheet-style arithmetic: train row means are (2, 6), (1)
    np.testing.assert_array_equal(out.views[0], np.array([[3.0, 5.0], [-4.0, -6.0]]))
    np.testing.assert_array_equal(out.views[1], np.array([[0.0, 2.0]]))
    assert used is stats
    assert np.abs(out.views[0].mean(axis=1)).min() > 0  # generally nonzero


def test_center_is_idempotent():
    ds = MultiViewDataset(tuple(rng.standard_normal((4, 9)) for _ in range(2)))
    once, _ = preprocess(ds, center=True)
    twice, _ = preprocess(once, center=True)
    for a, b in zip(once.views, twice.views):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_unit_variance_scaling():
    x = np.array([[1.0, 3.0, 5.0], [7.0, 7.0, 7.0]])
    ds = MultiViewDataset((x, x.copy()))
    out, stats = preprocess(ds, center=True, unit_variance=True)
    np.testing.assert_allclose(out.views[0][0].std(), 1.0)
    # constant feature row: std floored, stays at zero after centering
    np.testing.assert_array_equal(out.views[0][1], np.zeros(3))
    assert stats.stds[0][1] == 1e-12


def test_stats_mismatch():
    ds = MultiViewDataset((np.ones((3, 4)), np.ones((2, 4))))
    other = MultiViewDataset((np.ones((5, 4)), np.ones((2, 4))))
    _, stats = preprocess(other, center=True)
    with pytest.raises(StatsMismatch):
        preprocess(ds, stats=stats)
    # one std per view where each view needs one per feature: every feature would be divided by that one value
    means = tuple(np.zeros(D) for D in ds.dims)
    stats = FeatureStats(center=True, unit_variance=True, means=means, stds=(np.array([2.0]), np.array([4.0])))
    with pytest.raises(StatsMismatch, match="stds for view 0"):
        preprocess(ds, stats=stats)
    # a negative std flips its feature's sign, a zero one divides by zero: stds must be finite and > 0, as in a
    # model file, and means finite
    for bad in ([1.0, -1.0], [1.0, 0.0], [1.0, np.inf], [1.0, np.nan]):
        stats = FeatureStats(center=True, unit_variance=True, means=means, stds=(np.ones(3), np.array(bad)))
        with pytest.raises(StatsMismatch, match="stds for view 1 must be finite and > 0"):
            preprocess(ds, stats=stats)
    for bad in ([0.0, -np.inf, 0.0], [np.nan, 0.0, 0.0]):
        stats = FeatureStats(center=True, unit_variance=False, means=(np.array(bad), means[1]), stds=None)
        with pytest.raises(StatsMismatch, match="means for view 0 must be finite$"):
            preprocess(ds, stats=stats)


# ---------------------------------------------------------------------------
# synth_generate
# ---------------------------------------------------------------------------

def test_synth_deterministic():
    spec = SynthSpec(classes=3, per_class=4, dims=(6, 5), seed=11,
                     shared_dims=2, specific_dims=1, redundant_copies=1)
    a = synth_generate(spec)
    b = synth_generate(spec)
    for va, vb in zip(a.views, b.views):
        assert np.array_equal(va, vb)
    assert np.array_equal(a.labels, b.labels)


def test_synth_zero_noise_limit_collapses_classes():
    spec = SynthSpec(classes=3, per_class=4, dims=(6, 5), seed=2,
                     shared_dims=2, specific_dims=1, redundant_copies=0,
                     noise_std=1e-12)
    ds = synth_generate(spec)
    shared = ds.views[0][:2]
    for c in range(3):
        cols = shared[:, ds.labels == c]
        assert np.abs(cols - cols[:, :1]).max() < 1e-9
        assert np.abs(cols).max() > 1e-3  # class means stay O(1)


def test_synth_shared_block_identical_across_views():
    spec = SynthSpec(classes=2, per_class=3, dims=(5, 5), seed=4,
                     shared_dims=2, specific_dims=0, redundant_copies=0,
                     noise_std=1e-12)
    ds = synth_generate(spec)
    assert np.abs(ds.views[0][:2] - ds.views[1][:2]).max() < 1e-9


def test_synth_raw_concat_knn_baseline():
    spec = SynthSpec(classes=3, per_class=20, dims=(20, 20), shared_dims=4,
                     specific_dims=4, redundant_copies=0, noise_std=1.0, seed=0)
    ds = synth_generate(spec)
    tr, te = split(ds, SplitPlan(M=6, repeats=1, seed=0), 0)
    acc = accuracy_pct(
        knn_classify(np.vstack(tr.views), tr.labels, np.vstack(te.views)), te.labels
    )
    assert acc > 100.0 / 3.0  # strictly above chance
    assert acc == 100.0  # regression pin for this seeded instance


def test_synth_invalid_specs():
    with pytest.raises(InvalidSpec):
        SynthSpec(classes=0, per_class=3, dims=(4, 4))
    with pytest.raises(InvalidSpec):
        SynthSpec(classes=2, per_class=3, dims=(4,))
    with pytest.raises(InvalidSpec):
        SynthSpec(classes=2, per_class=3, dims=(4, 4), shared_dims=3,
                  specific_dims=1, redundant_copies=1)
    with pytest.raises(InvalidSpec):
        SynthSpec(classes=2, per_class=3, dims=(8, 8), noise_std=0.0)


@pytest.mark.parametrize("noise_std", [np.inf, np.nan, -np.inf])
def test_synth_spec_rejects_a_noise_std_that_is_not_finite(noise_std):
    with pytest.raises(InvalidSpec, match="^noise_std must be finite and > 0"):
        SynthSpec(classes=2, per_class=3, dims=(12, 12), noise_std=noise_std)


def test_synth_names_noise_std_when_the_noise_overflows():
    # finite, but a standard normal draw beyond 1.8 times it is past float range
    spec = SynthSpec(classes=2, per_class=30, dims=(12, 12), noise_std=1e308)
    with pytest.raises(InvalidSpec, match=r"^noise_std = 1e\+308 overflows view 0's noise$"):
        synth_generate(spec)


def test_synth_spec_rejects_negative_seed():
    with pytest.raises(InvalidSpec, match=r"^seed must be >= 0, got -1$"):
        SynthSpec(classes=2, per_class=3, dims=(12, 12), seed=-1)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def _yale_shaped():
    return synth_generate(SynthSpec(classes=15, per_class=11, dims=(8, 7), seed=3,
                                    shared_dims=2, specific_dims=1, redundant_copies=0))


def test_split_counts_yale_shape():
    ds = _yale_shaped()
    tr, te = split(ds, SplitPlan(M=4, repeats=5, seed=0), 0)
    assert tr.n == 60 and te.n == 105
    for c in range(15):
        assert (tr.labels == c).sum() == 4


def test_split_leaves_one_per_class():
    ds = synth_generate(SynthSpec(classes=2, per_class=3, dims=(4, 4), seed=1,
                                  shared_dims=1, specific_dims=0, redundant_copies=0))
    tr, te = split(ds, SplitPlan(M=2, repeats=1, seed=0), 0)
    assert te.n == 2
    assert sorted(te.labels.tolist()) == [0, 1]


def test_split_is_partition():
    ds = _yale_shaped()
    plan = SplitPlan(M=4, repeats=3, seed=9)
    for r in range(3):
        tr_idx, te_idx = split_indices(ds.labels, plan, r)
        both = np.concatenate([tr_idx, te_idx])
        assert np.array_equal(np.sort(both), np.arange(ds.n))
        assert len(np.intersect1d(tr_idx, te_idx)) == 0


def test_split_deterministic():
    ds = _yale_shaped()
    plan = SplitPlan(M=4, repeats=2, seed=7)
    a = split_indices(ds.labels, plan, 1)
    b = split_indices(ds.labels, plan, 1)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_repeats_differ_over_seeds():
    ds = _yale_shaped()
    differing = 0
    for seed in range(100):
        plan = SplitPlan(M=4, repeats=2, seed=seed)
        a, _ = split_indices(ds.labels, plan, 0)
        b, _ = split_indices(ds.labels, plan, 1)
        differing += int(not np.array_equal(a, b))
    assert differing == 100


def test_split_errors():
    ds = _yale_shaped()
    unlabeled = MultiViewDataset(ds.views)
    with pytest.raises(LabelsRequired):
        split(unlabeled, SplitPlan(M=4), 0)
    with pytest.raises(SplitInfeasible):
        split(ds, SplitPlan(M=11), 0)
    with pytest.raises(ValueError):
        split(ds, SplitPlan(M=4, repeats=2), 2)
    with pytest.raises(ValueError):
        SplitPlan(M=0)
