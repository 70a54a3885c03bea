"""A large logit block runs one anchor view at a time, the recovery head's views on several threads (``loss``).

Every head and a batched ``train`` must give the same bits split as whole, whatever the thread count, block size
and temperature, and so must a ``train`` above the real ``SPLIT_FROM``; the views run under the caller's numpy
error state, in a forked child too; traced library functions run on the calling thread only; and small blocks
never reach the pool.
"""

import functools
import hashlib
import importlib.util
import itertools
import multiprocessing
import os
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mvcl.loss
from mvcl import HyperParams, MultiViewDataset, SplitPlan, TrainConfig, default_synth_spec, preprocess
from mvcl import synth_generate, train
from mvcl.cli import main
from mvcl.data import split_indices
from mvcl.errors import NumericDivergence
from mvcl.evaluate import benchmark
from mvcl.loss import _feature_head, _recovery_head, _recovery_maps, _sample_head, _unit_columns

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# 1/339 and 1/341 lie on either side of 1 / SHIFT_ABOVE: the plain softmax up to it, the one shifted by the row
# maximum above it (1/590, 1/610 and 1e-3 too)
SIGMAS = [1.0, 0.1, 1.0 / 339, 1.0 / 341, 1.0 / 590, 1.0 / 610, 1e-3]


def _bits(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes() if a is not None else b"None")
    return h.hexdigest()


def _heads(seed, B, V, n, d, sigma):
    """The bits of every head's losses and gradients on seeded inputs of B fits."""
    rng = np.random.default_rng(seed)
    dims = [3 + (seed + m) % 4 for m in range(V)]
    X = [rng.standard_normal((B, D, n)) for D in dims]
    Fmats = [rng.standard_normal((B, d, D)) for D in dims]
    Y = rng.standard_normal((B, V, d, n))
    nx = [mvcl.loss._col_norms(x) for x in X]
    Yh, ny = _unit_columns(Y)
    maps = _recovery_maps(Fmats, X, nx)
    outs = [_sample_head(Yh, ny, sigma, grad=True), _sample_head(Yh, ny, sigma)]
    outs += [_feature_head(Y, sigma, own, grad=True) for own in (True, False)]
    outs += [_recovery_head(X, nx, maps, Fmats, Yh, ny, sigma, want_dY=dY, want_dF=dF)
             for dY, dF in ((True, True), (True, False), (False, True), (False, False))]
    return [_bits(*out) for out in outs]


def _fits(seed, B, V, n):
    """B labelled datasets of V views and n samples each, for one batched ``train``."""
    rng = np.random.default_rng(seed)
    dims = [4 + (seed + m) % 3 for m in range(V)]
    return tuple(MultiViewDataset(tuple(rng.standard_normal((D, n)) for D in dims)) for _ in range(B))


def _trained(fits, sigma):
    """The bits of each fit's P, F and losses, or how the batch diverged."""
    cfg = TrainConfig(hp=HyperParams(d=2, sigma1=sigma, sigma2=sigma, sigma3=sigma), max_iters=3, tol=1e-300)
    try:
        Ps, Fs, _, reports = train(fits, cfg)
    except NumericDivergence as e:
        return str(e), e.fit, e.iteration
    return _bits(*(m for P in Ps for m in P.mats), *(m for F in Fs for m in F.mats),
                 *(np.array(r.losses) for r in reports))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), B=st.integers(1, 3), V=st.integers(2, 4), n=st.integers(1, 9),
       d=st.integers(1, 4), sigma=st.sampled_from(SIGMAS), rows=st.integers(1, 8), workers=st.integers(1, 3))
def test_split_blocks_give_the_bits_of_whole_ones(seed, B, V, n, d, sigma, rows, workers):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("mvcl.loss.ROWS", rows)
        whole = _heads(seed, B, V, n, d, sigma)
        mp.setattr("mvcl.loss.SPLIT_FROM", 0)  # every block splits
        mp.setenv("MVCL_THREADS", str(workers))
        assert _heads(seed, B, V, n, d, sigma) == whole


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), B=st.integers(1, 3), V=st.integers(2, 4), n=st.integers(2, 9),
       sigma=st.sampled_from(SIGMAS), workers=st.integers(1, 3))
def test_a_batched_train_split_gives_the_bits_of_a_whole_one(seed, B, V, n, sigma, workers):
    fits = _fits(seed, min(B, mvcl.loss._batch_limit(V, n, 2)), V, n)
    whole = _trained(fits, sigma)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("mvcl.loss.SPLIT_FROM", 0)
        mp.setenv("MVCL_THREADS", str(workers))
        assert _trained(fits, sigma) == whole


def test_a_train_above_the_real_threshold_gives_the_same_bits_at_1_2_and_3_threads(monkeypatch):
    # both heads' all-view blocks, 2 x ROWS // 2 rows x 1500 logits, hold at least SPLIT_FROM: nothing is patched
    assert mvcl.loss.ROWS * 1500 >= mvcl.loss.SPLIT_FROM
    rng = np.random.default_rng(6)
    ds = MultiViewDataset(tuple(rng.standard_normal((D, 1500)) for D in (6, 5)))
    cfg = TrainConfig(hp=HyperParams(d=4), max_iters=2, tol=1e-300)
    bits = set()
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("MVCL_THREADS", workers)
        P, F, report = train(ds, cfg)
        bits.add(_bits(*P.mats, *F.mats, np.array(report.losses)))
    assert len(bits) == 1


def test_more_threads_than_cpus_with_a_short_switch_interval_keep_the_bits(monkeypatch):
    # the views write disjoint slices of shared arrays: a lost or crossed update would change the bits
    whole = _heads(11, 3, 4, 9, 3, 0.1)
    monkeypatch.setattr("mvcl.loss.SPLIT_FROM", 0)
    monkeypatch.setenv("MVCL_THREADS", str(2 * (os.cpu_count() or 1) + 1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _heads(11, 3, 4, 9, 3, 0.1) == whole
    finally:
        sys.setswitchinterval(interval)


def _traced_bindings():
    """(module, name) of every binding of a function that perfbench's tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {name for _, name in tracing.TRACED}
    modules = [importlib.import_module(m) for m in tracing.MODULES]
    return [(m, name) for m in modules for name in names if callable(getattr(m, name, None))]


def test_traced_functions_run_on_the_calling_thread_only(monkeypatch):
    threads, xent_threads = set(), set()

    def record(fn, into):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            into.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for module, name in _traced_bindings():
        monkeypatch.setattr(module, name, record(getattr(module, name), threads))
    monkeypatch.setattr("mvcl.loss._xent", record(mvcl.loss._xent, xent_threads))
    monkeypatch.setattr("mvcl.loss.SPLIT_FROM", 0)
    monkeypatch.setenv("MVCL_THREADS", "3")
    train(_fits(5, 2, 3, 8), TrainConfig(hp=HyperParams(d=2), max_iters=2))
    assert threads == {threading.get_ident()}
    assert len(xent_threads) > 1  # the recovery head's views did run elsewhere


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a block was split")


def _protocol_fits(seed=0):
    ds = synth_generate(default_synth_spec(seed))
    plan = SplitPlan(M=6, repeats=5, seed=seed)
    return tuple(preprocess(ds.take(split_indices(ds.labels, plan, r)[0]))[0] for r in range(5))


def test_a_protocol_size_train_never_reaches_the_pool(monkeypatch):
    monkeypatch.setattr("mvcl.loss.ThreadPoolExecutor", _NoPool)
    monkeypatch.setattr("mvcl.loss._pool", (None, None))
    monkeypatch.setenv("MVCL_THREADS", "3")
    train(_protocol_fits(), TrainConfig(hp=HyperParams(d=5), max_iters=5))


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_a_benchmark_whose_batches_fork_gives_the_sequential_rows(monkeypatch, workers):
    ds = synth_generate(default_synth_spec(1))
    cfg = TrainConfig(hp=HyperParams(d=3), max_iters=5)
    monkeypatch.setenv("MVCL_THREADS", "1")
    seq = benchmark(ds, cfg, SplitPlan(M=4, repeats=3, seed=1), d_sweep=[2, 3])
    forks, executor = [], mvcl.loss._executor

    def from_fork():
        forks.append(sys._getframe(1).f_code.co_name)
        return executor()

    monkeypatch.setattr("mvcl.loss._executor", from_fork)
    monkeypatch.setattr("mvcl.loss.SPLIT_FROM", 0)  # the two batches fork; in their jobs the heads run in order
    monkeypatch.setenv("MVCL_THREADS", workers)
    assert benchmark(ds, cfg, SplitPlan(M=4, repeats=3, seed=1), d_sweep=[2, 3]).rows == seq.rows
    assert forks == (["_fork"] if workers != "1" else [])  # one fork, the batches'


def test_a_forked_benchmarks_memory_does_not_grow_with_its_iterations(monkeypatch):
    ds = synth_generate(default_synth_spec(1))
    monkeypatch.setattr("mvcl.loss.SPLIT_FROM", 0)  # the batches fork, and every head would split
    monkeypatch.setenv("MVCL_THREADS", "2")
    peaks = []
    for iters in (30, 30, 330):  # the first run fills the caches
        cfg = TrainConfig(hp=HyperParams(d=3), max_iters=iters, tol=1e-300)  # no fit converges
        tracemalloc.start()
        benchmark(ds, cfg, SplitPlan(M=4, repeats=2, seed=1), d_sweep=[2, 3])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # 4 fits' loss trajectories take 4 x 32 bytes an iteration, and the two batches' peaks meet at random (up to
    # 74 kB); a join that left a cancelled job queued for each head call grew 6-8 MB here
    assert peaks[2] - peaks[1] < 1000 * 300, peaks


@pytest.mark.parametrize("workers, split_from", [("2", 0), ("1", 0), ("2", mvcl.loss.SPLIT_FROM)])
def test_an_overflowing_block_diverges_without_a_warning_split_or_whole(monkeypatch, workers, split_from):
    # Unshifted, logits of 1/sigma = 1000 overflow exp: train's error state turns that into NumericDivergence
    # on the pool threads too, where numpy's default state would warn.
    monkeypatch.setattr("mvcl.loss.SHIFT_ABOVE", np.inf)
    monkeypatch.setattr("mvcl.loss.SPLIT_FROM", split_from)
    monkeypatch.setenv("MVCL_THREADS", workers)
    cfg = TrainConfig(hp=HyperParams(d=2, sigma1=1e-3, sigma2=1e-3, sigma3=1e-3), max_iters=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericDivergence):
            train(_fits(3, 1, 2, 8), cfg)


def _split_heads_in_child(want):
    mvcl.loss.SPLIT_FROM = 0
    assert _heads(7, 2, 3, 6, 2, 0.1) == want


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # forking a process that has threads
def test_a_forked_child_splits_blocks_on_a_pool_of_its_own(monkeypatch):
    want = _heads(7, 2, 3, 6, 2, 0.1)
    monkeypatch.setattr("mvcl.loss.SPLIT_FROM", 0)
    monkeypatch.setenv("MVCL_THREADS", "2")
    assert _heads(7, 2, 3, 6, 2, 0.1) == want  # the parent's pool now has a thread
    child = multiprocessing.get_context("fork").Process(target=_split_heads_in_child, args=(want,))
    child.start()
    child.join(60)
    if child.exitcode is None:
        child.kill()
        child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("raw", ["-3", "abc", "1.5", "+2"])
def test_a_bad_thread_count_is_rejected_in_one_line(monkeypatch, raw):
    monkeypatch.setenv("MVCL_THREADS", raw)
    with pytest.raises(ValueError, match="MVCL_THREADS must be an integer >= 0") as e:
        mvcl.loss._threads()
    assert "\n" not in str(e.value) and repr(raw) in str(e.value)


@pytest.mark.parametrize("raw, want", [("3", 3), (" 2 ", 2), ("0", None), ("", None)])
def test_a_thread_count_reads_unset_and_zero_as_the_cpus(monkeypatch, raw, want):
    monkeypatch.setenv("MVCL_THREADS", raw)
    for var, value in zip(BLAS, ("1", "", "")):  # unset reads as the CPUs once BLAS runs one thread
        monkeypatch.setenv(var, value)
    cpus = len(mvcl.loss.os.sched_getaffinity(0)) if raw == "" else mvcl.loss.os.cpu_count()
    assert mvcl.loss._threads() == (want or cpus)


def test_unset_the_thread_count_is_the_cpus_only_when_blas_runs_one_thread(monkeypatch):
    cpus, started = len(os.sched_getaffinity(0)), threading.active_count()
    for mine, *blas in itertools.product([None, "", "0", "1", "3"], *[[None, "", "1", "4", " 1 "]] * len(BLAS)):
        for var, value in zip(("MVCL_THREADS", *BLAS), (mine, *blas)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        pinned = {v.strip() for v in blas if v and v.strip()} == {"1"}  # every one set, and one at least, reads 1
        want = int(mine) or os.cpu_count() if mine not in (None, "") else cpus if pinned else 1
        assert mvcl.loss._threads() == want, (mine, blas)
    assert threading.active_count() == started


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_cli_rejects_a_negative_thread_count_in_one_line(tmp_path, capsys, monkeypatch, command):
    data = tmp_path / "data"
    assert main(["synth", "--classes", "3", "--per-class", "6", "--dims", "12,10", "--shared", "2", "--specific", "2",
                 "--redundant", "2", "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("MVCL_THREADS", "-3")
    argv = {
        "train": ["train", "--views", f"{data}/view1.csv,{data}/view2.csv", "--d", "2", "--max-iters", "2",
                  "--out", str(tmp_path / "m.json")],
        "benchmark": ["benchmark", "--data", str(data), "--M", "3", "--repeats", "2", "--d-sweep", "2",
                      "--max-iters", "2", "--out", str(tmp_path / "r.csv")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MVCL_THREADS" in err and "'-3'" in err
