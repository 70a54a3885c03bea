"""A full pass runs the recovery head's anchor views on pool threads beside the P-only heads (``loss._recovery_head``).

Side by side, a pass must give the bits of the sequential one whatever the thread count, temperature and degenerate
columns; a P-only head that raises still waits for the row blocks; an overflow on the pool thread ends in
NumericDivergence; the sample head stays on the calling thread; the two heads' logit buffers together hold no more
than one anchor view's above a sequential pass, each made on the calling thread; and where the views cannot go to
the pool, the heads run one after the other.
"""

import hashlib
import math
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mvcl.loss
from conftest import peak_alloc
from mvcl import HyperParams, MultiViewDataset, TrainConfig, train
from mvcl.errors import NumericDivergence
from mvcl.loss import _col_norms, _f_head, _p_heads, _recovery_maps, _stacked, _unit_columns

# sigma on both sides of 1 / SHIFT_ABOVE: the plain softmax and the one shifted by the row maximum
SIGMAS = [1.0, 0.1, 1.0 / 300, 1.0 / 339, 1.0 / 341, 1.0 / 590, 1e-3]


def _bits(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes() if a is not None else b"None")
    return h.hexdigest()


def _point(seed, B, V, n, d=2, D=20, zero_columns=True):
    """Seeded heads' inputs of B fits: (X, nx, maps, Fmats, Y, Yh, ny), with one all-zero sample per view if asked,
    whose data and embedding norms are floored."""
    rng = np.random.default_rng(seed)
    dims = [D + (seed + m) % 3 for m in range(V)]
    X = [rng.standard_normal((B, D_m, n)) for D_m in dims]
    if zero_columns:
        for x in X:
            x[..., rng.integers(n)] = 0.0
    Fmats = [rng.standard_normal((B, d, D_m)) for D_m in dims]
    Y = _stacked([rng.standard_normal((B, d, D_m)) for D_m in dims], X)
    nx = [_col_norms(x) for x in X]
    return (X, nx, _recovery_maps(Fmats, X, nx), Fmats, Y, *_unit_columns(Y))


def _sequential(point, hp, grad):
    X, nx, maps, Fmats, Y, Yh, ny = point
    value, dY = _p_heads(Y, Yh, ny, hp, grad)
    rvalue, _, dF = _f_head(X, nx, maps, Fmats, Yh, ny, hp, want_dF=grad)
    return rvalue, dF, value, dY


def _side_by_side(point, hp, grad):
    X, nx, maps, Fmats, Y, Yh, ny = point
    rvalue, _, dF, value, dY = _f_head(X, nx, maps, Fmats, Yh, ny, hp, want_dF=grad,
                                       beside=lambda: _p_heads(Y, Yh, ny, hp, grad))
    return rvalue, dF, value, dY


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), B=st.integers(1, 3), V=st.integers(2, 4), n=st.integers(1, 9),
       sigma=st.sampled_from(SIGMAS), own=st.booleans(), grad=st.booleans(), workers=st.integers(1, 3))
def test_a_side_by_side_pass_gives_the_bits_of_the_sequential_one(seed, B, V, n, sigma, own, grad, workers):
    hp = HyperParams(d=2, sigma1=sigma, sigma2=sigma, sigma3=sigma, fea_include_self_view=own)
    point = _point(seed, B, V, n, D=3)
    want = [_bits(*_sequential(point, hp, grad))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("mvcl.loss.SPLIT_FROM", 0)  # every block is large: the heads run side by side
        mp.setenv("MVCL_THREADS", str(workers))
        assert [_bits(*_side_by_side(point, hp, grad))] == want


def _xent_threads(monkeypatch):
    """Record the thread of each ``_xent`` call, keyed by its block's rank: 4 sample (and feature), 5 recovery."""
    seen, xent = {}, mvcl.loss._xent

    def recorded(S, *args, **kwargs):
        seen.setdefault(S.ndim, set()).add(threading.get_ident())
        return xent(S, *args, **kwargs)

    monkeypatch.setattr("mvcl.loss._xent", recorded)
    return seen


def test_a_full_pass_at_fit_size_runs_the_recovery_blocks_on_a_pool_thread(monkeypatch):
    monkeypatch.setenv("MVCL_THREADS", "2")
    seen = _xent_threads(monkeypatch)
    point, hp = _point(3, 1, 2, 1500, d=4), HyperParams(d=4)
    side_by_side, main = _bits(*_side_by_side(point, hp, True)), threading.get_ident()
    assert seen[4] == {main} and main not in seen[5]  # the sample head here, the recovery head there
    seen.clear()
    assert _bits(*_sequential(point, hp, True)) == side_by_side
    # alone, the sample head runs both its anchor views here, and the recovery head one here and one on the pool
    assert seen[4] == {main} and main in seen[5] and len(seen[5]) == 2


def test_at_three_threads_for_three_views_the_recovery_views_run_on_the_pool_beside_the_sample_head(monkeypatch):
    monkeypatch.setenv("MVCL_THREADS", "3")
    seen = _xent_threads(monkeypatch)
    point, hp = _point(3, 1, 3, 1500, d=4), HyperParams(d=4)
    side_by_side, main = _bits(*_side_by_side(point, hp, True)), threading.get_ident()
    assert seen[4] == {main} and main not in seen[5]
    seen.clear()
    assert _bits(*_sequential(point, hp, True)) == side_by_side
    assert seen[4] == {main} and main in seen[5]  # alone, one recovery view runs here


@pytest.mark.parametrize("why", ["one thread", "a zero beta", "benchmark's batch threads"])
def test_a_full_pass_stays_on_the_calling_thread_when_it_cannot_go_side_by_side(monkeypatch, why):
    monkeypatch.setenv("MVCL_THREADS", "1" if why == "one thread" else "2")
    hp = HyperParams(d=4, beta=0.0 if why == "a zero beta" else 1.0)
    seen, point = _xent_threads(monkeypatch), _point(3, 1, 2, 1500, d=4)
    if why == "benchmark's batch threads":  # two passes forked as benchmark forks its batches: no thread is free
        executor, calls = mvcl.loss._executor, []
        monkeypatch.setattr("mvcl.loss._executor", lambda: calls.append(1) or executor())
        mvcl.loss._fork([lambda: _side_by_side(point, hp, True)] * 2)
        assert len(calls) == 1  # the passes' heads fork nothing: each runs on the one thread of its job
        assert seen[4] == seen[5] and len(seen[4]) == 2
    else:
        _side_by_side(point, hp, True)
        assert set().union(*seen.values()) == {threading.get_ident()}


def test_a_raising_p_only_head_waits_for_the_row_blocks(monkeypatch):
    monkeypatch.setattr("mvcl.loss.SPLIT_FROM", 0)
    monkeypatch.setenv("MVCL_THREADS", "2")
    main, xent, finished = threading.get_ident(), mvcl.loss._xent, []

    def slow(S, *args, **kwargs):  # the row blocks on the pool thread outlast the failing head
        if threading.get_ident() != main:
            time.sleep(0.01)
        out = xent(S, *args, **kwargs)
        finished.append(threading.get_ident())
        return out

    monkeypatch.setattr("mvcl.loss._xent", slow)
    X, nx, maps, Fmats, Y, Yh, ny = _point(5, 1, 2, 9)

    def beside():
        raise RuntimeError("a P-only head failed")

    with pytest.raises(RuntimeError, match="a P-only head failed"):
        _f_head(X, nx, maps, Fmats, Yh, ny, HyperParams(d=2), want_dF=True, beside=beside)
    count = len(finished)
    time.sleep(0.2)
    assert len(finished) == count > 0 and main not in finished  # every block had finished, on the pool thread


def test_an_overflowing_block_on_the_pool_thread_diverges_without_a_warning(monkeypatch):
    # Unshifted, the recovery head's logits of 1/sigma2 = 1000 overflow exp on the pool thread, where train's
    # error state must hold too; the P-only heads, at sigma 0.1, stay finite.
    monkeypatch.setattr("mvcl.loss.SHIFT_ABOVE", np.inf)
    monkeypatch.setattr("mvcl.loss.SPLIT_FROM", 0)
    monkeypatch.setenv("MVCL_THREADS", "2")
    seen = _xent_threads(monkeypatch)
    rng = np.random.default_rng(3)
    ds = MultiViewDataset(tuple(rng.standard_normal((D, 8)) for D in (5, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericDivergence, match="initial loss is not finite"):
            train(ds, TrainConfig(hp=HyperParams(d=2, sigma2=1e-3), max_iters=3))
    assert threading.get_ident() not in seen[5]


def test_a_side_by_side_pass_peaks_at_most_one_slab_above_the_sequential_one(monkeypatch):
    monkeypatch.setenv("MVCL_THREADS", "2")
    point, hp = _point(42, 1, 2, 1500, d=4), HyperParams(d=4)
    _sequential(point, hp, True)  # warm the positives' index cache, as both passes below then find it
    sequential = peak_alloc(lambda: _sequential(point, hp, True))
    side_by_side = peak_alloc(lambda: _side_by_side(point, hp, True))
    # one anchor view's logit buffer: one of the recovery head's 2 pairs x ROWS // 2 rows x n logits
    view = mvcl.loss.ROWS // 2 * 1500 * 8
    assert side_by_side <= sequential + view


class _RecordedNumpy:
    """numpy, but each np.empty is recorded as (thread, entries)."""

    def __init__(self, made):
        self.made = made

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *args, **kwargs):
        self.made.append((threading.get_ident(), math.prod(np.atleast_1d(shape))))
        return np.empty(shape, *args, **kwargs)


def test_at_three_views_each_side_gets_one_buffer_of_its_own_slab_made_on_the_calling_thread(monkeypatch):
    # The pool thread writes only arrays the calling thread made: its own malloc arena would not reuse the memory
    # the calling thread frees. At V = 3 each head runs its 3 anchor views one after the other in one buffer: the
    # recovery head's on the pool thread, of one view's 2 pairs, and the sample head's here, of one view's rows.
    monkeypatch.setenv("MVCL_THREADS", "2")
    made, main = [], threading.get_ident()
    monkeypatch.setattr("mvcl.loss.np", _RecordedNumpy(made))
    point, hp = _point(8, 1, 3, 1500, d=4), HyperParams(d=4)
    _side_by_side(point, hp, True)
    block = mvcl.loss.ROWS // 6 * 1500  # one pair's rows of one recovery block: less than any view's buffer
    assert made and all(size < block for thread, size in made if thread != main)
    buffers = [size for thread, size in made if thread == main and size >= block]
    assert sorted(buffers) == [2 * block, mvcl.loss.ROWS // 3 * 3000]  # one per side, once


def test_the_full_pass_and_the_dy_pass_share_one_pool(monkeypatch):
    # With 3 threads and V = 2, the full pass runs both recovery views on the pool and the dY pass at (P, F') one:
    # both take the one pool of all threads but the caller's.
    made, executor = [], mvcl.loss.ThreadPoolExecutor

    class Counted(executor):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("mvcl.loss.ThreadPoolExecutor", Counted)
    monkeypatch.setattr("mvcl.loss._pool", (None, None))
    monkeypatch.setattr("mvcl.loss.SPLIT_FROM", 0)
    monkeypatch.setenv("MVCL_THREADS", "3")
    rng = np.random.default_rng(4)
    ds = MultiViewDataset(tuple(rng.standard_normal((D, 12)) for D in (6, 5)))
    train(ds, TrainConfig(hp=HyperParams(d=2), max_iters=4))
    assert made == [(2,)]
