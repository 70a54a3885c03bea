"""Temperature-scaled cosine similarity and the three contrastive losses.

All three heads are softmax cross-entropies over exponentiated cosine
similarities:

  sample level    anchors are subspace sample embeddings, positives are the
                  same sample seen in the other views, negatives are other
                  samples in the other views;
  feature level   anchors are subspace feature rows, the positive is the
                  same row index in the other (or same) view, negatives are
                  the remaining row indices;
  recovery level  anchors are original samples, candidates are cross-view
                  embeddings mapped back to the anchor view's ambient space.

All three heads share one softmax cross-entropy, ``_xent``, giving one loss per anchor row and the unnormalised
gradient from one pass; it alone holds the exponential, the overflow rule (``SHIFT_ABOVE``) and the positives'
layout. The sample and recovery heads also share one blocked contrast, ``_contrast``, which runs every group of
their one layout rule, ``_groups`` (rows per block and anchor-view groups), and writes both gradients into arrays:
the recovery head forms dF from its anchors' gradient in closed form, after the contrast. The feature head, one
Gram block, keeps its own.

The heads run B fits at once, fits of one n, D_m, d and set of hyperparameters: every array carries a leading
fit axis, then a view axis. Y, its unit columns Yh (``_unit_columns``) and the recovery anchors
W_m = F_m (X^m / nx^m) are (B, V, d, n) whatever the D_m; view m's data X^m (B, D_m, n) is read with its column
norms nx, never held as a unit-column copy; each head returns B losses. Each head runs all its view pairs as one
batch: the sample head its V anchor views, the recovery head its V(V-1) ordered pairs in d-space, through
R_m = F_m F_m^T (``_recovery_maps``), the feature head the V candidate views of every row of one Gram block.
``ROWS`` anchor rows are shared over a batch's fits and pairs: one ROWS x kn logit block is alive. A large block
(``SPLIT_FROM``) runs one anchor view at a time (``_groups``), and only the recovery head's views go to other
threads, beside the sample head (``_recovery_head``), through ``_fork``, the one fork-join of the library, which
``evaluate.benchmark`` also uses for its batches. A batch holds at most ``_batch_limit`` fits, so that each fit
runs in one row block, as it does alone, and gets its result alone. Every expectation is an arithmetic mean over
the anchor index and a plain sum over view pairs, so loss magnitudes do not grow with n. Accumulation is float64
with a fixed left-to-right ordering for reproducibility.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .data import MultiViewDataset
from .errors import DimError

# Norms are floored rather than raised on, keeping the objective finite and
# differentiable at degenerate (zero-embedding) parameter values.
NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class HyperParams:
    """Objective weights and temperatures.

    ``alpha`` weights the feature-level head, ``beta`` the recovery-level
    head; the three sigmas are the per-head temperatures (independent knobs,
    one default). ``fea_include_self_view`` keeps the same-view pair inside
    the feature-level sum; set False to restrict it to cross-view pairs.
    """

    d: int
    alpha: float = 1.0
    beta: float = 1.0
    sigma1: float = 0.1
    sigma2: float = 0.1
    sigma3: float = 0.1
    fea_include_self_view: bool = True

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and >= 0")
        for name in ("sigma1", "sigma2", "sigma3"):
            _check_temperature(name, getattr(self, name))


def _check_temperature(name: str, sigma: float) -> None:
    """Reject a temperature that is not finite and > 0: 1/sigma scales every logit, so it must be finite too."""
    if not (0 < sigma < math.inf and 1.0 / float(sigma) < math.inf):
        raise ValueError(f"{name} must be finite and > 0, with a finite reciprocal")


@dataclass(frozen=True)
class _ViewMatrices:
    """One checked matrix per view, each with d along axis ``AXIS`` and D_m along the other.

    The matrices are copied as float64 and made read-only. A matrix that is not
    2-D or has a non-finite entry, an empty set, or a d that differs between
    views raises, naming the matrix (``WHAT``) and its view.
    """

    mats: tuple[np.ndarray, ...]
    WHAT, AXIS = "", 0

    def __post_init__(self):
        mats = []
        for m, a in enumerate(self.mats):
            a = np.array(a, dtype=float)
            if a.ndim != 2:
                raise DimError(f"{self.WHAT} {m} must be 2-D")
            if not np.isfinite(a).all():
                raise ValueError(f"{self.WHAT} {m} contains non-finite entries")
            a.setflags(write=False)
            mats.append(a)
        if not mats:
            raise DimError(f"no {self.WHAT} matrices given")
        d = mats[0].shape[self.AXIS]
        for m, a in enumerate(mats):
            if a.shape[self.AXIS] != d:
                raise DimError(f"{self.WHAT} {m} has d = {a.shape[self.AXIS]}, expected {d}")
        object.__setattr__(self, "mats", tuple(mats))

    @property
    def V(self) -> int:
        return len(self.mats)

    @property
    def d(self) -> int:
        return self.mats[0].shape[self.AXIS]

    def check(self, ds: MultiViewDataset, d: int) -> None:
        """Raise DimError unless the set holds one matrix per view of ``ds``, with d = ``d`` and D_m = the view's features."""
        if self.V != ds.V:
            raise DimError(f"{self.V} {self.WHAT} matrices for {ds.V} views")
        for m, (a, D) in enumerate(zip(self.mats, ds.dims)):
            want = (D, d) if self.AXIS else (d, D)
            if a.shape != want:
                raise DimError(f"{self.WHAT} {m} has shape {a.shape}, expected {want}")


class ProjectionSet(_ViewMatrices):
    """One D_m x d projection per view; columns span the shared subspace."""

    WHAT, AXIS = "projection", 1

    def __post_init__(self):
        super().__post_init__()
        if self.d < 1:
            raise DimError("projections need at least one column")


class RecoverySet(_ViewMatrices):
    """One d x D_m map per view, from the subspace back to ambient space."""

    WHAT, AXIS = "recovery", 0


# Anchor rows per logit block, summed over a batch of B blocks side by side:
# each of them holds max(1, ROWS // B) rows. A head's memory then grows with
# n, not n², and the exp, sum and divide passes run over ROWS x kn logits
# (6 MB at kn = 3000) instead of streaming the whole matrix through memory.
ROWS = 256


def _batch_limit(V: int, n: int, d: int) -> int:
    """The most fits (at least 1) of V views, n samples and d dimensions that every head runs side by side, each
    in one row block as it runs alone, so with the arithmetic it has alone: B V(V-1) n <= ROWS for the recovery
    head, which implies the sample head's B V n <= ROWS, and B V^2 d <= ROWS for the feature head."""
    return max(1, min(ROWS // (V * (V - 1) * n), ROWS // (V * V * d)))

# Every logit lies in [-1/sigma, 1/sigma]. Unshifted, a row of kn logits has rs <= kn e^(1/sigma) and positives
# summing to >= e^(-1/sigma), so rs and rs / positives <= kn e^(2/sigma) stay finite and nonzero while 2/sigma +
# ln(kn) < 709.78 (the largest double is e^709.78): up to 1/sigma = 340 for rows of up to 8e12 logits. Only above
# it is the softmax shifted by the row maximum, at two passes over the logits that tie their rounding to it.
SHIFT_ABOVE = 340.0

# A head whose all-view logit block holds at least this many entries runs its row blocks one anchor view at a time
# (``_groups``), and the recovery head forks its views (``_fork``); a smaller block runs whole on the calling
# thread. ``_fork`` runs jobs of fewer logits in order (``evaluate.benchmark``'s batches, by a pass's logits). Measured
# on 2 cores, V = 2: a split train took 1.23x (d = 5) and 0.94x (d = 20) the time of a whole one at n = 600, 153,600
# logits a block, and 0.88x and 0.78x at n = 1000, 256,000 logits.
SPLIT_FROM = 200_000
_pool = (None, None)  # ((pid, threads), the executor of all threads but the caller's), made anew in a forked child
_forked = contextvars.ContextVar("mvcl_forked", default=False)  # True in a job of _fork: its forks run in order


def _executor() -> ThreadPoolExecutor:
    """The pool of all threads but the caller's (``_threads``), made anew for a new count and in a forked child."""
    global _pool
    if _pool[0] != (key := (os.getpid(), _threads())):
        _pool = (key, ThreadPoolExecutor(key[1] - 1))
    return _pool[1]


def _fork(jobs: list, logits: float = math.inf) -> list:
    """The results of the callables ``jobs``, or the first error, in job order once every thread has stopped: the
    fixed join order gives the serial result (Cilk-5: Frigo, Leiserson & Randall, 1998). With T = min(len(jobs),
    ``_threads``) > 1 and ``SPLIT_FROM`` ``logits`` a job or more, thread t runs jobs t, t + T, ... in order up to
    its first error (thread 0 here, the others on the pool), each in a copy of this context (so under its numpy
    error state) where ``_threads`` reads 1: a job's own forks run in order on its thread."""
    T = min(len(jobs), _threads())
    if T == 1 or logits < SPLIT_FROM:
        return [job() for job in jobs]
    results, failed = [None] * len(jobs), []

    def share(t):  # thread t's jobs, in order up to its first error
        for i in range(t, len(jobs), T):
            try:
                results[i] = jobs[i]()
            except BaseException as e:  # raised below, once every thread has stopped
                failed.append((i, e))
                return

    pool, context = _executor(), contextvars.copy_context()
    context.run(_forked.set, True)
    futures = [pool.submit(context.copy().run, share, t) for t in range(1, T)]
    try:
        context.run(share, 0)
    finally:
        wait(futures)  # the pool's jobs write into this caller's arrays
    if failed:
        raise min(failed)[1]  # the indices differ, and no job before this one raised
    return results


def _threads() -> int:
    """The threads that a fork here may use: 1 in a job of ``_fork``, else those MVCL_THREADS asks for, 0 meaning one
    per CPU. Unset, the CPUs this process may run on if BLAS runs one thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
    MKL_NUM_THREADS is set, and each one set reads 1), else 1: on 2 cores, mvcl's threads beside BLAS's made a
    fit_large-size train 2-2.5x slower than one mvcl thread."""
    raw = os.environ.get("MVCL_THREADS", "").strip()
    if raw and not raw.isdecimal():
        raise ValueError(f"MVCL_THREADS must be an integer >= 0, got {raw!r}")
    blas = {os.environ.get(v, "").strip() for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if _forked.get() or not raw and blas - {""} != {"1"}:
        return 1
    mine = os.sched_getaffinity(0) if not raw and hasattr(os, "sched_getaffinity") else ()
    return len(mine) or int(raw or 0) or os.cpu_count() or 1


def cosine_logits(Ah: np.ndarray, Bh: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """All-pairs temperature-scaled cosines of unit columns: S = Ah^T (Bh / sigma), into ``out`` if given.

    A 2-D logit block of the sample head, whose batched block is filled one anchor
    view at a time; its caller normalises every column once (:func:`_unit_columns`).
    """
    return np.matmul(Ah.T, Bh / sigma, out=out)


# 64 shapes hold the three heads' one-block calls at batch sizes up to 21, and the 49 blocks of a V = 2 fit at n = 3000.
@lru_cache(maxsize=64)
def _positive_index(shape: tuple[int, ...], k: int, r0: int) -> np.ndarray:
    """Flat indices into a block of ``shape`` (..., c, k*n), anchor rows r0..r0+c-1 in every
    batch entry, of the positives (..., i, b*n + (r0 + i) % n) for b < k: shape (..., c, k)."""
    *batch, c, kn = shape
    idx = np.arange(c)[:, None] * kn + np.arange(0, kn, kn // k) + (np.arange(r0, r0 + c) % (kn // k))[:, None]
    idx = (np.arange(math.prod(batch))[:, None, None] * (c * kn) + idx).reshape(*batch, c, k)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=8)
def _partners(V: int) -> tuple[np.ndarray, np.ndarray]:
    """(partner, gather): pair a(V-1) + j joins view a to partner[a(V-1) + j]; gather[v] lists v's pairs."""
    a = np.arange(V)[:, None]
    others = np.arange(V - 1) + (np.arange(V - 1) >= a)
    return others.ravel(), others * (V - 1) + a - (a > others)


def _pairs(A: np.ndarray) -> np.ndarray:
    """A (B, V, ...) read at every pair's partner view: (B, V, V-1, ...), entry [., a, j] the j-th view other than a."""
    B, V, *rest = A.shape
    return A.take(_partners(V)[0], axis=1).reshape(B, V, V - 1, *rest)


def _to_views(G: np.ndarray) -> np.ndarray:
    """The inverse scatter of ``_pairs``: the terms G[., a, j] (B x V x (V-1) x ...) summed onto their partner views."""
    B, V, _, *rest = G.shape
    return np.add.reduce(G.reshape(B, -1, *rest).take(_partners(V)[1], axis=1), axis=2)


def _through_norm(G: np.ndarray, Xh: np.ndarray, nx: np.ndarray, scale: float) -> np.ndarray:
    """Pull a gradient G w.r.t. the unit columns Xh = X / nx back onto X, over the last two axes.

    Removes each column's component along Xh, except for columns at the norm
    floor (the floor is constant there), then multiplies each column by
    scale / nx; ``scale`` is a number or one per column. In place.
    """
    radial = np.add.reduce(Xh * G, axis=-2)
    radial *= nx > NORM_FLOOR
    G -= Xh * radial[..., None, :]
    G *= (scale / nx)[..., None, :]
    return G


def _xent(S: np.ndarray, sigma: float, k: int, grad: bool, r0: int = 0):
    """Softmax cross-entropy along the last axis of S (B, V, ..., c, kn), a block of anchor rows r0.. of B fits and
    their views, row i's positives at (..., i, b*n + (r0 + i) % n), n = kn // k: the one softmax of every head.
    Returns (the row losses, E = rs * dloss/dS in place of S, 1/rs), or None for both without ``grad``: callers
    scale small factors by 1/rs, not E by rs. An entry of -inf drops out of its row, and a row whose one finite
    entry is its positive gives a loss and gradient of exactly 0."""
    pidx = _positive_index(S.shape, k, r0)
    if 1.0 / sigma > SHIFT_ABOVE:
        pos = S.take(pidx)
        top = S.max(axis=-1, keepdims=True)
        S -= top
        pos -= top
        E = np.exp(S, out=S)
        rs = np.add.reduce(E, axis=-1)
        # exp of a positive far below its row maximum underflows: stay in logs.
        lse = np.logaddexp.reduce(pos, axis=-1)
        pos, scale, losses = np.exp(pos - lse[..., None]), rs, np.log(rs) - lse
    else:
        E = np.exp(S, out=S)
        rs = np.add.reduce(E, axis=-1)
        pos = E.take(pidx)
        # From E itself, so that a row whose only entry is its positive gives exactly 0.
        scale = rs / np.add.reduce(pos, axis=-1)
        losses = np.log(scale)
    if not grad:
        return losses, None, None
    # rs * (softmax over the row - softmax over the row's positives)
    E.ravel()[pidx] -= pos * scale[..., None]
    return losses, E, 1.0 / rs


def _groups(lead: tuple, n: int, kn: int, *arrays) -> tuple[list, tuple]:
    """A blocked head's layout, for anchors of n rows against kn candidates in every batch entry of ``lead`` (B, V,
    ...): (groups of ``arrays``, one group's logit block shape). ``ROWS`` anchor rows are shared over the entries. An
    all-view block of ``SPLIT_FROM`` logits or more makes one group per anchor view a: arrays (B, V, ...) sliced to
    [:, a:a+1], None kept. Else the one group is ``arrays`` whole."""
    entries = math.prod(lead)
    rows = min(n, max(1, ROWS // entries))
    if entries * rows * kn < SPLIT_FROM:
        return [arrays], (*lead, rows, kn)
    groups = [[x if x is None else x[:, a:a + 1] for x in arrays] for a in range(lead[1])]
    return groups, (lead[0], 1, *lead[2:], rows, kn)


def _view_logits(A, C, sigma, out):
    """The sample head's block: a 2-D ``cosine_logits`` call per fit and anchor view of A (B, V, d, c), into out."""
    for p in product(range(A.shape[0]), range(A.shape[1])):
        cosine_logits(A[p], C[p], sigma, out=out[p])
    return out


def _contrast(groups, sigma, buf, scales, fill=None):
    """Each group's row losses (``_xent``), a list of its blocks', for the groups (A, C, dC, dA) of ``_groups``: the
    anchors A (..., d, n) against the candidates C (..., d, kn) over their broadcast batch axes, anchor i's positives
    being C's columns b n + i for b < k = kn / n. The one row-block loop of the sample and recovery heads. A block of
    ``buf``'s rows (axis -2) of every batch entry holds its logits (A / sigma)^T C, or fill(rows of A, C, sigma,
    block), in ``buf``. With a dC and (s_A, s_C) = ``scales``, the candidates' gradient s_C (A / rs) E is written to
    dC, summed one batch entry at a time after the first block so that no second dC-sized array is alive, and with a
    dA the anchors' gradient s_A C E^T / rs, by rows, to dA."""
    out = []
    for A, C, dC, dA in groups:
        n = A.shape[-1]
        k, rows, losses = C.shape[-1] // n, buf.shape[-2], []
        for r0 in range(0, n, rows):
            cols = slice(r0, r0 + rows)
            a, m = A[..., cols], min(rows, n - r0)
            S = buf if m == rows else buf.reshape(-1)[:buf.size // rows * m].reshape(*buf.shape[:-2], m, -1)
            S = fill(a, C, sigma, S) if fill else np.matmul((a / sigma).swapaxes(-1, -2), C, out=S)
            block, E, inv = _xent(S, sigma, k, dC is not None, r0)
            losses.append(block)
            if dC is None:
                continue
            inv = inv[..., None, :]
            scaled = inv if scales[1] == 1.0 else inv * scales[1]
            part = a * scaled
            if r0 == 0:
                np.matmul(part, E, out=dC)
            else:
                for p in product(*map(range, E.shape[:-2])):
                    dC[p] += part[p] @ E[p]
            if dA is not None:
                block = np.matmul(C, E.swapaxes(-1, -2), out=dA[..., cols])
                block *= scaled if scales[0] == scales[1] else scales[0] * inv
        out.append(losses)
    return out


def _summed(blocks: list[list[np.ndarray]], B: int) -> np.ndarray:
    """Each fit's loss (B,) from the row losses of every group's blocks (``_xent``), a list per group. A block's
    groups are joined along the view axis first, so each fit's sum runs in the order of the whole block's."""
    total = None
    for parts in zip(*blocks):
        losses = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        loss = np.add.reduce(losses.reshape(B, -1), axis=1)
        total = loss if total is None else total + loss  # not 0.0 + loss: a pass fewer, the same bits
    return total


def _col_norms(A: np.ndarray) -> np.ndarray:
    """||a_i|| over the last two axes, floored."""
    # np.linalg.norm(A, axis=-2) computes these norms, behind microseconds of argument handling.
    return np.maximum(np.sqrt(np.add.reduce(A * A, axis=-2)), NORM_FLOOR)


def _unit_columns(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A / ||a_i||, ||a_i||) over the last two axes, norms floored: an array's unit columns, formed once."""
    norms = _col_norms(A)
    return A / norms[..., None, :], norms


def _stacked(left, right) -> np.ndarray:
    """The products left[m] @ right[m] of B fits (B, rows, cols each), written into one (B, V, rows, cols) array."""
    out = np.empty((len(left[0]), len(left), left[0].shape[1], right[0].shape[2]))
    for m, (a, b) in enumerate(zip(left, right)):
        np.matmul(a, b, out=out[:, m])
    return out


def _recovery_maps(Fmats, X, nx) -> tuple[np.ndarray, np.ndarray]:
    """(W, R): the recovery anchors W_m = F_m (X^m / nx^m) (B, V, d, n), one view's X^m / nx^m
    alive at a time, and the Gram matrices R_m = F_m F_m^T (B, V, d, d)."""
    W = np.empty((len(X[0]), len(Fmats), Fmats[0].shape[1], X[0].shape[2]))
    for m, (f, x, s) in enumerate(zip(Fmats, X, nx)):
        np.matmul(f, x / s[:, None], out=W[:, m])
    return W, _stacked(Fmats, [f.swapaxes(1, 2) for f in Fmats])


def embeddings(P: ProjectionSet, ds: MultiViewDataset) -> np.ndarray:
    """Per-view subspace embeddings P_m^T X^m, stacked: (V, d, n)."""
    P.check(ds, P.d)
    return _stacked([a.T[None] for a in P.mats], [x[None] for x in ds.views])[0]


def _point(P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset):
    """Every head's inputs at (P, F) as a batch of one fit, each formed once: (Y, Yh, ny, X, nx, Fmats, (W, R))."""
    Y = embeddings(P, ds)[None]
    F.check(ds, P.d)
    X, Fmats = [x[None] for x in ds.views], [f[None] for f in F.mats]
    nx = [_col_norms(x) for x in X]
    return (Y, *_unit_columns(Y), X, nx, Fmats, _recovery_maps(Fmats, X, nx))


def _sample_head(Yh: np.ndarray, ny: np.ndarray, sigma: float, grad: bool = False):
    """Sample-level losses at the unit embeddings Yh (B, V, d, n), norms ny (B, V, n), and d/dY with ``grad`` or None.

    Anchor view a contrasts its samples against the other views placed side
    by side: sample i in every other view is a positive, all other samples
    there are negatives, and same-view pairs never enter. The B fits' V anchor views
    are one batch of ``_contrast``, laid out by ``_groups`` (ROWS // (BV) rows of every
    anchor view a block, or one anchor view's), filled on the calling thread by one 2-D
    ``cosine_logits`` call per fit and anchor view; both gradients carry 1/(n sigma). The
    candidates' gradients are scattered back onto their views, and each view's gradient
    is pulled back through its norm once.
    """
    B, V, d, n = Yh.shape
    C = _pairs(Yh).swapaxes(2, 3).reshape(B, V, d, (V - 1) * n)
    scale = 1.0 / (n * sigma)
    dY, dC = (np.empty(Yh.shape), np.empty(C.shape)) if grad else (None, None)
    groups, shape = _groups((B, V), n, C.shape[3], Yh, C, dC, dY)
    buf = np.empty(shape)  # one group's block, for each group in turn
    total = _summed(_contrast(groups, sigma, buf, (scale, scale), _view_logits), B)
    if not grad:
        return total / n, None
    dY += _to_views(dC.reshape(B, V, d, V - 1, n).swapaxes(2, 3))
    return total / n, _through_norm(dY, Yh, ny, 1.0)


def _feature_head(Y: np.ndarray, sigma: float, include_self_view: bool, grad: bool = False):
    """Feature-level losses of the embeddings Y (B, V, d, n), and d/dY with ``grad`` (else None).

    The contrasted vectors are the rows of Y: row k of view m against all d
    rows of view v, with the same row index as the positive. The V*d rows, as
    unit columns Qh of [Y^1; ...; Y^V]^T, form one Gram block G = Qh^T Qh / sigma per fit,
    ROWS // (BV) anchor rows (m, k) at a time: one GEMM per fit, then moved to (B, V, c, d),
    one batch entry per candidate view v, for ``_xent``, whose positive (r0 + i) % d is
    the diagonal of each (m, v) block. Without ``include_self_view`` each row's
    m = v entry is -inf off its positive, so its loss and gradient are exactly 0.
    dQh = Qh (dG + dG^T) / sigma.
    """
    B, V, d, n = Y.shape
    Q = Y.reshape(B, V * d, n).swapaxes(1, 2)
    Qh, nq = _unit_columns(Q)
    Qs = Qh / sigma
    c = max(1, ROWS // (B * V))
    blocks, dQ = [], np.zeros(Q.shape) if grad else None
    for r0 in range(0, V * d, c):
        rows = slice(r0, r0 + c)
        S = np.ascontiguousarray((Qh[..., rows].swapaxes(1, 2) @ Qs).reshape(B, -1, V, d).swapaxes(1, 2))
        if not include_self_view:
            (own, k), i = divmod(np.arange(r0, r0 + S.shape[2]), d), np.arange(S.shape[2])
            S[:, own, i] = np.where(np.arange(d) == k[:, None], S[:, own, i], -np.inf)
        losses, E, inv = _xent(S, sigma, 1, grad, r0)
        blocks.append(losses)
        if grad:
            E *= inv[..., None]
            E = E.swapaxes(1, 2).reshape(B, -1, V * d)  # dG, back in the Gram block's layout
            dQ[..., rows] += Qh @ E.swapaxes(1, 2)
            dQ += Qh[..., rows] @ E
        del S, E  # so that the next block is formed after this one is freed
    dY = _through_norm(dQ, Qh, nq, 1.0 / (d * sigma)).swapaxes(1, 2).reshape(B, V, d, n) if grad else None
    return _summed([blocks], B) / d, dY


def _recovery_head(X, nx, maps, Fmats, Yh, ny, sigma, want_dY=False, want_dF=False, beside=None):
    """Recovery losses, with d/dY (B, V, d, n) if ``want_dY`` and d/dF if ``want_dF`` (each else None), followed
    by the items of the tuple that beside() returns, if given.

    Anchor x_i^m / nx_i^m (fixed data X over its column norms nx) is contrasted with the columns of F_m^T Y^v,
    view v's embeddings mapped back into view m's ambient space. All V(V-1) ordered pairs (m, v) of the B fits are
    one batch of ``_contrast``, in d-space: with Xh = X / nx, yh = Y^v / ny, (W, R) = ``maps`` (W = F_m Xh,
    R = F_m F_m^T), nz = ||F_m^T yh|| = sqrt(colsum(yh * R yh)) (floored, also where rounding takes it below 0),
    U = yh / nz, S = W^T U / sigma, c = 1/(n sigma), E = n dloss/dS and r = colsum(U * W E) (0 where nz is
    floored): dY = (W E - R U r) c / (nz ny) and, in closed form after the contrast, dF = dW Xh^T - (c r U) U^T F_m
    summed over v, where dW = c U E^T is the anchors' gradient that ``_contrast`` writes. Beside the ROWS x n block,
    U, W E and, with dF, dW hold BV(V-1) d n floats each, so memory also grows with V^2 d. At d = 1, yh is exactly
    +-1 and yh * R yh = R: the loss is bit-constant in P, as the objective is. dF is one (B, d, sum(D_m)) array,
    view m's in its m-th columns.

    From ``SPLIT_FROM`` logits the blocks run one anchor view at a time; with several threads, runs of consecutive
    views are forked (``_fork``), one per thread: all beside beside(), which runs here, else one of them here. Each
    run's buffer is made here: a pool thread's own malloc arena would not reuse the memory this thread frees.
    """
    W, R = maps[0], maps[1][:, :, None]  # R_m for every pair (m, v)
    B, V, d, n = Yh.shape
    U = _pairs(Yh)
    nz = np.maximum(np.sqrt(np.maximum(np.add.reduce(U * (R @ U), axis=3), 0.0)), NORM_FLOOR)
    U /= nz[..., None, :]
    c, grad = 1.0 / (n * sigma), want_dY or want_dF
    WE = np.empty(U.shape) if grad else None
    dW = np.empty(U.shape) if want_dF else None
    groups, shape = _groups((B, V, V - 1), n, n, W[:, :, None], U, WE, dW)  # shape: each run's buffer, made here
    if len(groups) == 1 or (threads := _threads()) == 1:
        side = beside() if beside else ()
        blocks = _contrast(groups, sigma, np.empty(shape), (c, 1.0))
    else:
        k = min(V, threads - (beside is not None))
        runs = [partial(_contrast, groups[V * i // k:V * (i + 1) // k], sigma, np.empty(shape), (c, 1.0))
                for i in range(k)]
        side, *done = _fork([beside, *runs]) if beside else ((), *_fork(runs))
        del runs  # and with them their buffers, before dY and dF are formed
        blocks = [losses for run in done for losses in run]
    total = _summed(blocks, B)
    if not grad:
        return (total / n, None, None) + side
    r = np.add.reduce(U * WE, axis=3) * (nz > NORM_FLOOR)
    dY = _to_views((WE - R @ U * r[..., None, :]) * (c / (nz * _pairs(ny)))[..., None, :]) if want_dY else None
    if want_dF:  # each anchor view's dW summed over its pairs, times its Xh^T
        G = np.add.reduce((U * (c * r)[..., None, :]) @ U.swapaxes(3, 4), axis=2)
        dF = [a @ (x / s[:, None]).swapaxes(1, 2) - b @ f
              for a, b, x, s, f in zip(np.add.reduce(dW, axis=2).swapaxes(0, 1), G.swapaxes(0, 1), X, nx, Fmats)]
    return (total / n, dY, np.concatenate(dF, axis=2) if want_dF else None) + side


def sample_level_loss(P: ProjectionSet, ds: MultiViewDataset, sigma1: float) -> float:
    """Cross-view sample contrast over subspace embeddings.

    For each anchor (view a, sample i) the positives are sample i in every
    other view, the negatives are all other samples in the other views;
    same-view pairs never enter. The per-anchor terms are averaged over i
    and summed over anchor views.
    """
    _check_temperature("sigma1", sigma1)
    return float(_sample_head(_unit_columns(embeddings(P, ds)[None])[0], None, sigma1)[0][0])


def feature_level_loss(
    P: ProjectionSet,
    ds: MultiViewDataset,
    sigma3: float,
    include_self_view: bool = True,
) -> float:
    """Row-index contrast between subspace feature rows of view pairs.

    Row k of one view's embedding is contrasted against all d rows of the
    other view; only the matching row index counts as positive. This pushes
    distinct subspace dimensions apart, removing redundant coordinates.
    """
    _check_temperature("sigma3", sigma3)
    return float(_feature_head(embeddings(P, ds)[None], sigma3, include_self_view)[0][0])


def recovery_level_loss(
    P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset, sigma2: float
) -> float:
    """Contrast between original samples and cross-view recovered samples.

    The embedding of sample j in view v is mapped back into view m's ambient
    space by F_m; anchor x_i^m should match its own recovery (j = i) better
    than anyone else's. Captures information about view m that the other
    views' embeddings must retain.
    """
    _check_temperature("sigma2", sigma2)
    _, Yh, ny, X, nx, Fmats, maps = _point(P, F, ds)
    return float(_recovery_head(X, nx, maps, Fmats, Yh, ny, sigma2)[0][0])


def _p_heads(Y: np.ndarray, Yh: np.ndarray, ny: np.ndarray, hp: HyperParams, grad: bool = False):
    """sample + alpha * feature, the heads that see only P, at the embeddings Y (unit columns Yh, norms ny).

    Returns (values (B,), d/dY), d/dY None without ``grad``; a zero alpha skips the feature head.
    """
    value, dY = _sample_head(Yh, ny, hp.sigma1, grad)
    if hp.alpha != 0.0:
        f, g = _feature_head(Y, hp.sigma3, hp.fea_include_self_view, grad)
        value += _weighted(hp.alpha, f)
        if grad:
            dY += _weighted(hp.alpha, g)
    return value, dY


def _weighted(w: float, a):
    """w * a, or a itself at w = 1, where the product is a bit for bit (one pass fewer), or for an a of None."""
    return a if w == 1.0 or a is None else w * a


def _f_head(X, nx, maps, Fmats, Yh, ny, hp: HyperParams, want_dY: bool = False, want_dF: bool = False, beside=None):
    """beta * recovery, the one head that sees F; returns as ``_recovery_head`` does, beside()'s items too,
    and a zero beta skips it, giving 0 and zero gradients (beside() then runs alone)."""
    if hp.beta == 0.0:
        dY = np.zeros_like(Yh) if want_dY else None
        return 0.0, dY, np.zeros_like(np.concatenate(Fmats, axis=2)) if want_dF else None, *(beside() if beside else ())
    value, dY, dF, *side = _recovery_head(X, nx, maps, Fmats, Yh, ny, hp.sigma2, want_dY, want_dF, beside)
    return _weighted(hp.beta, value), _weighted(hp.beta, dY), _weighted(hp.beta, dF), *side


def total_loss(
    P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset, hp: HyperParams
) -> float:
    """sample + alpha * feature + beta * recovery; zero weights skip a head."""
    Y, Yh, ny, X, nx, Fmats, maps = _point(P, F, ds)
    return float((_p_heads(Y, Yh, ny, hp)[0] + _f_head(X, nx, maps, Fmats, Yh, ny, hp)[0])[0])
