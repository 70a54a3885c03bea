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

The sample and recovery heads share one softmax cross-entropy, ``_xent``,
giving the loss and the unnormalised gradient from one pass. Both read each
point's unit embeddings Yh, formed once (``_unit_columns``); the recovery head's
logits are reassociated so that no n x n product runs over the ambient dimension,
its anchors W_m = F_m Xh^m formed once per F (``_recovery_maps``). The feature
head contrasts all view pairs in one Gram block. Every head runs ``ROWS`` anchor
rows at a time: one ROWS x kn logit block is alive, not n x kn.
Every expectation is an arithmetic mean over the anchor index and a plain
sum over view pairs, so loss magnitudes do not grow with n. Accumulation is
float64 with a fixed left-to-right ordering for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

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
        sigmas = (self.sigma1, self.sigma2, self.sigma3)
        # 1/sigma scales every logit, so it must be finite too.
        if not all(0 < s < math.inf and 1.0 / float(s) < math.inf for s in sigmas):
            raise ValueError("temperatures must be finite and > 0, with a finite reciprocal")


def _check_mats(mats, what: str) -> tuple[np.ndarray, ...]:
    out = []
    for m, a in enumerate(mats):
        a = np.array(a, dtype=float)
        if a.ndim != 2:
            raise DimError(f"{what} {m} must be 2-D")
        if not np.isfinite(a).all():
            raise ValueError(f"{what} {m} contains non-finite entries")
        a.setflags(write=False)
        out.append(a)
    if not out:
        raise DimError(f"no {what} matrices given")
    return tuple(out)


@dataclass(frozen=True)
class ProjectionSet:
    """One D_m x d projection per view; columns span the shared subspace."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = _check_mats(self.mats, "projection")
        d = mats[0].shape[1]
        if d < 1:
            raise DimError("projections need at least one column")
        for m, a in enumerate(mats):
            if a.shape[1] != d:
                raise DimError(f"projection {m} has {a.shape[1]} columns, expected {d}")
        object.__setattr__(self, "mats", mats)

    @property
    def V(self) -> int:
        return len(self.mats)

    @property
    def d(self) -> int:
        return self.mats[0].shape[1]


@dataclass(frozen=True)
class RecoverySet:
    """One d x D_m map per view, from the subspace back to ambient space."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = _check_mats(self.mats, "recovery")
        d = mats[0].shape[0]
        for m, a in enumerate(mats):
            if a.shape[0] != d:
                raise DimError(f"recovery {m} has {a.shape[0]} rows, expected {d}")
        object.__setattr__(self, "mats", mats)

    @property
    def V(self) -> int:
        return len(self.mats)

    @property
    def d(self) -> int:
        return self.mats[0].shape[0]


def _check_recovery(F: RecoverySet, d: int, ds: MultiViewDataset) -> None:
    if F.V != ds.V:
        raise DimError(f"{F.V} recovery maps for {ds.V} views")
    for m, (a, D) in enumerate(zip(F.mats, ds.dims)):
        if a.shape != (d, D):
            raise DimError(f"recovery {m} has shape {a.shape}, expected ({d}, {D})")


def floored_col_norms(A: np.ndarray) -> np.ndarray:
    # np.linalg.norm(A, axis=0) computes exactly this, behind several
    # microseconds of argument handling.
    return np.maximum(np.sqrt(np.add.reduce(A * A, axis=0)), NORM_FLOOR)


# Anchor rows per logit block. A head's memory then grows with n, not n², and
# the exp, sum and divide passes run over one ROWS x kn block (6 MB at
# kn = 3000) instead of streaming the whole matrix through memory. n <= ROWS
# is one block, whose arithmetic is that of one pass over the whole matrix.
ROWS = 256

# Every logit lies in [-1/sigma, 1/sigma], so up to this inverse temperature
# exp(S) and its row sums stay finite and nonzero. Only above it is the
# softmax shifted by the row maximum: the shift costs two passes over the
# logits and ties every logit's rounding to its row maximum.
SHIFT_ABOVE = 600.0


def cosine_logits(Ah: np.ndarray, Bh: np.ndarray, sigma: float) -> np.ndarray:
    """All-pairs temperature-scaled cosines of unit columns: S = Ah^T (Bh / sigma).

    One logit block of the sample head: its callers normalise every column once,
    by :func:`floored_col_norms`, and pass the same unit columns to every block.
    """
    return Ah.T @ (Bh / sigma)


@lru_cache(maxsize=64)
def _positive_index(c: int, n: int, k: int, r0: int) -> np.ndarray:
    """Flat indices into a c x (k*n) block of anchor rows r0.. of entries (i, b*n + (r0 + i) % n)."""
    idx = np.arange(c)[:, None] * (k * n) + np.arange(0, k * n, n) + (np.arange(r0, r0 + c) % n)[:, None]
    idx.setflags(write=False)
    return idx


def _through_norm(G: np.ndarray, Xh: np.ndarray, nx: np.ndarray, scale: float) -> np.ndarray:
    """Pull a gradient G w.r.t. the unit columns Xh = X / nx back onto X.

    Removes each column's component along Xh, except for columns at the norm
    floor (the floor is constant there), then multiplies each column by
    scale / nx; ``scale`` is a number or one per column. In place.
    """
    radial = (Xh * G).sum(axis=0)
    radial *= nx > NORM_FLOOR
    G -= Xh * radial
    G *= scale / nx
    return G


def _xent(S: np.ndarray, sigma: float, k: int, grad: bool, r0: int = 0):
    """Softmax cross-entropy of a logit block S (c x kn) of anchor rows r0..r0+c-1, row i with its
    positives at (i, b*n + r0 + i); returns (summed row losses, E = rs * dloss/dS in place of S, 1/rs),
    or None for both without ``grad``: callers scale small factors by 1/rs, not the block by row sums rs."""
    c, kn = S.shape
    pidx = _positive_index(c, kn // k, k, r0)
    pos = S.take(pidx)
    if 1.0 / sigma > SHIFT_ABOVE:
        top = S.max(axis=1, keepdims=True)
        S -= top
        pos -= top
        E = np.exp(S, out=S)
        # exp of a positive far below its row maximum underflows: stay in logs.
        lpos = np.logaddexp.reduce(pos, axis=1)
    else:
        E = np.exp(S, out=S)
        # From E itself, so that a row whose only entry is its positive gives
        # exactly 0.
        lpos = np.log(E.take(pidx).sum(axis=1))
    rs = E.sum(axis=1)
    loss = float(np.log(rs).sum() - lpos.sum())
    if not grad:
        return loss, None, None
    # rs * (softmax over the row - softmax over the row's positives)
    E.ravel()[pidx] -= np.exp(pos - lpos[:, None]) * rs[:, None]
    return loss, E, 1.0 / rs


def _accumulate(acc, part: np.ndarray) -> np.ndarray:
    """acc + part, in place into acc; the first part itself when acc is None."""
    if acc is None:
        return part
    acc += part
    return acc


def _unit_contrast(Ah: np.ndarray, Bh: np.ndarray, sigma: float, k: int, grad: bool):
    """``contrast`` on unit columns Ah, Bh: (loss, d/dAh, d/dBh), not pulled back through the norms."""
    n = Ah.shape[1]
    # The 1/n of the mean and the 1/sigma of the logits go on the small factors.
    scale = 1.0 / (n * sigma)
    total, dB = 0.0, None
    dA = np.empty(Ah.shape) if grad else None
    for r0 in range(0, n, ROWS):
        rows = slice(r0, r0 + ROWS)
        loss, E, inv = _xent(cosine_logits(Ah[:, rows], Bh, sigma), sigma, k, grad, r0)
        total += loss
        if grad:
            inv *= scale
            np.matmul(Bh, E.T, out=dA[:, rows])
            dA[:, rows] *= inv
            dB = _accumulate(dB, (Ah[:, rows] * inv) @ E)
        del E  # so that the next block is formed after this one is freed
    return total / n, dA, dB


def contrast(A: np.ndarray, B: np.ndarray, sigma: float, k: int = 1, grad: bool = False):
    """Softmax cross-entropy over temperature-scaled cosines, the sample head's kernel.

    The anchors are the n columns of A; the candidates are the k*n columns of
    B, read as k side-by-side blocks of n, and the positives of anchor i are
    column i of every block. With S = cosine_logits(Ah, Bh, sigma) on the unit
    columns the loss is the mean over i of

        log sum_j exp(S[i, j]) - log sum_b exp(S[i, b*n + i]).

    Returns (loss, dA, dB), the gradients None without ``grad``. A and B are normalised
    once, and S is formed ROWS anchors at a time: one ROWS x kn block is alive.
    """
    na, nb = floored_col_norms(A), floored_col_norms(B)
    Ah, Bh = A / na, B / nb
    loss, dA, dB = _unit_contrast(Ah, Bh, sigma, k, grad)
    if not grad:
        return loss, None, None
    return loss, _through_norm(dA, Ah, na, 1.0), _through_norm(dB, Bh, nb, 1.0)


def _unit_columns(X) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(X^m / ||x_i^m||, ||x_i^m||) for every view, norms floored: each point's unit columns, formed once."""
    norms = [floored_col_norms(x) for x in X]
    return [x / nx for x, nx in zip(X, norms)], norms


def _recovery_maps(Fmats, Xh) -> list[np.ndarray]:
    """W_m = F_m Xh^m for every view: the recovery head's anchors, a function of F alone."""
    return [f @ xh for f, xh in zip(Fmats, Xh)]


def embeddings(P: ProjectionSet, ds: MultiViewDataset) -> list[np.ndarray]:
    """Per-view subspace embeddings P_m^T X^m (d x n each)."""
    if P.V != ds.V:
        raise DimError(f"{P.V} projections for {ds.V} views")
    for m, (a, D) in enumerate(zip(P.mats, ds.dims)):
        if a.shape[0] != D:
            raise DimError(f"projection {m} has {a.shape[0]} rows, view has {D} features")
    return [P.mats[m].T @ ds.views[m] for m in range(ds.V)]


def _point(P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset):
    """Every head's inputs at (P, F), each formed once: (Y, Yh, ny, Xh, W)."""
    Y = embeddings(P, ds)
    _check_recovery(F, P.d, ds)
    Xh = _unit_columns(ds.views)[0]
    return (Y, *_unit_columns(Y), Xh, _recovery_maps(F.mats, Xh))


def _sample_head(Yh: list[np.ndarray], ny: list[np.ndarray], sigma: float, grad: bool = False):
    """Sample-level loss at the unit embeddings Yh (norms ny), and d/dY with ``grad`` (else None).

    Anchor view a contrasts its samples against the other views placed side
    by side: sample i in every other view is a positive, all other samples
    there are negatives, and same-view pairs never enter. Every contrast adds
    its d/dYh into one sum per view, pulled back through the norms once.
    """
    V, n = len(Yh), Yh[0].shape[1]
    total, dY = 0.0, [None] * V
    for a in range(V):
        rest = [v for v in range(V) if v != a]
        B = Yh[rest[0]] if V == 2 else np.hstack([Yh[v] for v in rest])
        loss, dA, dB = _unit_contrast(Yh[a], B, sigma, V - 1, grad)
        total += loss
        if grad:
            dY[a] = _accumulate(dY[a], dA)
            for b, v in enumerate(rest):
                dY[v] = _accumulate(dY[v], dB[:, b * n : (b + 1) * n])
    return total, [_through_norm(g, yh, nv, 1.0) for g, yh, nv in zip(dY, Yh, ny)] if grad else None


def _feature_head(Y: list[np.ndarray], sigma: float, include_self_view: bool, grad: bool = False):
    """Feature-level loss of the embeddings Y, and d/dY with ``grad`` (else None).

    The contrasted vectors are the rows of Y: row k of view m against all d
    rows of view v, with the same row index as the positive. The V*d rows, as
    unit columns Qh of [Y^1; ...; Y^V]^T, form one Gram block G = Qh^T Qh / sigma
    read as (V, d, V, d): a softmax per row of each (m, v) block, positive on its
    diagonal, m = v blocks weighted 0 without ``include_self_view``, and dQh =
    Qh (dG + dG^T) / sigma. The positive's log is taken from exp(G), as in ``_xent``.
    """
    V, d = len(Y), Y[0].shape[0]
    Q = np.vstack(Y).T
    nq = floored_col_norms(Q)
    Qh = Q / nq
    Qs = Qh / sigma
    total = 0.0
    dQ = np.zeros(Q.shape) if grad else None
    for r0 in range(0, V * d, ROWS):
        rows = slice(r0, r0 + ROWS)
        G = Qh[:, rows].T @ Qs
        E = G.reshape(-1, V, d)
        pidx = _positive_index(len(E), d, V, r0)
        if 1.0 / sigma > SHIFT_ABOVE:
            E -= E.max(axis=2, keepdims=True)
            lpos = G.take(pidx)
            np.exp(G, out=G)
        else:
            np.exp(G, out=G)
            lpos = np.log(G.take(pidx))
        rs = E.sum(axis=2)
        part, inv = np.log(rs) - lpos, 1.0 / rs
        if not include_self_view:
            own = (np.arange(len(E)), np.arange(r0, r0 + len(E)) // d)
            part[own] = inv[own] = 0.0
        total += float(part.sum())
        if grad:
            # one positive per row and block: the softmax over it is 1
            G.ravel()[pidx] -= rs
            E *= inv[:, :, None]
            dQ[:, rows] += Qh @ G.T
            dQ += Qh[:, rows] @ G
        del G, E  # so that the next block is formed after this one is freed
    return total / d, list(_through_norm(dQ, Qh, nq, 1.0 / (d * sigma)).T.reshape(V, d, -1)) if grad else None


def _recovery_pair(w, xh, yh, ny, f, sigma: float, want_dY: bool, want_dF: bool):
    """One (m, v) term of ``_recovery_head``, computed ROWS anchors at a time so
    that one ROWS x n logit block is alive, never the n x n matrix."""
    Z = f.T @ yh
    nz = floored_col_norms(Z)
    U = yh / nz
    n = xh.shape[1]
    c = 1.0 / (n * sigma)
    Us = U / sigma
    grad = want_dY or want_dF
    cU = c * U if want_dF else None
    total, WE, dF = 0.0, None, None
    for r0 in range(0, n, ROWS):
        rows = slice(r0, r0 + ROWS)
        Wr = w[:, rows]
        loss, E, inv = _xent(Wr.T @ Us, sigma, 1, grad, r0)
        total += loss
        if grad:
            WE = _accumulate(WE, (Wr * inv) @ E)
        if want_dF:
            dF = _accumulate(dF, ((cU @ E.T) * inv) @ xh[:, rows].T)
        del E  # so that the next block is formed after this one is freed
    if not grad:
        return total / n, None, None
    r = (U * WE).sum(axis=0) * (nz > NORM_FLOOR)
    Zh = Z / nz
    dY = (WE - (f @ Zh) * r) * (c / (nz * ny)) if want_dY else None
    if want_dF:
        dF -= (c * r * U) @ Zh.T
    return total / n, dY, dF


def _recovery_head(Xh, W, Fmats, Yh, ny, sigma: float, want_dY: bool = False, want_dF: bool = False):
    """Recovery loss, with d/dY if ``want_dY`` and d/dF if ``want_dF`` (each else None).

    Anchor x_i^m (unit columns Xh of fixed data) is contrasted with the columns
    of F_m^T Y^v, view v's embeddings mapped back into view m's ambient space.
    Reassociated, no n x n product runs over D: with the unit embeddings yh =
    Y^v / ny, Z = F_m^T yh, U = yh / nz, W = F_m Xh (``_recovery_maps``, formed
    once per F), c = 1/(n sigma), E = n * dloss/dS, r = colsum(U * W E) (0 where
    nz is floored), S = W^T U / sigma, dY = (W E - F_m (Z/nz) r) c / (nz ny) and
    dF = (c U) E^T Xh^T - (c U r) (Z/nz)^T. Each pair runs over blocks of ROWS
    rows of S and sums the blocks' shares of W E and of (c U) E^T Xh^T, so one
    ROWS x n block is alive, never S. Y is normalised before F_m: at d = 1, yh is
    exactly +-1, so the loss is bit-constant in P, as the objective is. dF is one
    d x sum(D_m) array, view m's map gradient in its m-th block of columns.
    """
    total = 0.0
    dY, dF = [None] * len(Yh), [None] * len(Yh)
    for m, v in permutations(range(len(Yh)), 2):
        loss, gy, gf = _recovery_pair(W[m], Xh[m], Yh[v], ny[v], Fmats[m], sigma, want_dY, want_dF)
        total += loss
        if want_dY:
            dY[v] = _accumulate(dY[v], gy)
        if want_dF:
            dF[m] = _accumulate(dF[m], gf)
    return total, dY if want_dY else None, np.concatenate(dF, axis=1) if want_dF else None


def sample_level_loss(P: ProjectionSet, ds: MultiViewDataset, sigma1: float) -> float:
    """Cross-view sample contrast over subspace embeddings.

    For each anchor (view a, sample i) the positives are sample i in every
    other view, the negatives are all other samples in the other views;
    same-view pairs never enter. The per-anchor terms are averaged over i
    and summed over anchor views.
    """
    if sigma1 <= 0:
        raise ValueError("sigma1 must be > 0")
    return _sample_head(_unit_columns(embeddings(P, ds))[0], None, sigma1)[0]


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
    if sigma3 <= 0:
        raise ValueError("sigma3 must be > 0")
    return _feature_head(embeddings(P, ds), sigma3, include_self_view)[0]


def recovery_level_loss(
    P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset, sigma2: float
) -> float:
    """Contrast between original samples and cross-view recovered samples.

    The embedding of sample j in view v is mapped back into view m's ambient
    space by F_m; anchor x_i^m should match its own recovery (j = i) better
    than anyone else's. Captures information about view m that the other
    views' embeddings must retain.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    _, Yh, ny, Xh, W = _point(P, F, ds)
    return _recovery_head(Xh, W, F.mats, Yh, ny, sigma2)[0]


def _p_heads(Y: list[np.ndarray], Yh: list[np.ndarray], ny: list[np.ndarray], hp: HyperParams, grad: bool = False):
    """sample + alpha * feature, the heads that see only P, at the embeddings Y (unit columns Yh, norms ny).

    Returns (value, d/dY), d/dY None without ``grad``; a zero alpha skips the feature head.
    """
    value, dY = _sample_head(Yh, ny, hp.sigma1, grad)
    if hp.alpha != 0.0:
        f, g = _feature_head(Y, hp.sigma3, hp.fea_include_self_view, grad)
        value += hp.alpha * f
        if grad:
            for acc, gm in zip(dY, g):
                acc += hp.alpha * gm
    return value, dY


def _f_head(Xh, W, Fmats, Yh, ny, hp: HyperParams, want_dY: bool = False, want_dF: bool = False):
    """beta * recovery, the one head that sees F; returns as ``_recovery_head`` does,
    and a zero beta skips it, giving 0 and zero gradients."""
    if hp.beta == 0.0:
        dY = [np.zeros_like(y) for y in Yh] if want_dY else None
        return 0.0, dY, np.zeros_like(np.hstack(Fmats)) if want_dF else None
    value, dY, dF = _recovery_head(Xh, W, Fmats, Yh, ny, hp.sigma2, want_dY, want_dF)
    if want_dY:
        dY = [hp.beta * g for g in dY]
    return hp.beta * value, dY, hp.beta * dF if want_dF else None


def total_loss(
    P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset, hp: HyperParams
) -> float:
    """sample + alpha * feature + beta * recovery; zero weights skip a head."""
    Y, Yh, ny, Xh, W = _point(P, F, ds)
    return _p_heads(Y, Yh, ny, hp)[0] + _f_head(Xh, W, F.mats, Yh, ny, hp)[0]
