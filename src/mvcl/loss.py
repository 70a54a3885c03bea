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

All three run through one kernel, :func:`contrast`; the heads differ only
in which columns they pass as anchors and as candidates, and the kernel
returns the gradient from the same pass. Every expectation is an arithmetic
mean over the anchor index and a plain sum over view pairs, so loss
magnitudes do not grow with n. Accumulation is float64 with a fixed
left-to-right ordering for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if min(self.sigma1, self.sigma2, self.sigma3) <= 0:
            raise ValueError("temperatures must be > 0")


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


@dataclass(frozen=True)
class EmbeddingSet:
    """Per-view d x n subspace embeddings."""

    embs: tuple[np.ndarray, ...]

    @property
    def V(self) -> int:
        return len(self.embs)


def _check_projections(P: ProjectionSet, ds: MultiViewDataset) -> None:
    if P.V != ds.V:
        raise DimError(f"{P.V} projections for {ds.V} views")
    for m, (a, D) in enumerate(zip(P.mats, ds.dims)):
        if a.shape[0] != D:
            raise DimError(f"projection {m} has {a.shape[0]} rows, view has {D} features")


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


# Every logit lies in [-1/sigma, 1/sigma], so up to this inverse temperature
# exp(S) and its row sums stay finite and nonzero. Only above it is the
# softmax shifted by the row maximum: the shift costs two passes over the
# logits and ties every logit's rounding to its row maximum.
SHIFT_ABOVE = 600.0


def cosine_logits(A: np.ndarray, B: np.ndarray, sigma: float):
    """All-pairs temperature-scaled cosine between columns of A and of B.

    Returns (S, Ah, Bh, na, nb): na, nb are the floored column norms,
    Ah = A / na and Bh = B / nb the normalised columns, and
    S[i, j] = (a_i . b_j) / (na_i * nb_j * sigma).
    """
    na = floored_col_norms(A)
    nb = floored_col_norms(B)
    Ah = A / na
    Bh = B / nb
    return Ah.T @ (Bh / sigma), Ah, Bh, na, nb


@lru_cache(maxsize=64)
def _positive_index(n: int, k: int) -> np.ndarray:
    """Flat indices into an n x (k*n) matrix of entries (i, b*n + i)."""
    idx = np.arange(n)[:, None] * (k * n + 1) + np.arange(0, k * n, n)
    idx.setflags(write=False)
    return idx


def _through_norm(G: np.ndarray, Xh: np.ndarray, nx: np.ndarray, scale: float) -> np.ndarray:
    """Pull a gradient G w.r.t. the unit columns Xh = X / nx back onto X.

    Removes each column's component along Xh, except for columns at the norm
    floor (the floor is constant there), then multiplies each column by
    scale / nx. In place.
    """
    radial = (Xh * G).sum(axis=0)
    radial *= nx > NORM_FLOOR
    G -= Xh * radial
    G *= scale / nx
    return G


def contrast(
    A: np.ndarray,
    B: np.ndarray,
    sigma: float,
    k: int = 1,
    grad: bool = False,
    anchor_grad: bool = True,
):
    """Softmax cross-entropy over temperature-scaled cosines, the kernel of every head.

    The anchors are the n columns of A; the candidates are the k*n columns of
    B, read as k side-by-side blocks of n, and the positives of anchor i are
    column i of every block. With S = cosine_logits(A, B, sigma) the loss is
    the mean over i of

        log sum_j exp(S[i, j]) - log sum_b exp(S[i, b*n + i]).

    Returns (loss, dA, dB). The gradients are None without ``grad``, and dA
    is None when ``anchor_grad`` is False, which skips its GEMM. Only one
    n x kn matrix is alive at a time.
    """
    S, Ah, Bh, na, nb = cosine_logits(A, B, sigma)
    n = S.shape[0]
    pidx = _positive_index(n, k)
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
    loss = float(np.log(rs).sum() - lpos.sum()) / n
    if not grad:
        return loss, None, None

    # dL/dS = (softmax over the row - softmax over the row's positives) / n;
    # the 1/n and the 1/sigma of the logits are applied to the small factors.
    E /= rs[:, None]
    E.ravel()[pidx] -= np.exp(pos - lpos[:, None])
    scale = 1.0 / (n * sigma)
    dA = _through_norm(Bh @ E.T, Ah, na, scale) if anchor_grad else None
    dB = _through_norm(Ah @ E, Bh, nb, scale)
    return loss, dA, dB


def embeddings(P: ProjectionSet, ds: MultiViewDataset) -> list[np.ndarray]:
    """Per-view subspace embeddings P_m^T X^m (d x n each)."""
    _check_projections(P, ds)
    return [P.mats[m].T @ ds.views[m] for m in range(ds.V)]


def _sample_head(Y: list[np.ndarray], sigma: float, grad: bool = False):
    """Sample-level loss of the embeddings Y, and d/dY with ``grad`` (else None).

    Anchor view a contrasts its samples against the other views placed side
    by side: sample i in every other view is a positive, all other samples
    there are negatives, and same-view pairs never enter.
    """
    V, n = len(Y), Y[0].shape[1]
    total = 0.0
    dY = [np.zeros_like(y) for y in Y] if grad else None
    for a in range(V):
        rest = [v for v in range(V) if v != a]
        B = Y[rest[0]] if V == 2 else np.hstack([Y[v] for v in rest])
        loss, dA, dB = contrast(Y[a], B, sigma, k=V - 1, grad=grad)
        total += loss
        if grad:
            dY[a] += dA
            for b, v in enumerate(rest):
                dY[v] += dB[:, b * n : (b + 1) * n]
    return total, dY


def _feature_head(Y: list[np.ndarray], sigma: float, include_self_view: bool, grad: bool = False):
    """Feature-level loss of the embeddings Y, and d/dY with ``grad`` (else None).

    The contrasted vectors are the rows of Y: row k of view m against all d
    rows of view v, with the same row index as the positive.
    """
    V = len(Y)
    total = 0.0
    dY = [np.zeros_like(y) for y in Y] if grad else None
    for m in range(V):
        for v in range(V):
            if v == m and not include_self_view:
                continue
            loss, dA, dB = contrast(Y[m].T, Y[v].T, sigma, grad=grad)
            total += loss
            if grad:
                dY[m] += dA.T
                dY[v] += dB.T
    return total, dY


def _recovery_head(X, Y: list[np.ndarray], Fmats, sigma: float, grad: bool = False):
    """Recovery-level loss, and d/dY and d/dF with ``grad`` (else None).

    Anchor x_i^m is contrasted against Z = F_m^T Y^v, the embeddings of view
    v mapped back into view m's ambient space. X is fixed data, so no
    gradient is taken with respect to it.
    """
    V = len(Y)
    total = 0.0
    dY = [np.zeros_like(y) for y in Y] if grad else None
    dF = [np.zeros_like(f) for f in Fmats] if grad else None
    for m in range(V):
        for v in range(V):
            if v == m:
                continue
            Z = Fmats[m].T @ Y[v]
            loss, _, dZ = contrast(X[m], Z, sigma, grad=grad, anchor_grad=False)
            total += loss
            if grad:
                dF[m] += Y[v] @ dZ.T
                dY[v] += Fmats[m] @ dZ
    return total, dY, dF


def sample_level_loss(P: ProjectionSet, ds: MultiViewDataset, sigma1: float) -> float:
    """Cross-view sample contrast over subspace embeddings.

    For each anchor (view a, sample i) the positives are sample i in every
    other view, the negatives are all other samples in the other views;
    same-view pairs never enter. The per-anchor terms are averaged over i
    and summed over anchor views.
    """
    if sigma1 <= 0:
        raise ValueError("sigma1 must be > 0")
    return _sample_head(embeddings(P, ds), sigma1)[0]


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
    _check_projections(P, ds)
    _check_recovery(F, P.d, ds)
    return _recovery_head(ds.views, embeddings(P, ds), F.mats, sigma2)[0]


def total_loss(
    P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset, hp: HyperParams
) -> float:
    """sample + alpha * feature + beta * recovery; zero weights skip a head."""
    value = sample_level_loss(P, ds, hp.sigma1)
    if hp.alpha != 0.0:
        value += hp.alpha * feature_level_loss(P, ds, hp.sigma3, hp.fea_include_self_view)
    if hp.beta != 0.0:
        value += hp.beta * recovery_level_loss(P, F, ds, hp.sigma2)
    return value
