"""Analytic gradients of the triple-head objective, plus their referee.

The gradients here are exact derivatives of the loss definitions in
:mod:`mvcl.loss`, hand-derived via the chain rule and certified against
central finite differences. Every head is one call pattern of the kernel
:func:`mvcl.loss.contrast`, which returns the loss and its gradient with
respect to both column families from the same pass; this module only
chains those through the embeddings Y^m = P_m^T X^m.
"""

from __future__ import annotations

import numpy as np

from .data import MultiViewDataset
from .errors import DimError, NumericError
from .loss import (  # noqa: F401  (cosine_logits stays importable from here)
    HyperParams,
    ProjectionSet,
    RecoverySet,
    cosine_logits,
    _check_projections,
    _check_recovery,
    _feature_head,
    _recovery_head,
    _sample_head,
)


def _weighted_dY(
    X: list[np.ndarray],
    Y: list[np.ndarray],
    Fmats,
    hp: HyperParams,
) -> list[np.ndarray]:
    """Total-objective gradient w.r.t. the embeddings, all heads combined."""
    _, dY = _sample_head(Y, hp.sigma1, grad=True)
    if hp.alpha != 0.0:
        _, g = _feature_head(Y, hp.sigma3, hp.fea_include_self_view, grad=True)
        for acc, gm in zip(dY, g):
            acc += hp.alpha * gm
    if hp.beta != 0.0:
        _, g, _ = _recovery_head(X, Y, Fmats, hp.sigma2, grad=True)
        for acc, gm in zip(dY, g):
            acc += hp.beta * gm
    return dY


def grad_wrt_P(
    P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset, hp: HyperParams
) -> tuple[np.ndarray, ...]:
    """d(total loss)/dP_m for every view, alpha/beta weights included.

    Every head reaches P only through the embeddings Y^m = P_m^T X^m, so the
    per-view result is X^m times the accumulated embedding gradient.
    """
    _check_projections(P, ds)
    _check_recovery(F, P.d, ds)
    Y = [P.mats[m].T @ ds.views[m] for m in range(ds.V)]
    dY = _weighted_dY(ds.views, Y, F.mats, hp)
    return tuple(ds.views[m] @ dY[m].T for m in range(ds.V))


def grad_wrt_F(
    P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset, hp: HyperParams
) -> tuple[np.ndarray, ...]:
    """beta * d(recovery-level loss)/dF_m; zero matrices when beta is 0."""
    _check_projections(P, ds)
    _check_recovery(F, P.d, ds)
    if hp.beta == 0.0:
        return tuple(np.zeros_like(f) for f in F.mats)
    Y = [P.mats[m].T @ ds.views[m] for m in range(ds.V)]
    _, _, dF = _recovery_head(ds.views, Y, F.mats, hp.sigma2, grad=True)
    return tuple(hp.beta * g for g in dF)


def finite_diff_check(
    objective, param: np.ndarray, analytic: np.ndarray, h: float = 1e-5
) -> float:
    """Max relative disagreement between `analytic` and central differences.

    Perturbs one entry of `param` at a time; the relative error of an entry
    is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8). The default
    h balances truncation against float64 roundoff.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    param = np.asarray(param, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    if analytic.shape != param.shape:
        raise DimError(f"analytic gradient shape {analytic.shape} != parameter shape {param.shape}")
    worst = 0.0
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        bumped = param.copy()
        bumped[ij] = param[ij] + h
        f_plus = float(objective(bumped))
        bumped[ij] = param[ij] - h
        f_minus = float(objective(bumped))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"objective not finite at perturbation of entry {ij}")
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = float(analytic[ij])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def random_instance(
    seed: int,
    V: int = 2,
    n: int = 8,
    dims: tuple[int, ...] = (6, 5),
    d: int = 3,
):
    """Seeded random (dataset, P, F) triple for gradient certification."""
    if len(dims) != V:
        raise DimError(f"{len(dims)} dims for V={V}")
    rng = np.random.default_rng(seed)
    views = tuple(rng.standard_normal((D, n)) for D in dims)
    P = ProjectionSet(tuple(rng.standard_normal((D, d)) for D in dims))
    F = RecoverySet(tuple(rng.standard_normal((d, D)) for D in dims))
    return MultiViewDataset(views), P, F
