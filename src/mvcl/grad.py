"""Analytic gradients of the triple-head objective, plus their referee.

The objective has one home, :mod:`mvcl.loss`: ``_p_heads`` (sample +
alpha * feature, the heads that see only P) and ``_f_head`` (beta *
recovery, the one head that sees F) return each value with its gradient
from the same pass. This module
composes them into d/dP and d/dF through the embeddings Y^m = P_m^T X^m;
the gradients are certified against central finite differences.
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
    embeddings,
    _check_recovery,
    _f_head,
    _p_heads,
    _unit_columns,
)


def grad_wrt_P(
    P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset, hp: HyperParams
) -> tuple[np.ndarray, ...]:
    """d(total loss)/dP_m for every view, alpha/beta weights included.

    Every head reaches P only through the embeddings Y^m = P_m^T X^m, so the
    per-view result is X^m times the accumulated embedding gradient.
    """
    Y = embeddings(P, ds)
    _check_recovery(F, P.d, ds)
    _, dY = _p_heads(Y, hp, grad=True)
    _, dYr, _ = _f_head(_unit_columns(ds.views), Y, F.mats, hp, grad=True, with_dF=False)
    return tuple(x @ (a + b).T for x, a, b in zip(ds.views, dY, dYr))


def grad_wrt_F(
    P: ProjectionSet, F: RecoverySet, ds: MultiViewDataset, hp: HyperParams
) -> tuple[np.ndarray, ...]:
    """beta * d(recovery-level loss)/dF_m; zero matrices when beta is 0."""
    Y = embeddings(P, ds)
    _check_recovery(F, P.d, ds)
    return tuple(_f_head(_unit_columns(ds.views), Y, F.mats, hp, grad=True)[2])


def finite_diff_check(
    objective, param: np.ndarray, analytic: np.ndarray, h: float = 1e-5
) -> float:
    """Max relative disagreement between `analytic` and central differences.

    Perturbs one entry of `param` at a time; the relative error of an entry
    is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8). The default
    h balances truncation against float64 roundoff.
    """
    if not 0 < h < np.inf:
        raise ValueError("h must be finite and > 0")
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
