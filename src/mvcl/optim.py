"""Adam optimizer and the alternating training loop.

One outer iteration takes a single Adam step on every recovery map (with
projections fixed), then a single Adam step on the stacked projection block
(with the fresh recovery maps fixed). Training stops when the total loss
moves by at most ``tol`` between consecutive iterations.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .data import FeatureStats, MultiViewDataset
from .errors import DimError, NumericDivergence
from .grad import grad_wrt_F, grad_wrt_P
from .loss import HyperParams, ProjectionSet, RecoverySet, total_loss

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AdamParams:
    gamma: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("decay rates must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), 0)


def adam_step(
    state: AdamState, grad: np.ndarray, param: np.ndarray, ap: AdamParams
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns the new state and parameter."""
    grad = np.asarray(grad, dtype=float)
    param = np.asarray(param, dtype=float)
    if grad.shape != param.shape or state.m.shape != param.shape:
        raise DimError(f"shape mismatch: grad {grad.shape}, param {param.shape}, state {state.m.shape}")
    t = state.t + 1
    m = ap.beta1 * state.m + (1.0 - ap.beta1) * grad
    v = ap.beta2 * state.v + (1.0 - ap.beta2) * grad * grad
    m_hat = m / (1.0 - ap.beta1**t)
    v_hat = v / (1.0 - ap.beta2**t)
    new_param = param - ap.gamma * m_hat / (np.sqrt(v_hat) + ap.epsilon)
    return AdamState(m, v, t), new_param


@dataclass(frozen=True)
class TrainConfig:
    hp: HyperParams
    adam: AdamParams = AdamParams()
    max_iters: int = 1000
    tol: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


@dataclass(frozen=True)
class TrainReport:
    """Loss trajectory (index 0 is the initial loss) and run metadata."""

    losses: tuple[float, ...]
    iterations: int
    converged: bool
    preprocessing: dict = field(default_factory=dict)
    wall_ms: float = 0.0


def init_params(
    dims: tuple[int, ...], d: int, seed: int
) -> tuple[ProjectionSet, RecoverySet]:
    """Seeded start: orthonormal projections, Gaussian/sqrt(d) recovery maps."""
    if d >= min(dims):
        raise DimError(f"d={d} must be smaller than every view dimension {dims}")
    rng = np.random.default_rng(seed)
    pmats = []
    for D in dims:
        q, _ = np.linalg.qr(rng.standard_normal((D, d)))
        pmats.append(q)
    fmats = [rng.standard_normal((d, D)) / np.sqrt(d) for D in dims]
    return ProjectionSet(tuple(pmats)), RecoverySet(tuple(fmats))


@np.errstate(over="ignore", invalid="ignore")
def train(
    ds: MultiViewDataset, cfg: TrainConfig, preprocessing: dict | None = None
) -> tuple[ProjectionSet, RecoverySet, TrainReport]:
    """Alternating minimisation of the triple-head objective.

    ``preprocessing`` is an optional record of upstream data decisions that
    is echoed verbatim in the report. Deterministic: the same dataset and
    config reproduce the trajectory and parameters bit for bit. Overflow
    while training surfaces as NumericDivergence, not as numpy warnings.
    """
    t0 = time.perf_counter()
    hp = cfg.hp
    P, F = init_params(ds.dims, hp.d, cfg.seed)
    pmats = list(P.mats)
    fmats = list(F.mats)

    loss = total_loss(P, F, ds, hp)
    if not np.isfinite(loss):
        raise NumericDivergence("initial loss is not finite", iteration=0)
    losses = [loss]

    # The projection block is tracked as one stacked Adam state; Adam is
    # entrywise, so this matches per-view states exactly.
    p_state = AdamState.zeros((sum(ds.dims), hp.d))
    f_states = [AdamState.zeros(f.shape) for f in fmats]
    splits = np.cumsum(ds.dims)[:-1]

    converged = False
    for it in range(1, cfg.max_iters + 1):
        dF = grad_wrt_F(P, F, ds, hp)
        for m in range(ds.V):
            f_states[m], fmats[m] = adam_step(f_states[m], dF[m], fmats[m], cfg.adam)
        F = RecoverySet(tuple(fmats))

        dP = grad_wrt_P(P, F, ds, hp)
        p_state, pstack = adam_step(p_state, np.vstack(dP), np.vstack(pmats), cfg.adam)
        pmats = [np.array(b) for b in np.split(pstack, splits, axis=0)]
        P = ProjectionSet(tuple(pmats))

        loss = total_loss(P, F, ds, hp)
        if not np.isfinite(loss):
            raise NumericDivergence(f"loss diverged at iteration {it}", iteration=it)
        losses.append(loss)
        if abs(losses[-1] - losses[-2]) <= cfg.tol:
            converged = True
            break

    report = TrainReport(
        losses=tuple(losses),
        iterations=len(losses) - 1,
        converged=converged,
        preprocessing=dict(preprocessing or {}),
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return P, F, report


# ---------------------------------------------------------------------------
# Model file io
# ---------------------------------------------------------------------------

def config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


def config_from_dict(obj: dict) -> TrainConfig:
    keys = set(obj)
    if keys != {"hp", "adam", "max_iters", "tol", "seed"}:
        raise ValueError(f"unexpected train config keys: {sorted(keys)}")
    return TrainConfig(
        hp=HyperParams(**obj["hp"]),
        adam=AdamParams(**obj["adam"]),
        max_iters=int(obj["max_iters"]),
        tol=float(obj["tol"]),
        seed=int(obj["seed"]),
    )


def _stats_to_dict(stats: FeatureStats | None) -> dict | None:
    if stats is None:
        return None
    return {
        "center": stats.center,
        "unit_variance": stats.unit_variance,
        "means": [m.tolist() for m in stats.means],
        "stds": None if stats.stds is None else [s.tolist() for s in stats.stds],
    }


def _stats_from_dict(obj: dict | None) -> FeatureStats | None:
    if obj is None:
        return None
    return FeatureStats(
        means=tuple(np.array(m, dtype=float) for m in obj["means"]),
        stds=None if obj["stds"] is None else tuple(np.array(s, dtype=float) for s in obj["stds"]),
        center=bool(obj["center"]),
        unit_variance=bool(obj["unit_variance"]),
    )


def save_model(
    path: str | Path,
    P: ProjectionSet,
    F: RecoverySet,
    stats: FeatureStats | None,
    cfg: TrainConfig,
) -> None:
    """Write the learned parameters as JSON; floats round-trip exactly."""
    obj = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "V": P.V,
        "d": P.d,
        "dims": [int(a.shape[0]) for a in P.mats],
        "P": [a.tolist() for a in P.mats],
        "F": [a.tolist() for a in F.mats],
        "preprocessing": _stats_to_dict(stats),
        "config": config_to_dict(cfg),
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path):
    """Read a model file back into (P, F, stats, cfg)."""
    with open(path) as fh:
        obj = json.load(fh)
    schema = obj.get("schema_version") if isinstance(obj, dict) else None
    if schema != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema: {schema!r}")
    try:
        P = ProjectionSet(tuple(np.array(a, dtype=float) for a in obj["P"]))
        F = RecoverySet(tuple(np.array(a, dtype=float) for a in obj["F"]))
        stats = _stats_from_dict(obj["preprocessing"])
        cfg = config_from_dict(obj["config"])
        dims, d = obj["dims"], obj["d"]
    except KeyError as e:
        raise ValueError(f"{path}: model file lacks key {e}") from None
    except TypeError as e:
        raise ValueError(f"{path}: malformed model file: {e}") from None
    if [a.shape[0] for a in P.mats] != list(dims) or P.d != d:
        raise DimError("model matrices do not match the recorded dimensions")
    return P, F, stats, cfg
