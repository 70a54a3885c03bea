"""Adam optimizer and the alternating training loop.

One outer iteration takes a single Adam step on the stacked recovery maps
(with projections fixed), then a single Adam step on the stacked projection
block (with the fresh recovery maps fixed). Each point (P, F) is evaluated once:
the pass that gives its loss also gives the gradients of the next steps.
Training stops when the total loss moves by at most ``tol`` between
consecutive iterations.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from itertools import accumulate
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

from .data import FeatureStats, MultiViewDataset
from .errors import DimError, NumericDivergence
from .grad import grad_wrt_P  # noqa: F401  (the benchmark's tracer rebinds this name)
from .loss import HyperParams, ProjectionSet, RecoverySet, _batch_limit, _col_norms, _f_head, _p_heads, _recovery_maps
from .loss import _stacked, _threads, _unit_columns, _ViewMatrices

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AdamParams:
    gamma: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("decay rates must lie in [0, 1)")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and > 0")


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
    m = ap.beta1 * state.m  # the new moments, summed in place in the order b1 m + (1 - b1) g
    m += (1.0 - ap.beta1) * grad
    v = ap.beta2 * state.v
    v += (1.0 - ap.beta2) * grad * grad
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
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrainReport:
    """Loss trajectory (index 0 is the initial loss) and run metadata."""

    losses: tuple[float, ...]
    iterations: int
    converged: bool
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
def train(ds: MultiViewDataset | tuple[MultiViewDataset, ...], cfg: TrainConfig):
    """Alternating minimisation of the triple-head objective, for one dataset or a batch of fits.

    ``train(ds, cfg)`` returns (P, F, report). ``train((ds_1, ..., ds_B), cfg)`` runs B fits in lockstep on
    datasets of one n and one set of D_m, at most ``loss._batch_limit(V, n, d)`` of them (so that each fit's
    arithmetic is the one it has alone), and returns (Ps, Fs, batch, reports): each fit's P, F and report
    are those of ``train(ds_j, cfg)`` bit for bit, but for its wall_ms, which runs until the fit stops;
    ``batch.wall_ms`` is the batch's wall time and ``batch.iterations`` the fit-iterations run (no losses).
    Each fit keeps its own ``tol`` rule: a converged fit leaves the batch, and the others run on.

    One full pass at each point (P, F) gives its loss, the next F step's
    gradient and the P-only heads' share of the next P step's gradient; after
    the F step only the recovery head runs again, at (P, F'), for d/dY alone;
    the last point's pass is value-only. Each per-point quantity is formed once:
    X's column norms nx per call (view m's data is one (B, D_m, n) array), Y and its unit
    columns Yh per P, each one (B, V, d, n) array (Yh reused at (P, F')), and W_m = F_m (X^m / nx^m)
    and R_m = F_m F_m^T per F (reused at (P', F')); each head runs all its fits' view pairs as one batch.
    P and F are each one (B, ...) array with one (entrywise) Adam state; a view's matrix is a slice.

    Deterministic: the same datasets and config reproduce the trajectories and
    parameters bit for bit. Overflow while training surfaces as
    NumericDivergence naming the fit (``fit``, its index in the batch), not as numpy warnings.
    """
    t0 = time.perf_counter()
    _threads()  # a bad MVCL_THREADS raises here, whatever the size of the fit
    fits = ds if isinstance(ds, tuple) else (ds,)
    if not fits:
        raise ValueError("no datasets to train on")
    hp, first = cfg.hp, fits[0]
    if any(other.dims != first.dims or other.n != first.n for other in fits):
        raise DimError("the datasets of one batch must share n and the view dimensions")
    if len(fits) > _batch_limit(first.V, first.n, hp.d):
        raise ValueError(f"{len(fits)} fits exceed the batch limit {_batch_limit(first.V, first.n, hp.d)}")
    X = [np.stack(views) if len(fits) > 1 else views[0][None] for views in zip(*(f.views for f in fits))]
    nx = [_col_norms(x) for x in X]
    P, F = init_params(first.dims, hp.d, cfg.seed)
    p, f = np.stack([np.vstack(P.mats)] * len(fits)), np.stack([np.hstack(F.mats)] * len(fits))
    blocks = [slice(end - D, end) for D, end in zip(first.dims, accumulate(first.dims))]
    fit_f = hp.beta != 0.0  # else F is out of the objective, and Adam would not move it

    def fmats(f):
        return [f[..., b] for b in blocks]

    def full_pass(p, f, maps, grad=True):
        Y = _stacked([p[:, b].swapaxes(1, 2) for b in blocks], X)
        Yh, ny = _unit_columns(Y)
        value, dYp = _p_heads(Y, Yh, ny, hp, grad)
        rvalue, _, dF = _f_head(X, nx, maps, fmats(f), Yh, ny, hp, want_dF=grad and fit_f)
        return (value + rvalue).tolist(), Yh, ny, dYp, dF

    def check(loss, it):
        bad = [fit for fit, x in zip(live, loss) if not math.isfinite(x)]
        if bad:
            of = f" of fit {bad[0]}" if len(fits) > 1 else ""
            why = f"loss{of} diverged at iteration {it}" if it else f"initial loss{of} is not finite"
            raise NumericDivergence(why, iteration=it, fit=bad[0])

    live, done = list(range(len(fits))), {}
    maps = _recovery_maps(fmats(f), X, nx) if fit_f else None
    loss, Yh, ny, dYp, dF = full_pass(p, f, maps)
    check(loss, 0)
    losses = [[x] for x in loss]
    p_state, f_state = AdamState.zeros(p.shape), AdamState.zeros(f.shape)

    for it in range(1, cfg.max_iters + 1):
        if fit_f:
            f_state, f = adam_step(f_state, dF, f, cfg.adam)
            maps = _recovery_maps(fmats(f), X, nx)
            dYp += _f_head(X, nx, maps, fmats(f), Yh, ny, hp, want_dY=True)[1]
        dP = np.empty(p.shape)
        for m, (x, b) in enumerate(zip(X, blocks)):
            np.matmul(x, dYp[:, m].swapaxes(1, 2), out=dP[:, b])
        p_state, p = adam_step(p_state, dP, p, cfg.adam)

        loss, Yh, ny, dYp, dF = full_pass(p, f, maps, grad=it < cfg.max_iters)
        check(loss, it)
        keep = []
        for j, (fit, x) in enumerate(zip(live, loss)):
            losses[fit].append(x)
            converged = abs(losses[fit][-1] - losses[fit][-2]) <= cfg.tol
            if converged or it == cfg.max_iters:
                report = TrainReport(tuple(losses[fit]), it, converged, (time.perf_counter() - t0) * 1000.0)
                done[fit] = (ProjectionSet(tuple(p[j, b] for b in blocks)), RecoverySet(tuple(fmats(f[j]))), report)
            else:
                keep.append(j)
        if not keep:
            break
        if len(keep) < len(live):  # the converged fits leave the batch
            live = [live[j] for j in keep]
            X, nx = [x[keep] for x in X], [s[keep] for s in nx]
            p, f, Yh, ny, dYp = p[keep], f[keep], Yh[keep], ny[keep], dYp[keep]
            dF, maps = (None, None) if not fit_f else (dF[keep], (maps[0][keep], maps[1][keep]))
            p_state, f_state = (AdamState(s.m[keep], s.v[keep], s.t) for s in (p_state, f_state))

    if not isinstance(ds, tuple):
        return done[0]
    Ps, Fs, reports = zip(*(done[j] for j in range(len(fits))))
    batch = TrainReport((), sum(r.iterations for r in reports), all(r.converged for r in reports),
                        (time.perf_counter() - t0) * 1000.0)
    return Ps, Fs, batch, reports


# ---------------------------------------------------------------------------
# Model file io
# ---------------------------------------------------------------------------

# The model file's keys and their kinds (see ``from_json``), in the order they are checked. The
# preprocessing record is read after the matrices, which give the lengths of its vectors.
MODEL_FILE = {"schema_version": int, "P": ProjectionSet, "F": RecoverySet, "V": int, "d": int, "dims": list[int],
              "preprocessing": dict | None, "config": TrainConfig}


def _fits(value, kind) -> bool:
    """Whether a JSON value is a ``kind`` (bool, int or float): a bool is no number, a float no int, nor an int
    past float range a float."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if isinstance(value, int):
        return kind is int or kind is float and abs(value) <= sys.float_info.max
    return kind is float and isinstance(value, float)


def _number_rows(rows, lengths=None) -> bool:
    """Whether ``rows`` is a list of lists of numbers, as many as ``lengths`` and of those lengths, or
    without ``lengths`` any number of one length."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        return False
    if lengths is None:  # one length, the first row's
        lengths = [len(r) for r in rows[:1]] * len(rows)
    return [len(r) for r in rows] == list(lengths) and all(_fits(x, float) for r in rows for x in r)


def from_json(obj: dict, schema, doc: str, at: str = "", required=(), dims=None):
    """The JSON object ``obj``, at key path ``at`` of the file that ``doc`` names, read by ``schema``.

    ``schema`` is a dataclass, whose fields are its keys and whose field types are their kinds, read into an
    instance; or a dict of key -> kind, read into a dict of the keys present. Keys are checked in the schema's
    order. A key outside the schema, a missing key (a field without a default, or one of ``required``) and a
    value not of its kind raise ValueError naming its key path. The kinds:

    - bool, int and float, and a list of one of them (``list[int]``);
    - ``dict``, any object, and a dataclass or dict schema, read by this function;
    - ``ProjectionSet`` or ``RecoverySet``: V number matrices, each a list of equal-length rows;
    - ``tuple[np.ndarray, ...]``: V finite number vectors of the lengths ``dims``, > 0 if annotated "> 0";
    - any of these ``| None``, which also takes null.
    """
    where = f"{doc} '{at}'" if at else doc
    if is_dataclass(schema):
        required = [f.name for f in fields(schema) if f.default is MISSING]
        kinds = get_type_hints(schema, include_extras=True)
    else:
        kinds = schema
    extra = set(obj) - set(kinds)
    if extra:
        raise ValueError(f"{where} has unknown keys {sorted(extra)}")
    out = {}
    for key, kind in kinds.items():
        if key in obj:
            out[key] = _read(obj[key], kind, doc, f"{at}.{key}" if at else key, dims)
        elif key in required:
            raise ValueError(f"{where} lacks key '{key}'")
    return schema(**out) if is_dataclass(schema) else out


def _read(value, kind, doc: str, at: str, dims):
    """``value``, at key path ``at``, read as a ``kind`` of ``from_json``."""
    null = type(None) in get_args(kind)
    if null:
        if value is None:
            return None
        (kind,) = (k for k in get_args(kind) if k is not type(None))
    if get_origin(kind) in (tuple, Annotated):
        if _number_rows(value, dims):
            rows = tuple(np.array(r, dtype=float) for r in value)
            positive = "> 0" in getattr(kind, "__metadata__", ())
            # JSON's NaN and Infinity load as numbers
            if not all(np.isfinite(r).all() and (not positive or (r > 0).all()) for r in rows):
                raise ValueError(f"{doc} '{at}' must hold finite numbers{' > 0' if positive else ''}")
            return rows
        what = f"{len(dims)} lists of numbers, of lengths {dims}"
    elif get_origin(kind) is list:
        (item,) = get_args(kind)
        if isinstance(value, list) and all(_fits(x, item) for x in value):
            return value
        what = f"a list of {item.__name__}s"
    elif isinstance(kind, type) and issubclass(kind, _ViewMatrices):
        if isinstance(value, list) and all(_number_rows(rows) for rows in value):
            return kind(tuple(value))
        what = "a list of matrices, each a list of equal-length rows of numbers"
    elif kind is dict or is_dataclass(kind) or isinstance(kind, dict):
        if isinstance(value, dict):
            return value if kind is dict else from_json(value, kind, doc, at, dims=dims)
        what = "an object"
    else:
        if _fits(value, kind):
            return value
        what = kind.__name__
    raise ValueError(f"{doc} '{at}' must be {what}{' or null' if null else ''}, got {reprlib.repr(value)}")


def save_model(
    path: str | Path,
    P: ProjectionSet,
    F: RecoverySet,
    stats: FeatureStats | None,
    cfg: TrainConfig,
) -> None:
    """Write the learned parameters as JSON; floats round-trip exactly."""
    write_json(path, {
        "schema_version": MODEL_SCHEMA_VERSION,
        "V": P.V,
        "d": P.d,
        "dims": [a.shape[0] for a in P.mats],
        "P": P.mats,
        "F": F.mats,
        "preprocessing": None if stats is None else asdict(stats),
        "config": asdict(cfg),
    })


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` to ``path`` as JSON, one space per indent level, keys sorted, newline-terminated; an array
    is written as nested lists, and floats round-trip exactly. The one JSON writer of the library, as
    ``read_json`` is its one reader."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, default=np.ndarray.tolist)
        fh.write("\n")


def read_json(path: str | Path):
    """The JSON value in the file at ``path``. Text that is no JSON, nesting too deep for the parser and
    an integer with more digits than Python converts raise one ValueError, whose message starts with the path."""
    with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8
        try:
            return json.load(fh)
        except RecursionError:
            why = "JSON nested too deeply to read"
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            why = f"not valid JSON: {e}"
        except ValueError:  # what is left is int()'s limit on the digits of a JSON integer
            why = "a JSON integer has too many digits"
    raise ValueError(f"{path}: {why}")


def load_model(path: str | Path):
    """Read a model file back into (P, F, stats, cfg)."""
    obj = read_json(path)
    schema = obj.get("schema_version") if isinstance(obj, dict) else None
    if schema != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema: {schema!r}")
    doc = f"{path}: malformed model file:"
    model = from_json(obj, MODEL_FILE, doc, required=MODEL_FILE)
    P, dims = model["P"], [a.shape[0] for a in model["P"].mats]
    for key, value in (("V", P.V), ("d", P.d), ("dims", dims)):
        if model[key] != value:
            raise DimError(f"{doc} '{key}' is {model[key]!r}, but 'P' gives {value!r}")
    shapes, want = [a.shape for a in model["F"].mats], [(P.d, D) for D in dims]
    if shapes != want:
        raise DimError(f"{doc} 'F' has shapes {shapes}, but 'P' gives {want}")
    pre = model["preprocessing"]
    stats = None if pre is None else from_json(pre, FeatureStats, doc, "preprocessing", dims=dims)
    return P, model["F"], stats, model["config"]
