"""The benchmark's two seeded workloads.

Each workload has a set-up step (data generation, repeated to time it), a
measured call, a per-call correctness check and per-run checks. Checks run
outside the timed phase and return failure messages instead of raising, so a
wrong answer counts into the error rate rather than ending the run.

``protocol``  the c6 paired-ablation protocol exactly as a user runs it:
              ``mvcl synth`` then ``mvcl benchmark --ablate cmc`` (10 fits of
              300 iterations on n=18). Per-call overhead dominates here.
``fit_large`` ``train`` on 2 views, n=3000: every n x n float64 matrix is
              72 MB, so the softmax work is memory-bound.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import mvcl.cli
import mvcl.data
import mvcl.evaluate
import mvcl.optim
from mvcl import (
    HyperParams,
    ProjectionSet,
    SplitPlan,
    SynthSpec,
    TrainConfig,
    default_synth_spec,
    grad_wrt_P,
    preprocess,
    split,
    synth_generate,
    total_loss,
)
from mvcl.optim import init_params

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Directional-derivative check: central difference with step H along a
# seeded unit direction must match <grad_wrt_P, dir> to DD_RTOL. At both fit
# sizes the measured disagreement at H = 1e-5 is below 1e-8.
DD_H = 1e-5
DD_RTOL = 1e-6
# losses[-1] must equal a fresh total_loss at the returned parameters.
LOSS_RTOL = 1e-10
# tol so small that the iteration cap ends every fit (tol must be > 0).
NEVER_CONVERGE = 1e-300


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable  # (seed, workdir, toy) -> state
    call: Callable  # (state, i) -> output
    check_call: Callable  # (state, output) -> list of failure messages
    check_run: Callable  # (state) -> [(check name, failure messages)]
    grad_probe: Callable  # (state) -> (P, F, ds, hp) at the initial parameters
    ms_per_iter: Callable  # (output, wall_s) -> training ms per iteration in one call


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

PROTOCOL_SEEDS_PER_RUN = 3
PROTOCOL_FULL = {"M": 6, "repeats": 5, "d": 5, "max_iters": 300}
PROTOCOL_TOY = {"M": 6, "repeats": 2, "d": 5, "max_iters": 5}
ROW_LABELS = ["view1", "view2", "Mean", "II"]


@dataclass
class ProtocolState:
    seeds: list[int]
    workdir: Path
    size: dict
    reference: dict
    seen: dict = field(default_factory=dict)  # seed -> rows of its first call


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _protocol_setup(seed: int, workdir: Path, toy: bool) -> ProtocolState:
    seeds = [seed + k for k in range(PROTOCOL_SEEDS_PER_RUN)]
    with contextlib.redirect_stdout(io.StringIO()):
        for s in seeds:
            rc = mvcl.cli.main(["synth", "--seed", str(s), "--out", str(workdir / f"data{s}")])
            if rc != 0:
                raise RuntimeError(f"mvcl synth --seed {s} exited {rc}")
    return ProtocolState(
        seeds=seeds,
        workdir=workdir,
        size=PROTOCOL_TOY if toy else PROTOCOL_FULL,
        reference={} if toy else load_reference()["protocol"],
    )


def _protocol_argv(state: ProtocolState, s: int) -> list[str]:
    z = state.size
    return [
        "benchmark",
        "--data", str(state.workdir / f"data{s}"),
        "--M", str(z["M"]),
        "--repeats", str(z["repeats"]),
        "--d-sweep", str(z["d"]),
        "--max-iters", str(z["max_iters"]),
        "--ablate", "cmc",
        "--seed", str(s),
        "--out", str(state.workdir / f"report{s}.csv"),
    ]


def _protocol_call(state: ProtocolState, i: int):
    """One ``mvcl benchmark`` call; also keeps the fits' TrainReports.

    The reports are caught by rebinding ``mvcl.evaluate.train`` for the call
    only: ten extra Python calls per protocol seed.
    """
    s = state.seeds[i % len(state.seeds)]
    reports = []
    inner = mvcl.evaluate.train

    def keep_report(*args, **kwargs):
        out = inner(*args, **kwargs)
        reports.append(out[2])
        return out

    mvcl.evaluate.train = keep_report
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = mvcl.cli.main(_protocol_argv(state, s))
    finally:
        mvcl.evaluate.train = inner
    return s, rc, reports


def _protocol_ms_per_iter(output, wall_s: float) -> float:
    reports = output[2]
    return sum(r.wall_ms for r in reports) / max(1, sum(r.iterations for r in reports))


def read_report(path: Path) -> dict[str, list[float]]:
    """Report CSV rows as label -> [mean, std, ablation mean, ablation std]."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["label", "mean_acc", "std_acc", "ablation_mean_acc", "ablation_std_acc", "diff_mean"]
    if rows[0] != header:
        raise ValueError(f"unexpected report header {rows[0]}")
    return {r[0]: [float(x) for x in r[1:5]] for r in rows[1:]}


def _protocol_check_call(state: ProtocolState, output) -> list[str]:
    s, rc, _ = output
    if rc != 0:
        return [f"seed {s}: mvcl benchmark exited {rc}"]
    try:
        rows = read_report(state.workdir / f"report{s}.csv")
    except (OSError, ValueError, IndexError) as e:
        return [f"seed {s}: unreadable report: {e}"]
    errs = []
    if list(rows) != ROW_LABELS:
        errs.append(f"seed {s}: report rows {list(rows)} != {ROW_LABELS}")
    if any(not (0.0 <= v[k] <= 100.0) for v in rows.values() for k in (0, 2)):
        errs.append(f"seed {s}: accuracy outside [0, 100]")
    first = state.seen.setdefault(s, rows)
    if rows != first:
        errs.append(f"seed {s}: result differs from the first call on the same seed")
    ref = state.reference.get(str(s))
    if ref is not None and not errs:
        for label, want in ref["rows"].items():
            if any(abs(a - b) > 1e-9 for a, b in zip(rows[label], want)):
                errs.append(f"seed {s}: row {label} {rows[label]} != reference {want}")
        margin = rows["Mean"][0] - rows["Mean"][2]
        if abs(margin - ref["margin"]) > 1e-9:
            errs.append(f"seed {s}: Mean-row margin {margin:+.4f} != reference {ref['margin']:+.4f}")
    return errs


def _protocol_grad_probe(state: ProtocolState):
    """grad_wrt_P inputs for the first repeat's training split at d."""
    ds = synth_generate(default_synth_spec(seed=state.seeds[0]))
    train_ds, _ = split(ds, SplitPlan(M=state.size["M"], repeats=state.size["repeats"], seed=state.seeds[0]), 0)
    train_p, _ = preprocess(train_ds)
    hp = HyperParams(d=state.size["d"])
    P, F = init_params(train_p.dims, hp.d, 0)
    return P, F, train_p, hp


# ---------------------------------------------------------------------------
# fit_large
# ---------------------------------------------------------------------------

FIT_SIZES = {
    "full": {"per_class": 1000, "dims": (200, 200), "d": 20, "iters": 2},
    "toy": {"per_class": 10, "dims": (14, 13), "d": 3, "iters": 2},
}


@dataclass
class FitState:
    ds: object
    cfg: TrainConfig
    seed: int
    first_losses: tuple | None = None
    last: tuple | None = None  # (P, F, report) of the latest call


def _fit_setup(seed: int, workdir: Path, toy: bool) -> FitState:
    z = FIT_SIZES["toy" if toy else "full"]
    spec = SynthSpec(classes=3, per_class=z["per_class"], dims=z["dims"], seed=seed)
    # Looked up at call time so that a tracer's wrappers are seen.
    ds, _ = mvcl.data.preprocess(mvcl.data.synth_generate(spec))
    cfg = TrainConfig(hp=HyperParams(d=z["d"]), max_iters=z["iters"], tol=NEVER_CONVERGE, seed=seed)
    return FitState(ds, cfg, seed)


def _fit_call(state: FitState, i: int):
    return mvcl.optim.train(state.ds, state.cfg)


def _fit_check_call(state: FitState, output) -> list[str]:
    P, F, report = output
    state.last = output
    errs = []
    if not all(math.isfinite(x) for x in report.losses):
        errs.append("non-finite loss in the trajectory")
    if report.iterations != state.cfg.max_iters or report.converged:
        errs.append(f"fit stopped after {report.iterations} of {state.cfg.max_iters} iterations")
    if state.first_losses is None:
        state.first_losses = report.losses
    elif report.losses != state.first_losses:
        errs.append("loss trajectory differs from the first call (not deterministic)")
    return errs


def _fit_check_run(state: FitState) -> list[tuple[str, list[str]]]:
    P, F, report = state.last
    hp = state.cfg.hp
    fresh = total_loss(P, F, state.ds, hp)
    loss_errs = []
    if not abs(fresh - report.losses[-1]) <= LOSS_RTOL * abs(fresh):
        loss_errs.append(f"losses[-1]={report.losses[-1]!r} but total_loss at the result is {fresh!r}")

    rng = np.random.default_rng(state.seed)
    dirs = [rng.standard_normal(p.shape) for p in P.mats]
    norm = math.sqrt(sum(float((x * x).sum()) for x in dirs))
    dirs = [x / norm for x in dirs]
    analytic = sum(float((g * x).sum()) for g, x in zip(grad_wrt_P(P, F, state.ds, hp), dirs))

    def at(step):
        return total_loss(ProjectionSet(tuple(p + step * x for p, x in zip(P.mats, dirs))), F, state.ds, hp)

    numeric = (at(DD_H) - at(-DD_H)) / (2.0 * DD_H)
    dd_errs = []
    if not abs(analytic - numeric) <= DD_RTOL * max(abs(analytic), abs(numeric)):
        dd_errs.append(f"directional derivative: analytic {analytic!r} vs central difference {numeric!r}")
    return [("fresh_loss", loss_errs), ("directional_derivative", dd_errs)]


def _fit_grad_probe(state: FitState):
    hp = state.cfg.hp
    P, F = init_params(state.ds.dims, hp.d, state.seed)
    return P, F, state.ds, hp


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS = {
    "protocol": Workload(
        name="protocol",
        why="the c6 paired-ablation protocol via mvcl.cli: per-call overhead dominates at n=18",
        setup=_protocol_setup,
        call=_protocol_call,
        check_call=_protocol_check_call,
        check_run=lambda state: [],
        grad_probe=_protocol_grad_probe,
        ms_per_iter=_protocol_ms_per_iter,
    ),
    "fit_large": Workload(
        name="fit_large",
        why="2 views at n=3000: 72 MB logit matrices, memory-bound softmax and peak RSS",
        setup=_fit_setup,
        call=_fit_call,
        check_call=_fit_check_call,
        check_run=_fit_check_run,
        grad_probe=_fit_grad_probe,
        ms_per_iter=lambda out, wall_s: 1000.0 * wall_s / out[2].iterations,
    ),
}


def clean(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
