"""Subspace evaluation: 1-NN, the accuracy table and the benchmark protocol.

The benchmark mirrors the usual repeated-split protocol: draw M training
samples per class, fit on the training split, classify the held-out split
with a 1-nearest-neighbour rule, and report mean +- population std over the
repeats. Accuracy rows cover each view separately (strategy I), their
average ("Mean"), and the summed-embedding fusion ("II").
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import MultiViewDataset, SplitPlan, preprocess, split
from .errors import BenchmarkError, DimError, EmptyTrain, LabelsRequired
from .loss import ProjectionSet, embeddings
from .optim import TrainConfig, config_to_dict, train

REPORT_SCHEMA_VERSION = 1


def knn_classify(
    train_emb: np.ndarray,
    train_labels: np.ndarray,
    test_emb: np.ndarray,
) -> np.ndarray:
    """Label each test column with its Euclidean-nearest training column.

    Distance ties resolve to the lowest training index (argmin picks the
    first minimum).
    """
    train_emb = np.asarray(train_emb, dtype=float)
    test_emb = np.asarray(test_emb, dtype=float)
    train_labels = np.asarray(train_labels)
    if train_emb.ndim != 2 or test_emb.ndim != 2 or train_emb.shape[0] != test_emb.shape[0]:
        raise DimError(f"embedding shapes {train_emb.shape} and {test_emb.shape} are incompatible")
    if train_emb.shape[1] == 0:
        raise EmptyTrain("no training columns")
    if train_labels.shape[0] != train_emb.shape[1]:
        raise DimError(f"{train_labels.shape[0]} labels for {train_emb.shape[1]} training columns")
    # ||a-b||^2 expanded; the additive ||b||^2 term does not affect argmin.
    sq_tr = (train_emb * train_emb).sum(axis=0)
    d2 = sq_tr[:, None] - 2.0 * (train_emb.T @ test_emb)
    return train_labels[np.argmin(d2, axis=0)]


def accuracy_pct(pred: np.ndarray, truth: np.ndarray) -> float:
    return 100.0 * float(np.mean(np.asarray(pred) == np.asarray(truth)))


def accuracies(
    P: ProjectionSet, gallery: MultiViewDataset, query: MultiViewDataset
) -> dict[str, float]:
    """1-NN accuracy (%) of the labelled ``query`` against the labelled ``gallery``.

    Keys, in order: ``view1`` .. ``viewV`` (strategy I, each view's
    embeddings alone), ``Mean`` (their average) and ``II`` (the summed
    embeddings of all views).
    """
    g, q = embeddings(P, gallery), embeddings(P, query)
    accs = {
        f"view{m + 1}": accuracy_pct(knn_classify(a, gallery.labels, b), query.labels)
        for m, (a, b) in enumerate(zip(g, q))
    }
    accs["Mean"] = float(np.mean(list(accs.values())))
    accs["II"] = accuracy_pct(knn_classify(sum(g), gallery.labels, sum(q)), query.labels)
    return accs


@dataclass(frozen=True)
class BenchmarkRow:
    label: str
    mean_acc: float
    std_acc: float
    d: int  # subspace dimension at which the row's mean peaked


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[BenchmarkRow, ...]
    M: int
    repeats: int
    config: dict


def default_d_sweep(dims: tuple[int, ...]) -> list[int]:
    """Multiples of 5 up to min(50, smallest view dimension - 1)."""
    cap = min(50, min(dims) - 1)
    return list(range(5, cap + 1, 5))


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get("MVCL_THREADS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"MVCL_THREADS must be an integer, got {raw!r}") from None
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_tasks))


def _one_repeat(
    ds: MultiViewDataset,
    cfg: TrainConfig,
    plan: SplitPlan,
    r: int,
    sweep: list[int],
    center: bool,
    unit_variance: bool,
) -> dict[int, dict[str, float]]:
    train_ds, test_ds = split(ds, plan, r)
    train_p, stats = preprocess(train_ds, center, unit_variance)
    test_p, _ = preprocess(test_ds, stats=stats)
    out: dict[int, dict[str, float]] = {}
    for d in sweep:
        P, _, _ = train(train_p, replace(cfg, hp=replace(cfg.hp, d=d)))
        out[d] = accuracies(P, train_p, test_p)
    return out


def benchmark(
    ds: MultiViewDataset,
    cfg: TrainConfig,
    plan: SplitPlan,
    d_sweep: list[int] | None = None,
    center: bool = True,
    unit_variance: bool = False,
) -> BenchmarkReport:
    """Repeated-split 1-NN benchmark over a grid of subspace dimensions.

    Each row reports the maximum over the grid of the across-repeat mean
    accuracy, with the population std at that grid point. Repeats are
    independent and may run in parallel (MVCL_THREADS); results do not
    depend on the schedule.
    """
    if ds.labels is None:
        raise LabelsRequired("benchmark needs a labelled dataset")
    sweep = list(d_sweep) if d_sweep else default_d_sweep(ds.dims)
    if not sweep:
        sweep = [cfg.hp.d]
    for d in sweep:
        if not 1 <= d < min(ds.dims):
            raise DimError(f"swept dimension {d} must lie in [1, {min(ds.dims)})")

    def run(r: int) -> dict[int, dict[str, float]]:
        try:
            return _one_repeat(ds, cfg, plan, r, sweep, center, unit_variance)
        except Exception as e:
            raise BenchmarkError(f"repeat {r} failed: {e}") from e

    workers = _worker_count(plan.repeats)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_repeat = list(pool.map(run, range(plan.repeats)))
    else:
        per_repeat = [run(r) for r in range(plan.repeats)]

    rows = []
    for label in per_repeat[0][sweep[0]]:
        best = None
        for d in sweep:
            vals = np.array([per_repeat[r][d][label] for r in range(plan.repeats)])
            cand = (float(vals.mean()), float(vals.std()), d)
            if best is None or cand[0] > best[0]:
                best = cand
        rows.append(BenchmarkRow(label, *best))

    config = {
        "M": plan.M,
        "repeats": plan.repeats,
        "split_seed": plan.seed,
        "d_sweep": sweep,
        "center": center,
        "unit_variance": unit_variance,
        "std": "population",
        "train": config_to_dict(cfg),
    }
    return BenchmarkReport(tuple(rows), plan.M, plan.repeats, config)


def report_to_csv(
    report: BenchmarkReport, ablation: BenchmarkReport | None = None
) -> str:
    """CSV table (label, mean_acc, std_acc), plus paired columns if ablated."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if ablation is None:
        w.writerow(["label", "mean_acc", "std_acc"])
        for row in report.rows:
            w.writerow([row.label, repr(row.mean_acc), repr(row.std_acc)])
    else:
        by_label = {r.label: r for r in ablation.rows}
        w.writerow(["label", "mean_acc", "std_acc", "ablation_mean_acc", "ablation_std_acc", "diff_mean"])
        for row in report.rows:
            ab = by_label[row.label]
            w.writerow(
                [
                    row.label,
                    repr(row.mean_acc),
                    repr(row.std_acc),
                    repr(ab.mean_acc),
                    repr(ab.std_acc),
                    repr(row.mean_acc - ab.mean_acc),
                ]
            )
    return buf.getvalue()


def report_to_dict(report: BenchmarkReport) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "rows": [
            {"label": r.label, "mean_acc": r.mean_acc, "std_acc": r.std_acc, "d": r.d}
            for r in report.rows
        ],
        "M": report.M,
        "repeats": report.repeats,
        "config": report.config,
    }
