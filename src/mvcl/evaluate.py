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
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .data import MultiViewDataset, SplitPlan, preprocess, split_indices
from .errors import BenchmarkError, DimError, EmptyTrain, LabelsRequired, NumericDivergence
from .loss import ProjectionSet, _batch_limit, _fork, embeddings
from .optim import TrainConfig, train

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


def benchmark(
    ds: MultiViewDataset,
    cfg: TrainConfig,
    plan: SplitPlan,
    d_sweep: list[int] | None = None,
) -> BenchmarkReport:
    """Repeated-split 1-NN benchmark over a grid of subspace dimensions.

    Each repeat centres its training split's features, without scaling them
    (``preprocess``' defaults), and applies the same means to its test split,
    formed after training. Each row reports the maximum over the grid of the
    across-repeat mean accuracy, with the population std at that grid point.
    The repeats share n (M per class), so those of one grid point train in
    lockstep, one ``train`` call per batch of at most ``loss._batch_limit(V, n, d)``
    (all 5 of the c6 protocol's at n = 18; one above n = 64 at V = 2), each fit
    with its result alone. The batches fork over the threads (``loss._fork``)
    only if each one's fits hold ``loss.SPLIT_FROM`` logits a pass, B V(V-1) n^2
    (from n = 317 at V = 2), and each batch's heads then run on its own thread.
    Results do not depend on the schedule. A failed repeat raises BenchmarkError naming it.
    """
    if ds.labels is None:
        raise LabelsRequired("benchmark needs a labelled dataset")
    sweep = list(d_sweep) if d_sweep else default_d_sweep(ds.dims)
    if not sweep:
        sweep = [cfg.hp.d]
    for d in sweep:
        if not 1 <= d < min(ds.dims):
            raise DimError(f"swept dimension {d} must lie in [1, {min(ds.dims)})")

    def train_split(r: int):
        try:
            train_idx, test_idx = split_indices(ds.labels, plan, r)
            return (*preprocess(ds.take(train_idx)), test_idx)
        except Exception as e:
            raise BenchmarkError(f"repeat {r} failed: {e}") from e

    splits = [train_split(r) for r in range(plan.repeats)]  # (train_p, stats, test_idx)
    sizes = {d: _batch_limit(ds.V, splits[0][0].n, d) for d in sweep}
    batches = [(d, range(plan.repeats)[r : r + sizes[d]]) for d in sweep for r in range(0, plan.repeats, sizes[d])]

    def run(batch):
        d, repeats = batch
        try:
            return train(tuple(splits[r][0] for r in repeats), replace(cfg, hp=replace(cfg.hp, d=d)))[0]
        except NumericDivergence as e:
            raise BenchmarkError(f"repeat {repeats[e.fit]} failed: {e}") from e
        except Exception as e:  # not one fit's failure: name every repeat of the batch
            raise BenchmarkError(f"repeats {list(repeats)} failed: {e}") from e

    # A batch's fits hold B V(V-1) n^2 logits a pass; below SPLIT_FROM, _fork runs the batches here in order, as
    # smaller ones fight over the interpreter lock: 4 at n = 18 took 1.28-1.66 s on 2 threads, 0.93-1.12 s on 1.
    B = min(len(repeats) for _, repeats in batches)
    trained = _fork([partial(run, batch) for batch in batches], B * ds.V * (ds.V - 1) * splits[0][0].n ** 2)

    fitted = {(r, d): P for (d, repeats), Ps in zip(batches, trained) for r, P in zip(repeats, Ps)}
    per_repeat = []
    for r, (train_p, stats, test_idx) in enumerate(splits):
        test_p, _ = preprocess(ds.take(test_idx), stats=stats)
        per_repeat.append({d: accuracies(fitted[r, d], train_p, test_p) for d in sweep})

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
        "center": True,
        "unit_variance": False,
        "std": "population",
        "train": asdict(cfg),
    }
    return BenchmarkReport(tuple(rows), plan.M, plan.repeats, config)


def paired_rows(report: BenchmarkReport, ablation: BenchmarkReport | None = None):
    """Each row of ``report`` as (row, the ``ablation`` row of its label, row mean - ablation mean),
    or as (row, None, None) without an ablation: the one pairing of the report and the CSV."""
    by_label = {r.label: r for r in ablation.rows} if ablation is not None else {}
    for row in report.rows:
        ab = by_label[row.label] if ablation is not None else None
        yield row, ab, None if ab is None else row.mean_acc - ab.mean_acc


def report_to_csv(
    report: BenchmarkReport, ablation: BenchmarkReport | None = None
) -> str:
    """CSV table (label, mean_acc, std_acc), plus paired columns if ablated."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    paired = ["ablation_mean_acc", "ablation_std_acc", "diff_mean"] if ablation is not None else []
    w.writerow(["label", "mean_acc", "std_acc", *paired])
    for row, ab, diff in paired_rows(report, ablation):
        values = [row.mean_acc, row.std_acc] + ([ab.mean_acc, ab.std_acc, diff] if ab is not None else [])
        w.writerow([row.label, *map(repr, values)])
    return buf.getvalue()


def report_to_dict(report: BenchmarkReport) -> dict:
    return asdict(report) | {"schema_version": REPORT_SCHEMA_VERSION}
