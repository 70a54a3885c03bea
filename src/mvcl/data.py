"""Multi-view datasets: loading, preprocessing, splitting, synthesis.

Internally every view is stored as a features x samples matrix (D_m x n);
CSV files on disk use the transposed samples x features layout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    InvalidSpec,
    LabelsRequired,
    ParseError,
    SplitInfeasible,
    StatsMismatch,
    ViewMismatch,
)

_MASK64 = (1 << 64) - 1


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_view_matrix(x, name: str) -> np.ndarray:
    own = type(x) is np.ndarray and x.dtype == np.float64 and x.flags.c_contiguous and x.flags.owndata
    m = x if own and not x.flags.writeable else np.array(x, dtype=float, order="C")
    if m.ndim != 2:
        raise ViewMismatch(f"{name} must be 2-D, got {m.ndim}-D")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise EmptyInput(f"{name} is empty (shape {m.shape})")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return _frozen(m)


@dataclass(frozen=True)
class MultiViewDataset:
    """V feature matrices describing the same n samples.

    ``views[m]`` has shape (D_m, n); labels, when present, hold one non-negative class
    id per sample. Arrays are copied and made read-only, so a dataset can be shared across
    threads; a float64, C-contiguous, read-only view that owns its data is adopted, not copied.
    """

    views: tuple[np.ndarray, ...]
    labels: np.ndarray | None = None

    def __post_init__(self):
        views = tuple(_as_view_matrix(v, f"view {m}") for m, v in enumerate(self.views))
        if len(views) < 2:
            raise ViewMismatch(f"need at least two views, got {len(views)}")
        n = views[0].shape[1]
        for m, v in enumerate(views):
            if v.shape[1] != n:
                raise ViewMismatch(f"view {m} has {v.shape[1]} samples, expected {n}")
        object.__setattr__(self, "views", views)
        if self.labels is not None:
            lab = np.array(self.labels, dtype=np.int64)
            if lab.ndim != 1 or lab.shape[0] != n:
                raise ViewMismatch(f"labels shape {lab.shape} does not match n={n}")
            if lab.size and lab.min() < 0:
                raise ValueError("labels must be non-negative integers")
            object.__setattr__(self, "labels", _frozen(lab))

    @property
    def V(self) -> int:
        return len(self.views)

    @property
    def n(self) -> int:
        return self.views[0].shape[1]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.shape[0] for v in self.views)

    def take(self, idx: np.ndarray) -> "MultiViewDataset":
        """Column subset, by integer indices, applied consistently to every view (and labels)."""
        views = [_frozen(v.take(idx, axis=1)) for v in self.views]
        labels = None if self.labels is None else self.labels[idx]
        return MultiViewDataset(tuple(views), labels)


@dataclass(frozen=True, kw_only=True)
class FeatureStats:
    """The preprocessing flags, and the per-feature means/stds computed under them (a std divides the data).
    A model file's record is checked in this field order, flags first (``optim.from_json``)."""

    center: bool
    unit_variance: bool
    means: tuple[np.ndarray, ...]
    stds: Annotated[tuple[np.ndarray, ...], "> 0"] | None


def preprocess(
    ds: MultiViewDataset,
    center: bool = True,
    unit_variance: bool = False,
    stats: FeatureStats | None = None,
) -> tuple[MultiViewDataset, FeatureStats]:
    """Center / scale each feature row, or apply previously computed stats.

    When ``stats`` is given its recorded flags govern and the flag arguments
    are ignored; this is how test data reuses training statistics. Returns
    the transformed dataset and the statistics that were applied.
    """
    if stats is None:
        means = tuple(v.mean(axis=1) for v in ds.views)
        stds = None
        if unit_variance:
            stds = tuple(np.maximum(v.std(axis=1), 1e-12) for v in ds.views)
        stats = FeatureStats(center=center, unit_variance=unit_variance, means=means, stds=stds)
    else:
        if len(stats.means) != ds.V:
            raise StatsMismatch(f"stats cover {len(stats.means)} views, dataset has {ds.V}")
        for m, mu in enumerate(stats.means):
            if mu.shape != (ds.dims[m],):
                raise StatsMismatch(f"stats for view {m} have shape {mu.shape}, expected ({ds.dims[m]},)")
        if stats.unit_variance and stats.stds is None:
            raise StatsMismatch("stats request unit variance but carry no stds")

    out = []
    for m, v in enumerate(ds.views):
        w = np.array(v)
        if stats.center:
            w -= stats.means[m][:, None]
        if stats.unit_variance:
            w /= stats.stds[m][:, None]
        out.append(_frozen(w))
    return MultiViewDataset(tuple(out), ds.labels), stats


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for synthetic multi-view data with controlled information blocks.

    Per view, the first ``shared_dims`` rows carry class means common to all
    views, the next ``specific_dims`` rows carry class means private to that
    view, the next ``redundant_copies`` rows repeat shared class means (with
    fresh noise), and the remainder is pure noise.
    """

    classes: int
    per_class: int
    dims: tuple[int, ...]
    shared_dims: int = 4
    specific_dims: int = 4
    redundant_copies: int = 4
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.classes < 1 or self.per_class < 1:
            raise InvalidSpec("classes and per_class must be >= 1")
        if len(self.dims) < 2:
            raise InvalidSpec("need dims for at least two views")
        if any(d < 1 for d in self.dims):
            raise InvalidSpec("every view dimension must be >= 1")
        if min(self.shared_dims, self.specific_dims, self.redundant_copies) < 0:
            raise InvalidSpec("block counts must be >= 0")
        used = self.shared_dims + self.specific_dims + self.redundant_copies
        if any(used > d for d in self.dims):
            raise InvalidSpec(f"signal blocks use {used} dims, exceeding a view dimension")
        if not 0 < self.noise_std < math.inf:
            raise InvalidSpec(f"noise_std must be finite and > 0, got {self.noise_std!r}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")


# Class-mean scale. Means are drawn once from N(0, CLASS_MEAN_SCALE^2) and do
# not shrink with noise_std, so noise_std -> 0 collapses classes onto their
# means; at the default noise_std = 1.0 the separation-to-noise ratio is 3.
CLASS_MEAN_SCALE = 3.0


@np.errstate(over="ignore")  # an overflow of the noise is checked
def synth_generate(spec: SynthSpec) -> MultiViewDataset:
    """Deterministically generate a labelled dataset from a SynthSpec."""
    rng = np.random.default_rng(spec.seed)
    n = spec.classes * spec.per_class
    labels = np.repeat(np.arange(spec.classes), spec.per_class)

    sh, sp, rd = spec.shared_dims, spec.specific_dims, spec.redundant_copies
    mu_shared = CLASS_MEAN_SCALE * rng.standard_normal((sh, spec.classes))
    mu_specific = [
        CLASS_MEAN_SCALE * rng.standard_normal((sp, spec.classes)) for _ in spec.dims
    ]

    views = []
    for m, D in enumerate(spec.dims):
        x = rng.standard_normal((D, n))
        x *= spec.noise_std
        if not np.isfinite(x).all():
            raise InvalidSpec(f"noise_std = {spec.noise_std!r} overflows view {m}'s noise")
        if sh:
            x[:sh, :] += mu_shared[:, labels]
        if sp:
            x[sh : sh + sp, :] += mu_specific[m][:, labels]
        for r in range(rd):
            if sh:  # copies of nothing stay pure noise
                x[sh + sp + r, :] += mu_shared[r % sh, labels]
        views.append(_frozen(x))
    return MultiViewDataset(tuple(views), labels)


def default_synth_spec(seed: int = 0) -> SynthSpec:
    """The stock generator configuration used by the CLI and benchmarks."""
    return SynthSpec(classes=3, per_class=20, dims=(20, 20), seed=seed)


@dataclass(frozen=True)
class SplitPlan:
    """M training samples per class, drawn independently per repeat."""

    M: int
    repeats: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def _mix_seed(seed: int, repeat_index: int) -> int:
    # splitmix64 output function on the repeat_index-th state after `seed`.
    z = (seed + (repeat_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split_indices(
    labels: np.ndarray, plan: SplitPlan, repeat_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Choose M train indices per class; returns sorted (train, test) indices."""
    if not 0 <= repeat_index < plan.repeats:
        raise ValueError(f"repeat_index {repeat_index} outside [0, {plan.repeats})")
    labels = np.asarray(labels)
    rng = np.random.default_rng(_mix_seed(plan.seed, repeat_index))
    train: list[np.ndarray] = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if plan.M >= idx.size:
            raise SplitInfeasible(f"class {c} has {idx.size} samples, cannot train on M={plan.M}")
        train.append(rng.choice(idx, size=plan.M, replace=False))
    train_idx = np.sort(np.concatenate(train))
    mask = np.ones(labels.size, dtype=bool)
    mask[train_idx] = False
    return train_idx, np.flatnonzero(mask)


def split(
    ds: MultiViewDataset, plan: SplitPlan, repeat_index: int
) -> tuple[MultiViewDataset, MultiViewDataset]:
    """Deterministic M-per-class train/test partition over all views."""
    if ds.labels is None:
        raise LabelsRequired("split needs a labelled dataset")
    train_idx, test_idx = split_indices(ds.labels, plan, repeat_index)
    return ds.take(train_idx), ds.take(test_idx)


def _read_rows(path: str | Path, kind: type = float, header: bool = False) -> np.ndarray:
    """A CSV file's data rows as the columns of one frozen (width, rows) array of ``kind`` (float or int).

    The rules of view and labels files alike: blank rows are skipped, and so is
    the first row with ``header``; a cell that ``kind`` does not parse, or a row
    wider or narrower than the first, raises ParseError naming the file and row;
    a file without data rows raises EmptyInput. Each row becomes an array as it
    is read, so the values are held at most twice, never as Python numbers.
    """
    rows: list[np.ndarray] = []
    with open(path, newline="") as fh:
        for r, row in enumerate(csv.reader(fh)):
            if (header and r == 0) or not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                rows.append(np.fromiter(map(kind, row), kind, len(row)))
            except (ValueError, OverflowError) as e:  # an int past int64 overflows
                raise ParseError(f"{path}: row {r + 1}: {e}") from None
            if len(row) != len(rows[0]):
                raise ParseError(f"{path}: row {r + 1} has {len(row)} columns, expected {len(rows[0])}")
    if not rows:
        raise EmptyInput(f"{path}: no data rows")
    return _frozen(np.stack(rows, axis=1))


def load_views(
    paths: Sequence[str | Path],
    labels_path: str | Path | None = None,
    header: bool = False,
) -> MultiViewDataset:
    """Load one CSV per view (rows = samples) into a dataset.

    All files must agree on the row count; each file is read straight into the
    internal features x samples layout, which the dataset adopts, and a labels
    file holds one integer per row.
    """
    if len(paths) < 2:
        raise ViewMismatch(f"need at least two view files, got {len(paths)}")
    mats = [_read_rows(p, header=header) for p in paths]
    n = mats[0].shape[1]
    for p, m in zip(paths, mats):
        if m.shape[1] != n:
            raise ViewMismatch(f"{p}: {m.shape[1]} rows, expected {n}")
    labels = None
    if labels_path is not None:
        labels = _read_rows(labels_path, int)
        if labels.shape != (1, n):
            raise ViewMismatch(f"{labels_path}: {labels.shape[1]} rows of {labels.shape[0]} labels, expected {n} rows of 1")
        labels = labels[0]
    return MultiViewDataset(tuple(mats), labels)


def save_views(ds: MultiViewDataset, outdir: str | Path) -> list[Path]:
    """Write view{m}.csv (rows = samples) plus labels.csv; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for m, v in enumerate(ds.views):
        path = outdir / f"view{m + 1}.csv"
        with open(path, "w", newline="") as fh:
            for col in v.T:
                fh.write(",".join(repr(float(x)) for x in col))
                fh.write("\n")
        written.append(path)
    if ds.labels is not None:
        path = outdir / "labels.csv"
        with open(path, "w") as fh:
            for y in ds.labels:
                fh.write(f"{int(y)}\n")
        written.append(path)
    return written
