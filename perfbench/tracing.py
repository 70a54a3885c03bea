"""Outside-in layer tracing for the mvcl benchmark.

Nothing under ``src/`` knows about this module. A :class:`Tracer` replaces,
for the duration of a ``with`` block, every name that an mvcl module binds to
one of the traced library functions (``mvcl.optim.grad_wrt_P``,
``mvcl.loss.cosine_logits``, ``mvcl.grad.cosine_logits`` and so on) with a
wrapper that records a span. Spans live in flat in-memory arrays (name id,
start, end, parent) and are written out once, when the run ends.

The workloads run single-threaded (``MVCL_THREADS`` unset), so one stack of
open spans describes the call tree.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import statistics
import time
from array import array
from pathlib import Path

# (module, function) pairs traced at their boundaries; the layer of a span is
# the module that defines the function. Missing names are skipped, so a
# library change that removes a function reports zero calls for it.
TRACED = (
    ("data", "synth_generate"),
    ("data", "save_views"),
    ("data", "load_views"),
    ("data", "split"),
    ("data", "preprocess"),
    ("loss", "cosine_logits"),
    ("loss", "total_loss"),
    ("loss", "sample_level_loss"),
    ("loss", "feature_level_loss"),
    ("loss", "recovery_level_loss"),
    ("grad", "grad_wrt_P"),
    ("grad", "grad_wrt_F"),
    ("optim", "train"),
    ("optim", "adam_step"),
    ("evaluate", "benchmark"),
    ("evaluate", "knn_classify"),
    ("cli", "main"),
)

# Every module whose globals may bind a traced function.
MODULES = ("mvcl", "mvcl.data", "mvcl.loss", "mvcl.grad", "mvcl.optim", "mvcl.evaluate", "mvcl.cli")

ROOT_KINDS = ("setup", "call")


def cosine_cost(A, B) -> tuple[float, float]:
    """Flop and byte counts of one ``cosine_logits(A, B, sigma)``, from shapes.

    The GEMM costs 2*D*na*nb flop and the norms 2*D*(na+nb); forming the
    outer product of the norms, scaling it and dividing costs 3*na*nb. Bytes
    count each float64 operand read once plus four passes over the na x nb
    logits (GEMM output, outer product, scaled denominator, quotient).
    """
    D, na = A.shape
    nb = B.shape[1]
    flop = 2.0 * D * na * nb + 2.0 * D * (na + nb) + 3.0 * na * nb
    nbytes = 8.0 * (D * (na + nb) + 4 * na * nb)
    return flop, nbytes


class Tracer:
    """Span recorder plus the run-time patching of mvcl's cross-module names."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        # Counts recorded at boundaries: (span index, key, value).
        self.counts: list[tuple[int, str, float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, kind: str):
        """A root span: one set-up ("setup") or one measured call ("call")."""
        if kind not in ROOT_KINDS:
            raise ValueError(f"unknown root kind {kind!r}")
        i = self._open(kind)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str, fn):
        if name == "loss.cosine_logits":
            def count(i, args, result):
                flop, nbytes = cosine_cost(args[0], args[1])
                self.counts.append((i, "flop", flop))
                self.counts.append((i, "bytes", nbytes))
        elif name == "optim.train":
            def count(i, args, result):
                self.counts.append((i, "iterations", float(result[2].iterations)))
        else:
            count = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                count(i, args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, fname in TRACED:
            home = importlib.import_module(f"mvcl.{layer}")
            fn = getattr(home, fname, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{layer}.{fname}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    # -- aggregation -------------------------------------------------------

    def per_root(self) -> dict[str, list[dict]]:
        """Per root span: {function: [calls, s, self_s]} plus boundary counts.

        ``s`` sums the durations of a function's outermost spans, so a
        function nested inside itself is not counted twice; ``self_s`` is a
        span's duration minus the durations of its direct children.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
            else:
                root[i] = i
        out_index: dict[int, dict] = {}
        for i in range(n):
            if self.parent[i] < 0:
                out_index[i] = {"kind": self.names[self.name_id[i]], "wall_s": dur[i], "fn": {}, "counts": {}}
        for i in range(n):
            if self.parent[i] < 0:
                continue
            name = self.names[self.name_id[i]]
            rec = out_index[root[i]]["fn"].setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[2] += dur[i] - child[i]
            p = self.parent[i]
            outermost = True
            while p >= 0:
                if self.name_id[p] == self.name_id[i]:
                    outermost = False
                    break
                p = self.parent[p]
            if outermost:
                rec[1] += dur[i]
        for i, key, value in self.counts:
            c = out_index[root[i]]["counts"]
            c[key] = c.get(key, 0.0) + value
            if key == "flop":
                c["cosine_calls"] = c.get("cosine_calls", 0.0) + 1.0
        grouped: dict[str, list[dict]] = {k: [] for k in ROOT_KINDS}
        for i in sorted(out_index):
            grouped[out_index[i]["kind"]].append(out_index[i])
        return grouped

    def write(self, path: Path, meta: dict) -> None:
        """Write every span (name, start, end, parent) as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        obj = {
            "meta": meta,
            "names": self.names,
            "spans": {
                "name": list(self.name_id),
                "start_s": [round(t - t0, 9) for t in self.start],
                "end_s": [round(t - t0, 9) for t in self.end],
                "parent": list(self.parent),
            },
            "counts": [list(c) for c in self.counts],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(obj, fh)


def layer_metrics(grouped: dict[str, list[dict]]) -> dict[str, float]:
    """Per-layer metrics: medians over measured calls of per-call totals.

    A function that never runs inside a measured call (data generation runs
    only during set-up) is taken per set-up repetition instead.
    """
    out: dict[str, float] = {}
    calls, setups = grouped["call"], grouped["setup"]
    for layer, fname in TRACED:
        name = f"{layer}.{fname}"
        units = calls if any(name in u["fn"] for u in calls) else setups
        for k, field in enumerate(("calls", "s", "self_s")):
            vals = [u["fn"].get(name, [0, 0.0, 0.0])[k] for u in units]
            out[f"{name}.{field}"] = float(statistics.median(vals)) if vals else 0.0

    def med(f):
        vals = [f(u["counts"]) for u in calls]
        return float(statistics.median(vals)) if vals else 0.0

    def per_iter(key, scale):
        return med(lambda c: c.get(key, 0.0) / c["iterations"] / scale if c.get("iterations") else 0.0)

    out["optim.iterations"] = med(lambda c: c.get("iterations", 0.0))
    out["loss.cosine_logits.calls_per_iter"] = per_iter("cosine_calls", 1.0)
    out["loss.cosine_logits.gflop"] = per_iter("flop", 1e9)
    out["loss.cosine_logits.mbytes"] = per_iter("bytes", 2.0**20)
    out["loss.cosine_logits.flop_per_byte"] = med(
        lambda c: c["flop"] / c["bytes"] if c.get("bytes") else 0.0
    )
    return out
