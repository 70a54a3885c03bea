#!/usr/bin/env python3
"""Run one workload of the mvcl benchmark and print its metrics.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 30 --trace 0

Builds nothing: it imports the library from ``src/`` next to this directory
and exits 2 if that is missing. OpenBLAS is pinned to one thread and
``MVCL_THREADS`` is unset before numpy is imported.

With ``--trace 0`` the run sets up the workload several times (set-up time
is the import time plus the median set-up), then repeats the workload's call
for ``--seconds`` and reports the end-to-end metrics. A fixed speed probe runs
before the first call and after each call; call times are reported scaled to
the probe's reference speed (see Timings). With ``--trace 1`` it spends half
the time on untraced calls and half on traced ones, and reports the per-layer
metrics (see tracing.py) plus the tracing overhead.

Every call's output is checked outside the timed phase; failures count into
``failed`` and never stop the run. The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller
record (provenance, sample counts, failure messages) goes to
``perfbench/out/result-<workload>-seed<seed>-trace<t>.json`` and the spans of
a traced run to ``perfbench/out/trace-<workload>-seed<seed>.json.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = "1"
SETUP_REPEATS = 5

# (name, unit, better, bound) of the metrics reported with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("call_s", "s", "lower", 0.24),
    ("ms_per_iter", "ms", "lower", 0.24),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of the metrics reported with --trace 1."""
    from tracing import TRACED

    spec = []
    for layer, fname in TRACED:
        spec += [
            (f"{layer}.{fname}.calls", "count", "lower"),
            (f"{layer}.{fname}.s", "s", "lower"),
            (f"{layer}.{fname}.self_s", "s", "lower"),
        ]
    spec += [
        ("optim.iterations", "count", "lower"),
        ("loss.cosine_logits.calls_per_iter", "count", "lower"),
        ("loss.cosine_logits.gflop", "GFLOP/iter", "lower"),
        ("loss.cosine_logits.mbytes", "MiB/iter", "lower"),
        ("loss.cosine_logits.flop_per_byte", "flop/B", "higher"),
        ("grad.grad_wrt_P.peak_alloc_mb", "MiB", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return spec


def pin_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("MVCL_THREADS", None)


def summary(values: list[float]) -> dict:
    """Median and sample count; p90 only with at least ten samples above it."""
    out = {"median": statistics.median(values), "samples": len(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    in_repo = _git("rev-parse", "--show-toplevel")
    sha = dirty = None
    if in_repo and Path(in_repo).resolve() == ROOT:
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mvcl_threads": os.environ.get("MVCL_THREADS"),
        "seed": seed,
        "git_sha": sha,
        "git_dirty": dirty,
    }


@dataclass
class Timings:
    """One measured phase: call i ran between probes[i] and probes[i + 1]."""

    ref_s: float  # the probe's time at the reference speed
    probes: list[float]
    walls: list[float] = field(default_factory=list)
    per_iter: list[float | None] = field(default_factory=list)  # None for a failed call
    cycles: list[float] = field(default_factory=list)  # call, check and the probe after it

    def at_ref(self, values: list[float | None]) -> list[float]:
        """Each call's value scaled to the reference speed by the probes around it."""
        return [
            v * 2.0 * self.ref_s / (self.probes[i] + self.probes[i + 1])
            for i, v in enumerate(values)
            if v is not None
        ]


class Run:
    """One workload run: set-up, timed calls, checks and the result record."""

    def __init__(self, workload, seed: int, toy: bool, workdir: Path):
        self.wl = workload
        self.seed = seed
        self.toy = toy
        self.workdir = workdir
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def record(self, what: str, errs: list[str]) -> None:
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors += [f"{what}: {e}" for e in errs]
            for e in errs:
                print(f"FAILED {what}: {e}", file=sys.stderr)

    def setup(self):
        from workloads import clean

        clean(self.workdir)
        self.workdir.mkdir(parents=True)
        return self.wl.setup(self.seed, self.workdir, self.toy)

    def measure(self, state, seconds: float, tracer=None) -> Timings:
        """Repeat call and probe while another pair still fits in ``seconds``."""
        import probe

        t = Timings(probe.REF_S, [probe.seconds()])
        begin = time.perf_counter()
        i = 0
        while True:
            t0 = time.perf_counter()
            wall = None
            per_iter = None
            try:
                with tracer.root("call") if tracer else nullcontext():
                    out = self.wl.call(state, i)
                wall = time.perf_counter() - t0
                errs = self.wl.check_call(state, out)
                per_iter = self.wl.ms_per_iter(out, wall)
            except Exception as e:  # a failed call is counted, not fatal
                traceback.print_exc()
                errs = [f"{type(e).__name__}: {e}"]
            t.walls.append(time.perf_counter() - t0 if wall is None else wall)
            t.per_iter.append(per_iter)
            self.record(f"call {i}", errs)
            t.probes.append(probe.seconds())
            t.cycles.append(time.perf_counter() - t0)
            i += 1
            if time.perf_counter() - begin + statistics.median(t.cycles) > seconds:
                return t

    def check_run(self, state) -> None:
        try:
            results = self.wl.check_run(state)
        except Exception as e:  # counted like any other failed check
            traceback.print_exc()
            results = [("run checks", [f"{type(e).__name__}: {e}"])]
        for what, errs in results:
            self.record(what, errs)


def grad_peak_alloc_mib(probe) -> float:
    """tracemalloc peak of one grad_wrt_P call at the initial parameters."""
    import tracemalloc

    import mvcl.grad

    P, F, ds, hp = probe
    tracemalloc.start()
    try:
        mvcl.grad.grad_wrt_P(P, F, ds, hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2.0**20


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool, import_s: float) -> dict:
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, clean

    r = Run(WORKLOADS[name], seed, toy, OUT / f"work-{name}-{seed}-{os.getpid()}")
    detail: dict = {}
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = r.setup()
            setup_times.append(time.perf_counter() - t0)

        if not trace:
            t = r.measure(state, seconds)
            r.check_run(state)
            call_s, per_iter = t.at_ref(t.walls), t.at_ref(t.per_iter)
            detail = {
                "setup_s": {"median": import_s + statistics.median(setup_times), "samples": len(setup_times),
                            "import_s": import_s},
                "call_s": summary(call_s) | {"wall_median": statistics.median(t.walls), "values": call_s},
                "ms_per_iter": summary(per_iter) if per_iter else {"median": None, "samples": 0},
                "probe_s": summary(t.probes) | {"ref_s": t.ref_s, "values": t.probes},
            }
        else:
            t = r.measure(state, seconds / 2)
            base = t.at_ref(t.walls)
            tracer = Tracer()
            with tracer:
                with tracer.root("setup"):
                    state = r.setup()
                t = r.measure(state, seconds / 2, tracer)
                traced = t.at_ref(t.walls)
            r.check_run(state)
            layers = layer_metrics(tracer.per_root())
            layers["grad.grad_wrt_P.peak_alloc_mb"] = grad_peak_alloc_mib(r.wl.grad_probe(state))
            layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(base) - 1.0)
            detail = {k: {"median": v} for k, v in layers.items()}
            detail["untraced_call_s"] = summary(base)
            detail["traced_call_s"] = summary(traced)
            tracer.write(OUT / f"trace-{name}-seed{seed}.json.gz", {"workload": name, "seed": seed})
    finally:
        clean(r.workdir)

    if not trace:
        detail["peak_rss_mb"] = {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        # failed / attempted; not a declared metric, since it reads 0 when all is well.
        detail["error_rate"] = {"median": r.failed / r.attempted}
        spec = [(n, u) for n, u, _, _ in END_TO_END]
    else:
        spec = [(n, u) for n, u, _ in per_layer_spec()]
    metrics = {n: {"value": detail[n]["median"], "unit": u} for n, u in spec}
    return {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
        "detail": detail,
        "errors": r.errors,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mvcl benchmark: one workload, one seed.")
    p.add_argument("--workload", required=True, choices=["protocol", "fit_large"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--toy", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (SRC / "mvcl" / "__init__.py").is_file():
        print(f"error: no mvcl sources at {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import mvcl  # noqa: F401
    import workloads  # noqa: F401

    import_s = time.perf_counter() - t0
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy, import_s)

    for name, d in res["detail"].items():
        extra = "".join(f" {k}={v}" for k, v in d.items() if k not in ("median", "values"))
        print(f"{name} = {d['median']!r}{extra}")
    record = {"workload": args.workload, "trace": args.trace, "toy": args.toy, "provenance": prov} | res
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
