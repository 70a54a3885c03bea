"""The benchmark's own tests: every workload at toy size, schema and tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.per_layer_spec()
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_toy_size_emits_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, m in last["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
    if not trace:
        assert all(last["metrics"][m["name"]]["value"] > 0 for m in declared)
    else:
        assert last["metrics"]["optim.train.calls"]["value"] >= 1
        assert last["metrics"]["loss.cosine_logits.calls_per_iter"]["value"] > 0
        assert last["metrics"]["grad.grad_wrt_P.peak_alloc_mb"]["value"] > 0
        assert (BENCH / "out" / f"trace-{workload}-seed4.json.gz").is_file()
    record = json.loads((BENCH / "out" / f"result-{workload}-seed4-trace{trace}.json").read_text())
    assert {"nproc", "cpu_model", "python", "numpy", "blas", "blas_threads", "seed",
            "git_sha", "git_dirty"} <= set(record["provenance"])
    assert record["provenance"]["blas_threads"] == "1" and record["provenance"]["seed"] == 4


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "protocol", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_failures_are_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    def call(state, i):
        if i == 1:
            raise RuntimeError("boom")
        return i

    def check_run(state):
        raise ValueError("check crashed")

    wl = workloads.Workload(
        name="fake", why="", setup=None, call=call,
        check_call=lambda state, out: ["wrong answer"] if out == 2 else [],
        check_run=check_run, grad_probe=None, ms_per_iter=lambda out, wall: 1.0,
    )
    monkeypatch.setattr(probe, "run", lambda: None)
    r = run.Run(wl, 0, True, tmp_path)
    t = r.measure(None, 0.05)
    r.check_run(None)
    assert len(t.walls) >= 3 and len(t.probes) == len(t.walls) + 1
    assert len(t.at_ref(t.per_iter)) == len(t.walls) - 1
    assert r.attempted == len(t.walls) + 1 and r.failed == 3
    assert any("boom" in e for e in r.errors) and any("wrong answer" in e for e in r.errors)


def test_each_call_is_scaled_by_the_probes_around_it():
    t = run.Timings(ref_s=1.0, probes=[1.0, 3.0, 2.0], walls=[4.0, 5.0], per_iter=[None, 10.0])
    assert t.at_ref(t.walls) == [2.0, 2.0]
    assert t.at_ref(t.per_iter) == [4.0]


def test_tracer_patches_every_binding_and_restores_them():
    import mvcl.grad
    import mvcl.loss
    import mvcl.optim

    originals = (mvcl.loss.cosine_logits, mvcl.grad.cosine_logits, mvcl.optim.grad_wrt_P)
    assert originals[0] is originals[1]
    t = tracing.Tracer()
    with t:
        assert mvcl.loss.cosine_logits is mvcl.grad.cosine_logits is not originals[0]
        assert mvcl.optim.grad_wrt_P is not originals[2]
    assert (mvcl.loss.cosine_logits, mvcl.grad.cosine_logits, mvcl.optim.grad_wrt_P) == originals


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    with t.root("call"):
        outer = t._open("loss.total_loss")
        inner = t._open("loss.cosine_logits")
        t._close(inner)
        t._close(outer)
    t.start = array("d", [0.0, 1.0, 2.0])
    t.end = array("d", [10.0, 7.0, 5.0])
    (unit,) = t.per_root()["call"]
    assert unit["wall_s"] == 10.0
    assert unit["fn"]["loss.total_loss"] == [1, 6.0, 3.0]
    assert unit["fn"]["loss.cosine_logits"] == [1, 3.0, 3.0]


def test_protocol_check_reports_a_moved_margin(tmp_path):
    state = workloads.WORKLOADS["protocol"].setup(0, tmp_path, True)
    out = workloads.WORKLOADS["protocol"].call(state, 0)
    assert workloads.WORKLOADS["protocol"].check_call(state, out) == []
    rows = workloads.read_report(tmp_path / "report0.csv")
    moved = {label: list(v) for label, v in rows.items()}
    moved["Mean"][2] -= 1.0
    state.reference = {"0": {"rows": moved, "margin": rows["Mean"][0] - moved["Mean"][2]}}
    errs = workloads.WORKLOADS["protocol"].check_call(state, out)
    assert any("row Mean" in e for e in errs) and any("margin" in e for e in errs)


def test_reference_covers_the_pinned_c6_seeds():
    ref = workloads.load_reference()["protocol"]
    assert ref["0"]["margin"] == pytest.approx(3.8095, abs=1e-4)
    assert ref["1"]["margin"] == pytest.approx(5.7143, abs=1e-4)
