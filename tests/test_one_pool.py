"""Only ``_fork`` hands work to the pool, only ``_executor`` makes it, and only ``_threads`` reads MVCL_THREADS.

In a job of ``_fork`` a fork runs its jobs in order, so no pool thread waits on a job queued behind itself. A submit
anywhere else could; the guard rules that out by construction, as ``test_one_softmax`` rules out a second softmax.
"""

import ast
import contextlib
import faulthandler
import os
import threading
import time
from functools import partial
from pathlib import Path

import pytest

import mvcl.loss

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcl"
OWNERS = {"_executor": "_fork", "ThreadPoolExecutor": "_executor", "MVCL_THREADS": "_threads"}


def _namers(source: str, module: str = "") -> dict[str, set[str]]:
    """Each key of OWNERS mapped to the top-level definitions of ``source`` that name it, as a name, an attribute or
    a string: ``module.definition``."""
    found = {}
    for top in ast.parse(source).body:
        name = getattr(top, "name", type(top).__name__)
        for node in ast.walk(top):
            named = getattr(node, "id", getattr(node, "attr", getattr(node, "value", None)))
            if isinstance(named, str) and named in OWNERS:
                found.setdefault(named, set()).add(f"{module}{name}")
    return found


def _faults(source: str) -> dict[str, set[str]]:
    """The definitions but its owner that name each key of OWNERS."""
    return {key: names - {OWNERS[key]} for key, names in _namers(source).items() if names - {OWNERS[key]}}


def test_guard_flags_a_pool_job_that_submits():
    # a block softmax that splits itself over the pool from inside a pool job, a head that submits its own views,
    # and a benchmark with a pool and a thread rule of its own
    source = (
        "def _executor():\n    return ThreadPoolExecutor(1)\n"
        "def _fork(jobs):\n    return [_executor().submit(job) for job in jobs]\n"
        "def _xent(S):\n    return _executor().submit(_xent, S[1:])\n"
        "def _recovery_head(S):\n    return _executor().submit(_xent, S)\n"
        "def _threads():\n    return int(os.environ['MVCL_THREADS'])\n"
        "def benchmark(runs):\n    if os.environ.get('MVCL_THREADS'):\n"
        "        return ThreadPoolExecutor(_threads()).map(run, runs)\n"
    )
    assert _faults(source) == {"_executor": {"_xent", "_recovery_head"}, "ThreadPoolExecutor": {"benchmark"},
                               "MVCL_THREADS": {"benchmark"}}


def test_only_fork_names_the_pool_and_only_threads_reads_the_thread_count():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for key, names in _namers(path.read_text(), f"{path.stem}.").items():
            found.setdefault(key, set()).update(names)
    assert found == {"_executor": {"loss._fork"}, "ThreadPoolExecutor": {"loss._executor"},
                     "MVCL_THREADS": {"loss._threads"}}


def _tree(depth: int, path: tuple, leaves: list):
    """Forks of 3 jobs, ``depth`` levels deep, each leaf giving its path: the leaves of the first job sleep."""
    if depth == 0:
        time.sleep(0.05 if path[0] == 0 else 0.0)
        leaves.append((path, threading.get_ident()))
        return path
    return mvcl.loss._fork([partial(_tree, depth - 1, path + (i,), leaves) for i in range(3)])


@contextlib.contextmanager
def _deadline(seconds: float, capfd):
    """End the test run with exit code 1 and every thread's stack on the terminal's stderr if the body takes longer
    than ``seconds``. A fork that waits on a job that no thread will run leaves a pool thread waiting too, and the
    interpreter joins the pool's threads at exit: a failed assertion alone would leave the run hanging."""
    with capfd.disabled():
        stderr = os.dup(2)
    faulthandler.dump_traceback_later(seconds, exit=True, file=stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        os.close(stderr)


def test_forks_two_levels_deep_on_a_one_worker_pool_finish_and_join_in_job_order(monkeypatch, capfd):
    monkeypatch.setenv("MVCL_THREADS", "2")  # the pool of all threads but the caller's: one worker
    leaves = []
    with _deadline(30, capfd):
        results = _tree(2, (), leaves)
    assert results == [[(i, j) for j in range(3)] for i in range(3)]
    paths = [path for path, _ in leaves]
    assert paths != sorted(paths)  # the first job's leaves finish after the second's: the join orders the results
    # jobs 0 and 2 run on the calling thread, job 1 on the one pool thread, each one's own fork in order
    threads = [{thread for path, thread in leaves if path[0] == i} for i in range(3)]
    assert threads[0] == threads[2] == {threading.get_ident()} and len(threads[1]) == 1 and threads[1] != threads[0]
    assert [[path for path in paths if path[0] == i] for i in range(3)] == [[(i, j) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("raising", [{0, 1}, {2, 3}, {1, 2}, {3}, {4}])
def test_a_fork_raises_its_first_error_in_job_order_once_every_thread_has_stopped(monkeypatch, raising):
    monkeypatch.setenv("MVCL_THREADS", "2")  # jobs 0, 2 and 4 run here, 1 and 3 on the pool
    ran = []

    def job(i):
        time.sleep(0.01 * (i % 2))  # the pool's jobs end after the calling thread's
        ran.append(i)
        if i in raising:
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as error:
        mvcl.loss._fork([partial(job, i) for i in range(5)])
    assert error.value.args == (min(raising),)
    # each thread stops at its own first error, and the join waits for both
    assert sorted(ran) == [i for i in range(5) if not raising & set(range(i % 2, i, 2))]
