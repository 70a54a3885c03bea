"""Only the recovery head hands work to the pool, and nothing that a pool job runs can hand work to it again.

A pool thread that submitted to its own pool could wait for a job queued behind itself; the guard rules that out by
construction, as ``test_one_softmax`` rules out a second softmax.
"""

import ast
from pathlib import Path

LOSS = Path(__file__).resolve().parents[1] / "src" / "mvcl" / "loss.py"
POOL_JOB = "_recovery_blocks"  # what _recovery_head submits
SUBMITTERS = {"_executor", "_recovery_head"}


def _names(source: str) -> dict[str, set[str]]:
    """Each top-level function of ``source`` mapped to the top-level functions it names, called or passed on."""
    tops = {top.name: top for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)}
    return {name: {node.id for node in ast.walk(top) if isinstance(node, ast.Name) and node.id in tops}
            for name, top in tops.items()}


def _pool_faults(source: str) -> tuple[set[str], set[str]]:
    """(the functions but _recovery_head that name _executor, the SUBMITTERS that the pool job reaches)."""
    names = _names(source)
    callers = {name for name, named in names.items() if "_executor" in named} - {"_recovery_head"}
    reached, todo = set(), [POOL_JOB]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += names.get(name, ())
    return callers, reached & SUBMITTERS


def test_guard_flags_a_pool_job_that_submits():
    # a block softmax that splits itself over the pool, reached from the pool job
    source = (
        "def _executor():\n    return pool\n"
        "def _xent(S):\n    return _executor().submit(_xent, S[1:])\n"
        "def _recovery_blocks(S):\n    return _xent(S)\n"
        "def _recovery_head(S):\n    return _executor().submit(_recovery_blocks, S)\n"
    )
    assert _pool_faults(source) == ({"_xent"}, {"_executor"})


def test_only_the_recovery_head_submits_and_its_pool_job_never_does():
    names = _names(LOSS.read_text())
    assert {"_executor", POOL_JOB} <= names["_recovery_head"]  # else the guard below would hold vacuously
    assert _pool_faults(LOSS.read_text()) == (set(), set())
