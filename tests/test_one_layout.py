import ast
from pathlib import Path

LOSS = Path(__file__).resolve().parents[1] / "src" / "mvcl" / "loss.py"
# A blocked head's layout (its rows per block, whether its all-view block splits, its anchor-view groups) belongs to
# _groups. Besides it, _fork reads the split threshold, _batch_limit sizes batches by ROWS, and the feature head, one
# Gram block, keeps its own rows.
READERS = {"SPLIT_FROM": {"_groups", "_fork"}, "ROWS": {"_batch_limit", "_groups", "_feature_head"}}


def _readers(source: str) -> dict[str, set[str]]:
    """Each name of READERS, mapped to the top-level definitions of ``source`` that read it."""
    found = {name: set() for name in READERS}
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in READERS:
                found[node.id].add(getattr(top, "name", type(top).__name__))
    return found


def test_guard_flags_heads_that_lay_out_their_own_blocks():
    # each blocked head with its own rows per block and split test, as before _groups
    source = (
        "ROWS, SPLIT_FROM = 256, 200_000\n"
        "def _batch_limit(V, n):\n    return ROWS // (V * n)\n"
        "def _fork(jobs, logits):\n    return logits < SPLIT_FROM\n"
        "def _by_anchor_view(V, *arrays):\n    return [[x[:, a:a + 1] for x in arrays] for a in range(V)]\n"
        "def _feature_head(Y):\n    return max(1, ROWS // Y.shape[0])\n"
        "def _sample_head(Yh, C):\n    c = max(1, ROWS // 4)\n    return c * C.shape[3] >= SPLIT_FROM\n"
        "def _recovery_head(U):\n    rows = ROWS // 2\n    return rows * U.shape[4] >= SPLIT_FROM\n"
    )
    found = _readers(source)
    assert found["SPLIT_FROM"] - READERS["SPLIT_FROM"] == {"_sample_head", "_recovery_head"}
    assert found["ROWS"] - READERS["ROWS"] == {"_sample_head", "_recovery_head"}


def test_only_groups_lays_out_a_blocked_head():
    assert _readers(LOSS.read_text()) == READERS
