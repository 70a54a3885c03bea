import ast
from pathlib import Path

LOSS = Path(__file__).resolve().parents[1] / "src" / "mvcl" / "loss.py"
# The softmax's overflow rule, its exponential and its positives' layout belong to _xent alone.
SOFTMAX_ONLY = {"np.exp", "SHIFT_ABOVE", "_positive_index"}


def _softmax_readers(source: str) -> dict[str, set[str]]:
    """Each top-level definition of ``source`` other than ``_xent``, mapped to what it reads of SOFTMAX_ONLY."""
    found = {}
    for top in ast.parse(source).body:
        name = getattr(top, "name", type(top).__name__)
        if name == "_xent":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read = f"{node.value.id}.{node.attr}"
            else:
                continue
            if read in SOFTMAX_ONLY:
                found.setdefault(name, set()).add(read)
    return found


def test_guard_flags_a_second_softmax():
    source = (
        "SHIFT_ABOVE = 600.0\n"
        "def _xent(S):\n    return np.exp(S - SHIFT_ABOVE), _positive_index(S.shape)\n"
        "def head(G):\n    G -= G.max() if SHIFT_ABOVE else 0\n    return np.exp(G)\n"
    )
    assert _softmax_readers(source) == {"head": {"np.exp", "SHIFT_ABOVE"}}


def test_only_xent_exponentiates_or_reads_the_softmax_layout():
    assert _softmax_readers(LOSS.read_text()) == {}


# The row-block loops around _xent: the sample and recovery heads share _contrast's, and the feature head, one Gram
# block, keeps its own.
ROW_BLOCK_LOOPS = {"_contrast", "_feature_head"}


def _xent_readers(source: str) -> set[str]:
    """The top-level definitions of ``source`` other than ``_xent`` that read the name ``_xent``."""
    return {top.name for top in ast.parse(source).body if getattr(top, "name", "_xent") != "_xent"
            for node in ast.walk(top) if isinstance(node, ast.Name) and node.id == "_xent"}


def test_guard_flags_a_head_with_a_row_block_loop_of_its_own():
    # each head with its own loop around _xent, as before _contrast
    source = (
        "def _xent(S):\n    return S\n"
        "def _sample_head(A, C):\n    return [_xent(A[:, r:r + 8].T @ C) for r in range(0, 64, 8)]\n"
        "def _feature_head(G):\n    return _xent(G)\n"
        "def _recovery_blocks(W, U):\n    for r in range(0, 64, 8):\n        _xent(W[:, r:r + 8].T @ U)\n"
    )
    assert _xent_readers(source) - ROW_BLOCK_LOOPS == {"_sample_head", "_recovery_blocks"}


def test_only_the_blocked_contrast_and_the_feature_head_call_xent():
    assert _xent_readers(LOSS.read_text()) == ROW_BLOCK_LOOPS
