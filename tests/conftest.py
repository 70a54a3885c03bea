import tracemalloc

import numpy as np
import pytest


def peak_alloc(fn) -> int:
    """The tracemalloc peak, in bytes, of the call fn(): what it allocates beyond its inputs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_csv(path, mat, fmt="%.17g"):
    np.savetxt(path, np.asarray(mat), delimiter=",", fmt=fmt)
    return path


@pytest.fixture
def csv_writer(tmp_path):
    def _write(name, mat, fmt="%.17g"):
        return write_csv(tmp_path / name, mat, fmt=fmt)

    return _write
