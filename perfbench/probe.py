"""The speed probe: a fixed computation timed around every measured call.

The host's speed drifts by up to 20% for minutes at a time, longer than a
run, so a median over one run's calls does not remove it (README, "Noise").
The probe is a fixed numpy computation, written here and never changed with
the library. It runs before the first call and after every call, and each
call's time is scaled by REF_S over the mean of the two probe times around it
(run.Timings). A change to mvcl moves the call but not the probe; a change in
machine speed moves both. REF_S is the probe's median time on the machine the
README describes, so a scaled time reads as the call's wall time there.

The computation is a cosine-logit softmax over 3000 unit vectors, 64 rows at
a time: BLAS and elementwise work on 1.5 MB blocks, which stay in cache and
add about 13 MiB to the peak RSS. Of the probes tried (README) it tracked the
drift of the protocol workload best.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.27
N, D, DIM, ROWS, REPEATS = 3000, 200, 20, 64, 6


def run() -> float:
    rng = np.random.default_rng(0)
    X, W = rng.standard_normal((N, D)), rng.standard_normal((D, DIM))
    acc = 0.0
    for _ in range(REPEATS):
        Z = X @ W
        Z = Z / np.sqrt((Z * Z).sum(axis=1, keepdims=True))
        for a in range(0, N, ROWS):
            L = Z[a : a + ROWS] @ Z.T
            E = np.exp(L - L.max(axis=1, keepdims=True))
            acc += float(np.log(E[:, a : a + ROWS].diagonal() / E.sum(axis=1)).sum())
    return acc


def seconds() -> float:
    """Wall seconds of one run()."""
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0
