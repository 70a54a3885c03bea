"""Differential tests of the blocked, batched heads (McKeeman, 1998, "Differential Testing for Software").

Every head's losses and gradients, run in blocks of a few anchor rows over a batch of fits, must agree with the
same heads run in one block, and each fit's with the dense reference of ``test_loss``. Derandomized hypothesis draws
the batch, the views, the shapes, ``loss.ROWS`` (so that small shapes cross row blocks and a batch's fits share
one), temperatures on both sides of 1 / ``SHIFT_ABOVE``, zero columns (floored norms) and both values of
``fea_include_self_view``.

Tolerances are scaled by the inputs, never by the gradient itself: at d = 1 the recovery head's dY is rounding noise
around an exact 0, where a relative test fails. Each scale bounds an output from the inputs alone (``_scales``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvcl.loss import NORM_FLOOR, _col_norms, _feature_head, _recovery_head, _recovery_maps, _sample_head, _unit_columns
from test_loss import _direct_recovery, _per_anchor_sample, _per_pair_feature

# 1/339 and 1/341 lie on either side of 1 / SHIFT_ABOVE, as 1 and 1e-3 lie on either side of both
SIGMAS = [1.0, 0.1, 1.0 / 339, 1.0 / 341, 1e-3]
RTOL = 1e-9
ONE_BLOCK = 1 << 30  # ROWS that hold every anchor row of every batch entry


def _inputs(seed, B, V, n, d, zero):
    """Data X (B, D_m, n each), maps F (B, d, D_m each) and embeddings Y (B, V, d, n); with ``zero``, one sample's
    column of the data and of the embeddings and one feature row are 0, so that their norms are floored."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 6, size=V)
    X = [rng.standard_normal((B, D, n)) for D in dims]
    Fmats = [rng.standard_normal((B, d, D)) for D in dims]
    Y = rng.standard_normal((B, V, d, n))
    if zero:
        b, m = rng.integers(B), rng.integers(V)
        X[m][b, :, rng.integers(n)] = 0.0
        Y[b, rng.integers(V), :, rng.integers(n)] = 0.0
        Y[b, m, rng.integers(d)] = 0.0
    return X, Fmats, Y


def _heads(X, Fmats, Y, sigma, own):
    """Each head's (losses (B,), gradients): the recovery head's with and without dF."""
    nx = [_col_norms(x) for x in X]
    Yh, ny = _unit_columns(Y)
    maps = _recovery_maps(Fmats, X, nx)
    loss, dY, dF = _recovery_head(X, nx, maps, Fmats, Yh, ny, sigma, want_dY=True, want_dF=True)
    loss_y, dY_only, _ = _recovery_head(X, nx, maps, Fmats, Yh, ny, sigma, want_dY=True)
    return {
        "sample": _sample_head(Yh, ny, sigma, grad=True),
        "feature": _feature_head(Y, sigma, own, grad=True),
        "recovery": (loss, dY, dF),
        "recovery without dF": (loss_y, dY_only),
    }


def _scales(X, Fmats, Y, sigma):
    """Each head's bounds of its outputs' magnitudes, from the inputs: (B,) for the losses, then one array per
    gradient that broadcasts against it.

    A row's loss is at most 2 / sigma + log(kn). The gradient w.r.t. a unit column takes at most 2 / sigma from each
    head term it enters, and the pull back through a floored norm nu multiplies it by 1 / nu. The recovery head's
    columns of U = yh / nz add the factors (1 + |U|^2 ||F_m||^2) ||F_m|| for dY and |U| (1 + |U|^2 ||F_m||^2) for dF.
    """
    B, V, d, n = Y.shape
    row = np.full(B, 2.0 / sigma + np.log(V * max(n, d)))
    yh, ny = _unit_columns(Y)
    nq = _col_norms(Y.swapaxes(2, 3))  # each feature row's norm
    fnorm = np.stack([np.sqrt((f * f).sum(axis=(1, 2))) for f in Fmats], axis=1)  # (B, V)
    dY, dF = np.zeros(Y.shape), []
    for m, f in enumerate(Fmats):
        u = np.zeros((B, V, n))  # |U| of the pairs (m, v)
        for v in range(V):
            if v != m:
                nz = np.maximum(np.sqrt(((f.swapaxes(1, 2) @ yh[:, v]) ** 2).sum(axis=1)), NORM_FLOOR)
                u[:, v] = np.sqrt((yh[:, v] ** 2).sum(axis=1)) / nz
                grow = 1.0 + u[:, v] ** 2 * fnorm[:, m, None] ** 2
                dY[:, v] += (grow * fnorm[:, m, None] / (nz * ny[:, v]))[:, None, :]
        grow = 1.0 + u.max(axis=(1, 2)) ** 2 * fnorm[:, m] ** 2
        dF.append(np.broadcast_to((V * u.max(axis=(1, 2)) * grow)[:, None, None], (B, d, X[m].shape[1])))
    dF = np.concatenate(dF, axis=2)
    return {
        "sample": (V * row, V / (sigma * ny[:, :, None, :])),
        "feature": (V * V * row, 2 * V / (sigma * nq[..., None])),
        "recovery": (V * V * row, 2 * dY / sigma, 2 * dF / sigma),
        "recovery without dF": (V * V * row, 2 * dY / sigma),
    }


def _assert_close(got, want, scales, what):
    for i, (g, w, s) in enumerate(zip(got, want, scales)):
        excess = np.abs(np.asarray(g) - w) - RTOL * s
        assert (excess <= 0).all(), f"{what}, output {i}: off by {excess.max():.3g} beyond its tolerance"


def _dense(X, Fmats, Y, sigma, own, b):
    """Fit b's outputs from the dense reference, in the heads' layout."""
    sample, dY = _per_anchor_sample(Y[b], sigma)
    feature, dYf = _per_pair_feature(Y[b], sigma, own)
    recovery, dYr, dF = _direct_recovery([x[b] for x in X], Y[b], [f[b] for f in Fmats], sigma)
    return {
        "sample": (sample, np.stack(dY)),
        "feature": (feature, np.stack(dYf)),
        "recovery": (recovery, np.stack(dYr), np.hstack(dF)),
        "recovery without dF": (recovery, np.stack(dYr)),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), B=st.integers(1, 3), V=st.integers(2, 4), n=st.integers(1, 7),
       d=st.integers(1, 4), sigma=st.sampled_from(SIGMAS), rows=st.integers(1, 8), zero=st.booleans(),
       own=st.booleans())
def test_blocked_heads_agree_with_one_block_and_with_the_dense_reference(seed, B, V, n, d, sigma, rows, zero, own):
    X, Fmats, Y = _inputs(seed, B, V, n, d, zero)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("mvcl.loss.ROWS", rows)
        blocked = _heads(X, Fmats, Y, sigma, own)
        mp.setattr("mvcl.loss.ROWS", ONE_BLOCK)
        whole = _heads(X, Fmats, Y, sigma, own)
    scales = _scales(X, Fmats, Y, sigma)
    # The head floors ||F_m^T yh|| and the dense form ||F_m^T y||: at a zero embedding column their gradients
    # differ, by design, and only there.
    floored = _col_norms(Y)[:, :, None, :] <= NORM_FLOOR
    for head, outs in blocked.items():
        _assert_close(outs, whole[head], scales[head], f"{head} in blocks of {rows} rows")
    for b in range(B):
        for head, want in _dense(X, Fmats, Y, sigma, own, b).items():
            got, scale = [o[b] for o in blocked[head]], [s[b] for s in scales[head]]
            if head.startswith("recovery"):
                scale[1] = np.where(floored[b], np.inf, scale[1])
            _assert_close(got, want, scale, f"{head} of fit {b} against the dense reference")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), B=st.integers(1, 3), V=st.integers(2, 4), n=st.integers(1, 7),
       sigma=st.sampled_from(SIGMAS), zero=st.booleans(), own=st.booleans(), threads=st.integers(1, 3))
def test_at_d_1_every_head_sums_the_same_row_losses_whatever_the_blocks(seed, B, V, n, sigma, zero, own, threads):
    # At d = 1 every logit is one product, so each row's loss does not depend on its block: a fit's loss, one sum of
    # its row losses in row order, has the bits of one block in blocks of 1-8 rows, also one anchor view at a time
    # on 1-3 threads.
    X, Fmats, Y = _inputs(seed, B, V, n, 1, zero)

    def losses():
        return {head: outs[0].tobytes() for head, outs in _heads(X, Fmats, Y, sigma, own).items()}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("mvcl.loss.ROWS", ONE_BLOCK)
        whole = losses()
        mp.setenv("MVCL_THREADS", str(threads))
        for rows in range(1, 9):
            mp.setattr("mvcl.loss.ROWS", rows)
            assert losses() == whole, f"blocks of {rows} rows"
            with pytest.MonkeyPatch.context() as split:
                split.setattr("mvcl.loss.SPLIT_FROM", 0)
                assert losses() == whole, f"blocks of {rows} rows, one anchor view at a time on {threads} threads"
