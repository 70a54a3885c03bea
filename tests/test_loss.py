import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mvcl.loss
import oracles as orc
from conftest import peak_alloc
from mvcl import (
    DimError,
    HyperParams,
    MultiViewDataset,
    NumericDivergence,
    ProjectionSet,
    RecoverySet,
    TrainConfig,
    feature_level_loss,
    init_params,
    recovery_level_loss,
    sample_level_loss,
    total_loss,
    train,
)
from mvcl.grad import random_instance
from mvcl.loss import (
    NORM_FLOOR,
    ROWS,
    SHIFT_ABOVE,
    _col_norms,
    _feature_head,
    _recovery_head,
    _recovery_maps,
    _sample_head,
    _unit_columns,
    cosine_logits,
)

SIGMA = 0.1


def as_lists(ds, P, F=None):
    Pl = [orc.mat_from(a) for a in P.mats]
    Xl = [orc.mat_from(v) for v in ds.views]
    if F is None:
        return Pl, Xl
    return Pl, [orc.mat_from(a) for a in F.mats], Xl


# ---------------------------------------------------------------------------
# cosine_logits
# ---------------------------------------------------------------------------

def _unit(A):
    return _unit_columns(np.asarray(A, dtype=float))[0]


def _cos(u, v, sigma):
    return cosine_logits(_unit(np.c_[u]), _unit(np.c_[v]), sigma)[0, 0]


def test_self_similarity_is_inverse_temperature():
    u = np.array([1.0, -2.0, 0.5])
    assert _cos(u, u, 0.1) == pytest.approx(10.0, abs=1e-12)


def test_orthogonal_vectors_score_zero():
    assert _cos([1.0, 0.0], [0.0, 1.0], 0.37) == 0.0


def test_cosine_matches_independent_computation():
    r = np.random.default_rng(77)
    A = r.standard_normal((5, 3))
    B = r.standard_normal((5, 4))
    S = cosine_logits(_unit(A), _unit(B), 0.25)
    assert S.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert abs(S[i, j] - orc.sim(list(A[:, i]), list(B[:, j]), 0.25)) <= 1e-12


def test_cosine_zero_vector_floored():
    # the floor keeps the unit column finite: it is 0, and so is its logit
    z = _unit(np.zeros((3, 1)))
    assert np.array_equal(z, np.zeros((3, 1)))
    assert cosine_logits(z, _unit([[1.0], [0.0], [0.0]]), 0.1)[0, 0] == 0.0


# ---------------------------------------------------------------------------
# a dense reference of the heads' softmax cross-entropy, apart from mvcl.loss
# ---------------------------------------------------------------------------

def _pull_back(G, Ah, na):
    """G w.r.t. the unit columns Ah = A / na as a gradient w.r.t. A; a floored norm is constant."""
    return (G - Ah * ((Ah * G).sum(axis=0) * (na > NORM_FLOOR))) / na


def _dense_contrast(A, B, sigma, k=1):
    """(loss, dA, dB) of one softmax cross-entropy over temperature-scaled cosines, in one dense block.

    The anchors are the n columns of A; the candidates are the k*n columns of
    B, read as k side-by-side blocks of n, and the positives of anchor i are
    column i of every block. With unit columns Ah, Bh (norms floored at
    NORM_FLOOR) and S = Ah^T Bh / sigma, the loss is the mean over i of

        log sum_j exp(S[i, j]) - log sum_b exp(S[i, b*n + i]),

    and its gradient w.r.t. Ah^T Bh is the row softmax minus the positives'
    softmax, divided by n sigma. Every head is a sum of such terms.
    """
    na, nb = (np.maximum(np.sqrt((M * M).sum(axis=0)), NORM_FLOOR) for M in (A, B))
    Ah, Bh, n = A / na, B / nb, A.shape[1]
    S = Ah.T @ Bh / sigma
    S -= S.max(axis=1, keepdims=True)
    lse = np.log(np.exp(S).sum(axis=1))
    i, pos = np.arange(n)[:, None], np.arange(n)[:, None] + n * np.arange(k)
    Sp = S[i, pos]
    lse_pos = np.logaddexp.reduce(Sp, axis=1)
    G = np.exp(S - lse[:, None])
    G[i, pos] -= np.exp(Sp - lse_pos[:, None])
    G /= n * sigma
    return np.mean(lse - lse_pos), _pull_back(Bh @ G.T, Ah, na), _pull_back(Ah @ G, Bh, nb)


# ---------------------------------------------------------------------------
# closed forms and degenerate cases
# ---------------------------------------------------------------------------

def _identical_embedding_case():
    x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 4))
    ds = MultiViewDataset((x, x))
    pm = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return ds, ProjectionSet((pm, pm))


def test_sample_loss_identical_embeddings():
    ds, P = _identical_embedding_case()
    assert sample_level_loss(P, ds, SIGMA) == pytest.approx(2.0 * np.log(4.0), abs=1e-9)


def test_sample_loss_single_sample_is_zero():
    x1 = np.array([[1.0], [2.0]])
    x2 = np.array([[3.0], [1.0], [2.0]])
    ds = MultiViewDataset((x1, x2))
    P = ProjectionSet((np.array([[1.0], [0.5]]), np.array([[1.0], [0.0], [0.2]])))
    assert sample_level_loss(P, ds, SIGMA) == 0.0


def test_feature_loss_single_dim_is_zero():
    ds, P, _ = random_instance(5, V=2, n=4, dims=(4, 3), d=1)
    assert feature_level_loss(P, ds, SIGMA) == 0.0


def test_feature_loss_orthogonal_rows_closed_form():
    eye = np.eye(4)
    ds = MultiViewDataset((eye, eye))
    P = ProjectionSet((eye[:, :2], eye[:, :2]))
    expected = 4.0 * np.log1p(np.exp(-10.0))
    assert feature_level_loss(P, ds, SIGMA) == pytest.approx(expected, rel=1e-9)


def test_recovery_loss_single_sample_is_zero():
    x1 = np.array([[1.0], [2.0]])
    x2 = np.array([[3.0], [1.0]])
    ds = MultiViewDataset((x1, x2))
    P = ProjectionSet((np.array([[1.0], [0.5]]), np.array([[0.3], [0.2]])))
    F = RecoverySet((np.array([[0.4, 0.1]]), np.array([[0.2, 0.9]])))
    assert recovery_level_loss(P, F, ds, SIGMA) == 0.0


def test_recovery_loss_perfect_recovery_closed_form():
    eye = np.eye(4)
    ds = MultiViewDataset((eye, eye))
    P = ProjectionSet((eye, eye))
    F = RecoverySet((eye, eye))
    expected = 2.0 * np.log1p(3.0 * np.exp(-10.0))
    assert recovery_level_loss(P, F, ds, SIGMA) == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# the reassociated recovery head
# ---------------------------------------------------------------------------

# The heads take a leading fit axis; the tests below run them on one fit, Y[None], and read
# each output without its fit axis.

def _alone(out):
    """A head's outputs for a batch of one fit, without the fit axis."""
    return tuple(None if a is None else a[0] for a in out)


def _batch_of_one(X, Fmats):
    """Views X and maps F_m as one fit's (1, ...) arrays, with X's column norms: (X, nx, Fmats)."""
    X, Fmats = [x[None] for x in X], [f[None] for f in Fmats]
    return X, [_col_norms(x) for x in X], Fmats


def _recovery_inputs(seed, V, n, D, d):
    """Views X (D rows each, or D[m] rows for a tuple D), embeddings Y (V, d, n) and maps F_m."""
    dims = D if isinstance(D, tuple) else (D,) * V
    rng = np.random.default_rng(seed)
    X = [rng.standard_normal((Dm, n)) for Dm in dims]
    Y = np.stack([rng.standard_normal((d, n)) for _ in range(V)])
    Fmats = [rng.standard_normal((d, Dm)) for Dm in dims]
    return X, Y, Fmats


def _recovery(X, Y, Fmats, sigma, want_dY=False, want_dF=False):
    """``_recovery_head`` of one fit at data X and embeddings Y (V, d, n), with the per-point quantities formed here."""
    X, nx, Fmats = _batch_of_one(X, Fmats)
    maps = _recovery_maps(Fmats, X, nx)
    return _alone(_recovery_head(X, nx, maps, Fmats, *_unit_columns(Y[None]), sigma, want_dY, want_dF))


def _direct_recovery(X, Y, Fmats, sigma):
    """The head as written: x_i^m against the columns of Z = F_m^T Y^v, chain rule through Z."""
    total, dY, dF = 0.0, [np.zeros_like(y) for y in Y], [np.zeros_like(f) for f in Fmats]
    for m, v in itertools.permutations(range(len(Y)), 2):
        loss, _, dZ = _dense_contrast(X[m], Fmats[m].T @ Y[v], sigma)
        total += loss
        dF[m] += Y[v] @ dZ.T
        dY[v] += Fmats[m] @ dZ
    return total, dY, dF


def _assert_matches_direct(X, Y, Fmats, sigma):
    loss, dY, dF = _recovery(X, Y, Fmats, sigma, want_dY=True, want_dF=True)
    want_loss, want_dY, want_dF = _direct_recovery(X, Y, Fmats, sigma)
    assert loss == pytest.approx(want_loss, rel=1e-10)
    for got, want in zip([*dY, dF], want_dY + [np.hstack(want_dF)]):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("V", [2, 3])
@pytest.mark.parametrize("sigma", [0.1, 1e-3])  # 1e-3 takes the shifted softmax
def test_recovery_head_matches_direct_chain_rule(V, sigma):
    _assert_matches_direct(*_recovery_inputs(30 + V, V, n=200, D=40, d=6), sigma)


@pytest.mark.parametrize("sigma", [0.1, 1e-3])
def test_recovery_head_matches_direct_chain_rule_at_unequal_dims(sigma):
    # d-space Gram matrices R_m = F_m F_m^T stack whatever the D_m; the ambient Z = F_m^T Y^v does not
    _assert_matches_direct(*_recovery_inputs(34, 3, n=200, D=(12, 9, 7), d=6), sigma)


@pytest.mark.parametrize("sigma", [0.1, 1e-3])
def test_recovery_head_floors_a_zero_map_as_the_direct_form_does(sigma):
    # F_1 = 0 floors nz in every pair (1, v). The head floors ||F_m^T yh|| and the direct form
    # ||F_m^T y||, so the two floors coincide on unit embedding columns.
    X, Y, Fmats = _recovery_inputs(36, 3, n=40, D=(12, 9, 7), d=3)
    Fmats[1] = np.zeros_like(Fmats[1])
    Y = _unit_columns(Y)[0]
    loss, dY, dF = _recovery(X, Y, Fmats, sigma, want_dY=True, want_dF=True)
    assert np.isfinite(loss) and np.isfinite(dY).all() and np.isfinite(dF).all()
    _assert_matches_direct(X, Y, Fmats, sigma)


@pytest.mark.parametrize("sigma", [0.1, 1e-3])
def test_recovery_head_floors_gram_values_rounded_below_zero(sigma):
    # F_1 = u w^T has rank 1 at d = 3, and view 0's embeddings are orthogonal to u, so
    # yh . R_1 yh is 0 up to rounding, of either sign. The head floors it: a sqrt of a
    # negative would warn, which pytest turns into an error.
    X, Y, Fmats = _recovery_inputs(37, 3, n=60, D=(12, 9, 7), d=3)
    u = np.array([1.0, -2.0, 0.5])
    Fmats[1] = np.outer(u, np.linspace(-1.0, 1.0, 9))
    Y[0] -= np.outer(u, u @ Y[0]) / (u @ u)
    yh, R = _unit_columns(Y[0])[0], Fmats[1] @ Fmats[1].T
    assert (np.add.reduce(yh * (R @ yh), axis=0) < 0).any()
    loss, dY, dF = _recovery(X, Y, Fmats, sigma, want_dY=True, want_dF=True)
    assert np.isfinite(loss) and np.isfinite(dY).all() and np.isfinite(dF).all()


@pytest.mark.parametrize("sigma", [0.1, 1e-3])
def test_recovery_head_gradient_holds_where_every_norm_is_floored(sigma):
    # F_1 scaled so that every ||F_1^T yh|| lies below NORM_FLOOR: nz is the constant floor, so
    # dF_1 has no radial part to remove there, and r must be masked to 0 where nz is floored.
    X, Y, Fmats = _recovery_inputs(38, 3, n=30, D=(12, 9, 7), d=3)
    Fmats[1] = Fmats[1] * 1e-14
    assert np.linalg.norm(Fmats[1]) < NORM_FLOOR
    dF1 = _recovery(X, Y, Fmats, sigma, want_dF=True)[2][:, 12:21]
    D, h = np.random.default_rng(39).standard_normal(Fmats[1].shape), 1e-18

    def loss_at(t):
        return _recovery(X, Y, [*Fmats[:1], Fmats[1] + t * D, *Fmats[2:]], sigma)[0]

    want = np.sum(dF1 * D)
    assert abs((loss_at(h) - loss_at(-h)) / (2 * h) - want) <= 1e-6 * abs(want)


def test_recovery_loss_at_d1_is_bit_constant_in_embedding_scale():
    # At d = 1 every cosine is +-1 whatever the embedding's scale, so the
    # loss must not move by even one ulp (c1 measures this at seed 7).
    X, Y, Fmats = _recovery_inputs(40, 2, n=30, D=5, d=1)
    base = _recovery(X, Y, Fmats, 0.1)[0]
    rng = np.random.default_rng(41)
    for _ in range(5):
        scaled = Y * rng.uniform(0.5, 2.0, size=(len(Y), 1, Y.shape[2]))
        assert _recovery(X, scaled, Fmats, 0.1)[0] == base
    assert _recovery(X, Y * (1.0 + 1e-5), Fmats, 0.1)[0] == base


def test_recovery_head_keeps_one_logit_matrix_alive():
    n = 1500
    X, Y, Fmats = _recovery_inputs(42, 2, n=n, D=20, d=4)
    X, nx, Fmats = _batch_of_one(X, Fmats)
    W, Yn = _recovery_maps(Fmats, X, nx), _unit_columns(Y[None])
    peak = peak_alloc(lambda: _recovery_head(X, nx, W, Fmats, *Yn, 0.1, want_dY=True, want_dF=True))
    assert peak < 2 * n * n * 8


@pytest.mark.parametrize("V", [2, 3])
@pytest.mark.parametrize("sigma", [0.1, 1e-3])
def test_recovery_head_computes_only_what_is_asked(V, sigma):
    X, Y, Fmats = _recovery_inputs(35 + V, V, n=30, D=8, d=3)
    loss, dY, dF = _recovery(X, Y, Fmats, sigma, want_dY=True, want_dF=True)
    assert _recovery(X, Y, Fmats, sigma) == (loss, None, None)
    loss_y, dY_only, none_f = _recovery(X, Y, Fmats, sigma, want_dY=True)
    loss_f, none_y, dF_only = _recovery(X, Y, Fmats, sigma, want_dF=True)
    assert loss_y == loss_f == loss and none_f is None and none_y is None
    assert all(np.array_equal(a, b) for a, b in zip(dY_only, dY)) and len(dY_only) == V
    assert np.array_equal(dF_only, dF)


# ---------------------------------------------------------------------------
# the feature head as one Gram block
# ---------------------------------------------------------------------------

def _per_pair_feature(Y, sigma, include_self_view):
    """The head as written: the rows of Y^m against the rows of Y^v, one dense contrast per view pair."""
    total, dY = 0.0, [np.zeros_like(y) for y in Y]
    for m, v in itertools.product(range(len(Y)), repeat=2):
        if v == m and not include_self_view:
            continue
        loss, dA, dB = _dense_contrast(Y[m].T, Y[v].T, sigma)
        total += loss
        dY[m] += dA.T
        dY[v] += dB.T
    return total, dY


@pytest.mark.parametrize("V", [2, 3])
@pytest.mark.parametrize("include_self_view", [True, False])
@pytest.mark.parametrize("sigma", [0.1, 1e-3])  # 1e-3 takes the shifted softmax
def test_feature_head_matches_per_pair_contrasts(V, include_self_view, sigma):
    Y = _recovery_inputs(60 + V, V, n=40, D=1, d=6)[1]
    loss, dY = _alone(_feature_head(Y[None], sigma, include_self_view, grad=True))
    want_loss, want_dY = _per_pair_feature(Y, sigma, include_self_view)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for got, want in zip(dY, want_dY):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert _feature_head(Y[None], sigma, include_self_view)[0][0] == loss


@pytest.mark.parametrize("V", [2, 3])
@pytest.mark.parametrize("include_self_view", [True, False])
@pytest.mark.parametrize("sigma", [0.1, 1e-3])
def test_feature_head_at_d1_is_exactly_zero(V, include_self_view, sigma):
    # One row per view: every block is its own positive, so loss and gradient
    # are 0 exactly, not to rounding (c1's flat seed-7 instance needs this).
    Y = _recovery_inputs(70 + V, V, n=25, D=1, d=1)[1]
    loss, dY = _alone(_feature_head(Y[None], sigma, include_self_view, grad=True))
    assert loss == 0.0
    assert all(np.array_equal(g, np.zeros_like(g)) for g in dY)


# ---------------------------------------------------------------------------
# the sample head on unit columns formed once
# ---------------------------------------------------------------------------

def _per_anchor_sample(Y, sigma):
    """The head as written: each anchor view against the other views side by side, one dense contrast each."""
    V, n = len(Y), Y[0].shape[1]
    total, dY = 0.0, [np.zeros_like(y) for y in Y]
    for a in range(V):
        rest = [v for v in range(V) if v != a]
        loss, dA, dB = _dense_contrast(Y[a], np.hstack([Y[v] for v in rest]), sigma, k=V - 1)
        total += loss
        dY[a] += dA
        for b, v in enumerate(rest):
            dY[v] += dB[:, b * n : (b + 1) * n]
    return total, dY


@pytest.mark.parametrize("V", [2, 3])
@pytest.mark.parametrize("sigma", [0.1, 1e-3])  # 1e-3 takes the shifted softmax
@pytest.mark.parametrize("n", [18, ROWS + 1])
def test_sample_head_matches_per_anchor_contrasts(V, sigma, n):
    Y = _recovery_inputs(80 + V, V, n=n, D=1, d=5)[1]
    loss, dY = _alone(_sample_head(*_unit_columns(Y[None]), sigma, grad=True))
    want_loss, want_dY = _per_anchor_sample(Y, sigma)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for got, want in zip(dY, want_dY):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert _alone(_sample_head(*_unit_columns(Y[None]), sigma)) == (loss, None)


# ---------------------------------------------------------------------------
# heads computed in blocks of ROWS anchor rows
# ---------------------------------------------------------------------------

def _head_outputs(head, n, sigma):
    """(loss, all gradients flattened) of one head on seeded inputs with n samples."""
    X, Y, Fmats = _recovery_inputs(50, 3, n=n, D=12, d=4)
    loss, *grads = {
        "sample V=2": lambda: _alone(_sample_head(*_unit_columns(Y[None, :2]), sigma, grad=True)),
        "sample V=3": lambda: _alone(_sample_head(*_unit_columns(Y[None]), sigma, grad=True)),
        "recovery": lambda: _recovery(X[:2], Y[:2], Fmats[:2], sigma, want_dY=True, want_dF=True),
        "recovery without dF": lambda: _recovery(X[:2], Y[:2], Fmats[:2], sigma, want_dY=True),
        # n feature rows of 4 samples in each view, so V*n anchor rows
        "feature": lambda: _alone(_feature_head(Y[None, :2].swapaxes(2, 3), sigma, True, grad=True)),
        "feature without self view": lambda: _alone(_feature_head(Y[None].swapaxes(2, 3), sigma, False, grad=True)),
    }[head]()
    return np.array([loss]), np.concatenate([g.ravel() for gs in grads if gs is not None for g in gs])


@pytest.mark.parametrize(
    "head", ["sample V=2", "sample V=3", "recovery", "recovery without dF", "feature", "feature without self view"]
)
@pytest.mark.parametrize("sigma", [0.1, 1e-3])  # 1e-3 takes the shifted softmax
@pytest.mark.parametrize("n", [ROWS + 1, 2 * ROWS + 37])
def test_row_blocks_agree_with_one_block(monkeypatch, head, sigma, n):
    blocks = _head_outputs(head, n, sigma)
    # one block of every batch entry's n rows: 3 anchor views, 2 view pairs, or up to 3n
    # feature rows against each of the 3 candidate views
    monkeypatch.setattr("mvcl.loss.ROWS", 9 * n)
    whole = _head_outputs(head, n, sigma)
    for got, want in zip(blocks, whole):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n,blocks", [(1, 1), (ROWS, 1), (ROWS + 1, 2), (2 * ROWS + 37, 3)])
@pytest.mark.parametrize("grad", [False, True])
def test_contrast_forms_logits_once_per_block(monkeypatch, n, blocks, grad):
    # the sample head at V = 3, with ROWS rows of each anchor view per block
    anchors = []

    def counted(A, B, sigma, out=None):
        anchors.append(A.shape[1])
        return cosine_logits(A, B, sigma, out=out)

    monkeypatch.setattr("mvcl.loss.cosine_logits", counted)
    monkeypatch.setattr("mvcl.loss.ROWS", 3 * ROWS)
    Y = np.random.default_rng(n).standard_normal((3, 3, n))
    _sample_head(*_unit_columns(Y[None]), SIGMA, grad=grad)
    assert len(anchors) == 3 * blocks and sum(anchors) == 3 * n


@pytest.mark.parametrize(
    "head", ["sample", "recovery", "feature", "sample V=4", "recovery V=4", "feature V=4"]
)
def test_heads_keep_one_row_block_alive(monkeypatch, head):
    # ROWS counts anchor rows over a whole batch of views or view pairs, so the bound holds at every V
    head, _, views = head.partition(" V=")
    V = int(views or 3)
    n, rows = 1500, 256
    monkeypatch.setattr("mvcl.loss.ROWS", rows)
    X, Y, Fmats = _recovery_inputs(42, V, n=n, D=20, d=4)
    X, nx, Fmats = _batch_of_one(X, Fmats)
    W, Yn = _recovery_maps(Fmats, X, nx), _unit_columns(Y[None])
    if head == "sample":
        k = V - 1  # each anchor row spans the other views
        peak = peak_alloc(lambda: _sample_head(*Yn, 0.1, grad=True))
    elif head == "recovery":
        k = 1
        peak = peak_alloc(lambda: _recovery_head(X, nx, W, Fmats, *Yn, 0.1, want_dY=True, want_dF=True))
    else:
        k = V  # n feature rows of 4 samples in each view: blocks of rows x Vn
        peak = peak_alloc(lambda: _feature_head(Y[None].swapaxes(2, 3), 0.1, True, grad=True))
    assert peak < 1.5 * rows * k * n * 8


@pytest.mark.parametrize("V", [2, 3, 4])
@pytest.mark.parametrize("rows_per_entry, blocks", [(ROWS, 1), (4, 5)])
def test_heads_run_every_view_pair_in_one_batched_block(monkeypatch, V, rows_per_entry, blocks):
    # One softmax call per block of rows, whatever V is: the sample head's V anchor views, the
    # recovery head's V(V-1) ordered view pairs and the feature head's V candidate views are each
    # one batch, ROWS rows shared over it. The sample head fills its block with 2-D cosine_logits
    # calls, one per anchor view.
    n = 18
    X, Y, Fmats = _recovery_inputs(95, V, n=n, D=8, d=3)
    xents, cosines = [], []
    xent, cos = mvcl.loss._xent, mvcl.loss.cosine_logits

    def counted_xent(S, *args, **kwargs):
        xents.append(getattr(S, "shape", S))  # a block, or the shape of one that _xent forms
        return xent(S, *args, **kwargs)

    def counted_cos(A, B, sigma, out=None):
        cosines.append((A.ndim, B.ndim))
        return cos(A, B, sigma, out=out)

    monkeypatch.setattr("mvcl.loss._xent", counted_xent)
    monkeypatch.setattr("mvcl.loss.cosine_logits", counted_cos)
    monkeypatch.setattr("mvcl.loss.ROWS", rows_per_entry * V)
    _sample_head(*_unit_columns(Y[None]), SIGMA, grad=True)
    assert len(xents) == blocks and {s[:2] for s in xents} == {(1, V)}
    assert cosines == [(2, 2)] * (V * blocks)
    xents.clear()
    monkeypatch.setattr("mvcl.loss.ROWS", rows_per_entry * V * (V - 1))
    _recovery(X, Y, Fmats, SIGMA, want_dY=True, want_dF=True)
    assert len(xents) == blocks and {s[:3] for s in xents} == {(1, V, V - 1)}
    # the feature head's V*d anchor rows (m, k), each against the d rows of every view
    monkeypatch.setattr("mvcl.loss.ROWS", rows_per_entry * V)
    d = Y.shape[1]
    for include_self_view in (True, False):
        xents.clear()
        _feature_head(Y[None], SIGMA, include_self_view, grad=True)
        assert len(xents) == -(-V * d // rows_per_entry) and sum(s[2] for s in xents) == V * d
        assert {(s[0], s[1], s[3]) for s in xents} == {(1, V, d)}


# ---------------------------------------------------------------------------
# oracle equivalence (frozen values computed with tests/oracles.py)
# ---------------------------------------------------------------------------

def test_losses_match_frozen_oracle_values():
    ds, P, F = random_instance(42, V=2, n=6, dims=(5, 4), d=3)
    assert sample_level_loss(P, ds, SIGMA) == pytest.approx(34.003369778212132, abs=1e-10)
    assert feature_level_loss(P, ds, SIGMA) == pytest.approx(4.9503374422411204, abs=1e-10)
    assert recovery_level_loss(P, F, ds, SIGMA) == pytest.approx(15.361483302330676, abs=1e-10)


@pytest.mark.parametrize("seed,V,n,dims,d", [
    (0, 2, 5, (4, 3), 2),
    (1, 2, 8, (5, 5), 3),
    (2, 3, 4, (4, 3, 5), 2),
    (3, 3, 7, (6, 4, 5), 3),
    (4, 2, 1, (3, 3), 2),
    (5, 3, 2, (3, 4, 3), 1),
])
def test_losses_match_bruteforce(seed, V, n, dims, d):
    ds, P, F = random_instance(seed, V=V, n=n, dims=dims, d=d)
    Pl, Fl, Xl = as_lists(ds, P, F)
    assert abs(sample_level_loss(P, ds, SIGMA) - orc.sample_loss(Pl, Xl, SIGMA)) <= 1e-10
    assert abs(feature_level_loss(P, ds, SIGMA) - orc.feature_loss(Pl, Xl, SIGMA)) <= 1e-10
    assert abs(recovery_level_loss(P, F, ds, SIGMA) - orc.recovery_loss(Pl, Fl, Xl, SIGMA)) <= 1e-10


def test_feature_loss_without_self_view_matches_bruteforce():
    ds, P, _ = random_instance(6, V=3, n=5, dims=(4, 5, 3), d=3)
    Pl, Xl = as_lists(ds, P)
    got = feature_level_loss(P, ds, SIGMA, include_self_view=False)
    want = orc.feature_loss(Pl, Xl, SIGMA, include_self_view=False)
    assert abs(got - want) <= 1e-10
    assert got != pytest.approx(feature_level_loss(P, ds, SIGMA))


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def test_zero_weights_reduce_to_sample_loss():
    ds, P, F = random_instance(9, V=2, n=6, dims=(5, 4), d=2)
    hp = HyperParams(d=2, alpha=0.0, beta=0.0)
    assert total_loss(P, F, ds, hp) == sample_level_loss(P, ds, hp.sigma1)


def test_default_hyperparams_match_reference_configuration():
    hp = HyperParams(d=3)
    assert (hp.alpha, hp.beta) == (1.0, 1.0)
    assert (hp.sigma1, hp.sigma2, hp.sigma3) == (0.1, 0.1, 0.1)


def test_total_is_weighted_component_sum():
    ds, P, F = random_instance(10, V=2, n=5, dims=(4, 4), d=2)
    Pl, Fl, Xl = as_lists(ds, P, F)
    hp = HyperParams(d=2, alpha=0.7, beta=2.5)
    want = (
        orc.sample_loss(Pl, Xl, SIGMA)
        + 0.7 * orc.feature_loss(Pl, Xl, SIGMA)
        + 2.5 * orc.recovery_loss(Pl, Fl, Xl, SIGMA)
    )
    assert total_loss(P, F, ds, hp) == pytest.approx(want, abs=1e-10)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(d=0)
    with pytest.raises(ValueError):
        HyperParams(d=2, alpha=-0.1)
    with pytest.raises(ValueError):
        HyperParams(d=2, sigma2=0.0)


@pytest.mark.parametrize("field, value", [
    ("alpha", float("nan")), ("alpha", float("inf")),
    ("beta", float("nan")), ("beta", float("inf")),
    ("sigma1", float("nan")), ("sigma2", float("inf")),
    ("sigma3", 1e-320),  # finite, but 1/sigma overflows
])
def test_hyperparams_reject_nonfinite(field, value):
    with pytest.raises(ValueError):
        HyperParams(d=2, **{field: value})


@pytest.mark.parametrize("head", ["sample", "feature", "recovery"])
@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -1.0, 1e-320])
def test_losses_reject_the_temperatures_hyperparams_rejects(head, sigma):
    ds, P, F = random_instance(12, V=2, n=4, dims=(4, 3), d=2)
    with pytest.raises(ValueError):
        HyperParams(d=2, sigma1=sigma)
    with pytest.raises(ValueError):
        {
            "sample": lambda: sample_level_loss(P, ds, sigma),
            "feature": lambda: feature_level_loss(P, ds, sigma),
            "recovery": lambda: recovery_level_loss(P, F, ds, sigma),
        }[head]()


def test_shape_mismatch_raises_dim_error():
    ds, P, F = random_instance(11, V=2, n=4, dims=(5, 4), d=2)
    bad_P = ProjectionSet((np.ones((6, 2)), np.ones((4, 2))))
    with pytest.raises(DimError):
        sample_level_loss(bad_P, ds, SIGMA)
    bad_F = RecoverySet((np.ones((2, 5)), np.ones((2, 5))))
    with pytest.raises(DimError):
        recovery_level_loss(P, bad_F, ds, SIGMA)


@pytest.mark.parametrize("cls, what, shape", [
    (ProjectionSet, "projection", lambda D, d: (D, d)),
    (RecoverySet, "recovery", lambda D, d: (d, D)),
], ids=["P", "F"])
def test_view_matrix_sets_check_their_matrices_and_a_dataset(cls, what, shape):
    good = (np.ones(shape(5, 2)), np.ones(shape(4, 2)))
    nonfinite = np.ones(shape(4, 2))
    nonfinite[0, 0] = np.inf
    for mats, error, message in [
        ((good[0], np.ones(4)), DimError, f"{what} 1 must be 2-D"),
        ((good[0], nonfinite), ValueError, f"{what} 1 contains non-finite entries"),
        ((), DimError, f"no {what} matrices given"),
        ((good[0], np.ones(shape(4, 3))), DimError, f"{what} 1 has d = 3, expected 2"),
    ]:
        with pytest.raises(error, match=message):
            cls(mats)
    S = cls(good)
    assert (S.V, S.d) == (2, 2) and not S.mats[0].flags.writeable
    S.check(MultiViewDataset((np.ones((5, 6)), np.ones((4, 6)))), 2)
    with pytest.raises(DimError, match=f"2 {what} matrices for 3 views"):
        S.check(MultiViewDataset((np.ones((5, 6)), np.ones((4, 6)), np.ones((4, 6)))), 2)
    with pytest.raises(DimError, match=rf"{what} 1 has shape \({shape(4, 2)[0]}, {shape(4, 2)[1]}\), expected"):
        S.check(MultiViewDataset((np.ones((5, 6)), np.ones((3, 6)))), 2)
    with pytest.raises(DimError, match=f"{what} 0 has shape"):
        S.check(MultiViewDataset((np.ones((5, 6)), np.ones((4, 6)))), 3)


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

def _all_losses(P, F, ds):
    return (
        sample_level_loss(P, ds, SIGMA),
        feature_level_loss(P, ds, SIGMA),
        recovery_level_loss(P, F, ds, SIGMA),
    )


def test_per_view_positive_rescaling_of_projections():
    ds, P, F = random_instance(12, V=3, n=6, dims=(5, 4, 6), d=3)
    base = _all_losses(P, F, ds)
    scales = (0.3, 2.7, 11.0)
    P2 = ProjectionSet(tuple(c * a for c, a in zip(scales, P.mats)))
    for got, want in zip(_all_losses(P2, F, ds), base):
        assert got == pytest.approx(want, abs=1e-9)


def test_rescaling_recovery_maps():
    ds, P, F = random_instance(13, V=2, n=6, dims=(5, 4), d=3)
    base = recovery_level_loss(P, F, ds, SIGMA)
    F2 = RecoverySet(tuple(1.8 * a for a in F.mats))
    assert recovery_level_loss(P, F2, ds, SIGMA) == pytest.approx(base, abs=1e-9)


def test_simultaneous_sample_permutation():
    ds, P, F = random_instance(14, V=2, n=7, dims=(5, 4), d=3)
    perm = np.random.default_rng(0).permutation(ds.n)
    ds2 = MultiViewDataset(tuple(v[:, perm] for v in ds.views))
    for got, want in zip(_all_losses(P, F, ds2), _all_losses(P, F, ds)):
        assert got == pytest.approx(want, abs=1e-9)


def test_view_relabeling_symmetry_of_sample_loss():
    ds, P, _ = random_instance(15, V=3, n=5, dims=(4, 5, 3), d=2)
    order = (2, 0, 1)
    ds2 = MultiViewDataset(tuple(ds.views[m] for m in order))
    P2 = ProjectionSet(tuple(P.mats[m] for m in order))
    assert sample_level_loss(P2, ds2, SIGMA) == pytest.approx(
        sample_level_loss(P, ds, SIGMA), abs=1e-9
    )


def test_nonnegativity_battery():
    for seed in range(8):
        ds, P, F = random_instance(seed, V=2 + seed % 2, n=2 + seed % 5,
                                   dims=(4, 5, 3)[: 2 + seed % 2], d=1 + seed % 3)
        s, f, r = _all_losses(P, F, ds)
        assert s >= 0.0 and f >= 0.0 and r >= 0.0


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, width=64)


@st.composite
def small_instance(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=1, max_value=3))
    dims = (draw(st.integers(min_value=d + 1, max_value=5)),
            draw(st.integers(min_value=d + 1, max_value=5)))
    def mat(rows, cols):
        return np.array(draw(st.lists(st.lists(finite, min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows)))
    views = tuple(mat(D, n) for D in dims)
    P = ProjectionSet(tuple(mat(D, d) for D in dims))
    F = RecoverySet(tuple(mat(d, D) for D in dims))
    return MultiViewDataset(views), P, F


@settings(max_examples=25, deadline=None)
@given(small_instance())
def test_losses_are_nonnegative(inst):
    ds, P, F = inst
    s, f, r = _all_losses(P, F, ds)
    assert s >= 0.0 and f >= 0.0 and r >= 0.0


@settings(max_examples=25, deadline=None)
@given(small_instance(), st.randoms(use_true_random=False))
def test_permutation_invariance_property(inst, rnd):
    ds, P, F = inst
    perm = list(range(ds.n))
    rnd.shuffle(perm)
    ds2 = MultiViewDataset(tuple(v[:, perm] for v in ds.views))
    for got, want in zip(_all_losses(P, F, ds2), _all_losses(P, F, ds)):
        assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# the unshifted softmax stays finite up to SHIFT_ABOVE
# ---------------------------------------------------------------------------

def test_the_shift_threshold_bounds_the_unshifted_quotient():
    # rs / positives <= kn e^(2/sigma) for a row of kn logits in [-1/sigma, 1/sigma]: finite at the threshold
    # for rows of up to 8e12 logits
    assert math.isfinite(8e12 * math.exp(2.0 * SHIFT_ABOVE))


@pytest.mark.parametrize("inverse_sigma", [300, 339, 341, 400, 590, 610])
def test_heads_and_train_stay_finite_on_both_sides_of_the_shift_threshold(inverse_sigma):
    # Gaussian data where the unshifted quotient rs / positives overflowed for 1/sigma from about 355 to 600
    sigma = 1.0 / inverse_sigma
    hp = HyperParams(d=2, sigma1=sigma, sigma2=sigma, sigma3=sigma)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        ds = MultiViewDataset(tuple(rng.standard_normal((D, 50)) for D in (6, 5)))
        P, F = init_params(ds.dims, 2, seed)
        assert math.isfinite(sample_level_loss(P, ds, sigma)) and math.isfinite(recovery_level_loss(P, F, ds, sigma))
        try:
            report = train(ds, TrainConfig(hp=hp, max_iters=3, seed=seed))[2]
        except NumericDivergence as e:
            pytest.fail(f"seed {seed}: {e}")
        assert all(math.isfinite(x) for x in report.losses)
