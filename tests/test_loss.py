import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from mvcl import (
    DimError,
    HyperParams,
    MultiViewDataset,
    ProjectionSet,
    RecoverySet,
    feature_level_loss,
    recovery_level_loss,
    sample_level_loss,
    total_loss,
)
from mvcl.grad import random_instance
from mvcl.loss import _recovery_head, _unit_columns, contrast, cosine_logits

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

def _cos(u, v, sigma):
    return cosine_logits(np.asarray(u, dtype=float)[:, None], np.asarray(v, dtype=float)[:, None], sigma)[0][0, 0]


def test_self_similarity_is_inverse_temperature():
    u = np.array([1.0, -2.0, 0.5])
    assert _cos(u, u, 0.1) == pytest.approx(10.0, abs=1e-12)


def test_orthogonal_vectors_score_zero():
    assert _cos([1.0, 0.0], [0.0, 1.0], 0.37) == 0.0


def test_cosine_matches_independent_computation():
    r = np.random.default_rng(77)
    A = r.standard_normal((5, 3))
    B = r.standard_normal((5, 4))
    S = cosine_logits(A, B, 0.25)[0]
    assert S.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert abs(S[i, j] - orc.sim(list(A[:, i]), list(B[:, j]), 0.25)) <= 1e-12


def test_cosine_zero_vector_floored():
    assert _cos(np.zeros(3), [1.0, 0.0, 0.0], 0.1) == 0.0  # floor keeps the value finite


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

def _recovery_inputs(seed, V, n, D, d):
    rng = np.random.default_rng(seed)
    X = [rng.standard_normal((D, n)) for _ in range(V)]
    Y = [rng.standard_normal((d, n)) for _ in range(V)]
    Fmats = [rng.standard_normal((d, D)) for _ in range(V)]
    return X, Y, Fmats


def _direct_recovery(X, Y, Fmats, sigma):
    """The head as written: contrast x_i^m with the columns of Z = F_m^T Y^v, chain rule through Z."""
    total, dY, dF = 0.0, [np.zeros_like(y) for y in Y], [np.zeros_like(f) for f in Fmats]
    for m, v in itertools.permutations(range(len(Y)), 2):
        loss, _, dZ = contrast(X[m], Fmats[m].T @ Y[v], sigma, grad=True)
        total += loss
        dF[m] += Y[v] @ dZ.T
        dY[v] += Fmats[m] @ dZ
    return total, dY, dF


@pytest.mark.parametrize("V", [2, 3])
@pytest.mark.parametrize("sigma", [0.1, 1e-3])  # 1e-3 takes the shifted softmax
def test_recovery_head_matches_direct_chain_rule(V, sigma):
    X, Y, Fmats = _recovery_inputs(30 + V, V, n=200, D=40, d=6)
    loss, dY, dF = _recovery_head(_unit_columns(X), Y, Fmats, sigma, grad=True)
    want_loss, want_dY, want_dF = _direct_recovery(X, Y, Fmats, sigma)
    assert loss == pytest.approx(want_loss, rel=1e-10)
    for got, want in zip(dY + dF, want_dY + want_dF):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    # d/dY alone is the same arithmetic, without d/dF
    loss2, dY2, dF2 = _recovery_head(_unit_columns(X), Y, Fmats, sigma, grad=True, with_dF=False)
    assert loss2 == loss and dF2 is None
    assert all(np.array_equal(a, b) for a, b in zip(dY2, dY))


def test_recovery_loss_at_d1_is_bit_constant_in_embedding_scale():
    # At d = 1 every cosine is +-1 whatever the embedding's scale, so the
    # loss must not move by even one ulp (c1 measures this at seed 7).
    X, Y, Fmats = _recovery_inputs(40, 2, n=30, D=5, d=1)
    Xh = _unit_columns(X)
    base = _recovery_head(Xh, Y, Fmats, 0.1)[0]
    rng = np.random.default_rng(41)
    for _ in range(5):
        scaled = [y * rng.uniform(0.5, 2.0, size=y.shape[1]) for y in Y]
        assert _recovery_head(Xh, scaled, Fmats, 0.1)[0] == base
    assert _recovery_head(Xh, [y * (1.0 + 1e-5) for y in Y], Fmats, 0.1)[0] == base


def test_recovery_head_keeps_one_logit_matrix_alive():
    n = 1500
    X, Y, Fmats = _recovery_inputs(42, 2, n=n, D=20, d=4)
    Xh = _unit_columns(X)
    tracemalloc.start()
    try:
        _recovery_head(Xh, Y, Fmats, 0.1, grad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8


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


def test_shape_mismatch_raises_dim_error():
    ds, P, F = random_instance(11, V=2, n=4, dims=(5, 4), d=2)
    bad_P = ProjectionSet((np.ones((6, 2)), np.ones((4, 2))))
    with pytest.raises(DimError):
        sample_level_loss(bad_P, ds, SIGMA)
    bad_F = RecoverySet((np.ones((2, 5)), np.ones((2, 5))))
    with pytest.raises(DimError):
        recovery_level_loss(P, bad_F, ds, SIGMA)


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
