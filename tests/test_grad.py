import numpy as np
import pytest

from mvcl import (
    DimError,
    HyperParams,
    MultiViewDataset,
    NumericError,
    ProjectionSet,
    RecoverySet,
    finite_diff_check,
    grad_wrt_F,
    grad_wrt_P,
    sample_level_loss,
    total_loss,
)
from mvcl.grad import random_instance

HP = HyperParams(d=3)


def _p_objective(P, F, ds, hp, m):
    def obj(mat):
        mats = list(P.mats)
        mats[m] = mat
        return total_loss(ProjectionSet(tuple(mats)), F, ds, hp)

    return obj


def _f_objective(P, F, ds, hp, m):
    def obj(mat):
        mats = list(F.mats)
        mats[m] = mat
        return total_loss(P, RecoverySet(tuple(mats)), ds, hp)

    return obj


# ---------------------------------------------------------------------------
# finite_diff_check itself
# ---------------------------------------------------------------------------

def test_fd_check_quadratic():
    x = np.eye(3)
    err = finite_diff_check(lambda m: float((m * m).sum()), x, 2.0 * x, h=1e-5)
    assert err <= 1e-9


def test_fd_check_constant_objective():
    x = np.ones((2, 2))
    assert finite_diff_check(lambda m: 7.0, x, np.zeros((2, 2))) == 0.0


def test_fd_check_nonfinite_objective():
    with pytest.raises(NumericError):
        finite_diff_check(lambda m: float("nan"), np.ones((2, 2)), np.zeros((2, 2)))


def test_fd_check_rejects_a_nonfinite_analytic_gradient():
    # a NaN entry's error compares below every bound, so it would otherwise pass
    with pytest.raises(NumericError, match="analytic gradient is not finite"):
        finite_diff_check(lambda m: float(m.sum()), np.ones((2, 2)), np.array([[1.0, np.nan], [1.0, 1.0]]))


def test_fd_check_argument_validation():
    with pytest.raises(ValueError):
        finite_diff_check(lambda m: 0.0, np.ones((2, 2)), np.zeros((2, 2)), h=0.0)
    with pytest.raises(DimError):
        finite_diff_check(lambda m: 0.0, np.ones((2, 2)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# gradient wrt P
# ---------------------------------------------------------------------------

def test_grad_p_matches_finite_differences():
    ds, P, F = random_instance(0, V=2, n=8, dims=(6, 5), d=3)
    dP = grad_wrt_P(P, F, ds, HP)
    for m in range(ds.V):
        err = finite_diff_check(_p_objective(P, F, ds, HP, m), P.mats[m], dP[m], h=1e-5)
        assert err <= 1e-5


def test_grad_p_is_orthogonal_to_parameter():
    # the objective is scale-free in each P_m, so <dP_m, P_m> vanishes
    ds, P, F = random_instance(1, V=3, n=6, dims=(5, 4, 6), d=2)
    hp = HyperParams(d=2)
    dP = grad_wrt_P(P, F, ds, hp)
    for m in range(ds.V):
        assert abs(float((dP[m] * P.mats[m]).sum())) <= 1e-9


def test_grad_p_with_zero_weights_is_sample_gradient():
    ds, P, F = random_instance(2, V=2, n=6, dims=(5, 4), d=3)
    hp0 = HyperParams(d=3, alpha=0.0, beta=0.0)
    dP = grad_wrt_P(P, F, ds, hp0)
    for m in range(ds.V):
        def obj(mat, m=m):
            mats = list(P.mats)
            mats[m] = mat
            return sample_level_loss(ProjectionSet(tuple(mats)), ds, hp0.sigma1)

        assert finite_diff_check(obj, P.mats[m], dP[m], h=1e-5) <= 1e-5


def test_grad_p_without_self_view_pairs():
    ds, P, F = random_instance(13, V=2, n=5, dims=(5, 4), d=3)
    hp = HyperParams(d=3, fea_include_self_view=False)
    dP = grad_wrt_P(P, F, ds, hp)
    for m in range(ds.V):
        err = finite_diff_check(_p_objective(P, F, ds, hp, m), P.mats[m], dP[m], h=1e-5)
        assert err <= 1e-5


def test_grad_p_sample_permutation_invariant():
    ds, P, F = random_instance(3, V=2, n=7, dims=(5, 4), d=3)
    perm = np.random.default_rng(5).permutation(ds.n)
    ds2 = MultiViewDataset(tuple(v[:, perm] for v in ds.views))
    a = grad_wrt_P(P, F, ds, HP)
    b = grad_wrt_P(P, F, ds2, HP)
    for ga, gb in zip(a, b):
        assert np.max(np.abs(ga - gb)) <= 1e-9


def test_grad_at_small_temperature_matches_directional_difference():
    # below sigma = 1/600 the kernel shifts its softmax by the row maximum
    for seed in range(4):
        ds, P, F = random_instance(seed, V=2 + seed % 2, n=6, dims=(5, 4, 6)[: 2 + seed % 2], d=3)
        hp = HyperParams(d=3, sigma1=1e-3, sigma2=1e-3, sigma3=1e-3)
        params = P.mats + F.mats
        grads = grad_wrt_P(P, F, ds, hp) + grad_wrt_F(P, F, ds, hp)
        rng = np.random.default_rng([seed, 2])
        u = [rng.standard_normal(a.shape) for a in params]
        norm = np.sqrt(sum(float((a * a).sum()) for a in u))
        analytic = sum(float((g * a).sum()) for g, a in zip(grads, u)) / norm

        def at(t):
            moved = [p + t * a / norm for p, a in zip(params, u)]
            return total_loss(ProjectionSet(tuple(moved[: ds.V])), RecoverySet(tuple(moved[ds.V :])), ds, hp)

        numeric = (at(1e-5) - at(-1e-5)) / 2e-5
        assert abs(analytic - numeric) <= 1e-5 * max(abs(analytic), abs(numeric))


# ---------------------------------------------------------------------------
# gradient wrt F
# ---------------------------------------------------------------------------

def test_grad_f_matches_finite_differences():
    ds, P, F = random_instance(4, V=2, n=8, dims=(6, 5), d=3)
    dF = grad_wrt_F(P, F, ds, HP)
    for m in range(ds.V):
        err = finite_diff_check(_f_objective(P, F, ds, HP, m), F.mats[m], dF[m], h=1e-5)
        assert err <= 1e-5


def test_grad_f_zero_when_beta_zero():
    ds, P, F = random_instance(5, V=2, n=5, dims=(5, 4), d=2)
    dF = grad_wrt_F(P, F, ds, HyperParams(d=2, beta=0.0))
    for g in dF:
        assert np.array_equal(g, np.zeros_like(g))


def test_grad_f_is_orthogonal_to_parameter():
    ds, P, F = random_instance(6, V=2, n=6, dims=(5, 4), d=3)
    dF = grad_wrt_F(P, F, ds, HP)
    for m in range(ds.V):
        assert abs(float((dF[m] * F.mats[m]).sum())) <= 1e-9


# ---------------------------------------------------------------------------
# stacked parameterisation (the trainer steps np.vstack of the blocks)
# ---------------------------------------------------------------------------

def test_stacked_gradient_matches_finite_differences():
    ds, P, F = random_instance(9, V=2, n=5, dims=(4, 3), d=2)
    hp = HyperParams(d=2)
    pstack = np.vstack(P.mats)
    dPs = np.vstack(grad_wrt_P(P, F, ds, hp))

    def obj(mat):
        blocks = np.split(mat, np.cumsum(ds.dims)[:-1], axis=0)
        return total_loss(ProjectionSet(tuple(blocks)), F, ds, hp)

    assert finite_diff_check(obj, pstack, dPs, h=1e-5) <= 1e-5


def test_grad_shape_validation():
    ds, P, F = random_instance(12, V=2, n=4, dims=(4, 3), d=2)
    bad = RecoverySet((np.ones((2, 4)), np.ones((2, 4))))
    with pytest.raises(DimError):
        grad_wrt_P(P, bad, ds, HyperParams(d=2))
