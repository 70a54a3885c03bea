import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mvcl.loss

from mvcl import (
    AdamParams,
    AdamState,
    DimError,
    FeatureStats,
    HyperParams,
    MultiViewDataset,
    NumericDivergence,
    ProjectionSet,
    RecoverySet,
    SplitPlan,
    SynthSpec,
    TrainConfig,
    adam_step,
    feature_level_loss,
    grad_wrt_F,
    grad_wrt_P,
    init_params,
    load_model,
    preprocess,
    save_model,
    split,
    synth_generate,
    total_loss,
    train,
)
from mvcl.optim import from_json
from conftest import peak_alloc


def _train_instance(seed=7, dims=(8, 7)):
    spec = SynthSpec(classes=3, per_class=10, dims=dims, shared_dims=2,
                     specific_dims=2, redundant_copies=1, noise_std=1.0, seed=seed)
    ds, _ = preprocess(synth_generate(spec))
    return ds


# ---------------------------------------------------------------------------
# init_params
# ---------------------------------------------------------------------------

def test_init_projections_are_orthonormal():
    P, F = init_params((9, 6), 3, seed=0)
    for a in P.mats:
        np.testing.assert_allclose(a.T @ a, np.eye(3), atol=1e-10)
    assert [f.shape for f in F.mats] == [(3, 9), (3, 6)]


def test_init_is_deterministic():
    a, fa = init_params((7, 5), 2, seed=3)
    b, fb = init_params((7, 5), 2, seed=3)
    for x, y in zip(a.mats + fa.mats, b.mats + fb.mats):
        assert np.array_equal(x, y)


def test_init_differs_across_seeds():
    a, _ = init_params((7, 5), 2, seed=0)
    b, _ = init_params((7, 5), 2, seed=1)
    assert np.linalg.norm(a.mats[0] - b.mats[0]) > 0


def test_init_rejects_oversized_subspace():
    with pytest.raises(DimError):
        init_params((4, 6), 4, seed=0)


# ---------------------------------------------------------------------------
# adam_step
# ---------------------------------------------------------------------------

def test_adam_first_step_has_learning_rate_magnitude():
    state = AdamState.zeros((1, 1))
    _, p = adam_step(state, np.array([[2.0]]), np.array([[0.0]]), AdamParams())
    assert p[0, 0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_zero_gradient_is_fixed_point():
    state = AdamState.zeros((2, 2))
    param = np.array([[1.0, -2.0], [0.5, 3.0]])
    for _ in range(20):
        state, param2 = adam_step(state, np.zeros((2, 2)), param, AdamParams())
        assert np.array_equal(param2, param)
        param = param2


def test_adam_defaults():
    ap = AdamParams()
    assert (ap.gamma, ap.beta1, ap.beta2, ap.epsilon) == (0.001, 0.9, 0.999, 1e-8)


def test_adam_validation():
    with pytest.raises(ValueError):
        AdamParams(gamma=0.0)
    for field in ("gamma", "epsilon"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                AdamParams(**{field: bad})
    with pytest.raises(ValueError):
        AdamParams(beta1=1.0)
    state = AdamState.zeros((2, 2))
    with pytest.raises(DimError):
        adam_step(state, np.zeros((2, 3)), np.zeros((2, 2)), AdamParams())


def test_adam_second_moment_stays_nonnegative():
    state = AdamState.zeros((2, 2))
    rng = np.random.default_rng(0)
    param = np.zeros((2, 2))
    for _ in range(10):
        state, param = adam_step(state, rng.standard_normal((2, 2)), param, AdamParams())
    assert state.v.min() >= 0.0 and state.t == 10


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_defaults():
    cfg = TrainConfig(hp=HyperParams(d=2))
    assert cfg.tol == 1e-3 and cfg.max_iters == 1000


@pytest.mark.parametrize("tol", [0.0, float("inf"), float("nan")])
def test_train_config_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        TrainConfig(hp=HyperParams(d=2), tol=tol)


def test_train_config_rejects_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        TrainConfig(hp=HyperParams(d=2), seed=-1)


def test_train_stops_immediately_with_huge_tol():
    ds = _train_instance()
    _, _, rep = train(ds, TrainConfig(hp=HyperParams(d=2), max_iters=100, tol=1e12))
    assert rep.iterations == 1 and rep.converged
    assert len(rep.losses) == rep.iterations + 1


def test_train_loss_decreases_regression():
    ds = _train_instance(seed=7)
    P, F, rep = train(ds, TrainConfig(hp=HyperParams(d=2), max_iters=200))
    assert rep.losses[-1] < rep.losses[0]
    # regression pins for this seeded instance
    assert rep.losses[0] == pytest.approx(34.723404790309345, rel=1e-9)
    assert rep.losses[-1] == pytest.approx(17.660828410044729, rel=1e-9)


def test_train_initial_loss_matches_total_loss():
    ds = _train_instance()
    cfg = TrainConfig(hp=HyperParams(d=2), max_iters=1, tol=1e-12)
    P0, F0 = init_params(ds.dims, 2, cfg.seed)
    _, _, rep = train(ds, cfg)
    assert rep.losses[0] == pytest.approx(total_loss(P0, F0, ds, cfg.hp), abs=1e-12)


def test_train_replay_is_bit_identical():
    ds = _train_instance()
    cfg = TrainConfig(hp=HyperParams(d=2), max_iters=40)
    P1, F1, r1 = train(ds, cfg)
    P2, F2, r2 = train(ds, cfg)
    assert r1.losses == r2.losses
    for a, b in zip(P1.mats + F1.mats, P2.mats + F2.mats):
        assert np.array_equal(a, b)


def test_train_converged_flag_consistent_with_trajectory():
    ds = _train_instance()
    _, _, rep = train(ds, TrainConfig(hp=HyperParams(d=2), max_iters=400, tol=5e-2))
    if rep.converged:
        assert abs(rep.losses[-1] - rep.losses[-2]) <= 5e-2
    else:
        assert rep.iterations == 400


@pytest.mark.parametrize("sigma", [1e-1, 1e-2, 1e-3, 1e-4])
def test_small_temperatures_stay_finite(sigma):
    # exp(1/sigma) overflows below sigma ~ 1.4e-3, but the objective is
    # bounded: the kernel shifts its softmax by the row maximum there.
    ds = _train_instance()
    hp = HyperParams(d=2, sigma1=sigma, sigma2=sigma, sigma3=sigma)
    P, F = init_params(ds.dims, hp.d, 0)
    assert np.isfinite(total_loss(P, F, ds, hp))
    P, F, rep = train(ds, TrainConfig(hp=hp, max_iters=5))
    assert all(np.isfinite(x) for x in rep.losses)
    for a in P.mats + F.mats:
        assert np.isfinite(a).all()


def test_train_divergence_raises_with_iteration():
    ds = _train_instance()
    hp = HyperParams(d=2, alpha=1e308)
    with pytest.raises(NumericDivergence) as exc:
        train(ds, TrainConfig(hp=hp, max_iters=5))
    assert exc.value.iteration == 0


@pytest.mark.parametrize("dims, weights", [
    ((8, 7), {}),
    ((8, 7), {"alpha": 0.0}),
    ((8, 7), {"beta": 0.0}),
    ((8, 7), {"alpha": 0.0, "beta": 0.0}),
    ((8, 7), {"fea_include_self_view": False}),
    ((8, 7, 6), {}),
], ids=["default", "alpha0", "beta0", "alpha0-beta0", "no-self-view", "3-views"])
def test_train_stacked_adam_matches_per_view_adam(dims, weights):
    # train() keeps one Adam state for the row-stacked projections and reuses
    # one evaluation per point for the loss and both gradient steps. Replayed
    # through the public gradients with one Adam state per view, the
    # parameters and every loss must agree bit for bit.
    ds = _train_instance(seed=2, dims=dims)
    hp = HyperParams(d=2, **weights)
    cfg = TrainConfig(hp=hp, max_iters=6, tol=1e-300)
    P, F, rep = train(ds, cfg)
    assert rep.iterations == 6

    p0, f0 = init_params(ds.dims, hp.d, cfg.seed)
    pm, fm = list(p0.mats), list(f0.mats)
    ps = [AdamState.zeros(a.shape) for a in pm]
    fs = [AdamState.zeros(a.shape) for a in fm]
    assert total_loss(p0, f0, ds, hp) == rep.losses[0]
    for t in range(1, rep.iterations + 1):
        dF = grad_wrt_F(ProjectionSet(tuple(pm)), RecoverySet(tuple(fm)), ds, hp)
        for m in range(ds.V):
            fs[m], fm[m] = adam_step(fs[m], dF[m], fm[m], cfg.adam)
        dP = grad_wrt_P(ProjectionSet(tuple(pm)), RecoverySet(tuple(fm)), ds, hp)
        for m in range(ds.V):
            ps[m], pm[m] = adam_step(ps[m], dP[m], pm[m], cfg.adam)
        assert total_loss(ProjectionSet(tuple(pm)), RecoverySet(tuple(fm)), ds, hp) == rep.losses[t]
    for a, b in zip(P.mats + F.mats, pm + fm):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# fits trained in lockstep
# ---------------------------------------------------------------------------

def _cell(M, repeats, seed, dims=(8, 7)):
    """The preprocessed training splits of a benchmark cell's repeats: datasets of one n and the same dims."""
    ds = synth_generate(SynthSpec(classes=3, per_class=10, dims=dims, shared_dims=2, specific_dims=2,
                                  redundant_copies=1, seed=seed))
    plan = SplitPlan(M=M, repeats=repeats, seed=seed)
    return tuple(preprocess(split(ds, plan, r)[0])[0] for r in range(repeats))


@pytest.mark.parametrize("dims, weights, tol", [
    ((8, 7), {}, 1e-300),
    ((8, 7), {"alpha": 0.0, "beta": 0.0}, 1e-300),
    ((8, 7), {"sigma1": 1e-3, "sigma2": 1e-3, "sigma3": 1e-3}, 1e-300),
    ((8, 7, 6), {}, 1e-300),
    ((8, 7, 6), {"alpha": 0.0, "beta": 0.0, "fea_include_self_view": False}, 1e-300),
    ((8, 7), {}, 0.1),
    ((8, 7, 6), {"sigma1": 1e-3, "sigma2": 1e-3, "sigma3": 1e-3}, 10.0),
], ids=["V2-full", "V2-cmc", "V2-shifted-softmax", "V3-full", "V3-cmc", "V2-own-stops", "V3-own-stops"])
def test_batched_fits_equal_their_solo_runs(dims, weights, tol):
    # as many fits as a batch holds at n = 9: 14 at V = 2, 4 at V = 3, where the recovery head's V(V-1) pairs bind
    fits = _cell(M=3, repeats=mvcl.loss._batch_limit(len(dims), 9, 2), seed=11, dims=dims)
    cfg = TrainConfig(hp=HyperParams(d=2, **weights), max_iters=100 if tol > 1e-300 else 40, tol=tol)
    Ps, Fs, batch, reports = train(fits, cfg)
    iterations = []
    for ds, P, F, rep in zip(fits, Ps, Fs, reports):
        P1, F1, rep1 = train(ds, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(P.mats + F.mats, P1.mats + F1.mats))
        assert (rep.losses, rep.iterations, rep.converged) == (rep1.losses, rep1.iterations, rep1.converged)
        iterations.append(rep.iterations)
    assert batch.iterations == sum(iterations) and batch.losses == ()
    assert batch.converged == all(r.converged for r in reports)
    assert max(r.wall_ms for r in reports) <= batch.wall_ms
    if tol > 1e-300:  # the fits stop at their own iterations, and the batch runs on without the stopped ones
        assert len(set(iterations)) > 2 and min(iterations) < cfg.max_iters


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), V=st.integers(2, 3), n=st.integers(2, 9), size=st.integers(1, 2**16),
       tol=st.sampled_from([1e-300, 1e-2, 1e-1]))
def test_a_random_batch_gives_each_fit_its_solo_bits(seed, V, n, size, tol):
    # any batch size up to the limit, on Gaussian data: the fits that converge leave, the others run on
    rng = np.random.default_rng(seed)
    dims = [3 + (seed + m) % 4 for m in range(V)]
    B = 1 + size % mvcl.loss._batch_limit(V, n, 2)
    fits = tuple(MultiViewDataset(tuple(rng.standard_normal((D, n)) for D in dims)) for _ in range(B))
    cfg = TrainConfig(hp=HyperParams(d=2), max_iters=12, tol=tol, seed=seed % 7)
    Ps, Fs, batch, reports = train(fits, cfg)
    for ds, P, F, rep in zip(fits, Ps, Fs, reports):
        P1, F1, rep1 = train(ds, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(P.mats + F.mats, P1.mats + F1.mats))
        assert (rep.losses, rep.iterations, rep.converged) == (rep1.losses, rep1.iterations, rep1.converged)
    assert batch.iterations == sum(r.iterations for r in reports)


def test_a_batch_names_its_diverging_fit():
    # alpha between the fits' largest initial feature losses: alpha * feature overflows in one fit only
    fits = _cell(M=4, repeats=3, seed=1)
    P0, _ = init_params(fits[0].dims, 2, 0)
    feature = [feature_level_loss(P0, ds, 0.1) for ds in fits]
    second, worst = sorted(feature)[-2:]
    cfg = TrainConfig(hp=HyperParams(d=2, alpha=1.7976e308 / np.sqrt(second * worst)), max_iters=5)
    with pytest.raises(NumericDivergence, match=f"^initial loss of fit {np.argmax(feature)} is not finite$") as exc:
        train(fits, cfg)
    assert exc.value.fit == np.argmax(feature) != 0 and exc.value.iteration == 0


def test_a_batch_holds_fits_of_one_shape_up_to_the_limit():
    fits = _cell(M=3, repeats=2, seed=1)
    cfg = TrainConfig(hp=HyperParams(d=2), max_iters=2)
    with pytest.raises(DimError, match="share n"):
        train((fits[0], _cell(M=4, repeats=1, seed=1)[0]), cfg)
    with pytest.raises(DimError, match="share n"):
        train((fits[0], _cell(M=3, repeats=1, seed=1, dims=(8, 6))[0]), cfg)
    # n = 9, V = 2: B * 2 * 9 <= ROWS for the recovery head
    assert mvcl.loss._batch_limit(2, 9, 2) == mvcl.loss.ROWS // 18
    with pytest.raises(ValueError, match="exceed the batch limit"):
        train(fits * (mvcl.loss.ROWS // 36 + 1), cfg)


def test_zero_beta_leaves_recovery_maps_at_their_start():
    # With beta = 0 F is out of the objective: its Adam steps are skipped, and
    # F is the initial F bit for bit, as zero-gradient Adam steps leave it.
    ds = _train_instance(seed=3)
    hp = HyperParams(d=2, beta=0.0)
    cfg = TrainConfig(hp=hp, max_iters=5, tol=1e-300)
    P, F, rep = train(ds, cfg)
    p0, f0 = init_params(ds.dims, hp.d, cfg.seed)
    assert all(np.array_equal(a, b) for a, b in zip(F.mats, f0.mats))
    # the losses are those of P's Adam steps alone, against the initial F
    pm, ps = list(p0.mats), [AdamState.zeros(a.shape) for a in p0.mats]
    losses = [total_loss(p0, f0, ds, hp)]
    for _ in range(rep.iterations):
        dP = grad_wrt_P(ProjectionSet(tuple(pm)), f0, ds, hp)
        for m in range(ds.V):
            ps[m], pm[m] = adam_step(ps[m], dP[m], pm[m], cfg.adam)
        losses.append(total_loss(ProjectionSet(tuple(pm)), f0, ds, hp))
    assert rep.losses == tuple(losses)
    assert all(np.array_equal(a, b) for a, b in zip(P.mats, pm))


def test_train_forms_each_recovery_anchor_once_per_F(monkeypatch):
    # W_m = F_m (X^m / nx^m) depends on F alone: the pass after the F step forms it,
    # and the full pass at the next point reuses it.
    seen = []
    inner = mvcl.loss._recovery_maps

    def counted(Fmats, X, nx):
        seen.append(np.concatenate(Fmats, axis=2)[0])  # one fit's F: its (1, d, D_m) maps, side by side
        return inner(Fmats, X, nx)

    monkeypatch.setattr("mvcl.loss._recovery_maps", counted)
    monkeypatch.setattr("mvcl.optim._recovery_maps", counted)
    ds = _train_instance(seed=2)
    _, F, rep = train(ds, TrainConfig(hp=HyperParams(d=2), max_iters=4, tol=1e-300))
    # the initial F, then one F per step
    assert rep.iterations == 4 and len(seen) == 5
    assert all(not np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
    assert np.array_equal(seen[-1], np.hstack(F.mats))


@pytest.mark.parametrize("call", ["train", "grad_wrt_P"])
def test_training_holds_no_copy_of_the_data(call):
    # High D, small n: X dominates. Beside it, train and the gradient hold X's column norms and,
    # one view at a time, that view's unit columns for the recovery anchors: half of X at V = 2.
    ds = synth_generate(SynthSpec(classes=4, per_class=100, dims=(1000, 1000), seed=1))
    cfg = TrainConfig(hp=HyperParams(d=2), max_iters=2, tol=1e-300)
    P, F = init_params(ds.dims, 2, 0)
    fn = {"train": lambda: train(ds, cfg), "grad_wrt_P": lambda: grad_wrt_P(P, F, ds, cfg.hp)}[call]
    assert peak_alloc(fn) < 0.75 * sum(v.nbytes for v in ds.views)


def test_train_smoke_500_iters_stays_finite():
    ds = _train_instance(seed=1)
    P, F, rep = train(ds, TrainConfig(hp=HyperParams(d=2), max_iters=500, tol=1e-9))
    assert all(np.isfinite(x) for x in rep.losses)
    for a in P.mats + F.mats:
        assert np.isfinite(a).all()


# ---------------------------------------------------------------------------
# model io
# ---------------------------------------------------------------------------

def test_model_roundtrip_is_exact(tmp_path):
    ds = _train_instance()
    cfg = TrainConfig(hp=HyperParams(d=2), max_iters=10)
    dsp, stats = preprocess(ds, center=True, unit_variance=True)
    P, F, _ = train(dsp, cfg)
    path = tmp_path / "model.json"
    save_model(path, P, F, stats, cfg)
    P2, F2, stats2, cfg2 = load_model(path)
    for a, b in zip(P.mats + F.mats, P2.mats + F2.mats):
        assert np.array_equal(a, b)
    for a, b in zip(stats.means, stats2.means):
        assert np.array_equal(a, b)
    assert cfg2 == cfg


def test_model_write_is_reproducible(tmp_path):
    ds = _train_instance()
    cfg = TrainConfig(hp=HyperParams(d=2), max_iters=5)
    P, F, _ = train(ds, cfg)
    save_model(tmp_path / "a.json", P, F, None, cfg)
    save_model(tmp_path / "b.json", P, F, None, cfg)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# What save_model wrote for test_model_file_text_is_pinned's model before it wrote through dataclasses.asdict
# and write_json's array-to-list default: the file format, byte for byte.
PINNED_MODEL_TEXT = """{
 "F": [
  [
   [
    0.3333333333333333,
    -0.0
   ]
  ],
  [
   [
    -2.5e+17
   ]
  ]
 ],
 "P": [
  [
   [
    0.5
   ],
   [
    -1.25
   ]
  ],
  [
   [
    1e-300
   ]
  ]
 ],
 "V": 2,
 "config": {
  "adam": {
   "beta1": 0.9,
   "beta2": 0.999,
   "epsilon": 1e-08,
   "gamma": 0.01
  },
  "hp": {
   "alpha": 0.5,
   "beta": 1.0,
   "d": 1,
   "fea_include_self_view": false,
   "sigma1": 0.1,
   "sigma2": 0.1,
   "sigma3": 0.1
  },
  "max_iters": 7,
  "seed": 3,
  "tol": 0.0001
 },
 "d": 1,
 "dims": [
  2,
  1
 ],
 "preprocessing": {
  "center": true,
  "means": [
   [
    0.25,
    -1.0
   ],
   [
    0.0
   ]
  ],
  "stds": [
   [
    1.0,
    0.5
   ],
   [
    1e-12
   ]
  ],
  "unit_variance": true
 },
 "schema_version": 1
}
"""


def test_model_file_text_is_pinned(tmp_path):
    P = ProjectionSet((np.array([[0.5], [-1.25]]), np.array([[1e-300]])))
    F = RecoverySet((np.array([[1.0 / 3.0, -0.0]]), np.array([[-2.5e17]])))
    stats = FeatureStats(center=True, unit_variance=True, means=(np.array([0.25, -1.0]), np.array([0.0])),
                         stds=(np.array([1.0, 0.5]), np.array([1e-12])))
    cfg = TrainConfig(hp=HyperParams(d=1, alpha=0.5, fea_include_self_view=False), adam=AdamParams(gamma=0.01),
                      max_iters=7, tol=1e-4, seed=3)
    save_model(tmp_path / "m.json", P, F, stats, cfg)
    assert (tmp_path / "m.json").read_text() == PINNED_MODEL_TEXT


def test_model_schema_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ValueError):
        load_model(path)


def test_config_dict_roundtrip():
    cfg = TrainConfig(hp=HyperParams(d=4, alpha=0.5), max_iters=77, tol=1e-4, seed=9)
    assert from_json(asdict(cfg), TrainConfig, "config") == cfg
    with pytest.raises(ValueError):
        from_json({"bogus": 1}, TrainConfig, "config")
