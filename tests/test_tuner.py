"""Tuner: loss/regularizer oracles, gradient checks, training loop."""

import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import check_grads, rand_tensor
from zjkit import data as data_mod
from zjkit import tensor as T
from zjkit import tuner
from zjkit.architect import AdaptedModel, apply_plan, compile_plan, full_plan
from zjkit.dsl import parse_config
from zjkit.errors import ConfigError, NoConvergence, ShapeMismatch
from zjkit.models import MiniVitSpec, MlpSpec, ParamStore, build_model
from zjkit.tensor import Tensor
from zjkit.tuner import (
    LossSpec,
    LossTerm,
    RegSpec,
    Teacher,
    TrainConfig,
    bss_penalty,
    cross_entropy,
    fit_class_means,
    fitnet_loss,
    fsp_loss,
    kd_kl,
    ncm_teacher_logits,
    rkd_loss,
    spectral_penalty,
    train,
    weight_reg,
)


# -- cross entropy -------------------------------------------------------


def test_ce_uniform_logits_is_log_k():
    logits = Tensor(np.zeros((5, 4)), requires_grad=True)
    assert abs(cross_entropy(logits, np.zeros(5, int)).item() - np.log(4)) < 1e-12


def test_ce_perfect_prediction_near_zero():
    logits = Tensor(np.array([[50.0, 0.0], [0.0, 50.0]]))
    assert cross_entropy(logits, np.array([0, 1])).item() < 1e-12


def test_ce_label_out_of_range():
    with pytest.raises(ConfigError, match=r"labels must be in \[0,3\)"):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_ce_grad():
    rng = np.random.default_rng(0)
    x = rand_tensor(rng, (6, 4))
    y = rng.integers(0, 4, size=6)
    check_grads(lambda t: cross_entropy(t, y), [x])


def test_ce_matches_the_chain_it_replaces():
    """One node, bit-identical in value and gradient to
    ``-log_softmax(l)[rows, y].mean()``, through two backwards of the node
    and a zero gradient (the sign of each zero included)."""
    rng = np.random.default_rng(20)
    logits = Tensor(rng.normal(0.5, 3.0, size=(7, 5)), requires_grad=True)
    y = np.array([0, 4, 4, 1, 0, 2, 4])  # repeated labels
    ce = cross_entropy(logits, y)
    assert ce._node[2] == (logits._node,)  # one node on the leaf
    chain = -T.log_softmax(logits)[(np.arange(7), y)].mean()
    assert ce.data.tobytes() == chain.data.tobytes()
    for probe in (0.37, -2.5, 0.0):
        got, want = (T.backward(t.scale(probe))[logits.uid] for t in (ce, chain))
        assert got.tobytes() == want.tobytes(), probe


# -- kd_kl ---------------------------------------------------------------


def test_kd_kl_zero_at_fixed_point():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(5, 4))
    assert abs(kd_kl(Tensor(z, requires_grad=True), z, 2.0).item()) < 1e-12


def test_kd_kl_shift_invariance():
    # adding a per-row constant to either side leaves KL unchanged
    rng = np.random.default_rng(2)
    s = rng.normal(size=(4, 5))
    t = rng.normal(size=(4, 5))
    base = kd_kl(Tensor(s, requires_grad=True), t, 3.0).item()
    shifted = kd_kl(Tensor(s + 7.0, requires_grad=True), t - 2.0, 3.0).item()
    assert abs(base - shifted) < 1e-10


def test_kd_kl_scalar_oracle():
    # independent numpy computation of T^2 * mean_n KL(p_t || p_s)
    s = np.array([[0.0, 1.0], [2.0, -1.0]])
    t = np.array([[1.0, 0.0], [0.5, 0.5]])
    temp = 2.0

    def soft(z):
        e = np.exp(z / temp - (z / temp).max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    pt, ps = soft(t), soft(s)
    want = temp**2 * float((pt * (np.log(pt) - np.log(ps))).sum(axis=1).mean())
    got = kd_kl(Tensor(s, requires_grad=True), t, temp).item()
    assert abs(got - want) < 1e-10


def test_kd_kl_grad():
    rng = np.random.default_rng(3)
    s = rand_tensor(rng, (4, 3))
    t = rng.normal(size=(4, 3))
    check_grads(lambda x: kd_kl(x, t, 2.5), [s])


def test_kd_kl_nonnegative():
    rng = np.random.default_rng(4)
    for seed in range(5):
        r = np.random.default_rng(seed)
        v = kd_kl(Tensor(r.normal(size=(3, 4)), requires_grad=True),
                  r.normal(size=(3, 4))).item()
        assert v >= -1e-12


# -- NCM teacher ---------------------------------------------------------


def test_fit_class_means_brute_force():
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]])
    means = fit_class_means(feats, np.array([0, 0, 1]), 2)
    assert means.tolist() == [[1.0, 0.0], [0.0, 4.0]]
    with pytest.raises(ConfigError, match="class 1 has no samples"):
        fit_class_means(feats, np.array([0, 0, 0]), 2)


def test_ncm_teacher_logits_brute_force():
    means = np.array([[0.0, 0.0], [3.0, 4.0]])
    logits = ncm_teacher_logits(np.array([[0.0, 0.0]]), means, tau=2.0)
    assert np.allclose(logits.data, [[0.0, -12.5]])  # -25/2


# -- fitnet --------------------------------------------------------------


def test_fitnet_direct_oracle():
    s = {"h": Tensor(np.array([[1.0, 2.0]]), requires_grad=True)}
    t = {"h": Tensor(np.array([[0.0, 0.0]]))}
    # mean squared gap = (1 + 4) / 2
    assert abs(fitnet_loss(s, t, [("h", "h")]).item() - 2.5) < 1e-12


def test_fitnet_width_mismatch_needs_projector():
    s = {"h": Tensor(np.ones((2, 3)), requires_grad=True)}
    t = {"h": Tensor(np.ones((2, 5)))}
    with pytest.raises(ShapeMismatch, match="widths 3 vs 5 need a projector"):
        fitnet_loss(s, t, [("h", "h")])
    proj = Tensor(np.zeros((5, 3)), requires_grad=True)
    val = fitnet_loss(s, t, [("h", "h")], {("h", "h"): proj})
    assert abs(val.item() - 1.0) < 1e-12  # projected to zero vs ones


def test_fitnet_missing_hook():
    with pytest.raises(ConfigError, match="student hook 'h' not captured"):
        fitnet_loss({}, {"h": Tensor(np.ones((1, 2)))}, [("h", "h")])


def test_fitnet_grad_with_projector():
    rng = np.random.default_rng(5)
    s = rand_tensor(rng, (4, 3))
    proj = rand_tensor(rng, (5, 3))
    t = Tensor(rng.normal(size=(4, 5)))
    check_grads(
        lambda ss, pp: fitnet_loss({"h": ss}, {"h": t}, [("h", "h")],
                                   {("h", "h"): pp}),
        [s, proj])


# -- fsp -----------------------------------------------------------------


def test_fsp_matrix_example():
    # G = A1^T A2 / n with A1 = I, A2 = [[1,2],[3,4]] over n=2 samples
    a1 = Tensor(np.eye(2), requires_grad=True)
    a2 = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    g = tuner._fsp_matrix(a1, a2)
    assert g.data.tolist() == [[0.5, 1.0], [1.5, 2.0]]


def test_fsp_zero_at_fixed_point():
    rng = np.random.default_rng(6)
    a1 = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    a2 = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    assert fsp_loss([(a1, a2)], [(a1, a2)]).item() == 0.0


def test_fsp_direct_oracle():
    s1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    s2 = np.array([[2.0, 0.0], [0.0, 2.0]])
    gs = s1.T @ s2 / 2
    gt = np.zeros((2, 2))
    want = float(((gs - gt) ** 2).sum()) / 4  # / (d1 * d2)
    got = fsp_loss(
        [(Tensor(s1, requires_grad=True), Tensor(s2, requires_grad=True))],
        [(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))]).item()
    assert abs(got - want) < 1e-12


_NO_ROWS = Tensor(np.zeros((0, 3)), requires_grad=True)


@pytest.mark.parametrize("call, error, word", [
    (lambda: cross_entropy(_NO_ROWS, np.zeros(0, int)), ShapeMismatch,
     r"cross_entropy needs \[n>0, c>0\] logits, got \(0, 3\)"),
    (lambda: cross_entropy(Tensor(np.zeros(3)), [0]), ShapeMismatch, "cross_entropy needs"),
    (lambda: kd_kl(_NO_ROWS, np.zeros((0, 3))), ShapeMismatch, "kd_kl needs"),
    (lambda: kd_kl(Tensor([1.0, 2.0]), [2.0, 1.0]), ShapeMismatch, "kd_kl needs"),
    (lambda: fitnet_loss({}, {}, []), ConfigError, "fitnet needs"),
    (lambda: fsp_loss([], []), ShapeMismatch, "fsp pairs: 0 student vs 0 teacher"),
    (lambda: weight_reg([], kind="bogus"), ConfigError, "unknown weight reg 'bogus'"),
    (lambda: weight_reg([], kind="l2_sp"), ConfigError, "l2_sp needs a reference store"),
], ids=["ce_no_rows", "ce_1d", "kd_kl_no_rows", "kd_kl_1d", "fitnet_no_pairs", "fsp_no_pairs",
        "weight_reg_kind", "l2_sp_no_ref"])
def test_a_degenerate_loss_input_is_a_typed_error(call, error, word):
    """A loss of no rows or no pairs, or a regularizer of an unknown kind,
    ends as the typed error its other bad inputs end as."""
    with pytest.raises(error, match=word):
        call()


def test_fsp_grad():
    rng = np.random.default_rng(7)
    s1 = rand_tensor(rng, (5, 3))
    s2 = rand_tensor(rng, (5, 4))
    t1 = Tensor(rng.normal(size=(5, 3)))
    t2 = Tensor(rng.normal(size=(5, 4)))
    check_grads(lambda a, b: fsp_loss([(a, b)], [(t1, t2)]), [s1, s2])


def test_fsp_on_token_features_trains():
    # [n, s, d] block hooks flatten to [n*s, d] rows
    spec = MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=16, classes=2, seq_len=2,
                       input_dim=2)
    h0, h1 = "blocks[0].output", "blocks[1].output"
    model = apply_plan(spec, build_model(spec, seed=0), compile_plan(
        parse_config("(LoRA.adapt):->(blocks[*].attn.qkv){inout}"), spec), seed=1)
    _, history = train(model, Teacher(spec, build_model(spec, seed=5)),
                       data_mod.token_xor(n=64, seq=2, d=2, sigma=0.1),
                       LossSpec([LossTerm("ce"), LossTerm("fsp", hooks=(((h0, h1), (h0, h1)),))]),
                       RegSpec(), TrainConfig(epochs=1, batch_size=32))
    assert np.isfinite(history[-1]["fsp"]) and history[-1]["fsp"] > 0


# -- rkd -----------------------------------------------------------------


@pytest.mark.parametrize("kind, mode", [("rkd_dist", "dist"), ("rkd_angle", "angle")])
def test_rkd_on_token_features_relates_samples(kind, mode):
    # one row per sample, its tokens side by side: 4 points, not 4*3
    rng = np.random.default_rng(9)
    s, t = rand_tensor(rng, (4, 3, 2)), Tensor(rng.normal(size=(4, 3, 2)))
    batch = SimpleNamespace(s_trace={"h": s}, t_trace={"h": t})
    got = tuner.TERMS[kind].evaluate(LossTerm(kind, hyper=(("hook", "h"),)), batch)
    assert got.item() == rkd_loss(s.reshape(4, 6), t.reshape(4, 6), mode).item()


def _rkd_dist_oracle(s, t, delta=1.0):
    def pd(e):
        n = e.shape[0]
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                out.append(np.linalg.norm(e[i] - e[j]))
        return np.array(out)

    ds, dt = pd(s), pd(t)
    x = ds / ds.mean() - dt / dt.mean()
    h = np.where(np.abs(x) <= delta, 0.5 * x**2, delta * (np.abs(x) - 0.5 * delta))
    return float(h.mean())


def _rkd_angle_oracle(s, t, delta=1.0):
    def cosines(e):
        n = e.shape[0]
        out = []
        for j in range(n):
            for i in range(n):
                for k in range(n):
                    if i == j or k == j or i == k:
                        continue
                    u = e[i] - e[j]
                    v = e[k] - e[j]
                    out.append(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        return np.array(out)

    x = cosines(s) - cosines(t)
    h = np.where(np.abs(x) <= delta, 0.5 * x**2, delta * (np.abs(x) - 0.5 * delta))
    return float(h.mean())


def test_rkd_dist_matches_exhaustive_oracle():
    rng = np.random.default_rng(8)
    s = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 3))
    got = rkd_loss(Tensor(s, requires_grad=True), t, "dist").item()
    assert abs(got - _rkd_dist_oracle(s, t)) < 1e-10


def test_rkd_angle_matches_exhaustive_oracle():
    rng = np.random.default_rng(9)
    s = rng.normal(size=(4, 3))
    t = rng.normal(size=(4, 3))
    got = rkd_loss(Tensor(s, requires_grad=True), t, "angle").item()
    assert abs(got - _rkd_angle_oracle(s, t)) < 1e-10


@pytest.mark.parametrize("mode", ["dist", "angle"])
def test_rkd_scale_translation_invariance(mode):
    rng = np.random.default_rng(10)
    s = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 3))
    base = rkd_loss(Tensor(s, requires_grad=True), t, mode).item()
    moved = rkd_loss(Tensor(3.7 * s + 1.25, requires_grad=True),
                     0.4 * t - 2.0, mode).item()
    assert abs(base - moved) < 1e-9


@pytest.mark.parametrize("mode", ["dist", "angle"])
def test_rkd_zero_at_fixed_point(mode):
    rng = np.random.default_rng(11)
    s = rng.normal(size=(5, 3))
    assert abs(rkd_loss(Tensor(s, requires_grad=True), s, mode).item()) < 1e-12


def test_rkd_degenerate_batch():
    same = np.ones((3, 2))
    with pytest.raises(ConfigError, match="all embeddings coincide"):
        rkd_loss(Tensor(same, requires_grad=True), same, "dist")


@pytest.mark.parametrize("mode", ["dist", "angle"])
def test_rkd_grad(mode):
    rng = np.random.default_rng(12)
    s = rand_tensor(rng, (4, 3))
    t = rng.normal(size=(4, 3))
    check_grads(lambda x: rkd_loss(x, t, mode), [s], rtol=5e-4)


# -- weight regularizers -------------------------------------------------


def test_l2_closed_form():
    w = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    assert weight_reg([("w", w)], kind="l2").item() == 12.5  # 0.5 * 25


def test_l2_sp_zero_at_anchor():
    store = build_model(MlpSpec((4, 8, 3)), seed=0)
    ref = ParamStore({p: t.detach() for p, t in store.items()})
    val = weight_reg(list(store.items()), ref=ref, kind="l2_sp")
    assert val.item() == 0.0


def test_l2_sp_skips_paths_absent_from_ref():
    w = Tensor(np.array([1.0]), requires_grad=True)
    ref = ParamStore({"other": Tensor([0.0])})
    assert weight_reg([("new", w)], ref=ref, kind="l2_sp").item() == 0.0
    with pytest.raises(ConfigError, match="l2_sp needs a reference store"):
        weight_reg([("w", w)], kind="l2_sp")


def test_l2_sp_grad():
    rng = np.random.default_rng(13)
    w = rand_tensor(rng, (3, 4))
    ref = ParamStore({"w": Tensor(rng.normal(size=(3, 4)))})
    check_grads(lambda t: weight_reg([("w", t)], ref=ref, kind="l2_sp"), [w])


def test_spectral_penalty_diag_oracle():
    w = Tensor(np.diag([5.0, 2.0]), requires_grad=True)
    assert abs(spectral_penalty([("w", w)], iters=100).item() - 25.0) < 1e-8


def test_spectral_penalty_grad():
    # gradient of sigma^2 is 2 sigma u v^T (singular vectors held constant)
    rng = np.random.default_rng(14)
    w = rand_tensor(rng, (4, 3))
    check_grads(lambda t: spectral_penalty([("w", t)], iters=200), [w],
                rtol=1e-3)


def test_bss_svd_oracle():
    rng = np.random.default_rng(15)
    f = rng.normal(size=(6, 4))
    s = np.linalg.svd(f, compute_uv=False)
    got = bss_penalty(Tensor(f, requires_grad=True), k=2).item()
    assert abs(got - (s[-1] ** 2 + s[-2] ** 2)) < 1e-10


def test_bss_full_rank_is_frobenius():
    rng = np.random.default_rng(16)
    f = rng.normal(size=(5, 3))
    got = bss_penalty(Tensor(f, requires_grad=True), k=3).item()
    assert abs(got - float((f**2).sum())) < 1e-10


def test_bss_k_range():
    f = Tensor(np.ones((4, 3)), requires_grad=True)
    with pytest.raises(ConfigError, match=r"k=0 outside \[1,3\]"):
        bss_penalty(f, k=0)
    with pytest.raises(ConfigError, match=r"k=4 outside \[1,3\]"):
        bss_penalty(f, k=4)


def test_bss_svd_failure_is_no_convergence(monkeypatch):
    rng = np.random.default_rng(18)
    tall = Tensor(rng.normal(size=(600, 3)))  # more rows than linalg.svd takes
    assert bss_penalty(tall, k=1).item() > 0

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergence, match="SVD did not converge"):
        bss_penalty(tall, k=1)


def test_bss_grad():
    rng = np.random.default_rng(17)
    f = rand_tensor(rng, (6, 4))
    check_grads(lambda t: bss_penalty(t, k=1), [f], rtol=1e-3)


# -- specs ---------------------------------------------------------------


def test_loss_spec_validation():
    with pytest.raises(ConfigError):
        LossSpec([LossTerm("nope")])
    with pytest.raises(ConfigError):
        LossSpec([LossTerm("ce", weight=-1.0)])
    assert LossSpec([LossTerm("kd_kl")]).needs_teacher()
    assert not LossSpec().needs_teacher()


def test_term_rejects_a_key_its_record_does_not_declare():
    with pytest.raises(ConfigError, match="kd_kl has no key 'temp'; it reads T"):
        LossSpec([LossTerm("kd_kl", hyper=(("temp", 2.0),))])
    with pytest.raises(ConfigError, match="rkd_dist has no key 'pairs'; it reads hook"):
        LossSpec([LossTerm("rkd_dist", hooks=(("feature", "feature"),))])
    with pytest.raises(ConfigError, match="spec_norm has no key 'iter'; it reads iters"):
        RegSpec([LossTerm("spec_norm", hyper=(("iter", 3),))])
    assert LossTerm("kd_ncm").h("tau") == 1.0
    assert LossTerm("kd_ncm", hyper=(("tau", 2.0),)).h("tau") == 2.0


def test_term_values_take_the_type_of_their_record_default():
    with pytest.raises(ConfigError, match="bss k must be int, got 1.5"):
        RegSpec([LossTerm("bss", 0.1, (("k", 1.5),))])
    with pytest.raises(ConfigError, match="spec_norm iters must be int, got 20.0"):
        RegSpec([LossTerm("spec_norm", hyper=(("iters", 20.0),))])
    with pytest.raises(ConfigError, match="kd_ncm hook must be str, got 0"):
        LossSpec([LossTerm("kd_ncm", hyper=(("hook", 0),))])
    LossSpec([LossTerm("kd_kl", hyper=(("T", 2),))])  # a float key also takes an int


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="lbfgs")


def test_an_optimizer_is_one_entry_of_the_table(monkeypatch):
    # a rule registered in OPTIMIZERS is accepted and drives every update,
    # with a state of its own for each tensor that lasts across steps
    counts = []

    def sign_step(cfg, state, w, g, lr):
        state["n"] = state.get("n", 0) + 1
        counts.append(state["n"])
        return w - lr * np.sign(g)

    monkeypatch.setitem(tuner.OPTIMIZERS, "sign", sign_step)
    _, ds, model, cfg = _probe_setup(epochs=1, optimizer="sign")
    before = {p: t.data for p, t in model.params.items()}
    train(model, None, ds, LossSpec(), RegSpec(), cfg)
    n_batches = -(-ds.split("train")[0].shape[0] // cfg.batch_size)
    tensors = model.plan.trainable_original
    assert sorted(counts) == sorted(list(range(1, n_batches + 1)) * len(tensors))
    for p in tensors:
        steps = (before[p] - model.params.get(p).data) / cfg.lr
        assert np.allclose(steps, np.round(steps)) and np.abs(steps).max() > 0, p


def test_train_config_rejects_batch_size_below_one():
    for bs in (0, -4):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=bs)


@pytest.mark.parametrize("key, value", [
    ("epochs", 2.5), ("epochs", True), ("epochs", 0), ("batch_size", 2.5),
    ("batch_size", None), ("seed", -1), ("seed", 1.5)])
def test_train_config_counts_are_checked_integers(key, value):
    kind = "non-negative" if key == "seed" else "positive"
    with pytest.raises(ConfigError, match=f"{key} {value!r} is not a {kind} integer"):
        TrainConfig(**{key: value})


@pytest.mark.parametrize("key, value, message", [
    ("lr", None, "lr must be a real number, got None"),
    ("lr", "0.1", "lr must be a real number, got '0.1'"),
    ("lr", True, "lr must be a real number, got True"),
    ("momentum", None, "momentum must be a real number, got None"),
    ("weight_decay", False, "weight_decay must be a real number, got False"),
    ("optimizer", ["sgd"], r"unknown optimizer \['sgd'\]"),
    ("schedule", ["constant"], r"unknown schedule \['constant'\]")])
def test_train_config_fields_of_the_wrong_type_are_config_errors(key, value, message):
    with pytest.raises(ConfigError, match=message):
        TrainConfig(**{key: value})


def test_train_config_takes_numpy_and_integer_rates():
    cfg = TrainConfig(lr=np.float32(0.5), momentum=0, weight_decay=np.float64(1e-4))
    assert (cfg.lr, cfg.momentum, cfg.weight_decay) == (np.float32(0.5), 0, 1e-4)


def test_train_config_takes_a_numpy_count_as_an_int():
    cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8), seed=np.uint8(0))
    assert (cfg.epochs, cfg.batch_size, cfg.seed) == (3, 8, 0)
    assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed))


def test_penalty_counts_that_are_not_integers_are_config_errors():
    w = Tensor(np.eye(3), requires_grad=True)
    for trainable in ([("w", w)], []):  # checked with no weight to iterate on, too
        with pytest.raises(ConfigError, match="iters 2.5 is not a positive integer"):
            spectral_penalty(trainable, 2.5)
    with pytest.raises(ConfigError, match="k 1.5 is not a non-negative integer"):
        bss_penalty(w, 1.5)
    with pytest.raises(ConfigError, match="k -1 is not a non-negative integer"):
        bss_penalty(w, -1)
    assert bss_penalty(w, np.int64(1)).item() == pytest.approx(1.0)


def test_fsp_hook_shape_checked_when_spec_is_built():
    # fsp pairs are ((student lo, hi), (teacher lo, hi)); flat pairs do not fit
    for hooks in ((("a", "b"),), (), ((("a", "b"), "c"),)):
        with pytest.raises(ConfigError):
            LossSpec([LossTerm("fsp", hooks=hooks)])
    LossSpec([LossTerm("fsp", hooks=((("a", "b"), ("c", "d")),))])


def test_fitnet_hook_shape_checked_when_spec_is_built():
    for hooks in ((), (("a",),), ((("a", "b"), ("c", "d")),)):
        with pytest.raises(ConfigError):
            LossSpec([LossTerm("fitnet", hooks=hooks)])


# -- training loop -------------------------------------------------------


def _probe_setup(seed=0, epochs=3, **cfg_kw):
    spec = MlpSpec((2, 8, 3))
    ds = data_mod.blobs(k=3, d=2, n=120, sigma=0.1, seed=1)
    params = build_model(spec, seed=seed)
    plan = compile_plan(parse_config("(LinearProbe.adapt):"), spec)
    model = apply_plan(spec, params, plan, seed=seed)
    cfg = TrainConfig(lr=0.2, epochs=epochs, batch_size=16, seed=seed, **cfg_kw)
    return spec, ds, model, cfg


def test_train_learns_blobs():
    _, ds, model, cfg = _probe_setup(epochs=20)
    _, history = train(model, None, ds, LossSpec(), RegSpec(), cfg)
    assert history[-1]["val_acc"] >= 0.9
    assert history[0]["ce"] > history[-1]["ce"]


def test_train_deterministic_checkpoints():
    def run():
        _, ds, model, cfg = _probe_setup(epochs=3)
        return train(model, None, ds, LossSpec(), RegSpec(), cfg)

    (c1, h1), (c2, h2) = run(), run()
    assert h1 == h2
    for p in c1.entries:
        assert np.array_equal(c1.entries[p], c2.entries[p])


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_train_checks_every_label_before_setup(monkeypatch, split):
    _, ds, model, cfg = _probe_setup()
    y = ds.y.copy()
    y[ds.splits[split][0]] = 3  # the model has 3 classes
    bad = data_mod.Dataset(ds.x, y, 4, ds.splits)
    monkeypatch.setitem(tuner.TERMS, "ce", tuner.TermKind(
        tuner.TERMS["ce"].evaluate, setup=lambda term, b: pytest.fail("setup ran")))
    with pytest.raises(ConfigError, match=r"labels must be in \[0,3\)"):
        train(model, None, bad, LossSpec(), RegSpec(), cfg)


def test_frozen_paths_bit_identical():
    _, ds, model, cfg = _probe_setup(epochs=3)
    frozen = set(model.spec.param_shapes()) - model.plan.trainable_original
    before = {p: model.params.get(p).data.copy() for p in frozen}
    train(model, None, ds, LossSpec(), RegSpec(), cfg)
    for p, v in before.items():
        assert np.array_equal(model.params.get(p).data, v), p


def test_teacher_params_never_change():
    spec, ds, model, cfg = _probe_setup(epochs=2)
    teacher = Teacher(spec, build_model(spec, seed=9))
    before = {p: t.data.copy() for p, t in teacher.params.items()}
    train(model, teacher, ds, LossSpec([LossTerm("ce"), LossTerm("kd_kl", 0.5)]),
          RegSpec(), cfg)
    for p, v in before.items():
        assert np.array_equal(teacher.params.get(p).data, v)


def test_a_teacher_is_a_frozen_adapted_model_under_the_full_plan():
    spec = MlpSpec((2, 8, 3))
    store = build_model(spec, seed=9)  # grad leaves, as build_model makes them
    teacher = Teacher(spec, store)
    assert isinstance(teacher, AdaptedModel)
    assert teacher.plan == full_plan(spec)
    assert teacher.params.paths() == store.paths()
    assert not any(t.requires_grad for _, t in teacher.params.items())
    assert all(store.get(p).requires_grad for p in store.paths())  # the given store is kept
    logits, _ = teacher.forward(Tensor(np.ones((3, 2))))
    assert logits._node is None


def test_kd_only_fixed_point_keeps_weights():
    # student == teacher and pure kd_kl: gradients vanish, weights hold
    spec = MlpSpec((2, 6, 3))
    ds = data_mod.blobs(k=3, d=2, n=60, sigma=0.1, seed=2)
    params = build_model(spec, seed=4)
    plan = compile_plan(parse_config("(LinearProbe.adapt):"), spec)
    model = apply_plan(spec, params, plan, seed=4)
    teacher = Teacher(spec, build_model(spec, seed=4))
    before = model.params.get("layers[1].weight").data.copy()
    cfg = TrainConfig(lr=0.5, momentum=0.0, epochs=1, batch_size=16, seed=0)
    train(model, teacher, ds, LossSpec([LossTerm("kd_kl", 1.0)]), RegSpec(), cfg)
    after = model.params.get("layers[1].weight").data
    assert np.abs(after - before).max() < 1e-10


def test_teacher_required_for_distillation():
    _, ds, model, cfg = _probe_setup()
    with pytest.raises(ConfigError):
        train(model, None, ds, LossSpec([LossTerm("kd_kl")]), RegSpec(), cfg)


def test_fitnet_projector_created_when_widths_differ():
    spec = MlpSpec((2, 8, 3))
    t_spec = MlpSpec((2, 6, 3))
    ds = data_mod.blobs(k=3, d=2, n=60, sigma=0.1, seed=3)
    params = build_model(spec, seed=0)
    plan = compile_plan(parse_config("(PartialK.adapt|k=2):"), spec)
    model = apply_plan(spec, params, plan, seed=0)
    teacher = Teacher(t_spec, build_model(t_spec, seed=1))
    term = LossTerm("fitnet", 1.0, hooks=(("feature", "feature"),))
    cfg = TrainConfig(lr=0.05, epochs=2, batch_size=16, seed=0)
    _, history = train(model, teacher, ds,
                       LossSpec([LossTerm("ce"), term]), RegSpec(), cfg)
    assert "fitnet" in history[0]
    assert np.isfinite(history[-1]["fitnet"])


def test_a_step_drops_its_tape_before_the_next_forward():
    """When a step's forward starts, nothing holds the previous step's tape:
    the arrays of its logits and hooked features are gone, as they are when
    the epoch's validation pass starts."""
    spec = MlpSpec((2, 8, 3))
    ds = data_mod.blobs(k=3, d=2, n=60, sigma=0.1, seed=3)
    plan = compile_plan(parse_config("(PartialK.adapt|k=2):"), spec)
    model = apply_plan(spec, build_model(spec, seed=0), plan, seed=0)
    teacher = Teacher(spec, build_model(spec, seed=1))
    hint = LossTerm("fitnet", 1.0, hooks=(("layers[0].output", "layers[0].output"),))
    cfg = TrainConfig(lr=0.05, epochs=2, batch_size=16, seed=0)
    forward, taped, alive = model.forward, [], []

    def watched(x, capture=()):
        alive.append(sum(r() is not None for r in taped))
        logits, trace = forward(x, capture)
        if logits._node:  # a training step's; validation records no tape
            taped.extend(weakref.ref(t.data) for t in (logits, *trace.values()))
        return logits, trace

    model.forward = watched
    train(model, teacher, ds, LossSpec([LossTerm("ce"), hint]), RegSpec(), cfg)
    assert len(taped) > 4 and not any(alive)


def test_bss_reg_wired_through_training():
    _, ds, model, cfg = _probe_setup(epochs=2)
    reg = RegSpec([tuner.LossTerm("bss", 0.01, hyper=(("k", 1),))])
    _, history = train(model, None, ds, LossSpec(), reg, cfg)
    assert "bss" in history[0]


def test_adamw_optimizer_runs():
    _, ds, model, cfg = _probe_setup(epochs=5, optimizer="adamw", schedule="cosine")
    _, history = train(model, None, ds, LossSpec(), RegSpec(), cfg)
    assert history[-1]["val_acc"] > 0.5


def test_repeated_term_kind_keeps_each_value_in_history():
    # zero weights: training follows ce alone, so each fitnet value must
    # equal the same term's value in a run that has only that term
    spec = MlpSpec((2, 8, 8, 3))
    ds = data_mod.blobs(k=3, d=2, n=120, sigma=0.1, seed=1)
    plan = compile_plan(parse_config("(PartialK.adapt|k=3):"), spec)
    a, b = (LossTerm("fitnet", 0.0, hooks=((h, h),))
            for h in ("layers[0].output", "layers[1].output"))

    def first_epoch(*fits):
        model = apply_plan(spec, build_model(spec, seed=0), plan, seed=0)
        teacher = Teacher(spec, build_model(spec, seed=9))
        cfg = TrainConfig(lr=0.05, epochs=1, batch_size=16, seed=0)
        _, history = train(model, teacher, ds, LossSpec([LossTerm("ce"), *fits]),
                           RegSpec(), cfg)
        return history[0]

    both = first_epoch(a, b)
    assert [k for k in both if k.startswith("fitnet")] == ["fitnet", "fitnet[1]"]
    assert both["fitnet"] == first_epoch(a)["fitnet"]
    assert both["fitnet[1]"] == first_epoch(b)["fitnet"]
    assert both["fitnet"] != both["fitnet[1]"]


TERM_HOOKS = {
    "fitnet": (("layers[0].output", "layers[0].output"),),
    "fsp": ((("layers[0].input", "layers[0].output"),
             ("layers[0].input", "layers[0].output")),),
}


@pytest.mark.parametrize("kind", sorted(tuner.TERMS))
def test_every_registered_term_trains(kind):
    spec = MlpSpec((2, 8, 3))
    ds = data_mod.blobs(k=3, d=2, n=120, sigma=0.1, seed=1)
    plan = compile_plan(parse_config("(PartialK.adapt|k=2):"), spec)
    model = apply_plan(spec, build_model(spec, seed=0), plan, seed=0)
    term = LossTerm(kind, 0.5, hooks=TERM_HOOKS.get(kind, ()))
    if tuner.TERMS[kind].reg:
        loss, reg = LossSpec(), RegSpec([term])
    else:
        loss, reg = LossSpec([LossTerm("ce"), term]), RegSpec()
    teacher = Teacher(spec, build_model(spec, seed=9)) if loss.needs_teacher() else None
    cfg = TrainConfig(lr=0.05, epochs=1, batch_size=16, seed=0)
    _, history = train(model, teacher, ds, loss, reg, cfg)
    assert np.isfinite(history[0][kind])


# -- trainability lives on the tensor ------------------------------------


def test_plan_on_detached_store_trains_its_head():
    spec = MlpSpec((2, 8, 3))
    ds = data_mod.blobs(k=3, d=2, n=120, sigma=0.1, seed=1)
    frozen = Teacher(spec, build_model(spec, seed=0)).params
    assert not any(t.requires_grad for _, t in frozen.items())
    plan = compile_plan(parse_config("(LinearProbe.adapt):"), spec)
    model = apply_plan(spec, frozen, plan, seed=0)
    train(model, None, ds, LossSpec(), RegSpec(), TrainConfig(lr=0.1, epochs=1, seed=0))
    for p, t in frozen.items():
        moved = not np.array_equal(model.params.get(p).data, t.data)
        assert moved == (p in plan.trainable_original), p


def test_objective_without_trainable_tensors_leaves_weights():
    # a linear probe fed only a feature-matching term reaches no trainable
    # tensor: training stops at the first batch, naming the term, and
    # updates nothing
    spec = MlpSpec((2, 8, 3))
    ds = data_mod.blobs(k=3, d=2, n=60, sigma=0.1, seed=1)
    plan = compile_plan(parse_config("(LinearProbe.adapt):"), spec)
    model = apply_plan(spec, build_model(spec, seed=0), plan, seed=0)
    before = {p: t.data for p, t in model.params.items()}
    loss = LossSpec([LossTerm("fitnet", hooks=(("feature", "feature"),))])
    with pytest.raises(ConfigError, match="fitnet"):
        train(model, Teacher(spec, build_model(spec, seed=9)), ds, loss,
              RegSpec(), TrainConfig(epochs=1, batch_size=16, seed=0))
    for p, t in model.params.items():
        assert np.array_equal(t.data, before[p]), p


def test_an_empty_objective_is_a_config_error_before_any_work():
    _, _, model, cfg = _probe_setup(epochs=1)
    unread = SimpleNamespace()  # reading the data would raise AttributeError
    with pytest.raises(ConfigError, match="the objective has no loss or regularizer term"):
        train(model, None, unread, LossSpec([]), RegSpec(), cfg)


@pytest.mark.parametrize("loss", [LossSpec(), LossSpec([LossTerm("ce"), LossTerm("kd_ncm")])])
def test_an_empty_train_split_is_a_config_error_before_any_setup(loss):
    spec, _, model, cfg = _probe_setup(epochs=2)
    before = {p: t.data for p, t in model.params.items()}
    empty = data_mod.blobs(k=3, d=2, n=1)  # one row a class: every row goes to test
    with pytest.raises(ConfigError, match="train needs a non-empty train split"):
        train(model, Teacher(spec, build_model(spec, seed=9)), empty, loss, RegSpec(), cfg)
    for p, t in model.params.items():
        assert np.array_equal(t.data, before[p]), p


def test_accuracy_of_an_empty_split_is_zero():
    spec = MlpSpec((2, 8, 3))
    plan = compile_plan(parse_config("(LinearProbe.adapt):"), spec)
    model = apply_plan(spec, build_model(spec, seed=0), plan)
    assert tuner.accuracy(model, np.zeros((0, 2)), np.zeros(0, dtype=int)) == 0.0
