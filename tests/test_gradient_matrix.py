"""Every adapted model's gradient, end to end, against central differences.

The cases come from the registries, so a newly registered adaptation
method, model family or teacher term is covered here with no further edit
(a family needs its example in ``EXAMPLES``, a pairs term its hooks in
``PAIRS``): each ``architect.METHODS`` entry on each ``models.SPECS``
family it has a site in, with every site it accepts, and each teacher term
of ``tuner.TERMS`` once on the mini-ViT, against a ``tuner.Teacher``.

Each case moves every tensor off its initial value (a zero LoRA ``b`` or
adapter ``up`` hides the gradient of the other factor, and a zero bias puts
a ReLU at its kink for a sample whose inputs to it all die), takes the
objective over 6 samples, and compares ``tensor.backward`` with central
differences on sampled coordinates of every tensor the plan trains. The
method cases also check ``backward(per_sample_sq=True)`` against a loop of
one-sample backwards; Prefix has no per-sample rule, so its case expects
``ConfigError`` there.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from zjkit import data as data_mod
from zjkit import tensor as T
from zjkit import tuner
from zjkit.architect import METHODS, AdaptedModel, apply_plan, compile_plan
from zjkit.dsl import parse_config
from zjkit.errors import ConfigError
from zjkit.models import SPECS, MiniVitSpec, MlpSpec, ParamStore, build_model
from zjkit.tensor import Tensor

N, COORDS, H, RTOL = 6, 12, 1e-6, 1e-5

#: family -> a small example spec and the shape of one sample
EXAMPLES = {
    "mlp": (MlpSpec((3, 6, 5, 3)), (3,)),
    "mini_vit": (MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=12, classes=2, seq_len=2,
                             input_dim=2), (2, 2)),
}
NO_PER_SAMPLE_RULE = {"prefix"}  # attention's prefix key and value
#: pairs term -> its hooks on the example mini-ViT
PAIRS = {"fitnet": (("blocks[1].output", "blocks[1].output"),),
         "fsp": ((("blocks[0].output", "blocks[1].output"),) * 2,)}
TOKEN_HOOK = "blocks[0].output"  # a term's ``hook``, so it reads a token trace


def test_every_family_has_an_example():
    assert set(EXAMPLES) == set(SPECS)


def _sites(method, spec):
    return {} if method.hook_free else method.sites(spec, spec.param_shapes())


def _adapted(key, spec, seed):
    """``key``'s plan at every site it accepts, every tensor moved off its
    initial value."""
    method = METHODS[key]
    hooks = "".join(f"->({s}){{inout}}" for s in sorted(_sites(method, spec)))
    plan = compile_plan(parse_config(f"({method.name}.adapt):{hooks}"), spec)
    model = apply_plan(spec, build_model(spec, seed=seed), plan, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    base, extras = (ParamStore({p: Tensor(t.data + rng.normal(0.0, 0.3, t.shape))
                                for p, t in store.items()})
                    for store in (model.base, model.extras))
    return AdaptedModel(spec, base, plan, extras)


def _check_against_differences(model, objective):
    """``backward`` of ``objective()`` against central differences on up to
    ``COORDS`` coordinates of each tensor ``model`` trains."""
    tuner._set_leaves(model, True)
    try:
        grads = T.backward(objective())
        ana = {p: grads.get(t.uid, np.zeros(t.shape)) for p, t, _ in model.trainable()}
    finally:
        tuner._set_leaves(model, False)
    rng = np.random.default_rng(0)
    for path, t, store in model.trainable():
        coords = rng.choice(t.data.size, min(COORDS, t.data.size), replace=False)
        num = np.zeros(len(coords))
        for j, i in enumerate(coords):
            for sign in (1, -1):
                bumped = t.data.copy()
                bumped.flat[i] += sign * H
                store.set(path, Tensor(bumped))
                num[j] += sign * objective().item() / (2 * H)
            store.set(path, t)
        got = ana[path].reshape(-1)[coords]
        scale = max(np.abs(num).max(), np.abs(got).max(), 1e-8)
        err = np.abs(got - num).max() / scale
        assert err < RTOL, f"{path}: relative error {err:.2e}"


METHOD_CASES = [(key, family) for key in sorted(METHODS) for family in sorted(EXAMPLES)
                if METHODS[key].hook_free or _sites(METHODS[key], EXAMPLES[family][0])]


@pytest.mark.parametrize("key, family", METHOD_CASES)
def test_an_adapted_models_gradient_matches_differences(key, family):
    spec, sample = EXAMPLES[family]
    model = _adapted(key, spec, seed=3)
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(N, *sample)), rng.integers(0, spec.n_classes, N)

    def objective(lo=0, hi=N):  # cross-entropy summed over the samples
        return tuner.cross_entropy(model.forward(Tensor(x[lo:hi]))[0], y[lo:hi]).scale(hi - lo)

    _check_against_differences(model, objective)

    tuner._set_leaves(model, True)
    try:
        leaves = {p: t.uid for p, t, _ in model.trainable()}
        if key in NO_PER_SAMPLE_RULE:
            with pytest.raises(ConfigError, match="no per-sample rule"):
                T.backward(objective(), per_sample_sq=True)
            return
        got = T.backward(objective(), per_sample_sq=True)
        want = {p: 0.0 for p in leaves}
        for i in range(N):
            grads = T.backward(objective(i, i + 1))
            for p, uid in leaves.items():
                want[p] = want[p] + grads.get(uid, 0.0) ** 2
    finally:
        tuner._set_leaves(model, False)
    for p, uid in leaves.items():  # an entry whose gradient is 0 up to rounding gets a floor
        np.testing.assert_allclose(got.get(uid, 0.0), want[p], rtol=1e-10,
                                   atol=1e-14 * np.max(want[p]), err_msg=p)


TEACHER_TERMS = sorted(k for k, kind in tuner.TERMS.items() if kind.teacher)


@pytest.mark.parametrize("kind", TEACHER_TERMS)
def test_a_teacher_terms_gradient_matches_differences(kind):
    spec = EXAMPLES["mini_vit"][0]
    model = _adapted("bitfit", spec, seed=5)
    teacher = tuner.Teacher(spec, build_model(spec, seed=9))
    ds = data_mod.token_xor(n=40, seq=spec.seq_len, d=spec.input_dim, seed=1)
    defaults = tuner.TERMS[kind].defaults
    term = tuner.LossTerm(kind, hyper=(("hook", TOKEN_HOOK),) if "hook" in defaults else (),
                          hooks=PAIRS[kind] if "pairs" in defaults else ())
    s_hooks, t_hooks = tuner.TERMS[kind].hooks(term)
    batch = SimpleNamespace(projectors={}, ncm_means={}, model=model, teacher=teacher,
                            data=ds, rng=np.random.default_rng(0))
    tuner.TERMS[kind].setup(term, batch)
    assert not batch.projectors  # student and teacher share a spec
    x, batch.labels = (a[:N] for a in ds.split("train"))
    _, batch.t_trace = teacher.forward(Tensor(x), t_hooks)

    def objective():
        batch.logits, batch.s_trace = model.forward(Tensor(x), s_hooks)
        return tuner.TERMS[kind].evaluate(term, batch)

    _check_against_differences(model, objective)
