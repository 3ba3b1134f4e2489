"""Fisher estimate: the per-sample backward of each sample block against the
per-sample loop."""

import tracemalloc

import numpy as np
import pytest

from zjkit import data as data_mod
from zjkit import merger
from zjkit import tensor as T
from zjkit.checkpoint import Checkpoint, from_params, to_params
from zjkit.errors import ConfigError, ShapeMismatch, SpecMismatch
from zjkit.merger import FisherDiag, fisher_estimate, fisher_merge
from zjkit.models import MiniVitSpec, MlpSpec, ParamStore, build_model, forward
from zjkit.tensor import Tensor

RELU = MlpSpec((4, 16, 16, 3))
GELU = MlpSpec((4, 16, 16, 3), activation="gelu")
VIT = MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=16, classes=2, seq_len=4, input_dim=4)


def fisher_loop(spec, ckpt, data, n_samples, seed):
    """Reference estimate: one batch-1 forward and backward per drawn sample,
    its label drawn from the model's own predictions.

    Returns ``(entries, indices, labels)``.
    """
    params = ParamStore({p: Tensor(t.data, requires_grad=True)  # to_params leaves are frozen
                         for p, t in to_params(spec, ckpt).items()})
    x_train, _ = data.split("train")
    rng = np.random.default_rng(seed)
    acc = {p: np.zeros(t.shape) for p, t in params.items()}
    indices, labels = [], []
    for _ in range(n_samples):
        i = int(rng.integers(0, x_train.shape[0]))
        logits, _ = forward(spec, params, Tensor(x_train[i:i + 1]))
        probs = np.exp(logits.data - logits.data.max())
        probs = (probs / probs.sum()).reshape(-1)
        y = int(rng.choice(probs.size, p=probs))
        indices.append(i)
        labels.append(y)
        logp = T.log_softmax(logits)[(np.array([0]), np.array([y]))].sum()
        gmap = T.backward(logp)
        for p, t in params.items():
            g = gmap.get(t.uid)
            if g is not None:
                acc[p] += g**2
    return {p: a / n_samples for p, a in acc.items()}, indices, labels


def _case(spec, n):
    if spec.kind == "mlp":
        ds = data_mod.blobs(k=3, d=4, n=n, sigma=1.0, seed=1)
    else:
        ds = data_mod.token_xor(n=n, seq=4, d=4, sigma=0.3, seed=1)
    return from_params(spec, build_model(spec, seed=2)), ds


# (rows in the dataset, draws): 140 train rows; one draw; 8 rows drawn 40 times
DRAWS = {"24_draws": (200, 24), "one_draw": (200, 1), "repeated_rows": (12, 40)}


# the ids also name the labels' source, the model's own predictions
@pytest.mark.parametrize("draws", sorted(DRAWS), ids=[f"sampled-{d}" for d in sorted(DRAWS)])
@pytest.mark.parametrize("spec", [RELU, GELU, VIT], ids=["relu_mlp", "gelu_mlp", "mini_vit"])
def test_batched_fisher_matches_loop(spec, draws):
    n_rows, n_samples = DRAWS[draws]
    ckpt, ds = _case(spec, n_rows)
    want, indices, labels = fisher_loop(spec, ckpt, ds, n_samples, 5)
    got = fisher_estimate(spec, ckpt, ds, n_samples=n_samples, seed=5)
    assert got.indices.tolist() == indices
    assert got.labels.tolist() == labels
    if draws == "repeated_rows":
        assert len(set(indices)) < len(indices)
    assert set(got.entries) == set(want)
    for p, w in want.items():
        g = got.entries[p]
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), p
        # fisher_merge's fallback keys on exact zeros
        assert np.array_equal(g == 0, w == 0), p


def test_relu_fisher_has_exact_zeros():
    # the zero-pattern check above sees zeros: dead relu units
    ckpt, ds = _case(RELU, 200)
    f = fisher_estimate(RELU, ckpt, ds, n_samples=24, seed=5)
    assert any((a == 0).any() for a in f.entries.values())


def test_fisher_rejects_empty_train_split():
    ckpt, ds = _case(RELU, 60)
    empty = data_mod.Dataset(ds.x, ds.y, ds.n_classes,
                             {**ds.splits, "train": np.array([], dtype=np.int64)})
    with pytest.raises(ConfigError, match="needs a non-empty train split"):
        fisher_estimate(RELU, ckpt, empty, n_samples=4)


def test_fisher_rejects_entries_outside_the_spec():
    ckpt, ds = _case(RELU, 60)
    adapted = Checkpoint(ckpt.kind, ckpt.digest,
                         {**ckpt.entries, "lora[0].a": np.zeros((2, 4), np.float32)})
    with pytest.raises(SpecMismatch, match=r"lora\[0\]\.a"):
        fisher_estimate(RELU, adapted, ds, n_samples=4)


def test_fisher_merge_rejects_a_fisher_missing_a_path():
    ckpt, _ = _case(RELU, 60)
    full = FisherDiag({p: np.ones(a.shape) for p, a in ckpt.entries.items()})
    partial = FisherDiag({p: a for p, a in full.entries.items() if p != "layers[0].bias"})
    with pytest.raises(ShapeMismatch, match=r"layers\[0\]\.bias"):
        fisher_merge([ckpt, ckpt], [full, partial])


def _block_sizes(monkeypatch):
    """The sample count of each forward fisher_estimate runs, as it runs."""
    sizes, real = [], merger.forward

    def spy(spec, params, x, *args):
        sizes.append(x.shape[0])
        return real(spec, params, x, *args)

    monkeypatch.setattr(merger, "forward", spy)
    return sizes


# (input-row budget, block sizes) for 24 draws: the MLP takes a row per
# sample, the mini-ViT one per token (4)
@pytest.mark.parametrize("spec, budgets", [
    (RELU, [(10, [8, 8, 8]), (7, [6, 6, 6, 6]), (1, [1] * 24)]),
    (VIT, [(60, [12, 12]), (20, [5] * 4 + [4]), (3, [1] * 24)]),
], ids=["relu_mlp", "mini_vit"])
def test_fisher_in_sample_blocks_matches_loop(spec, budgets, monkeypatch):
    ckpt, ds = _case(spec, 200)
    want, indices, labels = fisher_loop(spec, ckpt, ds, 24, 5)
    sizes = _block_sizes(monkeypatch)
    for budget, blocks in budgets:
        monkeypatch.setattr(merger, "_FISHER_BLOCK", budget)
        sizes.clear()
        got = fisher_estimate(spec, ckpt, ds, n_samples=24, seed=5)
        assert sizes == blocks, budget
        assert got.indices.tolist() == indices
        assert got.labels.tolist() == labels
        assert set(got.entries) == set(want)
        for p, w in want.items():
            g = got.entries[p]
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), (budget, p)
            assert np.array_equal(g == 0, w == 0), (budget, p)


BENCH_VIT = MiniVitSpec(dim=32, blocks=4, heads=4, mlp_dim=64, classes=4, seq_len=8,
                        input_dim=8)


def _bench_vit_case():
    ds = data_mod.token_xor(n=200, seq=8, d=8, sigma=0.3, seed=1)
    return from_params(BENCH_VIT, build_model(BENCH_VIT, seed=2)), ds


def test_the_bench_vit_draws_run_in_three_blocks(monkeypatch):
    # 64 samples of 8 tokens against 192 rows: ceil(512 / 192) = 3 blocks
    ckpt, ds = _bench_vit_case()
    sizes = _block_sizes(monkeypatch)
    fisher_estimate(BENCH_VIT, ckpt, ds, n_samples=64, seed=0)
    assert sizes == [22, 22, 20]


def _fisher_peak(ckpt, ds, n_samples):
    tracemalloc.start()
    try:
        fisher_estimate(BENCH_VIT, ckpt, ds, n_samples=n_samples, seed=0)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_fisher_memory_does_not_grow_with_the_sample_count():
    """At the bench mini-ViT, 256 draws peak within 10% of 64 draws: 4.5
    and 4.2 MiB. With one tape for all the samples they peaked at 32.1 and
    9.6 MiB, and with a block's tape kept through the next block's forward
    at 6.2 and 5.8 MiB."""
    ckpt, ds = _bench_vit_case()
    small, large = _fisher_peak(ckpt, ds, 64), _fisher_peak(ckpt, ds, 256)
    assert large <= 1.1 * small, (small, large)
    assert small < 5, small
