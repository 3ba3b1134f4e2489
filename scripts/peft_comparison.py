#!/usr/bin/env python3
"""Compare structure-adaptation methods on a small token task.

Trains the same frozen mini transformer under each adaptation config and
reports trainable parameter counts next to final validation accuracy.
Deterministic: fixed seeds throughout.
"""

import argparse
import time

import numpy as np

from zjkit import data as data_mod
from zjkit.architect import apply_plan, compile_plan
from zjkit.dsl import parse_config
from zjkit.models import MiniVitSpec, build_model
from zjkit.tuner import LossSpec, RegSpec, TrainConfig, train

CONFIGS = {
    "linear_probe": "(LinearProbe.adapt):",
    "bitfit": "(BitFit.adapt):",
    "partial_k1": "(PartialK.adapt|k=1):",
    "ssf": "(SSF.adapt):->(blocks[*].attn.proj){out}->(blocks[*].mlp.fc2){out}",
    "adapter": "(Adapter.adapt|dim=4):->(blocks[*]){in}",
    "prefix": "(Prefix.adapt|tokens=2):->(blocks[*]){in}",
    "lora": ("(LoRA.adapt|r=8,alpha=8):->(patch_embed){inout}"
             "->(blocks[*].attn.qkv){inout}->(blocks[*].attn.proj){inout}"
             "->(blocks[*].mlp.fc1){inout}->(blocks[*].mlp.fc2){inout}"),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=16, classes=2,
                       seq_len=2, input_dim=2)
    shapes = spec.param_shapes()
    total = sum(int(np.prod(s)) for s in shapes.values())
    ds = data_mod.token_xor(n=512, seq=2, d=2, sigma=0.1, seed=args.seed)
    print(f"model: {spec.canonical()}  ({total} parameters)")
    print(f"{'method':<14} {'trainable':>10} {'val_acc':>8} {'sec':>6}")

    for name, text in CONFIGS.items():
        plan = compile_plan(parse_config(text), spec)
        model = apply_plan(spec, build_model(spec, seed=args.seed), plan,
                           seed=args.seed + 1)
        n_train = 0
        for path, t, _ in model.trainable():
            mask = model.grad_mask(path)
            n_train += int(mask.sum()) if mask is not None else t.data.size
        cfg = TrainConfig(optimizer="adamw", lr=0.02, epochs=args.epochs,
                          batch_size=32, seed=args.seed, schedule="cosine")
        t0 = time.monotonic()
        _, hist = train(model, None, ds, LossSpec(), RegSpec(), cfg)
        dt = time.monotonic() - t0
        print(f"{name:<14} {n_train:>10} {hist[-1]['val_acc']:>8.3f} {dt:>6.1f}")


if __name__ == "__main__":
    main()
