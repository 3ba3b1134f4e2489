#!/usr/bin/env python3
"""Loss-barrier demo: naive vs. permutation-aligned weight averaging.

Trains two independently initialized MLPs on the two-moons task, permutes
one of them, and compares the validation loss of the midpoint checkpoint
before and after alignment (coordinate-descent weight matching and
entropic OT), with and without per-unit activation repair.
"""

import argparse

import numpy as np

from zjkit import cli, data as data_mod, errors, merger
from zjkit.architect import apply_plan
from zjkit.checkpoint import to_params
from zjkit.models import MlpSpec, build_model, forward
from zjkit.tensor import Tensor
from zjkit.tuner import LossSpec, RegSpec, TrainConfig, cross_entropy, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=15)
    args = ap.parse_args()

    spec = MlpSpec((2, 6, 6, 2))
    ds = data_mod.moons(n=240, noise=0.1, seed=0)
    x_val, y_val = ds.split("val")

    def show(label, ckpt, note=""):  # one forward gives the loss and the accuracy
        logits, _ = forward(spec, to_params(spec, ckpt), Tensor(x_val))
        acc = float((np.argmax(logits.data, axis=1) == y_val).mean())
        print(f"{label}loss={cross_entropy(logits, y_val).item():.4f} acc={acc:.3f}{note}")

    ckpts = []
    for seed in (args.seed, args.seed + 1):
        model = apply_plan(spec, build_model(spec, seed=seed),
                           cli._plan({}, spec), seed=seed)
        cfg = TrainConfig(lr=0.3, epochs=args.epochs, batch_size=16, seed=seed)
        ckpt, _ = train(model, None, ds, LossSpec(), RegSpec(), cfg)
        ckpts.append(ckpt)
        show(f"endpoint seed={seed}: ", ckpt)

    a, b = ckpts
    show("naive midpoint:      ", merger.uniform_soup([a, b]))

    perm_wm, history = merger.weight_match(a, b)
    b_wm = merger.permute_model(b, perm_wm)
    aligned = merger.uniform_soup([a, b_wm])
    show("weight-match mid:    ", aligned, f"  (objective {history[0]:.3f} -> "
         f"{history[-1]:.3f} in {len(history)} steps)")

    try:
        show("ot-fusion mid:       ", merger.ot_fuse(a, b, eps=0.05, iters=3000)[0])
    except errors.NoConvergence as exc:
        print(f"ot-fusion mid:       skipped ({exc})")

    calib = ds.split("train")[0][:256]
    show("aligned + repair:    ", merger.repair(aligned, (a, b_wm, 0.5), spec, calib))

    for i, stats in enumerate(merger.permutation_summary(perm_wm)):
        print(f"hidden layer {i}: {stats}")


if __name__ == "__main__":
    main()
