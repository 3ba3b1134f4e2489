#!/usr/bin/env python3
"""SHA-256 digests of fixed-seed zjkit outputs, one line per output.

    PYTHONPATH=src python scripts/output_digests.py [--kernel NAME] > digests.txt

Covers ``tuner.train`` (checkpoint and history) for each loss and
regularizer kind alone and all together under SGD and AdamW, weight decay
under SGD without momentum and under AdamW with a cosine schedule, a mini-ViT
with ``fitnet`` and ``rkd_dist`` on block hooks, ``fitnet`` pairs whose
widths differ (so projectors are drawn) beside ``kd_ncm``, one LoRA
instance shared by three sites under a half-weight ``ce`` and ``l2``, each
adaptation method on both model families (plus ``merge_reparam`` where it
applies), each merge recipe, weight matching and OT fusion on a
three-hidden-layer MLP, and the plan -> train -> merge -> eval CLI
pipeline of acceptance criterion 10, plus a greedy soup and a two-checkpoint
ensemble in each ``merger.ensemble`` mode through the CLI, and each
``merger.kind`` through ``zjkit merge`` (the merged checkpoint and its
``merge_report.json``), Fisher also at its default sample count, and a CLI
``l2_sp`` run toward ``pretrained_weights``. Run it
on two trees and ``diff`` the outputs to see which outputs a change moves.

OpenBLAS picks its matmul kernel by CPU, and the kernels round differently,
so the script pins the Haswell kernel before numpy loads: it runs on every
AVX2 machine, and Zen's kernel prints the same lines. ``--kernel`` pins
another ``OPENBLAS_CORETYPE`` name instead, to see which lines a kernel
moves: ``Prescott`` runs on every x86-64 machine (OpenBLAS reports it as
Katmai), and a name OpenBLAS does not know leaves it to pick by CPU. The
first line names the BLAS, its version and the kernel it runs ("kernel
unknown" for a BLAS that does not report one). The last line digests the
lines between.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import tempfile

KERNEL = "Haswell"
if __name__ == "__main__":  # before numpy loads: OpenBLAS reads the kernel once, then
    parser = argparse.ArgumentParser(description="SHA-256 digests of fixed-seed zjkit outputs")
    parser.add_argument("--kernel", default=KERNEL, help="OpenBLAS kernel to pin")
    KERNEL = parser.parse_args().kernel
os.environ["OPENBLAS_CORETYPE"] = KERNEL

import numpy as np

from zjkit import checkpoint as ckpt_mod
from zjkit import cli, merger
from zjkit import data as data_mod
from zjkit.architect import apply_plan, compile_plan, merge_reparam
from zjkit.dsl import parse_config
from zjkit.errors import ZjError
from zjkit.models import MiniVitSpec, MlpSpec, build_model, forward
from zjkit.tensor import Tensor
from zjkit.tuner import LossSpec, LossTerm, RegSpec, Teacher, TrainConfig, train

MLP = MlpSpec((2, 8, 8, 3))
MLP_GELU = MlpSpec((2, 8, 8, 3), activation="gelu")
VIT = MiniVitSpec(dim=8, blocks=2, heads=2, mlp_dim=16, classes=2, seq_len=2,
                  input_dim=2)

MLP_METHODS = {
    "linear_probe": "(LinearProbe.adapt):",
    "partial_k1": "(PartialK.adapt|k=1):",
    "partial_k9": "(PartialK.adapt|k=9):",
    "bitfit": "(BitFit.adapt):",
    "lora": "(LoRA.adapt|r=2,alpha=4):->(layers[*]){inout}",
    "ssf": "(SSF.adapt):->(layers[*]){out}",
    "adapter": "(Adapter.adapt|dim=2):->(layers[0:2]){in}",
}
VIT_METHODS = {
    "linear_probe": "(LinearProbe.adapt):",
    "partial_k1": "(PartialK.adapt|k=1):",
    "bitfit": "(BitFit.adapt):",
    "lora": ("(LoRA.adapt|r=4,alpha=8):->(patch_embed){inout}"
             "->(blocks[*].attn.qkv){inout}->(blocks[*].attn.proj){inout}"
             "->(blocks[*].mlp.fc1){inout}->(blocks[*].mlp.fc2){inout}"),
    "ssf": "(SSF.adapt):->(blocks[*].attn.proj){out}->(blocks[*].mlp.fc2){out}",
    "adapter": "(Adapter.adapt|dim=4):->(blocks[*]){in}",
    "prefix": "(Prefix.adapt|tokens=2):->(blocks[*]){in}",
}

_H0, _H1 = "layers[0].output", "layers[1].output"
_B0, _B1 = "blocks[0].output", "blocks[1].output"
TERMS = {
    "ce": [LossTerm("ce")],
    "kd_kl": [LossTerm("kd_kl", hyper=(("T", 2.0),))],
    "kd_ncm": [LossTerm("kd_ncm")],
    "fitnet": [LossTerm("fitnet", hooks=((_H0, _H0),))],
    "fitnet_x2": [LossTerm("fitnet", hooks=((_H0, _H0),)),
                  LossTerm("fitnet", 0.5, hooks=((_H1, _H1),))],
    "fsp": [LossTerm("fsp", hooks=(((_H0, _H1), (_H0, _H1)),))],
    "rkd_dist": [LossTerm("ce"), LossTerm("rkd_dist")],
    "rkd_angle": [LossTerm("ce"), LossTerm("rkd_angle")],
}
REGS = {
    "l2": LossTerm("l2", 0.01),
    "l2_sp": LossTerm("l2_sp", 0.01),
    "spec_norm": LossTerm("spec_norm", 0.01),
    "bss": LossTerm("bss", 0.01, (("k", 1),)),
}

PIPE_CFG = """\
model.kind=mlp
model.widths=2,8,3
data.source=blobs(k=3,d=2,n=120,sigma=0.1)
architect.config='(LoRA.adapt):->(layers[0]){inout}'
tuner.epochs=4
tuner.lr=0.1
tuner.batch_size=16
seed=7
"""

# two full fine-tunes (seeds 7 and 8) that every merge recipe takes; the
# default merger.eps is too small for a net this size
RECIPE_CFG = """\
model.kind=mlp
model.widths=2,8,8,3
data.source=blobs(k=3,d=2,n=120,sigma=0.3)
tuner.epochs=3
tuner.batch_size=16
merger.samples=16
merger.eps=0.1
seed=7
"""
RECIPES = ("uniform_soup", "greedy_soup", "wise_ft", "fisher", "ot_fusion", "git_rebasin",
           "repair")


def sha(data):
    return hashlib.sha256(data).hexdigest()


def ckpt_digest(ckpt, tmp):
    path = os.path.join(tmp, "c.zjk1")
    ckpt_mod.save_checkpoint(ckpt, path)
    with open(path, "rb") as fh:
        return sha(fh.read())


def history_digest(history):
    return sha("".join(json.dumps(e, sort_keys=True) + "\n" for e in history).encode())


def array_digest(arrays):
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def _train(spec, text, ds, loss, reg, optimizer, teacher=None, seed=0, epochs=3, **opt):
    model = apply_plan(spec, build_model(spec, seed=seed),
                       compile_plan(parse_config(text), spec), seed=seed + 1)
    cfg = TrainConfig(optimizer=optimizer, lr=0.05 if optimizer == "sgd" else 0.01,
                      epochs=epochs, batch_size=16, seed=seed, **opt)
    ckpt, history = train(model, teacher, ds, loss, reg, cfg)
    return model, ckpt, history


def tuner_digests(out, tmp):
    ds = data_mod.blobs(k=3, d=2, n=120, sigma=0.3, seed=0)
    teacher = Teacher(MLP, build_model(MLP, seed=5))
    full = "(PartialK.adapt|k=9):"
    runs = {**{k: (LossSpec(list(v)), RegSpec()) for k, v in TERMS.items()},
            **{k: (LossSpec(), RegSpec([v])) for k, v in REGS.items()},
            "all": (LossSpec([t for v in TERMS.values() for t in v]),
                    RegSpec(list(REGS.values())))}
    for optimizer in ("sgd", "adamw"):
        for name, (loss, reg) in runs.items():
            _, ckpt, hist = _train(MLP, full, ds, loss, reg, optimizer, teacher)
            out[f"tuner/{optimizer}/{name}/final.zjk1"] = ckpt_digest(ckpt, tmp)
            out[f"tuner/{optimizer}/{name}/history"] = history_digest(hist)
        _, ckpt, hist = _train(MLP_GELU, full, ds, LossSpec(), RegSpec(), optimizer)
        out[f"tuner/{optimizer}/gelu_mlp/final.zjk1"] = ckpt_digest(ckpt, tmp)
        out[f"tuner/{optimizer}/gelu_mlp/history"] = history_digest(hist)
    # weight decay on each update rule: without momentum, and under a cosine schedule
    for optimizer, name, opt in (("sgd", "decay_no_momentum", {"momentum": 0.0}),
                                 ("adamw", "decay_cosine", {"schedule": "cosine"})):
        _, ckpt, hist = _train(MLP, full, ds, LossSpec(), RegSpec(), optimizer,
                               weight_decay=0.01, **opt)
        out[f"tuner/{optimizer}/{name}/final.zjk1"] = ckpt_digest(ckpt, tmp)
        out[f"tuner/{optimizer}/{name}/history"] = history_digest(hist)
    # [n, s, d] token features on both feature terms
    loss = LossSpec([LossTerm("ce"), LossTerm("fitnet", hooks=((_B1, _B1),)),
                     LossTerm("rkd_dist", hyper=(("hook", _B0),))])
    _, ckpt, hist = _train(VIT, full, data_mod.token_xor(n=128, seq=2, d=2, sigma=0.1),
                           loss, RegSpec(), "adamw", Teacher(VIT, build_model(VIT, seed=5)))
    out["tuner/adamw/vit_block_hooks/final.zjk1"] = ckpt_digest(ckpt, tmp)
    out["tuner/adamw/vit_block_hooks/history"] = history_digest(hist)
    # fitnet pairs of unequal widths, so each draws a projector from the run's rng
    spec = MlpSpec((2, 8, 6, 3))
    loss = LossSpec([LossTerm("ce"), LossTerm("fitnet", hooks=((_H0, _H1),)),
                     LossTerm("kd_ncm"), LossTerm("fitnet", 0.5, hooks=((_H1, _H0),))])
    _, ckpt, hist = _train(spec, MLP_METHODS["lora"], ds, loss, RegSpec(), "adamw",
                           Teacher(spec, build_model(spec, seed=5)))
    out["tuner/adamw/fitnet_projectors/final.zjk1"] = ckpt_digest(ckpt, tmp)
    out["tuner/adamw/fitnet_projectors/history"] = history_digest(hist)
    # one LoRA instance at three sites, so its factors sum three gradient
    # contributions each; a scaled loss term beside a regularizer
    spec = MlpSpec((2, 8, 8, 8, 8, 3))
    _, ckpt, hist = _train(spec, "(LoRA.adapt|r=2,alpha=4):->(layers[1:4]){inout0}", ds,
                           LossSpec([LossTerm("ce", 0.5)]), RegSpec([REGS["l2"]]), "adamw")
    out["tuner/adamw/lora_shared/final.zjk1"] = ckpt_digest(ckpt, tmp)
    out["tuner/adamw/lora_shared/history"] = history_digest(hist)


def adaptation_digests(out, tmp):
    families = (("mlp", MLP, MLP_METHODS, data_mod.blobs(k=3, d=2, n=120, sigma=0.3)),
                ("mini_vit", VIT, VIT_METHODS,
                 data_mod.token_xor(n=128, seq=2, d=2, sigma=0.1)))
    for fam, spec, methods, ds in families:
        for name, text in methods.items():
            model, ckpt, hist = _train(spec, text, ds, LossSpec(), RegSpec(), "adamw")
            key = f"adapt/{fam}/{name}"
            out[f"{key}/final.zjk1"] = ckpt_digest(ckpt, tmp)
            out[f"{key}/history"] = history_digest(hist)
            try:
                out[f"{key}/merge_reparam.zjk1"] = ckpt_digest(merge_reparam(model), tmp)
            except ZjError:
                pass


def _fit(spec, params, ds, seed):
    model = apply_plan(spec, params, compile_plan(parse_config("(PartialK.adapt|k=9):"),
                                                  spec), seed=seed)
    ckpt, _ = train(model, None, ds, LossSpec(), RegSpec(),
                    TrainConfig(lr=0.05, epochs=2, batch_size=16, seed=seed))
    return ckpt


def merge_digests(out, tmp):
    spec = MlpSpec((4, 16, 16, 3))
    ds = data_mod.blobs(k=3, d=4, n=240, sigma=0.5, seed=1)
    base = _fit(spec, build_model(spec, seed=0), ds, 0)
    ft_a = _fit(spec, ckpt_mod.to_params(spec, base), ds, 1)
    ft_b = _fit(spec, ckpt_mod.to_params(spec, base), ds, 2)
    indep = _fit(spec, build_model(spec, seed=3), ds, 3)
    x_val, y_val = ds.split("val")

    def evaluate(ckpt, vd):
        logits, _ = forward(spec, ckpt_mod.to_params(spec, ckpt), Tensor(vd[0]))
        return float((np.argmax(logits.data, axis=1) == vd[1]).mean())

    perm, objective = merger.weight_match(ft_a, indep)
    aligned = merger.permute_model(indep, perm)
    known = merger.Permutation([np.random.default_rng(4).permutation(16) for _ in range(2)])
    fused, _ = merger.ot_fuse(ft_a, merger.permute_model(ft_a, known))
    interp = merger.wise_ft(aligned, ft_a, 0.5)
    soup, ingredients = merger.greedy_soup([ft_a, ft_b, base, aligned], (x_val, y_val),
                                           evaluate)
    fishers = [merger.fisher_estimate(spec, c, ds, n_samples=16, seed=i)
               for i, c in enumerate((ft_a, ft_b))]
    results = {
        "uniform_soup": merger.uniform_soup([ft_a, ft_b]),
        "greedy_soup": soup,
        "wise_ft": merger.wise_ft(base, ft_a, 0.3),
        "fisher_merge": merger.fisher_merge([ft_a, ft_b], fishers),
        "weight_match_soup": merger.uniform_soup([ft_a, aligned]),
        "ot_fuse": fused,
        "repair": merger.repair(interp, (ft_a, aligned, 0.5), spec, ds.split("train")[0]),
    }
    for name, ckpt in results.items():
        out[f"merge/mlp/{name}.zjk1"] = ckpt_digest(ckpt, tmp)
    out["merge/mlp/weight_match_objective"] = sha(json.dumps(
        [objective, [m.tolist() for m in perm.maps], ingredients]).encode())
    out["merge/mlp/fisher"] = array_digest({f"{i}/{p}": a for i, f in enumerate(fishers)
                                            for p, a in f.entries.items()})
    models_ = [apply_plan(spec, ckpt_mod.to_params(spec, c),
                          compile_plan(parse_config("(LinearProbe.adapt):"), spec))
               for c in (ft_a, ft_b, base)]
    out["merge/mlp/ensemble"] = array_digest(
        {mode: merger.ensemble(models_, x_val, mode) for mode in ("logits", "prob", "vote")})

    vds = data_mod.token_xor(n=128, seq=2, d=2, sigma=0.1, seed=2)
    vit_a = ckpt_mod.from_params(VIT, build_model(VIT, seed=0))
    vit_b = _fit(VIT, build_model(VIT, seed=0), vds, 1)
    vfish = [merger.fisher_estimate(VIT, c, vds, n_samples=16, seed=i)
             for i, c in enumerate((vit_a, vit_b))]
    out["merge/mini_vit/fisher_merge.zjk1"] = ckpt_digest(
        merger.fisher_merge([vit_a, vit_b], vfish), tmp)

    # three hidden layers: the middle one's assignment reads the previous and the next map
    deep = MlpSpec((2, 8, 8, 8, 3))
    dds = data_mod.blobs(k=3, d=2, n=120, sigma=0.3, seed=2)
    deep_a = _fit(deep, build_model(deep, seed=0), dds, 1)
    deep_b = _fit(deep, build_model(deep, seed=3), dds, 2)
    perm, objective = merger.weight_match(deep_a, deep_b)
    out["merge/mlp_deep/weight_match"] = sha(json.dumps(
        [objective, merger.permutation_summary(perm), [m.tolist() for m in perm.maps]]).encode())
    fused, perm = merger.ot_fuse(deep_a, deep_b, eps=0.1)
    out["merge/mlp_deep/ot_fuse.zjk1"] = ckpt_digest(fused, tmp)
    out["merge/mlp_deep/ot_fuse_perm"] = sha(json.dumps(
        [[m.tolist() for m in perm.maps], perm.stats]).encode())


def cli_digests(out, tmp):
    cfg, soup_cfg = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "soup.cfg")
    mode_cfgs = {mode: os.path.join(tmp, f"{mode}.cfg") for mode in ("vote", "logits")}
    run = os.path.join(tmp, "pipe")
    ck, ck2 = (os.path.join(run, d, "final.zjk1") for d in ("t", "t2"))
    l2sp_cfg = os.path.join(tmp, "l2sp.cfg")
    with open(cfg, "w") as fh:
        fh.write(PIPE_CFG)
    with open(l2sp_cfg, "w") as fh:  # full fine-tune of the first run's weights
        fh.write(PIPE_CFG.replace("architect.config='(LoRA.adapt):->(layers[0]){inout}'\n", "")
                 + f"pretrained_weights={ck}\ntuner.reg=l2_sp:0.1\n")
    with open(soup_cfg, "w") as fh:
        fh.write(PIPE_CFG + "merger.kind=greedy_soup\n")
    for mode, path in mode_cfgs.items():
        with open(path, "w") as fh:
            fh.write(PIPE_CFG + f"merger.ensemble={mode}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["plan", "--config", cfg],
                     ["train", "--config", cfg, "--out", os.path.join(run, "t")],
                     ["merge", "--config", cfg, "--out", os.path.join(run, "m"),
                      "--ckpt", ck, "--ckpt", ck],
                     ["eval", "--config", cfg, "--out", os.path.join(run, "e"),
                      "--ckpt", os.path.join(run, "m", "merged.zjk1")],
                     # a second run; a greedy soup of both; their prob ensemble
                     ["train", "--config", cfg, "--seed", "8", "--out", os.path.join(run, "t2")],
                     ["merge", "--config", soup_cfg, "--out", os.path.join(run, "g"),
                      "--ckpt", ck, "--ckpt", ck2],
                     ["eval", "--config", cfg, "--out", os.path.join(run, "e2"),
                      "--ckpt", ck, "--ckpt", ck2],
                     # the same two checkpoints in the other ensemble modes
                     *(["eval", "--config", path, "--out", os.path.join(run, f"e2_{mode}"),
                        "--ckpt", ck, "--ckpt", ck2] for mode, path in mode_cfgs.items()),
                     # l2_sp toward the first run's weights, loaded as pretrained_weights
                     ["train", "--config", l2sp_cfg, "--out", os.path.join(run, "l2sp")]):
            code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"zjkit {argv[0]} exited {code}")
    for rel in ("t/final.zjk1", "t/history.jsonl", "m/merged.zjk1", "e/metrics.json",
                "t2/final.zjk1", "g/merged.zjk1", "e2/metrics.json",
                "e2_vote/metrics.json", "e2_logits/metrics.json", "l2sp/final.zjk1",
                "l2sp/history.jsonl"):
        with open(os.path.join(run, rel), "rb") as fh:
            out[f"cli/{rel}"] = sha(fh.read())


def recipe_digests(out, tmp):
    """Each merge recipe through ``zjkit merge``. Paths are relative to the
    run directory, so ``merge_report.json`` holds no temporary path."""
    run = os.path.join(tmp, "recipes")
    os.makedirs(run)
    cwd = os.getcwd()
    os.chdir(run)
    try:
        for kind in RECIPES:
            with open(f"{kind}.cfg", "w") as fh:
                fh.write(RECIPE_CFG + f"merger.kind={kind}\n")
        with open("fisher_default_samples.cfg", "w") as fh:  # merger.samples unset
            fh.write(RECIPE_CFG.replace("merger.samples=16\n", "") + "merger.kind=fisher\n")
        runs = RECIPES + ("fisher_default_samples",)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["train", "--config", "uniform_soup.cfg", "--out", "a"],
                         ["train", "--config", "uniform_soup.cfg", "--seed", "8", "--out", "b"],
                         *(["merge", "--config", f"{name}.cfg", "--out", name,
                            "--ckpt", "a/final.zjk1", "--ckpt", "b/final.zjk1"]
                           for name in runs)):
                code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"zjkit {' '.join(argv)} exited {code}")
        for run_name in runs:
            for name in ("merged.zjk1", "merge_report.json"):
                with open(os.path.join(run_name, name), "rb") as fh:
                    out[f"cli/recipes/{run_name}/{name}"] = sha(fh.read())
    finally:
        os.chdir(cwd)


def blas_line():
    """The BLAS numpy links, its version, and the kernel OpenBLAS runs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    kernel = "kernel unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            kernel = f"kernel {corename().decode()}"
    return f"blas {blas['name']} {blas['version']} {kernel}"


def main():
    print(blas_line())
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for collect in (tuner_digests, adaptation_digests, merge_digests, cli_digests,
                        recipe_digests):
            collect(out, tmp)
    lines = [f"{name} {digest}" for name, digest in sorted(out.items())]
    for line in lines:
        print(line)
    print(f"all {sha(''.join(line + chr(10) for line in lines).encode())}")


if __name__ == "__main__":
    main()
