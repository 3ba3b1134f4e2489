"""The three benchmark workloads: setup (untimed) and one timed pass each.

Every workload is closed-loop and single-process: one caller runs one job
after another, each starting when the previous one has finished. Inputs
come only from the seed. Calls into zjkit go through module attributes
(``tuner.train``, ``merger.ot_fuse``, ...) so that a traced run can wrap
them where they are bound.

A pass returns a :class:`Pass` holding its own throughput counters, the
test accuracies of the models it produced, its output checks and its job
failures. The runner turns those into the end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

from zjkit import architect, checkpoint, cli, data, dsl, merger, models, tuner
from zjkit.errors import AmbiguousAssignment
from zjkit.tensor import Tensor

# Lowest acceptable `quality` (mean test accuracy of the models a pass
# produces). Chance is 0.25 for vit_peft_train, 0.1 for merge_suite and 0.2
# for cli_pipeline.
QUALITY_FLOOR = {
    "vit_peft_train": 0.4,   # 0.49 to 0.58 measured
    "merge_suite": 0.5,      # 0.63 to 0.67 measured
    "cli_pipeline": 0.55,    # 0.73 to 0.80 measured
}

# merge_reparam folds LoRA into float32 weights; its logits may differ from
# the adapted model's by float32 rounding only (1.3e-7 to 3e-7 measured).
REPARAM_TOL = 1e-5


class Pass:
    """What one pass did, measured from the benchmark's side of each call."""

    def __init__(self):
        self.train_samples = 0
        self.train_s = 0.0
        self.eval_samples = 0
        self.eval_s = 0.0
        self.accuracies = {}      # produced model -> test accuracy
        self.jobs = 0
        self.failed_jobs = []     # unexpected failures
        self.known_failures = []  # documented defects, attempted every pass
        self.checks = {}          # check name -> (ok, detail)
        self.artifacts = {}       # artifact name -> sha256, for determinism

    def check(self, name, ok, detail=""):
        self.checks[name] = (bool(ok), detail)

    @contextlib.contextmanager
    def timed_train(self, samples):
        t0 = time.perf_counter()
        yield
        self.train_s += time.perf_counter() - t0
        self.train_samples += samples

    @contextlib.contextmanager
    def timed_eval(self, samples):
        t0 = time.perf_counter()
        yield
        self.eval_s += time.perf_counter() - t0
        self.eval_samples += samples

    @property
    def quality(self):
        return float(np.mean(list(self.accuracies.values())))


def _accuracy(logits, y):
    return float((np.argmax(logits, axis=1) == y).mean())


# The task (class layout) and the pretrained base weights are fixed; the
# seed draws the examples, the adapter initialisation and the batch order.
# Seeding the task too made test accuracy swing by 20% between seeds.
TASK_SEED = 0
BASE_SEED = 0
POOL = 8192  # examples per task, from which a run draws its splits


def _draw(pool, sizes, seed):
    """Train/val/test splits of the given sizes, drawn from a task pool."""
    idx = np.random.default_rng(seed).choice(pool.n, size=sum(sizes), replace=False)
    bounds = np.cumsum((0,) + sizes)
    splits = {tag: np.arange(lo, hi)
              for tag, lo, hi in zip(("train", "val", "test"), bounds[:-1], bounds[1:])}
    return data.Dataset(pool.x[idx], pool.y[idx], pool.n_classes, splits)


def _train_samples(ds, cfg):
    return ds.split("train")[0].shape[0] * cfg.epochs


# -- vit_peft_train -----------------------------------------------------

VIT_SPEC = models.MiniVitSpec(dim=32, blocks=4, heads=4, mlp_dim=64, classes=4,
                              seq_len=8, input_dim=8)
VIT_SIZES = (768, 128, 384)  # train / val / test
# Three adaptation plans, each trained for one AdamW epoch at batch 64. The
# Adapter plan distils from the merged LoRA model, so the pass is one chain.
VIT_PLANS = (
    ("lora", "(LoRA.adapt|r=4,alpha=8):->(blocks[*].attn.qkv){inout}"
             "->(blocks[*].mlp.fc1){inout}",
     [tuner.LossTerm("ce")], [tuner.LossTerm("spec_norm", 0.01)]),
    ("adapter", "(Adapter.adapt|dim=8):->(blocks[*]){in}",
     [tuner.LossTerm("ce"), tuner.LossTerm("kd_kl", 0.5)], []),
    ("prefix", "(Prefix.adapt|tokens=4):->(blocks[*]){in}",
     [tuner.LossTerm("ce")], []),
)


def _vit_blobs(seed, sizes):
    """Token-shaped blobs: 64 features per example seen as 8 tokens of 8."""
    pool = data.blobs(k=4, d=64, n=POOL, sigma=1.5, spread=1.0, seed=TASK_SEED)
    pool.x = pool.x.reshape(POOL, VIT_SPEC.seq_len, VIT_SPEC.input_dim)
    return _draw(pool, sizes, seed)


def vit_setup(seed, workdir):
    return {
        "seed": seed,
        "data": _vit_blobs(seed, VIT_SIZES),
        "base": models.build_model(VIT_SPEC, seed=BASE_SEED),
    }


def vit_pass(state, workdir):
    p = Pass()
    ds, base, seed = state["data"], state["base"], state["seed"]
    x_test, y_test = ds.split("test")
    teacher = None
    for i, (name, text, loss, reg) in enumerate(VIT_PLANS):
        p.jobs += 1
        adapt = dsl.parse_config(text)
        plan = architect.compile_plan(adapt, VIT_SPEC)
        model = architect.apply_plan(VIT_SPEC, base, plan, seed=seed + 1 + i)
        loss_spec = tuner.LossSpec(loss)
        cfg = tuner.TrainConfig(optimizer="adamw", lr=0.02, epochs=1,
                                batch_size=64, seed=seed + i)
        with p.timed_train(_train_samples(ds, cfg)):
            tuner.train(model, teacher if loss_spec.needs_teacher() else None,
                        ds, loss_spec, tuner.RegSpec(reg), cfg)
        with p.timed_eval(x_test.shape[0]):
            logits = model.forward(Tensor(x_test))[0].data
        p.accuracies[name] = _accuracy(logits, y_test)
        if name == "lora":
            p.jobs += 1
            merged = architect.merge_reparam(model)
            params = checkpoint.to_params(VIT_SPEC, merged)
            with p.timed_eval(x_test.shape[0]):
                folded = models.forward(VIT_SPEC, params, Tensor(x_test))[0].data
            diff = float(np.abs(folded - logits).max())
            p.check("merge_reparam_logits", diff <= REPARAM_TOL, f"max diff {diff:.3g}")
            teacher = tuner.Teacher(VIT_SPEC, params)
    return p


# -- merge_suite --------------------------------------------------------

MLP_SPEC = models.MlpSpec((32, 256, 256, 10))
MLP_SIZES = (1400, 300, 300)
MERGE_VIT_SIZES = (256, 64, 128)
FISHER_SAMPLES = 64


def _full_finetune(spec):
    # PartialK with k covering every layer or block trains all parameters.
    depth = spec.n_layers if spec.kind == "mlp" else spec.blocks
    return architect.compile_plan(dsl.parse_config(f"(PartialK.adapt|k={depth}):"), spec)


def _fit(p, spec, params, ds, lr, epochs, seed):
    model = architect.apply_plan(spec, params, _full_finetune(spec), seed=seed)
    cfg = tuner.TrainConfig(optimizer="sgd", lr=lr, epochs=epochs, batch_size=64,
                            seed=seed)
    with p.timed_train(_train_samples(ds, cfg)):
        ckpt, _ = tuner.train(model, None, ds, tuner.LossSpec(), tuner.RegSpec(), cfg)
    return ckpt


def merge_setup(seed, workdir):
    """Train the merge ingredients; this counts in setup_s, not in wall_s.

    Ingredient training is the only tuner.train use of this workload, so
    its throughput is what train_samples_per_s reports here.
    """
    p = Pass()
    pool = data.blobs(k=10, d=32, n=POOL, sigma=3.0, seed=TASK_SEED)
    ds = _draw(pool, MLP_SIZES, seed)
    base = _fit(p, MLP_SPEC, models.build_model(MLP_SPEC, seed=BASE_SEED), ds, 0.05, 3,
                seed)
    ft_a = _fit(p, MLP_SPEC, checkpoint.to_params(MLP_SPEC, base), ds, 0.02, 1, seed + 1)
    ft_b = _fit(p, MLP_SPEC, checkpoint.to_params(MLP_SPEC, base), ds, 0.01, 1, seed + 2)
    indep = _fit(p, MLP_SPEC, models.build_model(MLP_SPEC, seed=BASE_SEED + 1), ds,
                 0.05, 3, seed + 3)
    rng = np.random.default_rng(seed)
    known = merger.Permutation([rng.permutation(w) for w in MLP_SPEC.widths[1:-1]])
    vit_ds = _vit_blobs(seed, MERGE_VIT_SIZES)
    vit_a = checkpoint.from_params(VIT_SPEC, models.build_model(VIT_SPEC, seed=BASE_SEED))
    vit_b = _fit(p, VIT_SPEC, checkpoint.to_params(VIT_SPEC, vit_a), vit_ds, 0.05, 1,
                 seed + 4)
    return {
        "seed": seed, "data": ds, "base": base, "ft_a": ft_a, "ft_b": ft_b,
        "indep": indep, "known_perm": known,
        "permuted": merger.permute_model(ft_a, known),
        "vit_data": vit_ds, "vit_a": vit_a, "vit_b": vit_b,
        "setup_pass": p,
    }


def _ckpt_eval(p, spec, ckpt, x, y):
    with p.timed_eval(x.shape[0]):
        logits = models.forward(spec, checkpoint.to_params(spec, ckpt), Tensor(x))[0].data
    return _accuracy(logits, y)


def _recovers(perm, known):
    return all(np.array_equal(m, np.argsort(k)) for m, k in zip(perm.maps, known.maps))


def merge_pass(state, workdir):
    p = Pass()
    s = state
    seed, ds, vit_ds = s["seed"], s["data"], s["vit_data"]
    x_test, y_test = ds.split("test")

    def produced(name, spec, ckpt, test):
        p.accuracies[name] = _ckpt_eval(p, spec, ckpt, *test)

    p.jobs += 2
    fishers = [merger.fisher_estimate(MLP_SPEC, c, ds, n_samples=FISHER_SAMPLES,
                                      seed=seed + i)
               for i, c in enumerate((s["ft_a"], s["ft_b"]))]
    produced("fisher_mlp", MLP_SPEC,
             merger.fisher_merge([s["ft_a"], s["ft_b"]], fishers), (x_test, y_test))
    fishers = [merger.fisher_estimate(VIT_SPEC, c, vit_ds, n_samples=FISHER_SAMPLES,
                                      seed=seed + i)
               for i, c in enumerate((s["vit_a"], s["vit_b"]))]
    produced("fisher_vit", VIT_SPEC,
             merger.fisher_merge([s["vit_a"], s["vit_b"]], fishers),
             vit_ds.split("test"))

    p.jobs += 2
    perm, _ = merger.weight_match(s["ft_a"], s["permuted"])
    p.check("weight_match_recovers_permutation", _recovers(perm, s["known_perm"]))
    perm, _ = merger.weight_match(s["ft_a"], s["indep"])
    aligned = merger.permute_model(s["indep"], perm)
    produced("rebasin_soup", MLP_SPEC, merger.uniform_soup([s["ft_a"], aligned]),
             (x_test, y_test))

    p.jobs += 1
    fused, perm = merger.ot_fuse(s["ft_a"], s["permuted"])
    p.check("ot_fuse_recovers_permutation", _recovers(perm, s["known_perm"]))
    produced("ot_fuse_permuted", MLP_SPEC, fused, (x_test, y_test))

    # Known defect, attempted on purpose: row-argmax hardening of the
    # coupling between independently trained nets is not a bijection.
    p.jobs += 1
    try:
        fused, _ = merger.ot_fuse(s["ft_a"], s["indep"])
    except AmbiguousAssignment as exc:
        p.known_failures.append(f"ot_fuse(independent pair): AmbiguousAssignment: {exc}")
    else:
        produced("ot_fuse_independent", MLP_SPEC, fused, (x_test, y_test))

    p.jobs += 1
    interp = merger.wise_ft(aligned, s["ft_a"], 0.5)
    repaired = merger.repair(interp, (s["ft_a"], aligned, 0.5), MLP_SPEC,
                             ds.split("train")[0][:256])
    produced("repair", MLP_SPEC, repaired, (x_test, y_test))

    p.jobs += 1
    produced("wise_ft", MLP_SPEC, merger.wise_ft(s["base"], s["ft_a"], 0.5),
             (x_test, y_test))

    p.jobs += 1
    soup, _ = merger.greedy_soup(
        [s["ft_a"], s["ft_b"], s["base"], aligned], ds.split("val"),
        lambda c, vd: _ckpt_eval(p, MLP_SPEC, c, *vd))
    produced("greedy_soup", MLP_SPEC, soup, (x_test, y_test))
    return p


# -- cli_pipeline -------------------------------------------------------

CLI_LRS = ("0.04", "0.03", "0.02", "0.01")
CLI_N = 1200  # blobs examples; splits are 70/15/15
CLI_EPOCHS = 1
CLI_CFG = """\
model.kind=mlp
model.widths=8,64,64,5
data.source=blobs(k=5,d=8,n={n},sigma=1.5,seed={task_seed})
architect.config='(LoRA.adapt|r=4,alpha=8):->(layers[0]){{inout}}->(layers[1]){{inout}}'
tuner.epochs={epochs}
tuner.lr={lr}
tuner.batch_size=16
seed={seed}
"""


def cli_setup(seed, workdir):
    configs = {}
    for lr in CLI_LRS:
        configs[lr] = CLI_CFG.format(n=CLI_N, task_seed=TASK_SEED, epochs=CLI_EPOCHS,
                                     lr=lr, seed=seed)
    for kind in ("uniform_soup", "greedy_soup", "wise_ft"):
        configs[kind] = configs[CLI_LRS[0]] + f"merger.kind={kind}\nmerger.alpha=0.5\n"
    paths = {}
    os.makedirs(workdir, exist_ok=True)
    for name, text in configs.items():
        paths[name] = os.path.join(workdir, f"{name}.cfg")
        with open(paths[name], "w") as fh:
            fh.write(text)
    ds = data.blobs(k=5, d=8, n=CLI_N, sigma=1.5, seed=TASK_SEED)
    return {"configs": paths, "n_train": ds.split("train")[0].shape[0],
            "n_test": ds.split("test")[0].shape[0]}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_pass(state, workdir):
    p = Pass()
    out = os.path.join(workdir, "pass")
    cfgs = state["configs"]

    def zjkit(name, *argv):
        p.jobs += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            p.failed_jobs.append(f"zjkit {name}: exit {code}")
        return code

    zjkit("plan", "plan", "--config", cfgs[CLI_LRS[0]])
    ckpts = {}
    for i, lr in enumerate(CLI_LRS):
        run = os.path.join(out, f"run{i}")
        with p.timed_train(state["n_train"] * CLI_EPOCHS):
            zjkit(f"train lr={lr}", "train", "--config", cfgs[lr], "--out", run)
        ckpts[f"run{i}"] = os.path.join(run, "final.zjk1")
        for artifact in ("final.zjk1", "history.jsonl"):
            path = os.path.join(run, artifact)
            if os.path.exists(path):
                p.artifacts[f"run{i}/{artifact}"] = _sha256(path)
    inputs = list(ckpts.values())
    ckpt_args = [a for c in inputs for a in ("--ckpt", c)]
    for kind, chosen in (("uniform_soup", ckpt_args), ("greedy_soup", ckpt_args),
                         ("wise_ft", ["--ckpt", inputs[-1], "--ckpt", inputs[0]])):
        dest = os.path.join(out, kind)
        zjkit(f"merge {kind}", "merge", "--config", cfgs[kind], "--out", dest, *chosen)
        ckpts[kind] = os.path.join(dest, "merged.zjk1")
    for name, path in ckpts.items():
        dest = os.path.join(out, f"eval_{name}")
        with p.timed_eval(state["n_test"]):
            code = zjkit(f"eval {name}", "eval", "--config", cfgs[CLI_LRS[0]],
                         "--out", dest, "--ckpt", path)
        if code == 0:
            with open(os.path.join(dest, "metrics.json")) as fh:
                p.accuracies[name] = json.load(fh)["accuracy"]
    with p.timed_eval(state["n_test"] * len(inputs)):
        zjkit("eval ensemble", "eval", "--config", cfgs[CLI_LRS[0]], *ckpt_args)
    for name, path in ckpts.items():
        zjkit(f"inspect {name}", "inspect", "--ckpt", path)
    shutil.rmtree(out, ignore_errors=True)
    return p


WORKLOADS = {
    "vit_peft_train": (vit_setup, vit_pass),
    "merge_suite": (merge_setup, merge_pass),
    "cli_pipeline": (cli_setup, cli_pass),
}
