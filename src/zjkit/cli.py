"""Command-line surface: plan, train, merge, eval, inspect.

Runs are driven by a flat ``key=value`` config file whose one-line
adaptation string stays first class. Every command writes its fully
resolved config next to its outputs so a run is reproducible from the
output directory alone.

Exit codes (each error class in ``errors`` carries its own ``exit_code``):

    0  ok
    2  config-language parse error: ParseError (the byte offset goes to stderr)
    3  invalid run config or input: ConfigError, ShapeMismatch, DetachedRoot,
       AmbiguousAssignment
    4  spec mismatch: SpecMismatch
    5  i/o error, corrupt checkpoint, missing file: IoError, CorruptCheckpoint
    6  numeric failure: NonFiniteValue, NoConvergence
    7  malformed dataset (bad IDX magic, label mismatch, malformed CSV):
       MalformedData
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import logging
import os
import sys

import numpy as np

from . import architect, checkpoint as ckpt_mod, data as data_mod, dsl, merger, tuner
from .errors import ConfigError, IoError, ParseError, ZjError
from .models import MiniVitSpec, MlpSpec, ParamStore, build_model
from .tensor import Tensor

log = logging.getLogger("zjkit")

KNOWN_KEYS = {
    "model.kind", "model.widths", "model.activation",
    "model.dim", "model.blocks", "model.heads", "model.mlp_dim",
    "model.classes", "model.seq_len", "model.input_dim",
    "data.source",
    "architect.config",
    "tuner.loss", "tuner.reg", "tuner.optimizer", "tuner.lr",
    "tuner.momentum", "tuner.weight_decay", "tuner.epochs",
    "tuner.batch_size", "tuner.schedule",
    "teacher.weights",
    "merger.kind", "merger.alpha", "merger.eps", "merger.iters",
    "merger.samples", "merger.sweeps", "merger.ensemble", "merger.lams",
    "pretrained_weights", "seed", "out_dir",
}


# -- config file --------------------------------------------------------


def parse_run_config(text):
    cfg = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def render_config(cfg):
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if any(c in value for c in " #"):
            value = f"'{value}'"
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def _num(value, name, cast=float):
    """A run-config value cast to ``cast``; a malformed one is a ConfigError."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: expected {cast.__name__}, got {value!r}") from None


def _model_spec(cfg):
    kind = cfg.get("model.kind")
    if kind == "mlp":
        widths = tuple(_num(w, "model.widths", int)
                       for w in cfg.get("model.widths", "").split(","))
        return MlpSpec(widths, cfg.get("model.activation", "relu"))
    if kind == "mini_vit":
        keys = [f.name for f in dataclasses.fields(MiniVitSpec)]
        return MiniVitSpec(**{k: _num(cfg.get(f"model.{k}"), f"model.{k}", int)
                              for k in keys})
    raise ConfigError(f"model.kind must be mlp or mini_vit, got {kind!r}")


def _call_spec(text):
    """Parse name(k=v,...) from data.source values."""
    name, _, rest = text.partition("(")
    name = name.strip()
    kwargs = {}
    if rest:
        if not rest.endswith(")"):
            raise ConfigError(f"unbalanced parentheses in {text!r}")
        body = rest[:-1].strip()
        if body:
            for item in body.split(","):
                if "=" not in item:
                    raise ConfigError(f"expected key=value in {text!r}")
                k, v = item.split("=", 1)
                kwargs[k.strip()] = v.strip()
    return name, kwargs


# data.source name -> data function; config keys that differ from its parameters
_SOURCES = {"blobs": data_mod.blobs, "blobs_shifted": data_mod.blobs_shifted,
            "moons": data_mod.moons, "token_xor": data_mod.token_xor,
            "idx": data_mod.load_idx, "csv": data_mod.load_csv}
_SOURCE_KEYS = {"images": "images_path", "labels": "labels_path"}


def _load_dataset(cfg, seed):
    """Call the data function named by data.source.

    Each argument takes the type of the function's default; one without a
    default (a file path) stays text, and csv's ``has_header`` takes
    ``auto`` or an integer flag. An unknown source, unknown or missing
    argument, or value the function rejects is a ConfigError.
    """
    source = cfg.get("data.source")
    if not source:
        raise ConfigError("data.source is required")
    name, kw = _call_spec(source)
    if name not in _SOURCES:
        raise ConfigError(f"unknown data source {name!r}")
    params = inspect.signature(_SOURCES[name]).parameters
    args = {"seed": seed}
    for key, text in kw.items():
        param = params.get(_SOURCE_KEYS.get(key, key))
        if param is None:
            raise ConfigError(f"data.source {name}() has no argument {key!r}")
        default = param.default
        if default is param.empty or text == default:
            args[param.name] = text
        else:
            cast = type(default) if type(default) in (int, float) else int
            args[param.name] = _num(text, f"data.source {key}", cast)
    missing = [p for p, v in params.items() if v.default is v.empty and p not in args]
    if missing:
        raise ConfigError(f"data.source {name}() needs {', '.join(missing)}")
    try:
        return _SOURCES[name](**args)
    except ValueError as exc:  # numpy rejecting an argument, e.g. n=-5
        raise ConfigError(f"data.source {source!r}: {exc}") from None


def _parse_terms(text):
    """name:lambda:key=value;key=value, comma separated. Each value takes the
    type of its key's default in the kind's ``tuner.TERMS`` record."""
    terms = []
    for chunk in text.split(",") if text else ():
        parts = chunk.strip().split(":")
        kind = parts[0]
        weight = _num(parts[1], f"{kind} weight") if len(parts) > 1 and parts[1] else 1.0
        defaults = tuner.TERMS[kind].defaults if kind in tuner.TERMS else {}
        hyper = {}
        hooks = []
        if len(parts) > 2 and parts[2]:
            for kv in parts[2].split(";"):
                k, _, v = kv.partition("=")
                if k == "pairs":  # fsp's lo>hi is one couple for student and teacher
                    for pair in v.split("+"):
                        s_hook, _, t_hook = pair.partition(">")
                        pair = (s_hook, t_hook or s_hook)
                        hooks.append((pair, pair) if kind == "fsp" else pair)
                else:  # a key the kind does not read stays text; LossSpec rejects it
                    hyper[k] = _num(v, f"{kind} {k}", type(defaults.get(k, "")))
        terms.append(tuner.LossTerm(kind, weight, tuple(sorted(hyper.items())),
                                    tuple(hooks)))
    return terms


def _plan(cfg, spec):
    """The plan compiled from architect.config; full fine-tuning without one."""
    text = cfg.get("architect.config")
    if text:
        return architect.compile_plan(dsl.parse_config(text), spec)
    plan = architect.AdaptationPlan("finetune", {}, spec.canonical())
    plan.trainable_original = set(spec.param_shapes())
    return plan


def _model_for_eval(spec, plan, ckpt):
    """Forward-capable model from a checkpoint: the plan on its spec entries,
    its other entries the plan's new parameters."""
    base = ckpt_mod.to_params(spec, ckpt)
    extras = ParamStore({p: Tensor(a.astype(np.float64), requires_grad=True)
                         for p, a in ckpt.entries.items() if p not in base})
    return architect.AdaptedModel(spec, base, plan, extras)


# -- commands -----------------------------------------------------------


def _out_dir(cfg, args):
    out = args.out or cfg.get("out_dir") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise IoError(f"output directory {out!r}: {exc}") from None
    return out


def _write_json(path, obj):
    with ckpt_mod.atomic_open(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_resolved(cfg, out):
    with ckpt_mod.atomic_open(os.path.join(out, "resolved.cfg")) as fh:
        fh.write(render_config(cfg))


def cmd_plan(cfg, args):
    spec = _model_spec(cfg)
    if not cfg.get("architect.config"):
        raise ConfigError("plan requires architect.config")
    print(architect.plan_table(_plan(cfg, spec), spec.param_shapes()))
    return 0


def cmd_train(cfg, args):
    out = _out_dir(cfg, args)
    seed = _num(cfg.get("seed", 0), "seed", int)
    spec = _model_spec(cfg)
    ds = _load_dataset(cfg, seed)
    pretrained = cfg.get("pretrained_weights")
    ref_params = None  # apply_plan copies the store, so training leaves it as loaded
    if pretrained:
        params = ref_params = ckpt_mod.to_params(spec, ckpt_mod.load_checkpoint(pretrained))
    else:
        params = build_model(spec, seed=seed)
    adapted = architect.apply_plan(spec, params, _plan(cfg, spec), seed=seed)

    loss = cfg.get("tuner.loss")
    loss_spec = tuner.LossSpec(_parse_terms(loss)) if loss else tuner.LossSpec()
    reg_spec = tuner.RegSpec(_parse_terms(cfg.get("tuner.reg")))
    if any(t.kind == "l2_sp" for t in reg_spec.terms) and ref_params is None:
        raise ConfigError("l2_sp requires pretrained_weights")
    teacher = None
    if loss_spec.needs_teacher():
        tw = cfg.get("teacher.weights")
        if not tw:
            raise ConfigError("distillation terms require teacher.weights")
        teacher = tuner.Teacher(spec, ckpt_mod.to_params(spec, ckpt_mod.load_checkpoint(tw)))
    # each tuner.* key the config sets, cast to the type of its TrainConfig default
    types = {f.name: type(f.default) for f in dataclasses.fields(tuner.TrainConfig)}
    train_kw = {"seed": seed}
    for key, text in cfg.items():
        name = key[len("tuner."):]
        if key.startswith("tuner.") and name in types:
            train_kw[name] = _num(text, key, types[name])
    ckpt, history = tuner.train(adapted, teacher, ds, loss_spec, reg_spec,
                                tuner.TrainConfig(**train_kw), ref_params=ref_params)
    ckpt_mod.save_checkpoint(ckpt, os.path.join(out, "final.zjk1"))
    with ckpt_mod.atomic_open(os.path.join(out, "history.jsonl")) as fh:
        for entry in history:
            row = {k: v for k, v in entry.items() if k != "wall_ms"}
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    _write_resolved(cfg, out)
    final = history[-1]
    log.info("trained %d epochs, final val_acc=%.4f", len(history), final["val_acc"])
    print(f"val_acc={final['val_acc']:.4f}")
    return 0


def cmd_merge(cfg, args):
    out = _out_dir(cfg, args)
    seed = _num(cfg.get("seed", 0), "seed", int)
    spec = _model_spec(cfg)
    ckpts = [ckpt_mod.load_checkpoint(p) for p in args.ckpt]
    if not ckpts:
        raise ConfigError("merge needs at least one --ckpt")
    kind = cfg.get("merger.kind", "uniform_soup")
    if kind in ("wise_ft", "ot_fusion", "git_rebasin", "repair") and len(ckpts) != 2:
        raise ConfigError(f"{kind} needs exactly two checkpoints")
    report = {"recipe": kind, "ingredients": list(args.ckpt)}

    def named(recipe, *a, **kw):  # the recipe names its argument, not the run's key
        try:
            return recipe(*a, **kw)
        except ConfigError as exc:
            keys = [k for k in cfg if k.startswith("merger.") and k != "merger.kind"]
            given = ", ".join([f"merger.kind={kind}"] + [f"{k}={cfg[k]}" for k in keys])
            raise ConfigError(f"{given}: {exc}") from None

    if kind == "uniform_soup":
        merged = merger.uniform_soup(ckpts)
    elif kind == "greedy_soup":
        ds = _load_dataset(cfg, seed)
        plan = _plan(cfg, spec)
        merged, order = merger.greedy_soup(
            ckpts, ds.split("val"),
            lambda c, vd: tuner.accuracy(_model_for_eval(spec, plan, c), *vd))
        report["accepted"] = [args.ckpt[i] for i in order]
    elif kind == "wise_ft":
        merged = merger.wise_ft(ckpts[0], ckpts[1],
                                _num(cfg.get("merger.alpha", 0.5), "merger.alpha"))
    elif kind == "fisher":
        ds = _load_dataset(cfg, seed)
        n = _num(cfg.get("merger.samples", 64), "merger.samples", int)
        fishers = [named(merger.fisher_estimate, spec, c, ds, n_samples=n, seed=seed + i)
                   for i, c in enumerate(ckpts)]
        report["fisher_mass"] = [f.mass() for f in fishers]
        lams = None
        if cfg.get("merger.lams"):
            lams = [_num(v, "merger.lams") for v in cfg["merger.lams"].split(",")]
        merged = merger.fisher_merge(ckpts, fishers, lams)
    elif kind == "ot_fusion":
        eps = _num(cfg.get("merger.eps", 0.01), "merger.eps")
        iters = _num(cfg.get("merger.iters", 500), "merger.iters", int)
        merged, perm = named(merger.ot_fuse, ckpts[0], ckpts[1], eps=eps, iters=iters)
        report["permutation"] = merger.permutation_summary(perm)
        report["sinkhorn"] = perm.stats
    elif kind == "git_rebasin":
        sweeps = _num(cfg.get("merger.sweeps", 20), "merger.sweeps", int)
        perm, history = merger.weight_match(ckpts[0], ckpts[1], max_sweeps=sweeps)
        aligned = merger.permute_model(ckpts[1], perm)
        merged = merger.uniform_soup([ckpts[0], aligned])
        report["permutation"] = merger.permutation_summary(perm)
        report["objective"] = history
    elif kind == "repair":
        alpha = _num(cfg.get("merger.alpha", 0.5), "merger.alpha")
        interp = merger.wise_ft(ckpts[1], ckpts[0], alpha)  # weight alpha on a
        ds = _load_dataset(cfg, seed)
        x_train, _ = ds.split("train")
        merged = merger.repair(interp, (ckpts[0], ckpts[1], alpha), spec,
                               x_train[:256], log=log.info)
    else:
        raise ConfigError(f"unknown merger.kind {kind!r}")
    ckpt_mod.save_checkpoint(merged, os.path.join(out, "merged.zjk1"))
    _write_json(os.path.join(out, "merge_report.json"), report)
    _write_resolved(cfg, out)
    print(f"merged {len(ckpts)} checkpoints with {kind}")
    return 0


def cmd_eval(cfg, args):
    out = _out_dir(cfg, args) if args.out or cfg.get("out_dir") else None
    seed = _num(cfg.get("seed", 0), "seed", int)
    spec = _model_spec(cfg)
    ds = _load_dataset(cfg, seed)
    split = "test"
    x, y = ds.split(split)
    ckpts = [ckpt_mod.load_checkpoint(p) for p in args.ckpt]
    if not ckpts:
        raise ConfigError("eval needs at least one --ckpt")
    plan = _plan(cfg, spec)
    logits_list = [_model_for_eval(spec, plan, c).predict(x) for c in ckpts]
    mode = cfg.get("merger.ensemble", "prob")
    pred_mode = mode if len(ckpts) > 1 else "logits"  # one model: its own argmax
    fused = merger.combine_logits(logits_list, "logits")
    total_loss = 0.0
    for lo in range(0, x.shape[0], 256):  # the loss sums over predict's chunks
        yb = y[lo:lo + 256]
        total_loss += float(tuner.cross_entropy(Tensor(fused[lo:lo + 256]), yb).item()) * len(yb)
    combined = merger.combine_logits(logits_list, pred_mode)
    preds = combined if pred_mode == "vote" else np.argmax(combined, axis=1)
    acc = float((preds == y).mean()) if len(y) else 0.0
    per_class = {}
    for c in range(ds.n_classes):
        mask = y == c
        per_class[str(c)] = float((preds[mask] == c).mean()) if mask.any() else None
    metrics = {
        "split": split,
        "accuracy": acc,
        "per_class_accuracy": per_class,
        "mean_loss": total_loss / max(1, len(y)),
        "n_models": len(ckpts),
        "ensemble": mode if len(ckpts) > 1 else None,
    }
    print(json.dumps(metrics, sort_keys=True))
    if out:
        _write_json(os.path.join(out, "metrics.json"), metrics)
        _write_resolved(cfg, out)
    if log.isEnabledFor(logging.INFO):
        width = max(len(k) for k in metrics)
        for k in sorted(metrics):
            log.info("%-*s %s", width, k, metrics[k])
    return 0


def cmd_inspect(cfg, args):
    for path in args.ckpt:
        ckpt = ckpt_mod.load_checkpoint(path)
        print(f"{path}: kind={ckpt.kind} digest={ckpt.digest.hex()[:16]}...")
        for p in sorted(ckpt.entries):
            a = ckpt.entries[p]
            norm = float(np.linalg.norm(a.astype(np.float64)))
            print(f"  {p:<32} {str(list(a.shape)):<14} |w|={norm:.6g}")
    return 0


# -- entry point --------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="zjkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("plan", "train", "merge", "eval", "inspect"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--ckpt", action="append", default=[])
    return parser


def main(argv=None):
    level = {"quiet": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("ZJ_LOG", "quiet"),
                                         logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    cfg = {}
    try:
        if args.config:
            if not os.path.exists(args.config):
                raise IoError(f"no such config: {args.config}")
            with open(args.config) as fh:
                cfg = parse_run_config(fh.read())
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        if args.command != "inspect" and args.command != "plan" and not args.config:
            raise ConfigError("--config is required")
        return globals()[f"cmd_{args.command}"](cfg, args)
    except (ZjError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            print(f"offset: {exc.offset}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, ZjError) else 5


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
