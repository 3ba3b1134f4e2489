"""Command-line surface: plan, train, merge, eval, inspect.

Runs are driven by a flat ``key=value`` config file whose one-line
adaptation string stays first class. Every command writes its fully
resolved config next to its outputs so a run is reproducible from the
output directory alone. ``train`` writes it before training, rewrites
``history.jsonl`` with every finished epoch's line after each epoch, and
saves ``final.zjk1`` after the last, so a run that fails keeps its config
and the epochs it finished. ``merge`` reads everything about a recipe from
its ``merger.RECIPES`` record: which ``merger.*`` keys it reads (each cast
once, by its default's type, before any data load or alignment), whether it
takes exactly two checkpoints, loads data or scores under the plan, and its
align and combine steps; so a recipe is registered there alone. Every file
is written atomically.

Exit codes (each error class in ``errors`` carries its own ``exit_code``):

    0  ok
    2  config-language parse error: ParseError (the byte offset goes to stderr)
    3  invalid run config or input, bad usage: ConfigError, ShapeMismatch,
       AmbiguousAssignment
    4  spec mismatch: SpecMismatch
    5  i/o error, corrupt checkpoint, missing file: IoError, CorruptCheckpoint,
       any OS error
    6  numeric failure: NonFiniteValue (also a trained or merged entry past
       float32's range), NoConvergence
    7  malformed dataset (bad IDX magic, label mismatch, malformed CSV):
       MalformedData
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import architect, checkpoint as ckpt_mod, data as data_mod, dsl, merger, tuner
from .errors import ConfigError, IoError, ParseError, ZjError
from .models import SPECS, build_model
from .tensor import Tensor

# TrainConfig field -> its default, read from tuner.<field>; the run's seed is the top-level key
_TUNER = {f.name: f.default for f in dataclasses.fields(tuner.TrainConfig) if f.name != "seed"}
KNOWN_KEYS = {
    "model.kind", *(f"model.{f.name}" for spec in SPECS.values()
                    for f in dataclasses.fields(spec)),
    "data.source", "architect.config", "tuner.loss", "tuner.reg", *(f"tuner.{k}" for k in _TUNER),
    "teacher.weights", "merger.kind", "merger.ensemble",
    *(f"merger.{k}" for recipe in merger.RECIPES.values() for k in recipe.keys),
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
    """A run-config value cast to ``cast`` (``tuple``: a comma list of floats,
    empty for an empty value); a malformed one is a ConfigError."""
    if cast is tuple:
        return tuple(_num(v, name) for v in value.split(",")) if value else ()
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: expected {cast.__name__}, got {value!r}") from None


def _read(cfg, section, defaults):
    """Each key of ``defaults`` (key -> default) -> the run config's
    ``section.key`` cast to the type of the default, or the default if unset."""
    names = {k: f"{section}.{k}" for k in defaults}
    return {k: _num(cfg[name], name, type(defaults[k])) if name in cfg else defaults[k]
            for k, name in names.items()}


def _model_spec(cfg):
    """The ``model.kind`` spec; each field is read from ``model.<field>`` by its
    declared type: ``int``, ``str``, or ``tuple``, a comma list of ints. A
    field with a default may be unset."""
    kind = cfg.get("model.kind")
    if kind not in SPECS:
        raise ConfigError(f"model.kind must be {' or '.join(SPECS)}, got {kind!r}")
    args = {}
    for f in dataclasses.fields(SPECS[kind]):
        key, name = f"model.{f.name}", getattr(f.type, "__name__", f.type)
        if key in cfg or f.default is dataclasses.MISSING:
            cast = {"str": str}.get(name, int)
            args[f.name] = (tuple(_num(w, key, int) for w in cfg.get(key, "").split(","))
                            if name == "tuple" else _num(cfg.get(key), key, cast))
    return SPECS[kind](**args)


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


# data.source name -> data function
_SOURCES = {"blobs": data_mod.blobs, "blobs_shifted": data_mod.blobs_shifted,
            "moons": data_mod.moons, "token_xor": data_mod.token_xor,
            "idx": data_mod.load_idx, "csv": data_mod.load_csv}


def _load_dataset(cfg, seed):
    """Call the data function named by data.source.

    Each argument takes the type of the function's default; one without a
    default (a file path) stays text, and csv's ``has_header`` takes
    ``auto`` or an integer flag. An unknown source, unknown or missing
    argument, non-finite float, or value the function rejects (or that
    does not fit in memory) is a ConfigError.
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
        param = params.get(key)
        if param is None:
            raise ConfigError(f"data.source {name}() has no argument {key!r}")
        default = param.default
        if default is param.empty or text == default:
            args[param.name] = text
        else:
            cast = type(default) if type(default) in (int, float) else int
            args[param.name] = value = _num(text, f"data.source {key}", cast)
            if cast is float and not math.isfinite(value):
                raise ConfigError(f"data.source {key} must be finite, got {value}")
    missing = [p for p, v in params.items() if v.default is v.empty and p not in args]
    if missing:
        raise ConfigError(f"data.source {name}() needs {', '.join(missing)}")
    try:
        return _SOURCES[name](**args)
    except (ValueError, OverflowError) as exc:  # numpy rejecting an argument, e.g. n=-5
        raise ConfigError(f"data.source {source!r}: {exc}") from None
    except MemoryError:  # an argument that sizes the data past memory
        raise ConfigError(f"data.source {source!r}: out of memory") from None


def _parse_terms(text):
    """name:lambda:key=value;key=value, comma separated. Each value takes the
    type of its key's default in the kind's ``tuner.TERMS`` record."""
    terms = []
    for chunk in text.split(",") if text else ():
        parts = chunk.strip().split(":")
        if len(parts) > 3:
            raise ConfigError(f"term {chunk.strip()!r} has more fields than name:weight:keys")
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
    return (architect.compile_plan(dsl.parse_config(text), spec) if text
            else architect.full_plan(spec))


def _load_model(spec, plan, ckpt):
    """The model ``plan`` makes of a checkpoint: its spec entries, then the
    plan's new parameters it holds, in one store. Any other entry is SpecMismatch."""
    params = ckpt_mod.to_params(spec, ckpt)
    for p in plan.new_shapes():
        if p in ckpt.entries:
            params.set(p, Tensor(ckpt.entries[p].astype(np.float64)))
    ckpt_mod.refuse_others(ckpt, params.paths(),
                           "the plan reads the spec's entries and its new parameters")
    return architect.AdaptedModel(spec, params, plan)


# -- commands -----------------------------------------------------------


def _out_dir(cfg, args):
    out = args.out or cfg.get("out_dir") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise IoError(f"output directory {out!r}: {exc}") from None
    return out


def _write(out, name, text):
    """Write ``text`` to ``out/name`` atomically."""
    with ckpt_mod.atomic_open(os.path.join(out, name)) as fh:
        fh.write(text)


def cmd_plan(cfg, args):
    spec = _model_spec(cfg)
    if not cfg.get("architect.config"):
        raise ConfigError("plan requires architect.config")
    print(architect.plan_table(_plan(cfg, spec), spec.param_shapes()))
    return 0


def _ckpts(args):
    """The ``--ckpt`` checkpoints, of which the command needs at least one."""
    if not args.ckpt:
        raise ConfigError(f"{args.command} needs at least one --ckpt")
    return [ckpt_mod.load_checkpoint(p) for p in args.ckpt]


def cmd_train(cfg, args):
    out = _out_dir(cfg, args)
    spec = _model_spec(cfg)
    ds = _load_dataset(cfg, args.seed)
    pretrained = cfg.get("pretrained_weights")
    if pretrained:  # l2_sp anchors to these weights, the base as training starts
        params = _load_model(spec, architect.full_plan(spec),
                             ckpt_mod.load_checkpoint(pretrained)).params
    else:
        params = build_model(spec, seed=args.seed)
    adapted = architect.apply_plan(spec, params, _plan(cfg, spec), seed=args.seed)

    loss = cfg.get("tuner.loss")
    loss_spec = tuner.LossSpec(_parse_terms(loss)) if loss else tuner.LossSpec()
    reg_spec = tuner.RegSpec(_parse_terms(cfg.get("tuner.reg")))
    if any(t.kind == "l2_sp" for t in reg_spec.terms) and not pretrained:
        raise ConfigError("l2_sp requires pretrained_weights")
    teacher = None
    if loss_spec.needs_teacher():
        tw = cfg.get("teacher.weights")
        if not tw:
            raise ConfigError("distillation terms require teacher.weights")
        teacher = _load_model(spec, architect.full_plan(spec), ckpt_mod.load_checkpoint(tw))
    train_cfg = tuner.TrainConfig(**_read(cfg, "tuner", _TUNER), seed=args.seed)
    _write(out, "resolved.cfg", render_config(cfg))  # first, so a failed run names its config
    history = ""  # every finished epoch's line, so a failed run keeps them
    for entry in tuner.epochs(adapted, teacher, ds, loss_spec, reg_spec, train_cfg):
        history += json.dumps(entry, sort_keys=True) + "\n"
        _write(out, "history.jsonl", history)
    ckpt_mod.save_checkpoint(ckpt_mod.from_params(spec, adapted.params),
                             os.path.join(out, "final.zjk1"))
    print(f"val_acc={entry['val_acc']:.4f}")
    return 0


def cmd_merge(cfg, args):
    """Check the ingredients, cast every ``merger.*`` key the kind's
    ``merger.RECIPES`` record reads and load what it needs; then its align
    step, if any, permutes b's units onto a's, and its combine runs."""
    out = _out_dir(cfg, args)
    spec = _model_spec(cfg)
    ckpts = _ckpts(args)
    for c in ckpts:  # recipes that never read the spec still merge only its checkpoints
        ckpt_mod.check_spec(spec, c)
    kind = cfg.get("merger.kind", "uniform_soup")
    recipe = merger.RECIPES.get(kind)
    if recipe is None:
        raise ConfigError(f"unknown merger.kind {kind!r}")
    if recipe.pair and len(ckpts) != 2:
        raise ConfigError(f"{kind} needs exactly two checkpoints")
    values = _read(cfg, "merger", recipe.keys)  # before any alignment or data load
    if not 0.0 <= values.get("alpha", 0.0) <= 1.0:
        raise ConfigError(f"merger.alpha {values['alpha']} outside [0,1]")
    # outside the try: data.source and architect.config errors name their own
    # keys, and an ingredient the plan cannot load fails as under zjkit eval
    run = SimpleNamespace(spec=spec, seed=args.seed, names=args.ckpt,
                          report={"recipe": kind, "ingredients": list(args.ckpt)},
                          data=_load_dataset(cfg, args.seed) if recipe.data else None,
                          log=functools.partial(print, file=sys.stderr), **values)
    if recipe.plan:
        plan = _plan(cfg, spec)
        for c in ckpts:
            _load_model(spec, plan, c)
        run.accuracy = lambda c, xy: tuner.accuracy(_load_model(spec, plan, c), *xy)
    try:
        if recipe.align:
            perm = recipe.align(*ckpts, run)
            run.report["permutation"] = merger.permutation_summary(perm)
            ckpts = [ckpts[0], merger.permute_model(ckpts[1], perm)]
        merged = recipe.combine(ckpts, run)
    except ConfigError as exc:  # a recipe names its argument, not the run's key
        keys = [k for k in cfg if k.startswith("merger.") and k != "merger.kind"]
        given = ", ".join([f"merger.kind={kind}"] + [f"{k}={cfg[k]}" for k in keys])
        raise ConfigError(f"{given}: {exc}") from None
    ckpt_mod.save_checkpoint(merged, os.path.join(out, "merged.zjk1"))
    _write(out, "merge_report.json", json.dumps(run.report, sort_keys=True, indent=2) + "\n")
    _write(out, "resolved.cfg", render_config(cfg))
    print(f"merged {len(ckpts)} checkpoints with {kind}")
    return 0


def cmd_eval(cfg, args):
    out = _out_dir(cfg, args) if args.out or cfg.get("out_dir") else None
    spec = _model_spec(cfg)
    ds = _load_dataset(cfg, args.seed)
    split = "test"
    x, y = ds.split(split)
    ckpts = _ckpts(args)
    plan = _plan(cfg, spec)
    logits_list = [_load_model(spec, plan, c).predict(x) for c in ckpts]
    mode = cfg.get("merger.ensemble", "prob")
    scores = merger.combine_logits(logits_list, mode)  # checks the mode for one model too
    fused = merger.combine_logits(logits_list, "logits")
    total_loss = 0.0
    for lo in range(0, x.shape[0], 256):  # the loss sums over predict's chunks
        yb = y[lo:lo + 256]
        total_loss += float(tuner.cross_entropy(Tensor(fused[lo:lo + 256]), yb).item()) * len(yb)
    preds = np.argmax(scores if len(ckpts) > 1 else fused, axis=1)  # one model: its own argmax
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
        _write(out, "metrics.json", json.dumps(metrics, sort_keys=True, indent=2) + "\n")
        _write(out, "resolved.cfg", render_config(cfg))
    return 0


def cmd_inspect(cfg, args):
    for path, ckpt in zip(args.ckpt, _ckpts(args)):
        print(f"{path}: kind={ckpt.kind} digest={ckpt.digest.hex()[:16]}...")
        for p in sorted(ckpt.entries):
            a = ckpt.entries[p]
            norm = float(np.linalg.norm(a.astype(np.float64)))
            print(f"  {p:<32} {str(list(a.shape)):<14} |w|={norm:.6g}")
    return 0


# -- entry point --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 3, not 2, ParseError's code
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache  # main runs many times in one process (tests, demos, the bench)
def build_parser():
    parser = _Parser(prog="zjkit", description=__doc__)
    parser.add_argument("command", choices=("plan", "train", "merge", "eval", "inspect"))
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--ckpt", action="append", default=[])
    return parser


def main(argv=None):
    cfg = {}
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    cfg = parse_run_config(fh.read())
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config}: not UTF-8 text (byte {exc.start})") from None
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        args.seed = _num(cfg.get("seed", 0), "seed", int)  # the one cast the commands read
        if args.command != "inspect" and args.command != "plan" and not args.config:
            raise ConfigError("--config is required")
        return globals()[f"cmd_{args.command}"](cfg, args)
    except (ZjError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            print(f"offset: {exc.offset}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, ZjError) else 5


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
