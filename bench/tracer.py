"""Span tracing of zjkit's public entry points, installed from outside.

A traced pass replaces each entry point by a wrapper at every place it is
bound (``models.forward`` is also imported by name into ``tuner``,
``merger`` and ``cli``; ``spectral_norm`` into ``tuner``), records one span
per call in memory (name, start, end, parent, amount) and restores the
originals afterwards, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

from zjkit import architect, checkpoint, cli, data, dsl, linalg, merger, models, tensor, tuner


def _file_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _train_samples(args, kwargs):
    ds = args[2] if len(args) > 2 else kwargs["data"]
    cfg = args[5] if len(args) > 5 else kwargs["cfg"]
    return ds.split("train")[0].shape[0] * cfg.epochs


# (span name, modules binding it, attribute, amount recorded per call)
TARGETS = (
    ("tensor.backward", (tensor,), "backward", None),
    ("models.forward", (models, tuner, merger, cli), "forward",
     lambda a, k: (a[2] if len(a) > 2 else k["x"]).shape[0]),
    ("architect.compile_plan", (architect,), "compile_plan", None),
    ("architect.apply_plan", (architect,), "apply_plan", None),
    ("architect.merge_reparam", (architect,), "merge_reparam", None),
    ("dsl.parse_config", (dsl,), "parse_config", None),
    ("tuner.train", (tuner,), "train", _train_samples),
    ("linalg.spectral_norm", (linalg, tuner), "spectral_norm", None),
    ("merger.fisher_estimate", (merger,), "fisher_estimate",
     lambda a, k: a[3] if len(a) > 3 else k.get("n_samples", 64)),
    ("merger.fisher_merge", (merger,), "fisher_merge", None),
    ("merger.weight_match", (merger,), "weight_match", None),
    ("merger.ot_fuse", (merger,), "ot_fuse", None),
    ("merger.sinkhorn", (merger,), "sinkhorn", None),
    ("merger.repair", (merger,), "repair", None),
    ("merger.greedy_soup", (merger,), "greedy_soup", None),
    ("merger.uniform_soup", (merger,), "uniform_soup", None),
    ("merger.wise_ft", (merger,), "wise_ft", None),
    ("checkpoint.save_checkpoint", (checkpoint,), "save_checkpoint",
     lambda a, k: _file_bytes(a[1] if len(a) > 1 else k["path"])),
    ("checkpoint.load_checkpoint", (checkpoint,), "load_checkpoint",
     lambda a, k: _file_bytes(a[0] if a else k["path"])),
    ("data", (data,), "blobs", None),
    *((f"cli.{cmd}", (cli,), f"cmd_{cmd}", None)
      for cmd in ("plan", "train", "merge", "eval", "inspect")),
    ("cli.main", (cli,), "main", None),
)


class Tracer:
    """In-memory span recorder. Spans: [name, start, end, parent, amount]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, amount):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if amount is not None:
                span[4] = amount(args, kwargs)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, modules, attr, amount in TARGETS:
                for mod in modules:
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        continue
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(name, fn, amount))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path, pass_index):
        """Append the recorded spans as JSON lines tagged with the pass."""
        with open(path, "a") as fh:
            for i, (name, start, end, parent, amount) in enumerate(self.spans):
                fh.write(json.dumps({"pass": pass_index, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "amount": amount}) + "\n")


def layer_metrics(spans):
    """Per-layer totals of one traced pass.

    ``s`` sums the spans of a name that are not nested in a span of the
    same name; ``self_s`` subtracts the time covered by direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    def inside(i, target):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == target:
                return True
            parent = spans[parent][3]
        return False

    for i, (name, start, end, parent, amount) in enumerate(spans):
        dur = end - start
        add(f"{name}.calls", 1)
        add(f"{name}.amount", amount)
        add(f"{name}.self_s", dur - child_time[i])
        if not inside(i, name):
            add(f"{name}.s", dur)
        if name == "models.forward":
            add("models.forward.train_s" if inside(i, "tuner.train")
                else "models.forward.infer_s", dur)
    return out
