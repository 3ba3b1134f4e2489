"""Toy dataset generators and file loaders (IDX ubyte, CSV).

Every source yields a :class:`Dataset` with deterministic 70/15/15
train/val/test splits derived from the seed.
"""

from __future__ import annotations

import csv as csv_mod
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IoError, MalformedData

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    x: np.ndarray          # [N, ...] float64 features
    y: np.ndarray          # [N] int class ids
    n_classes: int
    splits: dict = field(default_factory=dict)  # tag -> index array

    def split(self, tag):
        idx = self.splits[tag]
        return self.x[idx], self.y[idx]

    @property
    def n(self):
        return self.x.shape[0]


def _with_splits(x, y, n_classes, seed):
    if y.min(initial=0) < 0 or (y.size and y.max() >= n_classes):
        raise MalformedData("label outside [0, n_classes)")
    n = x.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(n * 0.70)
    n_val = int(n * 0.15)
    splits = {
        "train": order[:n_train],
        "val": order[n_train:n_train + n_val],
        "test": order[n_train + n_val:],
    }
    return Dataset(x, y, n_classes, splits)


def blobs(k=3, d=2, n=300, sigma=0.1, seed=0, spread=2.0):
    """Gaussian clusters, one per class, linearly separable for small sigma."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(k, d))
    y = rng.integers(0, k, size=n)
    x = centers[y] + rng.normal(0.0, sigma, size=(n, d))
    return _with_splits(x, y, k, seed)


def blobs_shifted(delta=1.0, k=3, d=2, n=300, sigma=0.1, seed=0):
    """Same cluster layout as blobs(seed) but translated by delta."""
    ds = blobs(k=k, d=d, n=n, sigma=sigma, seed=seed)
    return Dataset(ds.x + delta, ds.y, ds.n_classes, ds.splits)


def moons(n=300, noise=0.1, seed=0):
    """Two interleaved half circles; not linearly separable."""
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0, np.pi, size=n0)
    t1 = rng.uniform(0, np.pi, size=n1)
    x0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    x1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    x = np.concatenate([x0, x1]) + rng.normal(0.0, noise, size=(n, 2))
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return _with_splits(x, y, 2, seed)


def token_xor(n=512, seq=4, d=4, sigma=0.3, seed=0):
    """Sequence toy task: label = XOR of the signs of two token entries.

    Built so a linear head on frozen random features stays near chance
    while an adapted backbone can learn the interaction.
    """
    if seq < 2 or d < 2:  # the label reads tokens 0 and 1, dims 0 and 1
        raise ConfigError(f"token_xor needs seq >= 2 and d >= 2, got seq={seq}, d={d}")
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=(n, seq, d))
    a = np.sign(x[:, 0, 0])
    b = np.sign(x[:, 1, 1])
    y = ((a * b) > 0).astype(int)
    x = x + rng.normal(0.0, sigma, size=x.shape)
    return _with_splits(x, y, 2, seed)


# -- file sources -------------------------------------------------------


def load_idx(images, labels, seed=0):
    """MNIST-style IDX ubyte pair; validates magic numbers and counts."""
    try:
        with open(images, "rb") as fh:
            img = fh.read()
        with open(labels, "rb") as fh:
            lab = fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if len(img) < 16 or struct.unpack(">I", img[:4])[0] != IDX_IMAGES_MAGIC:
        raise MalformedData(f"bad image magic in {images}")
    if len(lab) < 8 or struct.unpack(">I", lab[:4])[0] != IDX_LABELS_MAGIC:
        raise MalformedData(f"bad label magic in {labels}")
    n_img, rows, cols = struct.unpack(">III", img[4:16])
    n_lab = struct.unpack(">I", lab[4:8])[0]
    if n_img != n_lab:
        raise MalformedData(f"{n_img} images vs {n_lab} labels")
    x = np.frombuffer(img, dtype=np.uint8, offset=16)
    if x.size != n_img * rows * cols:
        raise MalformedData("image payload size mismatch")
    x = x.reshape(n_img, rows * cols).astype(np.float64) / 255.0
    y = np.frombuffer(lab, dtype=np.uint8, offset=8).astype(int)
    if y.size != n_lab:
        raise MalformedData("label payload size mismatch")
    return _with_splits(x, y, int(y.max()) + 1 if y.size else 1, seed)


def load_csv(path, label_col=-1, has_header="auto", seed=0):
    """Numeric CSV with one label column; diagnostics carry row/col."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv_mod.reader(fh))
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise MalformedData(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if not rows:
        raise MalformedData("empty file")
    for r, row in enumerate(rows):
        if not row:
            raise MalformedData(f"row {r}: blank")
    start = 0
    if has_header == "auto":
        try:
            [float(c) for c in rows[0]]
        except ValueError:
            start = 1
    elif has_header:
        start = 1
    if start == len(rows):
        raise MalformedData("no data rows")
    width = len(rows[start])
    if not -width <= label_col < width:
        raise ConfigError(f"label_col {label_col} outside [-{width}, {width})")
    lc = label_col % width
    feats, labels = [], []
    for r, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise MalformedData(f"row {r}: expected {width} columns, got {len(row)}")
        vals = []
        for c, cell in enumerate(row):
            try:
                vals.append(float(cell))
            except ValueError:
                raise MalformedData(f"row {r}, column {c}: non-numeric {cell!r}") from None
            if not math.isfinite(vals[-1]):
                raise MalformedData(f"row {r}, column {c}: non-finite {cell!r}")
        labels.append(vals[lc])
        feats.append([v for i, v in enumerate(vals) if i != lc])
    y = np.asarray(labels)
    if not ((y == np.round(y)) & (y >= 0) & (y < 2**31)).all():  # exact, and castable
        raise MalformedData("label column must hold nonnegative integers below 2^31")
    y = y.astype(int)
    x = np.asarray(feats)
    return _with_splits(x, y, int(y.max()) + 1, seed)
