"""ZJK1 binary checkpoint format.

Layout (little-endian): magic ``ZJK1``, u32 version (1), u16 model-kind
length + UTF-8 kind, 32-byte spec digest (SHA-256 of the canonical spec
string), u32 entry count; per entry: u16 path length, path UTF-8, u8
dtype (0 = f32), u8 ndim, u64 per dim, row-major f32 payload, u32 CRC32
of the payload. Save/load round trips are byte identical.

Files are written through :func:`atomic_open`, so a failed write leaves
any earlier file at the path whole. Loading turns every malformed file
into a :class:`CorruptCheckpoint`, a failed checksum or a repeated entry
path included, and an entry holding NaN or an infinity into a
:class:`NonFiniteValue` naming the file and the entry.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptCheckpoint, IoError, NonFiniteValue, ShapeMismatch, SpecMismatch
from .models import ParamStore, spec_digest
from .tensor import Tensor

MAGIC = b"ZJK1"
VERSION = 1


@dataclass
class Checkpoint:
    kind: str
    digest: bytes
    entries: dict = field(default_factory=dict)  # path -> np.float32 array

    def with_entries(self, arrays):
        """A checkpoint of this kind and digest holding float32 copies of the
        given path -> array map, sorted by path."""
        return Checkpoint(self.kind, self.digest,
                          {p: arrays[p].astype(np.float32) for p in sorted(arrays)})

    def clone(self):
        return self.with_entries(self.entries)


def from_params(spec, store: ParamStore) -> Checkpoint:
    """The parameters of ``store``, packed under the spec's digest."""
    return Checkpoint(spec.kind, spec_digest(spec)).with_entries(
        {p: t.data for p, t in store.items()})


def check_spec(spec, ckpt: Checkpoint):
    """Check that ``ckpt`` was saved for ``spec``: its kind and digest, and an
    entry of the spec's shape at every spec path (other entries may follow)."""
    if ckpt.kind != spec.kind:
        raise SpecMismatch(f"checkpoint kind {ckpt.kind!r} is not the spec's {spec.kind!r}")
    if ckpt.digest != spec_digest(spec):
        raise SpecMismatch("checkpoint digest does not match model spec")
    for path, shape in spec.param_shapes().items():
        if path not in ckpt.entries:
            raise SpecMismatch(f"missing entry {path}")
        if ckpt.entries[path].shape != shape:
            raise ShapeMismatch(f"{path}: {ckpt.entries[path].shape} != {shape}")


def refuse_others(ckpt: Checkpoint, paths, what):
    """SpecMismatch naming up to three entries of ``ckpt`` that ``paths`` lacks, if any."""
    extra = sorted(set(ckpt.entries) - set(paths))
    if extra:
        raise SpecMismatch(f"{what} only; the checkpoint also has {len(extra)} other "
                           f"entries ({', '.join(extra[:3])}{', ...' if len(extra) > 3 else ''})")


def to_params(spec, ckpt: Checkpoint) -> ParamStore:
    """Materialize a checkpoint against a spec, checked by :func:`check_spec`.

    The tensors are frozen, so a forward on them records no tape; a caller
    that reads gradients makes its own grad leaves, as ``tuner.train`` does
    for what an :class:`architect.AdaptedModel`'s plan trains.
    """
    check_spec(spec, ckpt)
    return ParamStore({p: Tensor(ckpt.entries[p].astype(np.float64))
                       for p in spec.param_shapes()})


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open ``<path>.tmp`` for writing and move it onto ``path`` on success.

    On any error the temporary file is removed and ``path`` is left as it
    was; an OSError becomes IoError.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoError(str(exc)) from exc
        raise


def save_checkpoint(ckpt: Checkpoint, path):
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        kind = ckpt.kind.encode()
        fh.write(struct.pack("<H", len(kind)))
        fh.write(kind)
        if len(ckpt.digest) != 32:
            raise CorruptCheckpoint("digest must be 32 bytes")
        fh.write(ckpt.digest)
        paths = sorted(ckpt.entries)
        fh.write(struct.pack("<I", len(paths)))
        for p in paths:
            arr = np.ascontiguousarray(ckpt.entries[p], dtype=np.float32)
            pb = p.encode()
            fh.write(struct.pack("<H", len(pb)))
            fh.write(pb)
            fh.write(struct.pack("<BB", 0, arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<Q", d))
            payload = arr.tobytes()
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if not 0 <= n <= len(self.data) - self.pos:
            raise CorruptCheckpoint("truncated file")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n):
        try:
            return self.take(n).decode()
        except UnicodeDecodeError:
            raise CorruptCheckpoint("invalid UTF-8 text") from None


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise CorruptCheckpoint("bad magic")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise CorruptCheckpoint(f"unsupported version {version}")
    (klen,) = r.unpack("<H")
    kind = r.text(klen)
    digest = r.take(32)
    (count,) = r.unpack("<I")
    entries = {}
    for _ in range(count):
        (plen,) = r.unpack("<H")
        p = r.text(plen)
        if p in entries:
            raise CorruptCheckpoint(f"repeated entry {p}")
        dtype, ndim = r.unpack("<BB")
        if dtype != 0:
            raise CorruptCheckpoint(f"unknown dtype {dtype}")
        dims = tuple(r.unpack("<Q")[0] for _ in range(ndim))
        payload = r.take(4 * math.prod(dims))
        (crc,) = r.unpack("<I")
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CorruptCheckpoint(f"checksum mismatch for {p}")
        try:
            entries[p] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        except ValueError as exc:  # more than 32 dims, or a zero-size overflow
            raise CorruptCheckpoint(f"bad shape {dims} for {p}: {exc}") from None
        if not np.isfinite(entries[p]).all():
            raise NonFiniteValue(f"{path}: entry {p} contains NaN or Inf")
    if r.pos != len(data):
        raise CorruptCheckpoint("trailing bytes")
    return Checkpoint(kind, digest, entries)
