"""ZJK1 binary checkpoint format.

Layout (little-endian): magic ``ZJK1``, u32 version (1), u16 model-kind
length + UTF-8 kind, 32-byte spec digest (SHA-256 of the canonical spec
string), u32 entry count; per entry: u16 path length, path UTF-8, u8
dtype (0 = f32), u8 ndim, u64 per dim, row-major f32 payload, u32 CRC32
of the payload. Save/load round trips are byte identical.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChecksumMismatch,
    CorruptCheckpoint,
    IoError,
    ShapeMismatch,
    SpecMismatch,
)
from .models import ParamStore, spec_digest
from .tensor import Tensor

MAGIC = b"ZJK1"
VERSION = 1


@dataclass
class Checkpoint:
    kind: str
    digest: bytes
    entries: dict = field(default_factory=dict)  # path -> np.float32 array

    def clone(self):
        return Checkpoint(self.kind, self.digest,
                          {p: a.copy() for p, a in self.entries.items()})


def from_params(spec, params: ParamStore) -> Checkpoint:
    entries = {p: t.data.astype(np.float32) for p, t in params.items()}
    return Checkpoint(spec.kind, spec_digest(spec), entries)


def to_params(spec, ckpt: Checkpoint, requires_grad=True) -> ParamStore:
    """Materialize a checkpoint against a spec, validating digest and shapes."""
    if ckpt.digest != spec_digest(spec):
        raise SpecMismatch("checkpoint digest does not match model spec")
    shapes = spec.param_shapes()
    store = ParamStore()
    for path, shape in shapes.items():
        if path not in ckpt.entries:
            raise SpecMismatch(f"missing entry {path}")
        arr = ckpt.entries[path]
        if arr.shape != shape:
            raise ShapeMismatch(f"{path}: {arr.shape} != {shape}")
        store.set(path, Tensor(arr.astype(np.float64), requires_grad=requires_grad))
    return store


def save_checkpoint(ckpt: Checkpoint, path):
    try:
        with open(path, "wb") as fh:
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
    except OSError as exc:
        raise IoError(str(exc)) from exc


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise CorruptCheckpoint("truncated file")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


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
    kind = r.take(klen).decode()
    digest = r.take(32)
    (count,) = r.unpack("<I")
    entries = {}
    for _ in range(count):
        (plen,) = r.unpack("<H")
        p = r.take(plen).decode()
        dtype, ndim = r.unpack("<BB")
        if dtype != 0:
            raise CorruptCheckpoint(f"unknown dtype {dtype}")
        dims = tuple(r.unpack("<Q")[0] for _ in range(ndim))
        n_bytes = int(np.prod(dims, dtype=np.int64)) * 4 if dims else 4
        if ndim == 0:
            n_bytes = 4
        payload = r.take(n_bytes)
        (crc,) = r.unpack("<I")
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise ChecksumMismatch(f"checksum mismatch for {p}")
        entries[p] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    if r.pos != len(data):
        raise CorruptCheckpoint("trailing bytes")
    return Checkpoint(kind, digest, entries)
