"""ZJK1 checkpoint format: round trips and corruption detection."""

import numpy as np
import pytest

from zjkit import checkpoint as ckpt_mod
from zjkit.checkpoint import (
    Checkpoint,
    from_params,
    load_checkpoint,
    refuse_others,
    save_checkpoint,
    to_params,
)
from zjkit.errors import (
    CorruptCheckpoint,
    IoError,
    NonFiniteValue,
    ShapeMismatch,
    SpecMismatch,
    ZjError,
)
from zjkit.models import MlpSpec, build_model

SPEC = MlpSpec((4, 8, 3))


def _save(tmp_path, seed=0):
    ckpt = from_params(SPEC, build_model(SPEC, seed=seed))
    path = tmp_path / "m.zjk1"
    save_checkpoint(ckpt, path)
    return ckpt, path


def test_round_trip_bit_identical(tmp_path):
    ckpt, path = _save(tmp_path)
    loaded = load_checkpoint(path)
    assert loaded.kind == ckpt.kind
    assert loaded.digest == ckpt.digest
    assert set(loaded.entries) == set(ckpt.entries)
    for p, a in ckpt.entries.items():
        assert a.dtype == np.float32
        assert np.array_equal(loaded.entries[p], a)


def test_save_is_byte_deterministic(tmp_path):
    ckpt, _ = _save(tmp_path)
    p1, p2 = tmp_path / "a.zjk1", tmp_path / "b.zjk1"
    save_checkpoint(ckpt, p1)
    save_checkpoint(ckpt, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file(tmp_path):
    _, path = _save(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_flipped_payload_byte(tmp_path):
    _, path = _save(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF  # inside the last entry's payload
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint, match="checksum mismatch for "):
        load_checkpoint(path)


def test_bad_magic(tmp_path):
    _, path = _save(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    _, path = _save(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_missing_file():
    with pytest.raises(IoError):
        load_checkpoint("/nonexistent/m.zjk1")


def test_to_params_digest_mismatch(tmp_path):
    ckpt, _ = _save(tmp_path)
    with pytest.raises(SpecMismatch):
        to_params(MlpSpec((4, 9, 3)), ckpt)


def test_to_params_kind_mismatch(tmp_path):
    ckpt, _ = _save(tmp_path)
    ckpt.kind = "mlq"  # bit 0 of the kind's last byte flipped
    with pytest.raises(SpecMismatch, match="kind 'mlq'"):
        to_params(SPEC, ckpt)


def test_check_spec_allows_entries_past_the_spec_and_checks_every_spec_path(tmp_path):
    ckpt, _ = _save(tmp_path)
    ckpt.entries["lora[0].a"] = np.zeros((2, 4), np.float32)
    ckpt_mod.check_spec(SPEC, ckpt)
    del ckpt.entries["layers[1].bias"]
    with pytest.raises(SpecMismatch, match="missing entry layers\\[1\\].bias"):
        ckpt_mod.check_spec(SPEC, ckpt)
    ckpt.entries["layers[1].bias"] = np.zeros(4, np.float32)
    with pytest.raises(ShapeMismatch, match="layers\\[1\\].bias"):
        ckpt_mod.check_spec(SPEC, ckpt)


def test_repeated_entry_path_is_corrupt(tmp_path):
    _, path = _save(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"layers[0].bias") + len("layers[")] ^= 0x01  # "0" -> "1"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint, match="repeated entry layers\\[1\\].bias"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_is_a_typed_error_naming_the_file_and_entry(tmp_path, bad):
    ckpt, path = _save(tmp_path)
    ckpt.entries["layers[1].weight"][2, 5] = bad
    save_checkpoint(ckpt, path)  # its checksum is valid
    with pytest.raises(NonFiniteValue) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: entry layers[1].weight contains NaN or Inf"
    assert info.value.exit_code == 6


def test_to_params_round_trip_values(tmp_path):
    store = build_model(SPEC, seed=2)
    back = to_params(SPEC, from_params(SPEC, store))
    for p, t in store.items():
        # only f32 rounding between the two stores
        assert np.array_equal(back.get(p).data,
                              t.data.astype(np.float32).astype(np.float64))


def test_to_params_leaves_are_frozen():
    back = to_params(SPEC, from_params(SPEC, build_model(SPEC, seed=2)))
    assert not any(t.requires_grad for _, t in back.items())


def test_header_fields(tmp_path):
    _, path = _save(tmp_path)
    raw = path.read_bytes()
    assert raw[:4] == b"ZJK1"
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    klen = int.from_bytes(raw[8:10], "little")
    assert raw[10:10 + klen] == b"mlp"


def test_fuzzed_files_raise_typed_errors(tmp_path):
    """Every 1-3 byte mutation of a valid file loads or raises a ZjError."""
    spec = MlpSpec((2, 4, 3))
    path = tmp_path / "m.zjk1"
    save_checkpoint(from_params(spec, build_model(spec)), path)
    raw = path.read_bytes()
    rng = np.random.default_rng(0)
    escapes = []
    for _ in range(3000):
        blob = bytearray(raw)
        for pos in rng.integers(0, len(blob), size=rng.integers(1, 4)):
            blob[pos] = rng.integers(0, 256)
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except ZjError:
            pass
        except Exception as exc:  # any other class escapes the typed errors
            escapes.append(f"{type(exc).__name__}: {exc}")
    assert escapes == []


def test_size_overflow_is_corrupt(tmp_path):
    # dims whose product wraps a signed 64-bit size must not move the reader back
    _, path = _save(tmp_path)
    raw = bytearray(path.read_bytes())
    at = raw.index(b"layers[0].weight") + len(b"layers[0].weight") + 2  # after dtype, ndim
    raw[at:at + 16] = (2**62).to_bytes(8, "little") + (3).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_failed_save_keeps_the_old_file(tmp_path):
    ckpt, path = _save(tmp_path)
    with pytest.raises(CorruptCheckpoint):
        save_checkpoint(Checkpoint(ckpt.kind, ckpt.digest[:31], ckpt.entries), path)
    loaded = load_checkpoint(path)
    for p, a in ckpt.entries.items():
        assert np.array_equal(loaded.entries[p], a)
    assert [f.name for f in tmp_path.iterdir()] == ["m.zjk1"]


def test_atomic_open_failure_is_io_error_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "out"
    target.mkdir()  # replacing a directory with a file fails
    with pytest.raises(IoError):
        with ckpt_mod.atomic_open(target) as fh:
            fh.write("x")
    assert [f.name for f in tmp_path.iterdir()] == ["out"]


def test_refuse_others_names_up_to_three_entries():
    ckpt = from_params(SPEC, build_model(SPEC))
    refuse_others(ckpt, ckpt.entries, "all")  # nothing else: no error
    extra = ckpt.with_entries({**ckpt.entries, **{f"x[{i}].a": np.zeros(1) for i in range(4)}})
    with pytest.raises(SpecMismatch, match=r"^the spec only; the checkpoint also has 4 other "
                       r"entries \(x\[0\]\.a, x\[1\]\.a, x\[2\]\.a, \.\.\.\)$"):
        refuse_others(extra, SPEC.param_shapes(), "the spec")
    with pytest.raises(SpecMismatch, match=r"1 other entries \(x\[3\]\.a\)$"):
        refuse_others(extra, [*SPEC.param_shapes(), "x[0].a", "x[1].a", "x[2].a"], "some")
