"""Dataset generators, splits, and file loaders."""

import struct

import numpy as np
import pytest

from zjkit.data import (
    blobs,
    blobs_shifted,
    load_csv,
    load_idx,
    moons,
    token_xor,
)
from zjkit.errors import IoError, MalformedData


def test_split_arithmetic():
    ds = blobs(n=300, seed=0)
    assert len(ds.splits["train"]) == 210
    assert len(ds.splits["val"]) == 45
    assert len(ds.splits["test"]) == 45
    joined = np.concatenate([ds.splits[t] for t in ("train", "val", "test")])
    assert sorted(joined.tolist()) == list(range(300))


def test_splits_deterministic_per_seed():
    a, b = blobs(seed=3), blobs(seed=3)
    assert np.array_equal(a.splits["train"], b.splits["train"])
    assert np.array_equal(a.x, b.x)
    c = blobs(seed=4)
    assert not np.array_equal(a.splits["train"], c.splits["train"])


def test_blobs_shape_and_labels():
    ds = blobs(k=4, d=3, n=100, seed=1)
    assert ds.x.shape == (100, 3)
    assert ds.n_classes == 4
    assert set(np.unique(ds.y)) <= set(range(4))


def test_blobs_shifted_translates_only():
    a = blobs(seed=2)
    s = blobs_shifted(delta=1.5, seed=2)
    assert np.allclose(s.x - a.x, 1.5)
    assert np.array_equal(s.y, a.y)


def test_moons_two_classes():
    ds = moons(n=200, seed=0)
    assert ds.x.shape == (200, 2)
    assert ds.n_classes == 2


def test_token_xor_labels_follow_signs():
    ds = token_xor(n=100, sigma=0.0, seed=5)
    want = ((np.sign(ds.x[:, 0, 0]) * np.sign(ds.x[:, 1, 1])) > 0).astype(int)
    assert np.array_equal(ds.y, want)
    assert ds.x.shape == (100, 4, 4)


# -- idx -----------------------------------------------------------------


def _write_idx(tmp_path, n=10, rows=2, cols=2, image_magic=0x803,
               label_magic=0x801, n_labels=None):
    n_labels = n if n_labels is None else n_labels
    img = tmp_path / "img"
    lab = tmp_path / "lab"
    img.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols)
                    + bytes(range(n * rows * cols)))
    lab.write_bytes(struct.pack(">II", label_magic, n_labels)
                    + bytes([i % 3 for i in range(n_labels)]))
    return img, lab


def test_idx_round_trip(tmp_path):
    img, lab = _write_idx(tmp_path)
    ds = load_idx(img, lab)
    assert ds.x.shape == (10, 4)
    assert ds.x.max() <= 1.0
    assert ds.n_classes == 3


def test_idx_bad_magic(tmp_path):
    img, lab = _write_idx(tmp_path, image_magic=0x123)
    with pytest.raises(MalformedData, match="bad image magic in "):
        load_idx(img, lab)


def test_idx_count_mismatch(tmp_path):
    img, lab = _write_idx(tmp_path, n_labels=7)
    with pytest.raises(MalformedData, match="10 images vs 7 labels"):
        load_idx(img, lab)


def test_idx_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_idx(tmp_path / "none", tmp_path / "none2")


# -- csv -----------------------------------------------------------------


def test_csv_with_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n")
    ds = load_csv(p)
    assert ds.x.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ds.y.tolist() == [0, 1]


def test_csv_headerless(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,1\n3.0,4.0,0\n")
    assert load_csv(p).y.tolist() == [1, 0]


def test_csv_ragged_row_diagnostic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,0\n1,2\n")
    with pytest.raises(MalformedData, match="expected 3 columns, got 2") as exc:
        load_csv(p)
    assert "row 1" in str(exc.value)


def test_csv_non_numeric_cell_diagnostic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,0\n1,oops,1\n")
    with pytest.raises(MalformedData, match="non-numeric 'oops'") as exc:
        load_csv(p)
    assert "row 1" in str(exc.value) and "column 1" in str(exc.value)


def test_csv_fractional_labels_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,0.5\n")
    with pytest.raises(MalformedData, match="label column must hold nonnegative integers"):
        load_csv(p)
