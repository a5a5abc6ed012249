import struct

import numpy as np
import pytest

from logicloss.data import Dataset, IdxFormatError, gen_synthetic, load_idx


def test_gen_deterministic():
    a_train, a_test = gen_synthetic(3, 200, 50, 5, 5, 0.1)
    b_train, b_test = gen_synthetic(3, 200, 50, 5, 5, 0.1)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_train.labels, b_train.labels)
    assert np.array_equal(a_test.features, b_test.features)
    assert np.array_equal(a_test.labels, b_test.labels)


def test_noise_count_exact():
    clean, _ = gen_synthetic(7, 1000, 10, 10, 8, 0.0)
    noisy, _ = gen_synthetic(7, 1000, 10, 10, 8, 0.1)
    assert np.array_equal(clean.features, noisy.features)
    assert int((clean.labels != noisy.labels).sum()) == 100


def test_noise_never_touches_test_labels():
    _, clean = gen_synthetic(9, 100, 80, 4, 4, 0.0)
    _, noisy = gen_synthetic(9, 100, 80, 4, 4, 0.5)
    assert np.array_equal(clean.labels, noisy.labels)


def test_gen_balanced_classes():
    train, test = gen_synthetic(1, 1000, 500, 10, 8, 0.0)
    for d in (train, test):
        counts = np.bincount(d.labels, minlength=10)
        assert counts.max() - counts.min() <= 1


def test_sites_sit_on_the_circle():
    train, _ = gen_synthetic(2, 5000, 10, 8, 8, 0.0)
    for c in range(8):
        center = train.features[train.labels == c].mean(axis=0)
        radius = np.hypot(center[0], center[1])
        assert radius == pytest.approx(3.0, abs=0.3)


def test_pair_axis_private_to_site():
    train, _ = gen_synthetic(2, 5000, 10, 8, 9, 0.0)
    for c in range(8):
        rows = train.features[train.labels == c]
        own = 2 + c // 2
        want = 1.5 if c % 2 == 0 else -1.5
        assert rows[:, own].mean() == pytest.approx(want, abs=0.3)
        # other sites' axes (and trailing dims) carry nothing, not even noise
        silent = [d for d in range(2, 9) if d != own]
        assert np.all(rows[:, silent] == 0.0)


def test_paired_classes_share_a_site():
    train, _ = gen_synthetic(11, 4000, 10, 6, 6, 0.0)
    for s in range(3):
        a = train.features[train.labels == 2 * s, :2].mean(axis=0)
        b = train.features[train.labels == 2 * s + 1, :2].mean(axis=0)
        assert np.allclose(a, b, atol=0.3)


def test_gen_validation():
    with pytest.raises(ValueError, match="3 classes"):
        gen_synthetic(0, 10, 10, 2, 4, 0.0)
    with pytest.raises(ValueError, match="noise_frac"):
        gen_synthetic(0, 10, 10, 3, 4, 1.0)
    with pytest.raises(ValueError, match="sizes"):
        gen_synthetic(0, 0, 10, 3, 4, 0.0)
    with pytest.raises(ValueError, match="dims"):
        gen_synthetic(0, 10, 10, 10, 6, 0.0)


def test_dataset_validation():
    with pytest.raises(ValueError, match="out of range"):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([[np.inf, 0.0]]), np.array([0]), 3)


def test_dataset_rejects_a_label_with_a_fractional_part():
    with pytest.raises(ValueError, match=r"^label 1.7 is not an integer"):
        Dataset(np.zeros((2, 2)), np.array([1.7, 0.2]), 3)
    d = Dataset(np.zeros((2, 2)), np.array([2.0, 0.0]), 3)
    assert d.labels.dtype.kind == "i" and list(d.labels) == [2, 0]


def _write_idx(path, dims, payload):
    header = struct.pack(">HBB", 0, 0x08, len(dims))
    header += struct.pack(f">{len(dims)}I", *dims)
    path.write_bytes(header + bytes(payload))


def test_idx_round_trip(tmp_path):
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    pixels = list(range(256)) * 30 + [0] * (10 * 28 * 28 - 256 * 30)
    _write_idx(img, (10, 28, 28), pixels)
    _write_idx(lbl, (10,), [3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
    d = load_idx(img, lbl)
    assert d.features.shape == (10, 784)
    assert d.features.min() == 0.0 and d.features.max() == 1.0
    assert d.features[0, 255] == pytest.approx(255 / 255.0)
    assert list(d.labels) == [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    assert d.n_classes == 10


def test_idx_bad_magic(tmp_path):
    img = tmp_path / "img.idx"
    img.write_bytes(b"\x00\x01\x08\x03" + b"\x00" * 12)
    lbl = tmp_path / "lbl.idx"
    _write_idx(lbl, (1,), [0])
    with pytest.raises(IdxFormatError, match="bad magic"):
        load_idx(img, lbl)


def test_idx_truncated(tmp_path):
    img = tmp_path / "img.idx"
    _write_idx(img, (2, 2, 2), [0] * 7)  # one byte short
    lbl = tmp_path / "lbl.idx"
    _write_idx(lbl, (2,), [0, 1])
    with pytest.raises(IdxFormatError, match="length mismatch"):
        load_idx(img, lbl)


def test_idx_count_mismatch(tmp_path):
    img = tmp_path / "img.idx"
    _write_idx(img, (2, 2, 2), [0] * 8)
    lbl = tmp_path / "lbl.idx"
    _write_idx(lbl, (3,), [0, 1, 0])
    with pytest.raises(IdxFormatError, match="2 images but 3 labels"):
        load_idx(img, lbl)


def test_idx_pair_of_zero_images(tmp_path):
    img = tmp_path / "img.idx"
    _write_idx(img, (0, 28, 28), [])
    lbl = tmp_path / "lbl.idx"
    _write_idx(lbl, (0,), [])
    d = load_idx(img, lbl)
    assert d.features.shape == (0, 784)
    assert len(d) == 0 and d.n_classes == 0
