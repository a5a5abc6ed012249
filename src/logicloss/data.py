"""Datasets: a deterministic synthetic generator plus IDX file ingestion.

The synthetic task groups classes into pairs.  Each pair shares a site
on a circle in the first two feature dimensions, and splits along a
private axis: site s writes its pair offset into dimension 2+s, which
stays exactly zero for every other site's samples.  Site membership is
easy to read off the circle, while the relative ranking of a *different*
site's pair is not encoded in the features at all, so a "looks like c,
then the next site's first variant outranks its second" constraint has
real headroom over plain cross-entropy training.
"""

import struct
from dataclasses import dataclass

import numpy as np

# Geometry. radius/sigma sets how separable the sites are; gap/sigma sets
# how separable the two classes within a pair are.
SITE_RADIUS = 3.0
FEATURE_SIGMA = 1.0
PAIR_GAP = 3.0


class IdxFormatError(ValueError):
    """Raised for malformed IDX files."""


@dataclass
class Dataset:
    features: np.ndarray  # (n, dims) float
    labels: np.ndarray  # (n,) int
    n_classes: int
    split: str = "train"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (n, dims) aligned with labels")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature values")
        if len(self.labels) and not (
            self.labels.min() >= 0 and self.labels.max() < self.n_classes
        ):
            raise ValueError(f"labels out of range for {self.n_classes} classes")

    def __len__(self):
        return len(self.labels)


def _pair_split(rng, n, n_classes, dims, split):
    n_sites = (n_classes + 1) // 2
    angles = 2.0 * np.pi * np.arange(n_sites) / n_sites
    labels = np.arange(n) % n_classes
    labels = labels[rng.permutation(n)]
    site = labels // 2
    noise = rng.normal(size=(n, 3))
    features = np.zeros((n, dims))
    # the trig of the n_sites angles, then one gather per sample
    features[:, 0] = SITE_RADIUS * np.cos(angles)[site] + FEATURE_SIGMA * noise[:, 0]
    features[:, 1] = SITE_RADIUS * np.sin(angles)[site] + FEATURE_SIGMA * noise[:, 1]
    side = 1.0 - 2.0 * (labels % 2)
    features[np.arange(n), 2 + site] = (
        0.5 * PAIR_GAP * side + FEATURE_SIGMA * noise[:, 2]
    )
    return Dataset(features, labels, n_classes, split=split)


def check_noise_frac(noise_frac):
    if not 0.0 <= noise_frac < 1.0:
        raise ValueError(f"noise_frac must be in [0, 1), got {noise_frac}")


def check_synthetic_sizes(n_classes, dims):
    """Each pair of classes shares a site with a private axis, dimension
    2 + s, so the generator needs at least 3 classes and 2 +
    ceil(n_classes / 2) dims."""
    if n_classes < 3:
        raise ValueError(f"n_classes={n_classes!r}: the synthetic generator needs at least 3 classes")
    need = 2 + (n_classes + 1) // 2
    if dims < need:
        raise ValueError(f"dims={dims!r}: the synthetic generator needs dims >= {need} for {n_classes} classes")


def gen_synthetic(seed, n_train, n_test, n_classes, dims, noise_frac):
    """Generate (train, test) paired-site datasets; deterministic per seed.

    Exactly floor(noise_frac * n_train) training labels are resampled,
    each to a uniformly chosen different class, so the count of corrupted
    labels is exact.  Test labels are never touched.  Features come from
    a stream separate from the noise stream, so changing noise_frac does
    not move the points.
    """
    check_synthetic_sizes(n_classes, dims)
    check_noise_frac(noise_frac)
    if n_train < 1 or n_test < 1:
        raise ValueError(f"invalid sizes: need n_train and n_test >= 1, got {n_train} and {n_test}")

    feature_rng = np.random.default_rng([seed, 0])
    train = _pair_split(feature_rng, n_train, n_classes, dims, "train")
    test = _pair_split(feature_rng, n_test, n_classes, dims, "test")

    n_noisy = int(noise_frac * n_train)
    if n_noisy:
        noise_rng = np.random.default_rng([seed, 1])
        hit = noise_rng.choice(n_train, size=n_noisy, replace=False)
        shift = noise_rng.integers(1, n_classes, size=n_noisy)
        train.labels[hit] = (train.labels[hit] + shift) % n_classes
    return train, test


def _read_idx(path, want_ndim):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: too short for an IDX header")
    zero, dtype, ndim = struct.unpack(">HBB", raw[:4])
    if zero != 0 or dtype != 0x08:
        raise IdxFormatError(
            f"{path}: bad magic {raw[:4].hex()}, want 0000 08 (unsigned byte)"
        )
    if ndim != want_ndim:
        raise IdxFormatError(f"{path}: {ndim} dimensions, want {want_ndim}")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise IdxFormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims))
    body = raw[header:]
    if len(body) != count:
        raise IdxFormatError(
            f"{path}: length mismatch, header promises {count} bytes, file has {len(body)}"
        )
    return dims, np.frombuffer(body, dtype=np.uint8)


def load_idx(images_path, labels_path, split="train"):
    """Load an IDX image/label pair; pixels scaled to [0, 1], rows flat."""
    img_dims, img_bytes = _read_idx(images_path, want_ndim=3)
    lbl_dims, lbl_bytes = _read_idx(labels_path, want_ndim=1)
    if img_dims[0] != lbl_dims[0]:
        raise IdxFormatError(
            f"{img_dims[0]} images but {lbl_dims[0]} labels"
        )
    n, rows, cols = img_dims
    features = img_bytes.reshape(n, rows * cols).astype(float) / 255.0
    labels = lbl_bytes.astype(int)
    return Dataset(features, labels, int(labels.max()) + 1 if n else 0, split=split)

