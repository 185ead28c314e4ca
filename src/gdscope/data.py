"""Dataset construction and ingestion for the classifier costs.

Synthetic Gaussian-blob datasets are the desk-scale default; a loader for
the standard CIFAR-10 binary batch format (3073-byte records) is provided
for full-scale runs. All constructors are deterministic per seed and the
resulting datasets are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import as_rng
from .errors import ContractViolation, DatasetFormatError

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3072 pixel bytes
CIFAR_PIXELS = 3072
CIFAR_CLASSES = 10


@dataclass(frozen=True)
class Dataset:
    """Labeled examples feeding the classifier costs.

    features: (n, d) float64 matrix, labels: (n,) int64 with values in [0, num_classes).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ContractViolation(f"features must be 2-D, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ContractViolation(
                f"labels shape {labs.shape} does not match {feats.shape[0]} examples"
            )
        if self.num_classes < 2:
            raise ContractViolation("num_classes must be >= 2")
        if not np.all(np.isfinite(feats)):
            raise ContractViolation("features contain NaN/Inf")
        if labs.min(initial=0) < 0 or (labs.size and labs.max() >= self.num_classes):
            raise ContractViolation("labels must lie in [0, num_classes)")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a synthetic Gaussian-blob dataset."""

    n: int
    d: int
    classes: int = 2
    cluster_spread: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ContractViolation("classes must be >= 2")
        if self.n < self.classes:
            raise ContractViolation("need n >= classes")
        if self.d < 1:
            raise ContractViolation("need d >= 1")
        if not 0 < self.cluster_spread < np.inf:
            raise ContractViolation("cluster_spread must be positive and finite")


def synth_dataset(spec: SynthSpec) -> Dataset:
    """Gaussian blobs around one unit-norm random center per class.

    Per-class counts differ by at most one; examples are ordered by class.
    """
    rng = as_rng(spec.seed)
    centers = rng.standard_normal((spec.classes, spec.d))
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers /= norms

    base, extra = divmod(spec.n, spec.classes)
    counts = [base + (1 if c < extra else 0) for c in range(spec.classes)]
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), counts)
    noise = rng.standard_normal((spec.n, spec.d)) * spec.cluster_spread
    features = centers[labels] + noise
    return Dataset(features, labels, spec.classes)


def load_cifar10_binary(path, n_take: int) -> Dataset:
    """Load the first n_take records of a CIFAR-10 binary batch file.

    Each record is 3073 bytes: a label byte in [0, 10) followed by 3072
    pixel bytes (three 1024-byte channels). Pixels are scaled to [0, 1]
    and then standardized per channel over the loaded subset, so the
    result is self-contained and reproducible without external constants.
    """
    raw = np.fromfile(path, dtype=np.uint8)
    n_records, rem = divmod(raw.size, CIFAR_RECORD_BYTES)
    if rem != 0:
        raise DatasetFormatError(
            f"{path}: truncated record at byte offset {n_records * CIFAR_RECORD_BYTES} "
            f"(file length {raw.size} is not a multiple of {CIFAR_RECORD_BYTES})"
        )
    if n_take > n_records:
        raise DatasetFormatError(
            f"{path}: requested {n_take} records but file holds {n_records}"
        )
    records = raw[: n_take * CIFAR_RECORD_BYTES].reshape(n_take, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels >= CIFAR_CLASSES)[0]
    if bad.size:
        raise DatasetFormatError(
            f"{path}: record {int(bad[0])} has label byte {int(labels[bad[0]])} >= {CIFAR_CLASSES}"
        )

    pixels = records[:, 1:].astype(np.float64) / 255.0
    channels = pixels.reshape(n_take, 3, 1024)
    means = channels.mean(axis=(0, 2))
    stds = channels.std(axis=(0, 2))
    stds[stds == 0] = 1.0
    channels = (channels - means[None, :, None]) / stds[None, :, None]
    features = channels.reshape(n_take, CIFAR_PIXELS)
    return Dataset(features, labels, CIFAR_CLASSES)

