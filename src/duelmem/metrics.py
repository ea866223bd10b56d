"""Diagnostics for memory composition and representation quality."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .kernels import normalize
from .streams import csv_row
from .trainer import FlatParams, adam_step

__all__ = [
    "MetricsRow",
    "class_centroid",
    "class_entropy",
    "dominant_fraction",
    "inter_class_similarity",
    "intra_class_variance",
    "linear_probe",
    "write_metrics_csv",
]


def class_entropy(labels: np.ndarray) -> float:
    """Shannon entropy (nats) of the empirical class distribution."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("labels must be nonempty")
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def class_centroid(embeddings: np.ndarray) -> np.ndarray:
    """Normalized mean embedding; errors when the mean vanishes."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] == 0:
        raise ValueError("expected a nonempty (n, z) array")
    mean = embeddings.mean(axis=0)
    if np.linalg.norm(mean) == 0.0:
        raise ValueError("class centroid undefined: mean embedding is zero")
    return normalize(mean)


def intra_class_variance(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared gap between 1 and alignment with the class centroid.

    (1/|C|) * sum_c mean_{x in c} (r_c . z(x) - 1)^2 with r_c the class
    centroid. 0 exactly when every class collapses to a single direction.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    total = 0.0
    for c in classes:
        block = embeddings[labels == c]
        r = class_centroid(block)
        total += float(((block @ r - 1.0) ** 2).mean())
    return total / classes.size


def inter_class_similarity(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Mean cosine between centroids over ordered pairs of distinct classes."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("inter-class similarity needs >= 2 classes")
    cents = np.vstack([class_centroid(embeddings[labels == c]) for c in classes])
    G = cents @ cents.T
    n = classes.size
    return float((G.sum() - np.trace(G)) / (n * (n - 1)))


def dominant_fraction(labels: np.ndarray, dominant_class: int = 0) -> float:
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("labels must be nonempty")
    return float((labels == dominant_class).mean())


# The linear probe's Adam step size and weight decay.
PROBE_LR = 1e-3
PROBE_WEIGHT_DECAY = 1e-6


def linear_probe(
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    test_y: np.ndarray,
    steps: int = 200,
) -> float:
    """Accuracy of a multinomial-logistic readout on frozen features.

    steps of full-batch Adam from zero weights; weight decay folded into
    the gradient. Deterministic: no randomness anywhere.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    train_X = np.asarray(train_X, dtype=np.float64)
    test_X = np.asarray(test_X, dtype=np.float64)
    train_y = np.asarray(train_y)
    test_y = np.asarray(test_y)
    classes = np.unique(train_y)
    if classes.size < 2:
        raise ValueError("probe training set must contain >= 2 classes")
    index = {c: i for i, c in enumerate(classes)}
    y = np.array([index[c] for c in train_y])
    n, d = train_X.shape
    k = classes.size

    # W and b share one buffer, as do their gradients and Adam moments, so
    # each probe step is one adam_step call.
    params = FlatParams({"W": (k, d), "b": (k,)})
    W, b = params["W"], params["b"]
    grads = params.empty_like()
    gW, gb = grads["W"], grads["b"]
    m, v = params.zeros_like(), params.zeros_like()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0

    for t in range(1, steps + 1):
        logits = train_X @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        probs = e / e.sum(axis=1, keepdims=True)
        gap = (probs - onehot) / n
        np.matmul(gap.T, train_X, out=gW)
        gW += PROBE_WEIGHT_DECAY * W
        np.add.reduce(gap, axis=0, out=gb)
        adam_step(params.flat, grads.flat, m.flat, v.flat, t, PROBE_LR, beta1, beta2, eps)

    pred = classes[np.argmax(test_X @ W.T + b, axis=1)]
    return float((pred == test_y).mean())


@dataclass
class MetricsRow:
    step: int
    loss: float
    lr: float
    class_entropy: float
    v_intra: float
    s_inter: float
    mean_mem_distinct: float
    dominant_frac: float
    probe_acc: float | None = None

    def as_csv(self) -> list[str]:
        """step as an integer, every other column as a float repr; a probe
        accuracy not measured is an empty cell."""
        cells = [str(self.step)]
        for name in METRICS_FIELDS[1:]:
            value = getattr(self, name)
            cells.append("" if value is None else repr(float(value)))
        return cells


# The columns of metrics.csv, in order.
METRICS_FIELDS = tuple(f.name for f in fields(MetricsRow))


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_row(METRICS_FIELDS, []))
        for row in rows:
            fh.write(csv_row(row.as_csv(), []))
