"""Similarity kernels that turn embedding geometry into duplication probabilities.

A kernel maps the cosine of a pair of unit embeddings to the probability
q in [0, 1] that the two samples are duplicates, i.e. share a latent class.
No kernel reads labels: duplication is a property of the geometry alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineCosine",
    "ExponentialTemp",
    "KERNEL_FORMS",
    "Kernel",
    "normalize",
    "pair_scores",
    "self_scores",
]


def normalize(v: np.ndarray) -> np.ndarray:
    """Return v scaled to unit L2 norm. Rows are normalized for 2-d input."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("embedding contains non-finite values")
    # np.linalg.norm's formula along an axis, without its copy of v.
    norms = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return v / norms


@dataclass(frozen=True)
class ExponentialTemp:
    """q = exp((s - 1) / tau) for cosine s. q(1) = 1; strictly positive."""

    tau: float

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError("tau: must be > 0")

    def from_cosine_inplace(self, q: np.ndarray) -> np.ndarray:
        """exp((s - 1) / tau) of the cosines s in q, a float64 array,
        written over q and returned."""
        q -= 1.0
        q /= self.tau
        return np.exp(q, out=q)


@dataclass(frozen=True)
class AffineCosine:
    """q = (1 + s) / 2 for cosine s. Maps [-1, 1] onto [0, 1]."""

    def from_cosine_inplace(self, q: np.ndarray) -> np.ndarray:
        """(1 + s) / 2 of the cosines s in q, a float64 array, written over
        q and returned."""
        q += 1.0
        # Halving is exact, so multiplying by 0.5 equals dividing by 2.
        q *= 0.5
        return q


Kernel = ExponentialTemp | AffineCosine

# The JSON tag of each kernel class. Configs and checkpoints both store a
# kernel as {"form": tag, **parameters}.
KERNEL_FORMS = {"affine": AffineCosine, "exp": ExponentialTemp}


def pair_scores(X: np.ndarray, Y: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Duplication probabilities for every (row of X, row of Y) pair.

    X is (n, z), Y is (m, z); the result is (n, m). Cosines are clipped to
    [-1, 1] before the kernel is applied so that float drift in the dot
    products cannot push q outside its range. The clip and the kernel work
    in place on the matrix X @ Y.T allocates, so the call makes no other
    n x m array.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError("pair_scores expects 2-d inputs with matching width")
    s = X @ Y.T
    s.clip(-1.0, 1.0, out=s)
    return kernel.from_cosine_inplace(s)


def self_scores(X: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Square matrix of pairwise duplication probabilities within X."""
    return pair_scores(X, X, kernel)
