"""Similarity kernels that turn embedding geometry into duplication probabilities.

A kernel maps the cosine of a pair of unit embeddings to the probability
q in [0, 1] that the two samples are duplicates, i.e. share a latent class.
No kernel reads labels: duplication is a property of the geometry alone.

pair_scores is how the package scores pairs. A DUEL push, which only
compares sums of equally many scores, adds up terms instead: each kernel
writes q = c + t with a constant c, its `constant`, and pair_terms returns
t = q - c, so a sum of k scores is c k plus a sum of k terms. For
AffineCosine, c = 1/2 and t = x.y / 2 is one matrix product; for
ExponentialTemp, c = 0 and t = q. The terms skip the cosine clip when
asked: on rows whose squared norms are 1 within 4e-15, an unclipped term
passes its range [-c, 1 - c] by at most 3e-15.
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
    "pair_terms",
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
    # The constant term of q (see pair_terms): none, the terms are q.
    constant = 0.0

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError("tau: must be > 0")

    def from_cosine_inplace(self, q: np.ndarray) -> np.ndarray:
        """exp((s - 1) / tau) of the cosines s in q, a float64 array,
        written over q and returned."""
        q -= 1.0
        q /= self.tau
        return np.exp(q, out=q)

    def terms(self, X: np.ndarray, Y: np.ndarray, clip: bool) -> np.ndarray:
        """q(X, Y) itself, always clipped."""
        return pair_scores(X, Y, self)


@dataclass(frozen=True)
class AffineCosine:
    """q = (1 + s) / 2 for cosine s. Maps [-1, 1] onto [0, 1]."""

    # q = 1/2 + s/2: the terms (see pair_terms) are s/2.
    constant = 0.5

    def from_cosine_inplace(self, q: np.ndarray) -> np.ndarray:
        """(1 + s) / 2 of the cosines s in q, a float64 array, written over
        q and returned."""
        q += 1.0
        # Halving is exact, so multiplying by 0.5 equals dividing by 2.
        q *= 0.5
        return q

    def terms(self, X: np.ndarray, Y: np.ndarray, clip: bool) -> np.ndarray:
        """s / 2 over the cosines s of X @ Y.T, clipped to [-1/2, 1/2] when
        clip is true. Halving is exact, so halving X first gives the bytes
        of halving the product, and adding 1/2 gives pair_scores' bytes."""
        t = (0.5 * X) @ Y.T
        if clip:
            t.clip(-0.5, 0.5, out=t)
        return t


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
    X, Y = _pair_inputs(X, Y, "pair_scores")
    s = X @ Y.T
    s.clip(-1.0, 1.0, out=s)
    return kernel.from_cosine_inplace(s)


def pair_terms(X: np.ndarray, Y: np.ndarray, kernel: Kernel, clip: bool) -> np.ndarray:
    """pair_scores(X, Y, kernel) less kernel.constant, as an (n, m) array.

    With clip true, the terms plus the constant are pair_scores' values.
    With clip false, the affine kernel skips the clip, so the block is one
    matrix product. On rows whose squared norms lie within 4e-15 of 1, an
    unclipped term leaves [-c, 1 - c] by at most 3e-15, so a sum of k terms
    moves by at most 3e-15 per near-duplicate partner; on other rows the
    clip is needed for exact scores.
    """
    X, Y = _pair_inputs(X, Y, "pair_terms")
    return kernel.terms(X, Y, clip)


def _pair_inputs(X, Y, name: str) -> tuple[np.ndarray, np.ndarray]:
    """X and Y as float64 2-d arrays of equal width."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError(f"{name} expects 2-d inputs with matching width")
    return X, Y


def self_scores(X: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Square matrix of pairwise duplication probabilities within X."""
    return pair_scores(X, X, kernel)
