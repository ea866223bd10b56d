"""Exact information measures over finite labeled embedding distributions.

Everything here is computed by direct enumeration in float64:

  hebbian information      I_h(x) = E_{x+ ~ positives}[-log q(x, x+)]
  distinctiveness          I_d(x) = -log E_{x' ~ reference}[q(x, x')]
  contrastive objective    L      = E_x[I_h(x) - I_d(x)]

where q is a duplication-probability kernel, which reads only the
embeddings. Labels define the class conditionals the Hebbian term averages
over, and nothing else. When q is 1 within a class and 0 across classes, as
an exponential kernel with a small temperature gives on one-hot class
embeddings, a class-balanced distribution reaches the optimum -log |C|; and
-log |C| lower-bounds the objective for every balanced distribution
regardless of the kernel or embedding geometry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel, pair_scores, self_scores

__all__ = [
    "FiniteDistribution",
    "InfiniteInformationWarning",
    "distinctiveness_information",
    "hebbian_information",
    "hml_loss",
    "imbalance_lambda",
    "mhml_bound",
]


class InfiniteInformationWarning(RuntimeWarning):
    """Raised when a zero duplication probability drives -log q to +inf."""


def _flag_infinite(context: str) -> None:
    warnings.warn(
        f"zero duplication probability in {context}; returning inf",
        InfiniteInformationWarning,
        stacklevel=4,
    )


def _hebbian_rows(Q: np.ndarray, W: np.ndarray, context: str) -> np.ndarray:
    """I_h of each row of the score matrix Q: the mean of -log q weighted by
    W, an (m,) vector or an (n, m) matrix. A row is +inf, flagged, where a
    column with positive weight has q = 0."""
    logs = np.zeros_like(Q)
    np.log(Q, where=Q > 0, out=logs)
    i_h = -(W * logs).sum(axis=1)
    infinite = ((Q == 0.0) & (W > 0)).any(axis=1)
    if infinite.any():
        _flag_infinite(context)
        i_h[infinite] = math.inf
    return i_h


def _distinctiveness_rows(Q: np.ndarray, w: np.ndarray, context: str) -> np.ndarray:
    """I_d of each row of the score matrix Q: -log of its w-weighted mean. A
    row is +inf, flagged, where that mean is 0."""
    mean_q = Q @ w
    if np.any(mean_q == 0.0):
        _flag_infinite(context)
    with np.errstate(divide="ignore"):
        return -np.log(mean_q)


def _class_conditionals(dist: "FiniteDistribution") -> np.ndarray:
    """(n, n) weights whose row i is the class conditional of point i."""
    W = np.where(dist.labels[:, None] == dist.labels, dist.weights, 0.0)
    mass = W.sum(axis=1, keepdims=True)
    if np.any(mass == 0.0):
        raise ValueError(f"class {dist.labels[np.argmin(mass)]} has zero weight")
    return W / mass


@dataclass
class FiniteDistribution:
    """A finite weighted set of labeled unit embeddings.

    embeddings is (n, z), labels is (n,) integers, weights is (n,)
    non-negative and sums to 1.
    """

    embeddings: np.ndarray
    labels: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.embeddings.ndim != 2:
            raise ValueError("embeddings must be a (n, z) array")
        n = self.embeddings.shape[0]
        if n == 0:
            raise ValueError("distribution must contain at least one point")
        if self.labels.shape != (n,):
            raise ValueError("labels must align with embeddings")
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (n,):
            raise ValueError("weights must align with embeddings")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        norms = np.linalg.norm(self.embeddings, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("embeddings must be unit-norm within 1e-9")


def hebbian_information(
    anchor: np.ndarray, positives: FiniteDistribution, kernel: Kernel
) -> float:
    """Weighted mean of -log q(anchor, x+) over the positive distribution.

    positives should be the anchor's class conditional (the anchor itself
    included). Returns +inf, with an InfiniteInformationWarning, if any
    positive has zero duplication probability with the anchor.
    """
    Q = pair_scores(anchor[None, :], positives.embeddings, kernel)
    return float(_hebbian_rows(Q, positives.weights, "hebbian_information")[0])


def distinctiveness_information(
    anchor: np.ndarray, reference: FiniteDistribution, kernel: Kernel
) -> float:
    """-log of the weighted mean duplication probability against reference.

    Returns +inf (flagged) when the mean probability is zero, i.e. the
    anchor duplicates nothing in the reference.
    """
    Q = pair_scores(anchor[None, :], reference.embeddings, kernel)
    i_d = _distinctiveness_rows(Q, reference.weights, "distinctiveness_information")
    return float(i_d[0])


def hml_loss(dist: FiniteDistribution, kernel: Kernel) -> float:
    """E_x[I_h(x) - I_d(x)] by exact enumeration over the distribution.

    Per anchor, positives are the anchor's class conditional (anchor
    included, weights renormalized within the class) and the
    distinctiveness reference is the whole distribution. Infinities
    propagate flagged; an anchor hitting inf - inf yields nan.
    """
    Q = self_scores(dist.embeddings, kernel)
    i_h = _hebbian_rows(Q, _class_conditionals(dist), "hml_loss hebbian term")
    i_d = _distinctiveness_rows(Q, dist.weights, "hml_loss distinctiveness term")
    with np.errstate(invalid="ignore"):
        per_anchor = i_h - i_d
    return float(np.dot(dist.weights, per_anchor))


def imbalance_lambda(n_classes: int, rho_min: float) -> float:
    """Reweighting coefficient 1 / (|C| * rho_min) for the empirical bound."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if not 0 < rho_min <= 1:
        raise ValueError("rho_min must lie in (0, 1]")
    return 1.0 / (n_classes * rho_min)


def mhml_bound(
    empirical: FiniteDistribution,
    memory: FiniteDistribution,
    oracle: FiniteDistribution,
    kernel: Kernel,
    rho_min: float,
    n_classes: int,
) -> float:
    """Memory-augmented upper bound on the balanced-distribution objective.

    lambda * I_h(empirical) - I_d(empirical -> memory)
        + |I_d(empirical -> memory) - I_d(oracle -> oracle)|

    with lambda = 1 / (|C| * rho_min). When empirical and oracle share
    per-class conditionals this dominates hml_loss(oracle, kernel).
    """
    lam = imbalance_lambda(n_classes, rho_min)
    Q = self_scores(empirical.embeddings, kernel)
    rows = _hebbian_rows(Q, _class_conditionals(empirical), "mhml_bound hebbian term")
    i_h = float(np.dot(empirical.weights, rows))

    def mean_distinctiveness(dist: FiniteDistribution, ref: FiniteDistribution) -> float:
        Q = pair_scores(dist.embeddings, ref.embeddings, kernel)
        i_d = _distinctiveness_rows(Q, ref.weights, "mhml_bound distinctiveness term")
        return float(np.dot(dist.weights, i_d))

    i_d_mem = mean_distinctiveness(empirical, memory)
    i_d_oracle = mean_distinctiveness(oracle, oracle)
    return lam * i_h - i_d_mem + abs(i_d_mem - i_d_oracle)
