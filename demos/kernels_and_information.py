"""Duplication kernels and the information quantities built on them.

Walks through the three layers of the objective: pairwise duplication
scores, per-anchor Hebbian/distinctiveness information, and the balanced
optimum -ln(n_classes) that a perfect labeler attains. Finishes with the
imbalance-corrected memory bound evaluated on a skewed copy of the same
point set.

Usage:
    python3 demos/kernels_and_information.py
"""

import math

import numpy as np

from duelmem.information import FiniteDistribution, hml_loss, mhml_bound
from duelmem.kernels import AffineCosine, ExponentialTemp, normalize, pair_scores
from duelmem.verify import ORACLE_KERNEL


def main() -> None:
    rng = np.random.default_rng(0)

    print("== duplication scores ==")
    a = normalize(np.array([1.0, 0.0, 0.0]))
    for name, b in [
        ("identical", a),
        ("orthogonal", normalize(np.array([0.0, 1.0, 0.0]))),
        ("opposite", -a),
    ]:
        cos = float(a @ b)
        affine = pair_scores(a[None, :], b[None, :], AffineCosine())[0, 0]
        exp = pair_scores(a[None, :], b[None, :], ExponentialTemp(0.5))[0, 0]
        print(
            f"  cos={cos:+.1f} ({name}): "
            f"affine {affine:.4f}, exp(tau=0.5) {exp:.4f}"
        )

    print("\n== balanced sets sit at the optimum under a perfect labeler ==")
    for n_classes in (2, 5, 10):
        # A perfect extractor maps each class to its own basis vector, on
        # which ORACLE_KERNEL scores 1 within a class and 0 across classes.
        labels = np.repeat(np.arange(n_classes), 4)
        dist = FiniteDistribution(np.eye(n_classes)[labels], labels)
        loss = hml_loss(dist, ORACLE_KERNEL)
        print(
            f"  {n_classes} classes: loss {loss:+.6f}, "
            f"-ln C {-math.log(n_classes):+.6f}"
        )

    print("\n== the memory bound under class imbalance ==")
    labels = np.repeat(np.arange(4), 5)
    points = normalize(rng.normal(size=(labels.size, 8)))
    balanced = FiniteDistribution(points, labels)
    class_probs = np.array([0.7, 0.1, 0.1, 0.1])
    skewed = FiniteDistribution(points, labels, np.repeat(class_probs / 5, 5))
    memory = FiniteDistribution(
        normalize(rng.normal(size=(16, 8))), rng.integers(0, 4, 16)
    )
    kernel = ExponentialTemp(0.5)
    bound = mhml_bound(
        skewed, memory, balanced, kernel, rho_min=0.1, n_classes=4
    )
    print(f"  balanced objective {hml_loss(balanced, kernel):+.4f}")
    print(f"  skewed-stream bound {bound:+.4f} (always at least the objective)")


if __name__ == "__main__":
    main()
