from __future__ import annotations

import math
from math import fsum

import numpy as np
import pytest

from duelmem.information import (
    FiniteDistribution,
    InfiniteInformationWarning,
    distinctiveness_information,
    hebbian_information,
    hml_loss,
    imbalance_lambda,
    mhml_bound,
)
from duelmem.kernels import AffineCosine, ExponentialTemp, normalize
from duelmem.verify import ORACLE_KERNEL

LN2 = 0.6931471805599453


def _q(a, b, kernel):
    """Scalar duplication probability, written independently of the library."""
    s = min(1.0, max(-1.0, float(np.dot(a, b))))
    if isinstance(kernel, AffineCosine):
        return (1.0 + s) / 2.0
    return math.exp((s - 1.0) / kernel.tau)


def oracle_hebbian(anchor, label, dist, kernel):
    """I_h by direct enumeration over the class conditional of label, the
    anchor's class."""
    idx = [i for i in range(dist.embeddings.shape[0]) if dist.labels[i] == label]
    wc = fsum(dist.weights[i] for i in idx)
    terms = []
    for i in idx:
        q = _q(anchor, dist.embeddings[i], kernel)
        if q == 0.0 and dist.weights[i] > 0:
            return math.inf
        terms.append((dist.weights[i] / wc) * -math.log(q))
    return fsum(terms)


def oracle_distinctiveness(anchor, dist, kernel):
    """I_d by direct enumeration against the whole reference."""
    mean_q = fsum(
        dist.weights[i] * _q(anchor, dist.embeddings[i], kernel)
        for i in range(dist.embeddings.shape[0])
    )
    if mean_q == 0.0:
        return math.inf
    return -math.log(mean_q)


def oracle_hml(dist, kernel):
    """hml_loss by anchor-wise enumeration with fsum accumulation."""
    terms = []
    for i in range(dist.embeddings.shape[0]):
        ih = oracle_hebbian(dist.embeddings[i], dist.labels[i], dist, kernel)
        idv = oracle_distinctiveness(dist.embeddings[i], dist, kernel)
        terms.append(dist.weights[i] * (ih - idv))
    return fsum(terms)


def _class_conditional(dist, label):
    """The same-class points of dist, weights renormalized."""
    mask = dist.labels == label
    w = dist.weights[mask]
    return FiniteDistribution(dist.embeddings[mask], dist.labels[mask], w / w.sum())


def _random_dist(rng, n_classes, per_class, z):
    emb = normalize(rng.normal(size=(n_classes * per_class, z)))
    labels = np.repeat(np.arange(n_classes), per_class)
    w = rng.uniform(0.1, 1.0, size=len(labels))
    return FiniteDistribution(emb, labels, w / w.sum())


class TestFiniteDistribution:
    def test_uniform_weights(self):
        d = FiniteDistribution(np.eye(4), np.arange(4))
        assert np.allclose(d.weights, 0.25)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.eye(2), np.arange(2), np.array([0.5, 0.6]))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.eye(2), np.arange(2), np.array([1.5, -0.5]))

    def test_embeddings_must_be_unit(self):
        with pytest.raises(ValueError):
            FiniteDistribution(2.0 * np.eye(3), np.arange(3))

    def test_labels_must_align(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.eye(3), np.arange(2))


class TestHebbianInformation:
    def test_single_identical_positive_is_zero(self):
        d = FiniteDistribution(np.eye(2)[:1], np.zeros(1, int))
        assert hebbian_information(np.eye(2)[0], d, AffineCosine()) == 0.0

    def test_two_positive_cosines_one_and_zero(self):
        # q = {exp(0), exp(-2)} at tau = 0.5; mean of -log q = (0 + 2)/2.
        anchor = np.array([1.0, 0.0])
        d = FiniteDistribution(np.eye(2), np.zeros(2, int))
        got = hebbian_information(anchor, d, ExponentialTemp(tau=0.5))
        assert math.isclose(got, 1.0, abs_tol=1e-12)

    def test_matches_oracle_on_random_data(self):
        # The library takes the anchor's class conditional; the oracle takes
        # the full distribution and restricts internally.
        rng = np.random.default_rng(7)
        for kernel in (AffineCosine(), ExponentialTemp(tau=0.7)):
            d = _random_dist(rng, 3, 4, 6)
            for i in range(d.embeddings.shape[0]):
                label = int(d.labels[i])
                got = hebbian_information(
                    d.embeddings[i], _class_conditional(d, label), kernel
                )
                want = oracle_hebbian(d.embeddings[i], label, d, kernel)
                assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)

    def test_zero_probability_positive_warns_and_is_infinite(self):
        # Antipodal pair under the affine kernel: q = 0 exactly.
        anchor = np.array([1.0, 0.0])
        d = FiniteDistribution(np.array([[-1.0, 0.0]]), np.zeros(1, int))
        with pytest.warns(InfiniteInformationWarning):
            got = hebbian_information(anchor, d, AffineCosine())
        assert got == math.inf


class TestDistinctivenessInformation:
    def test_frozen_two_point_reference(self):
        # Reference {e1, e2}, anchor e1, affine: mean q = (1 + 0.5)/2 = 0.75.
        d = FiniteDistribution(np.eye(2), np.arange(2))
        got = distinctiveness_information(np.eye(2)[0], d, AffineCosine())
        assert math.isclose(got, 0.2876820724517809, abs_tol=1e-15)

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(8)
        for kernel in (AffineCosine(), ExponentialTemp(tau=1.3)):
            d = _random_dist(rng, 4, 3, 5)
            anchor = normalize(rng.normal(size=5))
            got = distinctiveness_information(anchor, d, kernel)
            want = oracle_distinctiveness(anchor, d, kernel)
            assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)

    def test_label_oracle_reads_class_mass(self):
        labels = np.array([0, 0, 1])
        d = FiniteDistribution(np.eye(3)[labels], labels, np.array([0.45, 0.45, 0.1]))
        got = distinctiveness_information(np.eye(3)[1], d, ORACLE_KERNEL)
        assert math.isclose(got, -math.log(0.1), abs_tol=1e-12)

    def test_disjoint_class_is_infinite(self):
        labels = np.zeros(2, int)
        d = FiniteDistribution(np.eye(6)[labels], labels)
        with pytest.warns(InfiniteInformationWarning):
            got = distinctiveness_information(np.eye(6)[5], d, ORACLE_KERNEL)
        assert got == math.inf


class TestHmlLoss:
    def test_frozen_two_class_value(self):
        # {e1}, {e2} uniform, affine kernel: each anchor has I_h = 0 and
        # I_d = -log 0.75, so the loss is log 0.75.
        d = FiniteDistribution(np.eye(2), np.arange(2))
        got = hml_loss(d, AffineCosine())
        assert math.isclose(got, -0.2876820724517809, abs_tol=1e-15)

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(9)
        for kernel in (AffineCosine(), ExponentialTemp(tau=0.5), ORACLE_KERNEL):
            d = _random_dist(rng, 3, 3, 7)
            if kernel is ORACLE_KERNEL:
                d = FiniteDistribution(np.eye(7)[d.labels], d.labels, d.weights)
            assert math.isclose(
                hml_loss(d, kernel), oracle_hml(d, kernel), abs_tol=1e-12
            )

    def test_zero_weight_class_is_rejected(self):
        # Class 1 has no mass, so it has no class conditional to average over.
        d = FiniteDistribution(
            np.eye(3), np.array([0, 0, 1]), np.array([0.5, 0.5, 0.0])
        )
        with pytest.raises(ValueError, match="class 1 has zero weight"):
            hml_loss(d, AffineCosine())


class TestImbalanceLambda:
    def test_frozen_value(self):
        assert math.isclose(imbalance_lambda(10, 1.0 / 36.0), 3.6, abs_tol=1e-12)

    def test_balanced_is_one(self):
        assert math.isclose(imbalance_lambda(4, 0.25), 1.0, abs_tol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            imbalance_lambda(0, 0.5)
        with pytest.raises(ValueError):
            imbalance_lambda(3, 0.0)


class TestMhmlBound:
    def _triple(self, rng, n_classes=3, per_class=3, z=6):
        emb = normalize(rng.normal(size=(n_classes * per_class, z)))
        labels = np.repeat(np.arange(n_classes), per_class)
        within = np.zeros(len(labels))
        for c in range(n_classes):
            mask = labels == c
            w = rng.uniform(0.2, 1.0, size=mask.sum())
            within[mask] = w / w.sum()
        rho = rng.uniform(0.05, 1.0, size=n_classes)
        rho = rho / rho.sum()
        oracle = FiniteDistribution(emb, labels, within / n_classes)
        empirical = FiniteDistribution(emb, labels, within * rho[labels])
        mem_emb = normalize(rng.normal(size=(5, z)))
        memory = FiniteDistribution(mem_emb, rng.integers(0, n_classes, size=5))
        return empirical, memory, oracle, float(rho.min()), n_classes

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(12)
        emp, mem, oracle, rho_min, c = self._triple(rng)
        kernel = AffineCosine()
        lam = imbalance_lambda(c, rho_min)
        ih = fsum(
            emp.weights[i]
            * oracle_hebbian(emp.embeddings[i], int(emp.labels[i]), emp, kernel)
            for i in range(emp.embeddings.shape[0])
        )
        id_mem = fsum(
            emp.weights[i]
            * oracle_distinctiveness(emp.embeddings[i], mem, kernel)
            for i in range(emp.embeddings.shape[0])
        )
        id_oracle = fsum(
            oracle.weights[i]
            * oracle_distinctiveness(oracle.embeddings[i], oracle, kernel)
            for i in range(oracle.embeddings.shape[0])
        )
        want = lam * ih - id_mem + abs(id_mem - id_oracle)
        got = mhml_bound(emp, mem, oracle, kernel, rho_min, c)
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-10)

    def test_zero_probability_positive_warns_and_is_infinite(self):
        # Antipodal positives under the affine kernel: q = 0 exactly.
        emb = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        d = FiniteDistribution(emb, np.array([0, 0, 1]))
        with pytest.warns(InfiniteInformationWarning):
            got = mhml_bound(d, d, d, AffineCosine(), 1.0 / 3.0, 2)
        assert got == math.inf

    def test_zero_weight_class_is_rejected(self):
        d = FiniteDistribution(
            np.eye(3), np.array([0, 0, 1]), np.array([0.5, 0.5, 0.0])
        )
        with pytest.raises(ValueError, match="class 1 has zero weight"):
            mhml_bound(d, d, d, AffineCosine(), 0.5, 2)
