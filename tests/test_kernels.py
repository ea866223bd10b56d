from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelmem import verify
from duelmem.kernels import (
    AffineCosine,
    ExponentialTemp,
    normalize,
    pair_scores,
    pair_terms,
    self_scores,
    term_sums,
)
from duelmem.verify import ORACLE_KERNEL


def _unit(rng: np.random.Generator, n: int, z: int) -> np.ndarray:
    return normalize(rng.normal(size=(n, z)))


class TestNormalize:
    def test_single_vector(self):
        v = normalize(np.array([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8])
        assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-12)

    def test_rows_of_matrix(self):
        out = normalize(np.array([[2.0, 0.0], [0.0, 5.0]]))
        assert np.allclose(out, np.eye(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(3))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.array([np.inf, 1.0]))

    @pytest.mark.parametrize("shape", [(7,), (16,), (64, 16), (5, 33)])
    def test_bytes_equal_linalg_norm_scaling(self, shape):
        # normalize computes np.linalg.norm's formula along the last axis
        # itself; the pushed batch keeps its bytes only while the two agree.
        v = np.random.default_rng(17).normal(size=shape) * 3.0
        expected = v / np.linalg.norm(v, axis=-1, keepdims=True)
        assert normalize(v).tobytes() == expected.tobytes()


class TestKernelForms:
    def test_affine_half_similarity(self):
        assert AffineCosine().from_cosine_inplace(np.array([0.5]))[0] == 0.75

    def test_affine_endpoints(self):
        q = AffineCosine().from_cosine_inplace(np.array([1.0, -1.0]))
        assert q[0] == 1.0
        assert q[1] == 0.0

    def test_exponential_value(self):
        q = ExponentialTemp(tau=0.5).from_cosine_inplace(np.array([0.0]))[0]
        assert math.isclose(q, 0.1353352832366127, rel_tol=0, abs_tol=1e-15)

    def test_exponential_identity_pair(self):
        assert ExponentialTemp(tau=0.7).from_cosine_inplace(np.array([1.0]))[0] == 1.0

    def test_exponential_requires_positive_tau(self):
        with pytest.raises(ValueError):
            ExponentialTemp(tau=0.0)
        with pytest.raises(ValueError):
            ExponentialTemp(tau=-1.0)


class TestPairScores:
    def test_shape_and_symmetry(self):
        rng = np.random.default_rng(0)
        X, Y = _unit(rng, 4, 5), _unit(rng, 3, 5)
        Q = pair_scores(X, Y, AffineCosine())
        assert Q.shape == (4, 3)
        assert np.allclose(Q, pair_scores(Y, X, AffineCosine()).T)

    @pytest.mark.parametrize(
        "kernel",
        [AffineCosine(), ExponentialTemp(tau=0.5), ExponentialTemp(tau=0.07)],
        ids=["affine", "exp0.5", "exp0.07"],
    )
    def test_bit_identical_to_copying_formula(self, kernel):
        # The reference is the kernel written out with a clipped copy: np.clip,
        # then (s + 1) / 2 or exp((s - 1) / tau).
        def reference(X, Y):
            q = np.array(np.clip(X @ Y.T, -1.0, 1.0))
            if isinstance(kernel, AffineCosine):
                q += 1.0
                q /= 2.0
                return q
            q -= 1.0
            q /= kernel.tau
            return np.exp(q)

        rng = np.random.default_rng(7)
        U = _unit(rng, 40, 6)
        # Exact duplicates and antipodal rows, whose cosines round past +-1,
        # and rows of norm far from 1.
        X = np.vstack([U, U[:10], -U[10:20], 3.0 * U[20:25], 1e-3 * U[25:30]])
        Y = np.vstack([U, -U[:15], 0.5 * U[30:]])
        cos = X @ Y.T
        assert (cos > 1.0).any() and (cos < -1.0).any()
        assert ((np.abs(cos) > 1.0) & (np.abs(cos) < 1.0 + 1e-12)).any()
        X0, Y0 = X.copy(), Y.copy()
        Q = pair_scores(X, Y, kernel)
        assert Q.tobytes() == reference(X0, Y0).tobytes()
        assert Q.dtype == np.float64 and Q.shape == (X.shape[0], Y.shape[0])
        assert X.tobytes() == X0.tobytes() and Y.tobytes() == Y0.tobytes()
        S = self_scores(X, kernel)
        assert S.tobytes() == reference(X0, X0).tobytes()
        assert X.tobytes() == X0.tobytes()

    def test_self_scores_diagonal_is_one(self):
        rng = np.random.default_rng(2)
        X = _unit(rng, 6, 3)
        S = self_scores(X, ExponentialTemp(tau=0.4))
        assert np.allclose(np.diag(S), 1.0, atol=1e-12)
        assert np.allclose(S, S.T)

    def test_kernel_invariants_catch_an_unclipped_upper_bound(self, monkeypatch):
        # pair_scores with only the lower clip: a pair's own cosine can round
        # past 1, and so can its q.
        def lower_clip_only(X, Y, kernel):
            s = X @ Y.T
            s.clip(-1.0, None, out=s)
            return kernel.from_cosine_inplace(s)

        monkeypatch.setattr(verify, "pair_scores", lower_clip_only)
        ok, detail = verify.check_kernel_invariants(quick=True)
        assert not ok
        assert detail.startswith("q out of range")

    def test_term_sums_add_up_the_unclipped_affine_terms(self):
        # A DUEL push credits its rows their terms against the entries it
        # leaves out of its loop from one sum of those entries.
        rng = np.random.default_rng(3)
        X, Y = _unit(rng, 7, 5), _unit(rng, 40, 5)
        w = rng.choice([-1.0, 0.0, 1.0], size=40)
        T = pair_terms(X, Y, AffineCosine(), False)
        assert np.allclose(term_sums(X, Y, AffineCosine()), T.sum(axis=1), rtol=0, atol=1e-13)
        assert np.allclose(term_sums(X, Y, AffineCosine(), w), T @ w, rtol=0, atol=1e-13)
        with pytest.raises(ValueError, match="linear kernel"):
            term_sums(X, Y, ExponentialTemp(tau=0.5))

    def test_label_oracle_pairwise(self):
        # ORACLE_KERNEL on one-hot class embeddings is the label-match
        # matrix exactly, whether or not the embedding has spare dimensions.
        labels = np.array([0, 1, 0, 2, 2, 1, 0])
        expected = (labels[:, None] == labels[None, :]).astype(float)
        for z in (3, 5):
            X = np.eye(z)[labels]
            assert np.array_equal(pair_scores(X, X, ORACLE_KERNEL), expected), z


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=6),
    st.lists(st.floats(-3, 3), min_size=2, max_size=6),
    st.floats(0.1, 3.0),
)
def test_pair_scores_bounds_and_symmetry(a_raw, b_raw, tau):
    dim = min(len(a_raw), len(b_raw))
    a, b = np.asarray(a_raw[:dim]), np.asarray(b_raw[:dim])
    if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
        return
    a, b = normalize(a)[None, :], normalize(b)[None, :]
    for kernel in (AffineCosine(), ExponentialTemp(tau=tau)):
        q = pair_scores(a, b, kernel)[0, 0]
        assert 0.0 <= q <= 1.0
        assert math.isclose(q, pair_scores(b, a, kernel)[0, 0], abs_tol=1e-12)
        assert math.isclose(pair_scores(a, a, kernel)[0, 0], 1.0, abs_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 3.0))
def test_kernels_monotone_in_cosine(s1, s2, tau):
    lo, hi = min(s1, s2), max(s1, s2)
    for kernel in (AffineCosine(), ExponentialTemp(tau=tau)):
        q_lo, q_hi = kernel.from_cosine_inplace(np.array([lo, hi]))
        assert q_lo <= q_hi + 1e-15
