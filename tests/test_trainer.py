from __future__ import annotations

import math
import re

import numpy as np
import pytest

from duelmem.information import FiniteDistribution, distinctiveness_information, hebbian_information
from duelmem.kernels import AffineCosine, ExponentialTemp, normalize
from duelmem.memory import ActiveMemory
from duelmem.trainer import (
    FeatureExtractor,
    TrainState,
    TrainerConfig,
    batched_infonce,
    cosine_lr,
    infonce_grad,
    infonce_loss,
    load_checkpoint,
    momentum_update,
    numerical_gradient,
    save_checkpoint,
    train_step,
)


def _unit(rng, n, z):
    return normalize(rng.normal(size=(n, z)))


def _tiny_state(lr=0.05, steps=5, momentum=0.9, guarded=False, seed=7, source="mixed"):
    cfg = TrainerConfig(
        batch_size=4,
        memory_neg_count=4,
        negative_source=source,
        momentum=momentum,
        lr=lr,
        steps=steps,
        seed=seed,
        d_out=3,
    )
    extractor = FeatureExtractor(4, 3, seed=seed)
    memory = ActiveMemory(8, 3, AffineCosine(), "duel", seed=5)
    memory.push_batch(_unit(np.random.default_rng(3), 8, 3), np.zeros(8, int))
    return TrainState.create(cfg, extractor, memory, guarded_memory=guarded)


class TestFeatureExtractor:
    def test_identity_weights_pass_basis_through(self):
        f = FeatureExtractor(2, 2)
        f.params["W"] = np.eye(2)
        f.params["b"] = np.zeros(2)
        out = f.forward(np.array([1.0, 0.0]))
        assert np.allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_outputs_are_unit(self):
        rng = np.random.default_rng(0)
        for hidden in (None, 6):
            f = FeatureExtractor(5, 3, hidden, seed=1)
            Z = f.forward(rng.normal(size=(10, 5)))
            assert np.allclose(np.linalg.norm(Z, axis=1), 1.0, atol=1e-9)

    def test_seeded_init_is_bit_identical(self):
        a = FeatureExtractor(4, 3, seed=11)
        b = FeatureExtractor(4, 3, seed=11)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_zero_output_rejected(self):
        f = FeatureExtractor(2, 2)
        f.params["W"] = np.zeros((2, 2))
        f.params["b"] = np.zeros(2)
        with pytest.raises(ValueError):
            f.forward(np.ones(2))

    def test_clone_is_independent(self):
        f = FeatureExtractor(3, 2, seed=2)
        g = f.clone()
        g.params["W"] += 1.0
        assert not np.array_equal(f.params["W"], g.params["W"])


class TestInfonceLoss:
    def test_matched_single_negative_is_zero(self):
        anchor, positive = np.eye(2)
        # s+ = 0 and the lone negative has the same similarity.
        loss = infonce_loss(anchor, positive, positive[None, :], 0.5, epsilon=0.0)
        assert math.isclose(loss, 0.0, abs_tol=1e-12)

    def test_frozen_value(self):
        anchor = np.array([1.0, 0.0])
        loss = infonce_loss(anchor, anchor, -anchor[None, :], 0.5, epsilon=1.0)
        assert math.isclose(loss, math.log1p(math.exp(-4.0)), abs_tol=1e-12)

    def test_extreme_logits_are_stable(self):
        anchor = np.array([1.0, 0.0])
        loss = infonce_loss(anchor, anchor, -anchor[None, :], 1e-3, epsilon=1.0)
        assert math.isfinite(loss)

    def test_information_identity(self):
        # epsilon = 0 with memory negatives under the exp kernel:
        # loss = I_h - I_d + ln K, termwise.
        rng = np.random.default_rng(1)
        for _ in range(25):
            z = int(rng.integers(2, 8))
            k = int(rng.integers(2, 20))
            tau = float(rng.uniform(0.2, 2.0))
            anchor = _unit(rng, 1, z)[0]
            positive = _unit(rng, 1, z)[0]
            negatives = _unit(rng, k, z)
            kernel = ExponentialTemp(tau=tau)
            loss = infonce_loss(anchor, positive, negatives, tau, epsilon=0.0)
            i_h = hebbian_information(
                anchor,
                0,
                FiniteDistribution.uniform(positive[None, :], np.zeros(1, int)),
                kernel,
            )
            i_d = distinctiveness_information(
                anchor, FiniteDistribution.uniform(negatives, np.zeros(k, int)), kernel
            )
            assert math.isclose(loss, i_h - i_d + math.log(k), abs_tol=1e-9)


class TestGradients:
    @pytest.mark.parametrize("hidden", [None, 5], ids=["linear", "mlp"])
    @pytest.mark.parametrize("source", ["batch_only", "memory_only", "mixed"])
    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_matches_finite_differences(self, hidden, source, epsilon):
        rng = np.random.default_rng(hash((hidden, source, epsilon)) % (1 << 31))
        cfg = TrainerConfig(
            batch_size=3,
            tau=0.7,
            epsilon=epsilon,
            negative_source=source,
            memory_neg_count=4,
            d_out=3,
        )
        f = FeatureExtractor(4, 3, hidden, seed=9)
        X = rng.normal(size=(3, 4))
        Xp = rng.normal(size=(3, 4))
        negs = _unit(rng, 4, 3) if source != "batch_only" else None

        def loss_fn():
            Z = f.forward(X)
            P = f.forward(Xp)
            return batched_infonce(
                Z, P, negs, cfg.tau, epsilon, source, positives_trainable=False
            )[0]

        _, grads = infonce_grad(f, X, Xp, negs, cfg)
        numeric = numerical_gradient(loss_fn, f.params)
        for k in grads:
            denom = np.maximum(np.abs(grads[k]) + np.abs(numeric[k]), 1e-6)
            assert np.max(np.abs(grads[k] - numeric[k]) / denom) < 1e-4

    def test_key_extractor_blocks_positive_gradient(self):
        rng = np.random.default_rng(2)
        cfg = TrainerConfig(batch_size=3, memory_neg_count=4, d_out=3)
        f = FeatureExtractor(4, 3, seed=3)
        f_key = f.clone()
        f_key.params["W"] += 0.2 * rng.normal(size=f_key.params["W"].shape)
        X = rng.normal(size=(3, 4))
        Xp = rng.normal(size=(3, 4))
        negs = _unit(rng, 4, 3)

        def loss_fn():
            Z = f.forward(X)
            P = f_key.forward(Xp)
            return batched_infonce(
                Z, P, negs, cfg.tau, cfg.epsilon, cfg.negative_source, False
            )[0]

        _, grads = infonce_grad(f, X, Xp, negs, cfg, key_extractor=f_key)
        numeric = numerical_gradient(loss_fn, f.params)
        for k in grads:
            denom = np.maximum(np.abs(grads[k]) + np.abs(numeric[k]), 1e-6)
            assert np.max(np.abs(grads[k] - numeric[k]) / denom) < 1e-4

    def test_stationary_at_fully_collapsed_embeddings(self):
        # W = 0 with a constant bias maps every input to the same unit
        # vector; with that vector as the only negative every logit is
        # equal, so the analytic gradient must vanish identically.
        cfg = TrainerConfig(batch_size=3, memory_neg_count=1, d_out=2)
        f = FeatureExtractor(3, 2)
        f.params["W"] = np.zeros((2, 3))
        f.params["b"] = np.array([2.0, 0.0])
        X = np.random.default_rng(4).normal(size=(3, 3))
        u = np.array([[1.0, 0.0]])
        _, grads = infonce_grad(f, X, X.copy(), u, cfg)
        norm = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert norm < 1e-8

    def test_equal_logits_stay_stationary_when_tau_doubles(self):
        f = FeatureExtractor(3, 2)
        f.params["W"] = np.zeros((2, 3))
        f.params["b"] = np.array([0.0, -1.5])
        X = np.random.default_rng(5).normal(size=(2, 3))
        u = np.array([[0.0, -1.0]])
        for tau in (0.5, 1.0):
            cfg = TrainerConfig(
                batch_size=2, tau=tau, memory_neg_count=1, d_out=2
            )
            _, grads = infonce_grad(f, X, X.copy(), u, cfg)
            assert all(np.max(np.abs(g)) < 1e-12 for g in grads.values())


class TestMomentumUpdate:
    def test_m_zero_copies_query(self):
        key = {"W": np.array([1.0, 2.0])}
        query = {"W": np.array([5.0, 6.0])}
        momentum_update(key, query, 0.0)
        assert np.array_equal(key["W"], query["W"])

    def test_m_one_freezes_key(self):
        key = {"W": np.array([1.0, 2.0])}
        momentum_update(key, {"W": np.array([9.0, 9.0])}, 1.0)
        assert np.array_equal(key["W"], [1.0, 2.0])

    def test_scalar_blend(self):
        key = {"W": np.array([1.0])}
        momentum_update(key, {"W": np.array([0.0])}, 0.9)
        assert math.isclose(float(key["W"][0]), 0.9, abs_tol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            momentum_update(
                {"W": np.zeros(2)}, {"W": np.zeros(3)}, 0.5
            )


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.2) == 0.2
        assert math.isclose(cosine_lr(100, 100, 0.2), 0.0, abs_tol=1e-15)
        assert math.isclose(cosine_lr(50, 100, 0.2), 0.1, abs_tol=1e-15)

    def test_monotone_decay(self):
        values = [cosine_lr(s, 40, 1.0) for s in range(41)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(-1, 10, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 0.1)


class TestTrainStep:
    def test_zero_lr_updates_memory_but_not_params(self):
        state = _tiny_state(lr=0.0)
        rng = np.random.default_rng(6)
        before = {k: v.copy() for k, v in state.extractor.params.items()}
        mem_before = state.memory.embeddings
        report = train_step(state, rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        assert all(
            np.array_equal(state.extractor.params[k], before[k]) for k in before
        )
        assert not np.array_equal(state.memory.embeddings, mem_before)
        assert report.step == 1 and math.isfinite(report.loss)

    def test_fixed_seed_trajectories_are_identical(self):
        losses = []
        for _ in range(2):
            state = _tiny_state()
            rng = np.random.default_rng(42)
            run = []
            for _ in range(5):
                X = rng.normal(size=(4, 4))
                run.append(train_step(state, X, X + 0.1 * rng.normal(size=(4, 4))).loss)
            losses.append(run)
        assert losses[0] == losses[1]

    def test_momentum_key_follows_blend(self):
        state = _tiny_state(momentum=0.9)
        key_before = {k: v.copy() for k, v in state.key_extractor.params.items()}
        rng = np.random.default_rng(8)
        train_step(state, rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        for k, v in state.key_extractor.params.items():
            want = 0.9 * key_before[k] + 0.1 * state.extractor.params[k]
            assert np.allclose(v, want, atol=1e-15)

    def test_no_momentum_has_no_key_extractor(self):
        state = _tiny_state(momentum=None)
        assert state.key_extractor is None

    def test_lr_follows_cosine_schedule(self):
        state = _tiny_state(lr=0.2, steps=10)
        rng = np.random.default_rng(9)
        r0 = train_step(state, rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        r1 = train_step(state, rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        assert r0.lr == cosine_lr(0, 10, 0.2)
        assert r1.lr == cosine_lr(1, 10, 0.2)

    @pytest.mark.parametrize("source", ["batch_only", "memory_only", "mixed"])
    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_ablation_grid_all_runnable(self, source, epsilon):
        cfg = TrainerConfig(
            batch_size=4,
            epsilon=epsilon,
            negative_source=source,
            memory_neg_count=4,
            steps=3,
            d_out=3,
        )
        extractor = FeatureExtractor(4, 3, seed=1)
        memory = ActiveMemory(8, 3, AffineCosine(), "duel", seed=2)
        memory.push_batch(_unit(np.random.default_rng(1), 8, 3))
        state = TrainState.create(cfg, extractor, memory)
        rng = np.random.default_rng(10)
        for _ in range(3):
            X = rng.normal(size=(4, 4))
            report = train_step(state, X, X + 0.05 * rng.normal(size=(4, 4)))
            assert math.isfinite(report.loss)

    def test_guarded_mode_reports_application(self):
        state = _tiny_state(guarded=True)
        rng = np.random.default_rng(11)
        report = train_step(
            state,
            rng.normal(size=(4, 4)),
            rng.normal(size=(4, 4)),
            labels=np.zeros(4, int),
        )
        assert isinstance(report.memory_update_applied, bool)

    def test_eviction_events_surface_in_report(self):
        state = _tiny_state()
        rng = np.random.default_rng(12)
        report = train_step(state, rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        assert len(report.events) == 4  # full memory: one event per item


def _rewrite_checkpoint(path, fault) -> None:
    """Apply fault(arrays, meta) to a saved checkpoint in place."""
    import json

    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    fault(arrays, meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _truncate(key):
    return lambda arrays, meta: arrays.update({key: arrays[key][:-1]})


def _set_memory_meta(**values):
    return lambda arrays, meta: meta["memory"].update(values)


def _nan_row(arrays, meta):
    arrays["mem.emb"][0, 0] = np.nan


def _scaled_row(arrays, meta):
    arrays["mem.emb"][0] *= 2.0


def _wrong_score(arrays, meta):
    arrays["mem.scores"][3] += 1e-6


# name -> (fault, field the error must name). The memory holds 8 of 8.
CHECKPOINT_FAULTS = {
    "emb_shape": (_truncate("mem.emb"), "emb"),
    "labels_length": (_truncate("mem.labels"), "labels"),
    "steps_length": (_truncate("mem.steps"), "steps"),
    "scores_length": (_truncate("mem.scores"), "scores"),
    "count_above_capacity": (_set_memory_meta(count=9), "count"),
    # The naive DUEL oracle is no policy a memory can be built with.
    "policy_duel_naive": (_set_memory_meta(policy="duel_naive"), "duel_naive"),
    "count_negative": (_set_memory_meta(count=-1), "count"),
    "seen_below_count": (_set_memory_meta(seen=7), "seen"),
    "non_finite_entry": (_nan_row, "emb"),
    "non_unit_entry": (_scaled_row, "emb"),
    "wrong_scores": (_wrong_score, "scores"),
    "param_shape": (_truncate("q.W"), "q.W"),
    "param_missing": (lambda arrays, meta: arrays.pop("k.b"), "k."),
    "param_extra": (
        lambda arrays, meta: arrays.update({"am.extra": np.zeros(3)}),
        "am.",
    ),
}


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        state = _tiny_state()
        rng = np.random.default_rng(13)
        for _ in range(3):
            X = rng.normal(size=(4, 4))
            train_step(state, X, X + 0.1 * rng.normal(size=(4, 4)))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, state, experiment_config={"note": "unit"})
        loaded, exp_cfg = load_checkpoint(path)
        assert exp_cfg == {"note": "unit"}
        assert loaded.step == state.step
        assert loaded.config == state.config
        for k in state.extractor.params:
            assert np.array_equal(
                loaded.extractor.params[k], state.extractor.params[k]
            )
            assert np.array_equal(
                loaded.key_extractor.params[k], state.key_extractor.params[k]
            )
            assert np.array_equal(loaded.adam_m[k], state.adam_m[k])
            assert np.array_equal(loaded.adam_v[k], state.adam_v[k])
        assert np.array_equal(loaded.memory.embeddings, state.memory.embeddings)
        assert np.array_equal(loaded.memory.labels, state.memory.labels)

    def test_training_resumes_identically(self, tmp_path):
        state = _tiny_state()
        rng = np.random.default_rng(14)
        for _ in range(2):
            X = rng.normal(size=(4, 4))
            train_step(state, X, X + 0.1 * rng.normal(size=(4, 4)))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, state)
        loaded, _ = load_checkpoint(path)
        X = np.random.default_rng(15).normal(size=(4, 4))
        Xp = X + 0.1
        assert train_step(state, X, Xp).loss == train_step(loaded, X, Xp).loss

    @pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
    def test_corrupt_state_rejected(self, tmp_path, fault):
        inject, field_name = CHECKPOINT_FAULTS[fault]
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, _tiny_state())
        load_checkpoint(path)  # intact checkpoints load
        _rewrite_checkpoint(path, inject)
        with pytest.raises(ValueError, match=re.escape(field_name)):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        state = _tiny_state()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, state)
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        meta["version"] = 999
        data["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(ValueError):
            load_checkpoint(path)
