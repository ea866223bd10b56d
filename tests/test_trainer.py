from __future__ import annotations

import copy
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest

from duelmem.cli import USAGE_ERROR, main
from duelmem.codec import decode, encode
from duelmem.harness import (
    ExperimentConfig,
    MemoryConfig,
    load_checkpoint,
    save_checkpoint,
    _CheckpointMeta,
    _initial_state,
    _MemoryMeta,
)
from duelmem.kernels import KERNEL_FORMS, AffineCosine, ExponentialTemp, normalize
from duelmem.memory import ActiveMemory
from duelmem.streams import StreamConfig
from duelmem.trainer import (
    FeatureExtractor,
    FlatParams,
    TrainState,
    TrainerConfig,
    adam_step,
    batched_infonce,
    cosine_lr,
    infonce_grad,
    momentum_update,
    train_step,
)
from duelmem.verify import check_gradients, infonce_loss, numerical_gradient


def _unit(rng, n, z):
    return normalize(rng.normal(size=(n, z)))


# The run seed of every tiny state.
SEED = 7


def _tiny_config(
    lr=0.05, steps=5, momentum=0.9, guarded=False, source="mixed", kernel=AffineCosine()
) -> ExperimentConfig:
    trainer = TrainerConfig(
        batch_size=4,
        memory_neg_count=4,
        negative_source=source,
        momentum=momentum,
        lr=lr,
        steps=steps,
        d_out=3,
    )
    return ExperimentConfig(
        stream=StreamConfig(d_in=4),
        trainer=trainer,
        memory=MemoryConfig(capacity=8, kernel=kernel, guarded=guarded),
    )


def _tiny_state(cfg: ExperimentConfig | None = None, **overrides) -> TrainState:
    """The step-0 state of run (cfg, SEED), its memory full; cfg defaults to
    _tiny_config(**overrides)."""
    state = _initial_state(cfg or _tiny_config(**overrides), SEED)
    state.memory.push_batch(_unit(np.random.default_rng(3), 8, 3), np.zeros(8, int))
    return state


def _save_tiny(path, **overrides) -> None:
    """Save the checkpoint of a tiny state at path."""
    cfg = _tiny_config(**overrides)
    save_checkpoint(path, _tiny_state(cfg), cfg, SEED)


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
        assert g.params.flat.tobytes() == f.params.flat.tobytes()
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


class TestGradients:
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

        _, grads, _ = infonce_grad(f, X, Xp, negs, cfg, key_extractor=f_key)
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
        _, grads, _ = infonce_grad(f, X, X.copy(), u, cfg)
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
            _, grads, _ = infonce_grad(f, X, X.copy(), u, cfg)
            assert all(np.max(np.abs(g)) < 1e-12 for g in grads.values())

    def test_gradient_check_catches_scaled_gradients(self, monkeypatch):
        backward = FeatureExtractor.backward

        def scaled(self, cache, dZ):
            grads = backward(self, cache, dZ)
            grads.flat *= 1.001
            return grads

        monkeypatch.setattr(FeatureExtractor, "backward", scaled)
        ok, detail = check_gradients(quick=True)
        assert not ok
        assert detail.startswith("rel err")


class TestMomentumUpdate:
    def test_m_zero_copies_query(self):
        key = FlatParams.of({"W": np.array([1.0, 2.0])})
        query = FlatParams.of({"W": np.array([5.0, 6.0])})
        momentum_update(key, query, 0.0)
        assert np.array_equal(key["W"], query["W"])

    def test_m_one_freezes_key(self):
        key = FlatParams.of({"W": np.array([1.0, 2.0])})
        momentum_update(key, FlatParams.of({"W": np.array([9.0, 9.0])}), 1.0)
        assert np.array_equal(key["W"], [1.0, 2.0])

    def test_scalar_blend(self):
        key = FlatParams.of({"W": np.array([1.0])})
        momentum_update(key, FlatParams.of({"W": np.array([0.0])}), 0.9)
        assert math.isclose(float(key["W"][0]), 0.9, abs_tol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            momentum_update(
                FlatParams.of({"W": np.zeros(2)}), FlatParams.of({"W": np.zeros(3)}), 0.5
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

    @pytest.mark.parametrize("hidden", [None, 6], ids=["linear", "tanh"])
    @pytest.mark.parametrize("momentum", [None, 0.9], ids=["query", "key"])
    def test_pushes_the_forward_rows_unchanged(self, hidden, momentum):
        # forward divides each row by its norm, so the rows it returns go into
        # the memory as they are, well inside push_batch's 1e-9 unit-norm check.
        cfg = TrainerConfig(
            batch_size=64, memory_neg_count=4, momentum=momentum, steps=10, d_out=3, hidden=hidden
        )
        memory = ActiveMemory(512, 3, AffineCosine(), "duel", seed=5)
        memory.push_batch(_unit(np.random.default_rng(3), 8, 3))
        state = TrainState.create(cfg, FeatureExtractor(4, 3, hidden, seed=2), memory)
        rng = np.random.default_rng(13)
        for scale in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
            X = scale * rng.normal(size=(64, 4))
            want = (state.key_extractor or state.extractor).forward(X)
            n = memory.size
            train_step(state, X, X + 0.05 * scale * rng.normal(size=(64, 4)))
            assert memory.embeddings[n:].tobytes() == want.tobytes()
            norms = np.sqrt(np.add.reduce(want * want, axis=1))
            assert np.abs(norms - 1.0).max() <= 1e-15

    def test_eviction_events_surface_in_report(self):
        state = _tiny_state()
        rng = np.random.default_rng(12)
        report = train_step(state, rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        assert len(report.events) == 4  # full memory: one event per item


def _rewrite_checkpoint(path, fault) -> None:
    """Apply fault(arrays, meta) to a saved checkpoint in place. meta is
    stored re-encoded, unless the fault replaced the stored array itself."""
    with np.load(path) as data:
        arrays = dict(data)
    stored = arrays["meta"]
    meta = json.loads(bytes(stored).decode("utf-8"))
    fault(arrays, meta)
    if arrays["meta"] is stored:
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _truncate(key):
    return lambda arrays, meta: arrays.update({key: arrays[key][:-1]})


def _set_memory_meta(**values):
    return lambda arrays, meta: meta["memory"].update(values)


def _set_config(section, **values):
    return lambda arrays, meta: meta["config"][section].update(values)


def _set_meta(**values):
    return lambda arrays, meta: meta.update(values)


def _meta_bytes(raw: bytes):
    return lambda arrays, meta: arrays.update(meta=np.frombuffer(raw, dtype=np.uint8))


def _nan_row(arrays, meta):
    arrays["mem.emb"][0, 0] = np.nan


def _scaled_row(arrays, meta):
    arrays["mem.emb"][0] *= 2.0


def _wrong_score(arrays, meta):
    arrays["mem.scores"][3] += 1e-6


# name -> (fault, field the error must name). The memory holds 8 of 8, and
# the key extractor is saved (momentum 0.9).
CHECKPOINT_FAULTS = {
    "emb_shape": (_truncate("mem.emb"), "emb"),
    "labels_length": (_truncate("mem.labels"), "labels"),
    "steps_length": (_truncate("mem.steps"), "steps"),
    "scores_length": (_truncate("mem.scores"), "scores"),
    "count_above_capacity": (_set_memory_meta(count=9), "count"),
    # The naive DUEL oracle is no policy a memory can be built with.
    "policy_duel_naive": (_set_config("memory", policy="duel_naive"), "duel_naive"),
    "count_negative": (_set_memory_meta(count=-1), "count"),
    "seen_below_count": (_set_memory_meta(seen=7), "seen"),
    "non_finite_entry": (_nan_row, "emb"),
    "non_unit_entry": (_scaled_row, "emb"),
    "wrong_scores": (_wrong_score, "scores"),
    "trainer_unknown_field": (_set_config("trainer", warmup=3), "warmup"),
    "trainer_mistyped_field": (_set_config("trainer", batch_size="4"), "batch_size"),
    # The state is built from meta.config, so a changed d_out or hidden no
    # longer fits the stored parameters.
    "trainer_d_out_disagrees": (_set_config("trainer", d_out=5), "q.W: expected shape"),
    "trainer_hidden_disagrees": (_set_config("trainer", hidden=6), "q.W1: missing"),
    "kernel_missing_tau": (_set_config("memory", kernel={"form": "exp"}), "tau"),
    "kernel_oracle": (
        _set_config("memory", kernel={"form": "oracle"}),
        "meta.config.memory.kernel.form",
    ),
    "kernel_string_tau": (
        _set_config("memory", kernel={"form": "exp", "tau": "0.5"}),
        "meta.config.memory.kernel.tau",
    ),
    "capacity_string": (_set_config("memory", capacity="8"), "meta.config.memory.capacity"),
    "d_in_string": (_set_config("stream", d_in="4"), "meta.config.stream.d_in"),
    "d_in_zero": (_set_config("stream", d_in=0), "meta.config.stream.d_in"),
    "capacity_zero": (_set_config("memory", capacity=0), "meta.config.memory.capacity"),
    "policy_unknown": (_set_config("memory", policy="lru"), "meta.config.memory.policy"),
    "step_missing": (lambda arrays, meta: meta.pop("step"), "step"),
    "step_negative": (_set_meta(step=-5), "meta.step"),
    "step_above_steps": (_set_meta(step=6), "meta.step"),
    "rng_missing_state": (_set_meta(rng={"bit_generator": "PCG64"}), "meta.rng"),
    "memory_rng_missing_state": (
        _set_memory_meta(rng={"bit_generator": "PCG64"}),
        "meta.memory.rng",
    ),
    # The format-2 copy of the config, left in a format-3 meta.
    "experiment_config_list": (
        _set_meta(experiment_config=[]),
        "meta: unknown fields ['experiment_config']",
    ),
    "meta_not_json": (_meta_bytes(b"{not json"), "meta: invalid JSON"),
    "meta_not_utf8": (_meta_bytes(b"\xff\xfe"), "meta: invalid JSON"),
    "version_1": (_set_meta(version=1), "meta.version"),
    "version_2": (_set_meta(version=2), "meta.version"),
    "param_shape": (_truncate("q.W"), "q.W"),
    "param_missing": (lambda arrays, meta: arrays.pop("k.b"), "k.b: missing"),
    # meta.config.trainer.momentum says a key extractor was saved.
    "key_params_missing": (
        lambda arrays, meta: [arrays.pop(k) for k in ("k.W", "k.b")],
        "k.W: missing",
    ),
    # ... and, set to null, that none was: the stored one would go unread.
    "key_params_unread": (_set_config("trainer", momentum=None), "k.W: not an array"),
    "param_extra": (
        lambda arrays, meta: arrays.update({"am.extra": np.zeros(3)}),
        "am.extra: not an array",
    ),
    "stray_array": (
        lambda arrays, meta: arrays.update({"zz.W": np.zeros(3)}),
        "zz.W: not an array",
    ),
}


# Objects the codec passes through as they are: generator states.
_OPAQUE = ("rng",)


def _at(meta: dict, keys: list) -> dict:
    for key in keys:
        meta = meta[key]
    return meta


def _meta_faults() -> list:
    """(dotted path, fault) pairs over a saved checkpoint's metadata: an
    unknown field added to each object the codec walks into, and a value of
    the wrong JSON type at each of their fields. The exp kernel gives the
    walk a kernel parameter."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.npz")
        _save_tiny(path, kernel=ExponentialTemp(0.5))
        with np.load(path) as data:
            saved = json.loads(bytes(data["meta"]).decode())
    faults = []

    def walk(obj: dict, keys: list) -> None:
        path = ".".join(["meta", *keys])
        faults.append((path, lambda arrays, meta: _at(meta, keys).update(unknown=1)))
        for key, value in obj.items():
            if isinstance(value, dict) and key not in _OPAQUE:
                walk(value, [*keys, key])
            else:
                wrong = 5 if isinstance(value, str) else "x"
                faults.append(
                    (
                        f"{path}.{key}",
                        lambda arrays, meta, k=key, w=wrong: _at(meta, keys).update({k: w}),
                    )
                )

    walk(saved, [])
    return faults


META_FAULTS = _meta_faults()


def _state_bytes(state) -> dict:
    """Every parameter, key parameter, Adam moment and the memory
    embeddings of a state, as bytes."""
    groups = {"q": state.extractor.params, "m": state.adam_m, "v": state.adam_v}
    if state.key_extractor is not None:
        groups["k"] = state.key_extractor.params
    out = {f"{g}.{k}": v[k].tobytes() for g, v in groups.items() for k in v}
    out["memory"] = state.memory.embeddings.tobytes()
    return out


class TestFlatParams:
    """The extractor's parameters, and the state's Adam moments, are views
    into one buffer each, so one adam_step call updates all of them."""

    @pytest.mark.parametrize("momentum", [None, 0.9], ids=["no-momentum", "momentum"])
    @pytest.mark.parametrize("hidden", [None, 5], ids=["linear", "hidden"])
    def test_flat_adam_equals_per_key_adam(self, hidden, momentum):
        cfg = TrainerConfig(
            batch_size=4, memory_neg_count=4, momentum=momentum, lr=0.05,
            steps=20, d_out=3, hidden=hidden,
        )
        memory = ActiveMemory(8, 3, AffineCosine(), "duel", seed=5)
        memory.push_batch(_unit(np.random.default_rng(3), 8, 3), np.zeros(8, int))
        state = TrainState.create(cfg, FeatureExtractor(4, 3, hidden, seed=7), memory, seed=7)
        # The reference: plain dict copies, updated one key at a time.
        params = {k: v.copy() for k, v in state.extractor.params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(a) for k, a in params.items()}
        key = {k: a.copy() for k, a in params.items()}
        rng = np.random.default_rng(16)
        for step in range(cfg.steps):
            X = rng.normal(size=(4, 4))
            Xp = X + 0.1 * rng.normal(size=(4, 4))
            # The negatives train_step will draw, from a copy of its generator.
            negs = state.memory.sample_negatives(
                cfg.memory_neg_count, copy.deepcopy(state.rng)
            )
            _, grads, _ = infonce_grad(state.extractor, X, Xp, negs, cfg, state.key_extractor)
            lr = cosine_lr(state.step, cfg.steps, cfg.lr)
            for k in params:
                adam_step(
                    params[k], grads[k], m[k], v[k], step + 1, lr,
                    cfg.beta1, cfg.beta2, cfg.delta,
                )
            if momentum is not None:
                for k in key:
                    key[k] *= momentum
                    key[k] += (1.0 - momentum) * params[k]
            train_step(state, X, Xp)
            for k in params:
                assert state.extractor.params[k].tobytes() == params[k].tobytes(), (step, k)
                assert state.adam_m[k].tobytes() == m[k].tobytes(), (step, k)
                assert state.adam_v[k].tobytes() == v[k].tobytes(), (step, k)
                if momentum is not None:
                    assert state.key_extractor.params[k].tobytes() == key[k].tobytes()

    @staticmethod
    def _assert_flat(params):
        assert isinstance(params, FlatParams)
        for k in params:
            assert np.shares_memory(params[k], params.flat), k

    def test_views_share_the_buffer(self, tmp_path):
        f = FeatureExtractor(4, 3, 5, seed=1)
        self._assert_flat(f.params)
        self._assert_flat(f.clone().params)
        assert not np.shares_memory(f.clone().params.flat, f.params.flat)
        state = _tiny_state()
        for params in (state.extractor.params, state.key_extractor.params,
                       state.adam_m, state.adam_v):
            self._assert_flat(params)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, state, _tiny_config(), SEED)
        loaded, _, _ = load_checkpoint(path)
        for params in (loaded.extractor.params, loaded.key_extractor.params,
                       loaded.adam_m, loaded.adam_v):
            self._assert_flat(params)

    def test_item_assignment_copies_into_the_buffer(self):
        f = FeatureExtractor(2, 2)
        W = np.arange(4.0).reshape(2, 2)
        f.params["W"] = W
        self._assert_flat(f.params)
        assert not np.shares_memory(f.params["W"], W)
        assert np.array_equal(f.params.flat[:4], W.reshape(-1))
        with pytest.raises(ValueError, match="W: expected shape"):
            f.params["W"] = np.zeros((3, 2))
        assert np.array_equal(f.params["W"], W)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cfg = _tiny_config()
        state = _tiny_state(cfg)
        rng = np.random.default_rng(13)
        for _ in range(3):
            X = rng.normal(size=(4, 4))
            train_step(state, X, X + 0.1 * rng.normal(size=(4, 4)))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, state, cfg, SEED)
        loaded, loaded_cfg, seed = load_checkpoint(path)
        assert loaded_cfg == cfg and seed == SEED
        assert loaded.step == state.step
        assert loaded.config == state.config
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
        assert loaded.memory.rng.bit_generator.state == state.memory.rng.bit_generator.state
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
        # The first loss is computed before any update, so the state after
        # each later step is compared too: a loaded parameter cut off from
        # the buffer Adam updates would show there.
        for momentum in (None, 0.9):
            cfg = _tiny_config(steps=8, momentum=momentum)
            state = _tiny_state(cfg)
            rng = np.random.default_rng(14)
            for _ in range(2):
                X = rng.normal(size=(4, 4))
                train_step(state, X, X + 0.1 * rng.normal(size=(4, 4)))
            path = tmp_path / "ckpt.npz"
            save_checkpoint(path, state, cfg, SEED)
            loaded, _, _ = load_checkpoint(path)
            X = np.random.default_rng(15).normal(size=(4, 4))
            Xp = X + 0.1
            assert train_step(state, X, Xp).loss == train_step(loaded, X, Xp).loss
            for step in range(3):
                X = rng.normal(size=(4, 4))
                Xp = X + 0.1 * rng.normal(size=(4, 4))
                assert train_step(state, X, Xp).loss == train_step(loaded, X, Xp).loss
                assert _state_bytes(loaded) == _state_bytes(state), (momentum, step)

    @pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
    def test_corrupt_state_rejected(self, tmp_path, capsys, fault):
        inject, field_name = CHECKPOINT_FAULTS[fault]
        path = tmp_path / "ckpt.npz"
        _save_tiny(path)
        load_checkpoint(path)  # intact checkpoints load
        _rewrite_checkpoint(path, inject)
        with pytest.raises(ValueError, match=re.escape(field_name)):
            load_checkpoint(path)
        # The CLI reports it as a usage error, not a traceback.
        out = str(tmp_path / "emb.csv")
        assert main(["export-embeddings", "--ckpt", str(path), "--out", out]) == USAGE_ERROR
        assert field_name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault, path",
        [
            ("emb_shape", "mem.emb"),
            ("labels_length", "mem.labels"),
            ("steps_length", "mem.steps"),
            ("wrong_scores", "mem.scores"),
            ("count_above_capacity", "meta.memory.count"),
            ("seen_below_count", "meta.memory.seen"),
        ],
    )
    def test_memory_fault_names_stored_path(self, tmp_path, fault, path):
        """The memory validates its state_dict; the checkpoint says where
        each rejected entry is stored."""
        ckpt = tmp_path / "ckpt.npz"
        _save_tiny(ckpt)
        _rewrite_checkpoint(ckpt, CHECKPOINT_FAULTS[fault][0])
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}:"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize(
        "path, fault", META_FAULTS, ids=[p for p, _ in META_FAULTS]
    )
    def test_meta_fault_names_exact_path(self, tmp_path, capsys, path, fault):
        ckpt = tmp_path / "ckpt.npz"
        _save_tiny(ckpt, kernel=ExponentialTemp(0.5))
        _rewrite_checkpoint(ckpt, fault)
        # The exact path, then a colon: "meta.memory" must not be satisfied
        # by a message about "meta.memory.count".
        exact = rf"(^| ){re.escape(path)}:"
        with pytest.raises(ValueError, match=exact):
            load_checkpoint(ckpt)
        out = str(tmp_path / "emb.csv")
        assert main(["export-embeddings", "--ckpt", str(ckpt), "--out", out]) == USAGE_ERROR
        assert re.search(exact, capsys.readouterr().err)

    @pytest.mark.parametrize("form", sorted(KERNEL_FORMS))
    def test_meta_codec_round_trips(self, form):
        kernel = ExponentialTemp(0.25) if form == "exp" else KERNEL_FORMS[form]()
        rng = np.random.default_rng(3).bit_generator.state
        meta = _CheckpointMeta(
            config=ExperimentConfig(
                stream=StreamConfig(d_in=4),
                trainer=TrainerConfig(hidden=5, momentum=None),
                memory=MemoryConfig(8, "fifo", kernel, guarded=True),
            ),
            seed=1,
            step=2,
            rng=rng,
            memory=_MemoryMeta(3, 9, rng),
        )
        assert decode(_CheckpointMeta, json.loads(json.dumps(encode(meta))), "meta") == meta

    def test_meta_holds_one_copy_of_the_config(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        _save_tiny(path)
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
        assert set(meta) == {"version", "config", "seed", "step", "rng", "memory"}
        assert set(meta["memory"]) == {"count", "seen", "rng"}
        assert meta["config"] == encode(_tiny_config())
        assert meta["seed"] == SEED

    def test_missing_meta_rejected(self, tmp_path, capsys):
        path = tmp_path / "ckpt.npz"
        _save_tiny(path)
        with np.load(path) as data:
            arrays = {k: v for k, v in data.items() if k != "meta"}
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="^meta: missing"):
            load_checkpoint(path)
        out = str(tmp_path / "emb.csv")
        assert main(["export-embeddings", "--ckpt", str(path), "--out", out]) == USAGE_ERROR
        assert "meta: missing" in capsys.readouterr().err

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        _save_tiny(path)
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
