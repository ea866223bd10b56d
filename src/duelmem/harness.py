"""Experiment harness: JSON configs, deterministic runs, policy benchmarks
and checkpoints.

A run is fully determined by (config, seed): the seed is split into
independent child seeds for the stream, extractor init, negative sampling
and the memory policy, so repeated runs write byte-identical artifacts. Its
phases share one Run: _start, then one _step per training step, then _finish.
A checkpoint stores the config and seed once and rebuilds its state from them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .codec import ConfigError, decode_versioned, encode
from .kernels import AffineCosine, Kernel
from .memory import POLICIES, ActiveMemory, rng_from_state
from .metrics import (
    MetricsRow,
    class_entropy,
    dominant_fraction,
    inter_class_similarity,
    intra_class_variance,
    linear_probe,
    write_metrics_csv,
)
from .streams import GaussianPairStream, StreamConfig, csv_row, write_embedding_csv
from .trainer import FeatureExtractor, FlatParams, TrainState, TrainerConfig, train_step

__all__ = [
    "CONFIG_VERSION",
    "ConfigError",
    "EvalConfig",
    "ExperimentConfig",
    "MemoryConfig",
    "Run",
    "bench_policies",
    "default_config_dict",
    "export_embeddings",
    "load_checkpoint",
    "load_config",
    "parse_config",
    "run_experiment",
    "save_checkpoint",
]

CONFIG_VERSION = 1
CHECKPOINT_VERSION = 3


@dataclass
class EvalConfig:
    cadence: int = 50
    eval_per_class: int = 40
    probe_train_per_class: int = 40
    probe_test_per_class: int = 40
    probe_steps: int = 200

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name}: must be >= 1")


@dataclass
class MemoryConfig:
    capacity: int = 256
    policy: str = "duel"
    kernel: Kernel = AffineCosine()
    guarded: bool = False

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity: must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy: unknown policy {self.policy!r}; expected one of {POLICIES}"
            )


@dataclass
class ExperimentConfig:
    stream: StreamConfig = field(default_factory=StreamConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    out_dir: str = "runs"  # read by nothing; ROADMAP item 1 deletes it
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        if len(self.seeds) == 0:
            raise ValueError("seeds: must list at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds: trial seeds must be distinct")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds: must be >= 0, got {min(self.seeds)}")

    def to_dict(self) -> dict:
        """The JSON form of this config; parse_config reads it back."""
        return {"version": CONFIG_VERSION, **encode(self)}


def default_config_dict() -> dict:
    """The desk-scale defaults as a plain JSON-ready dict."""
    return ExperimentConfig().to_dict()


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config dict; unknown fields anywhere are rejected."""
    return decode_versioned(ExperimentConfig, raw, CONFIG_VERSION, "")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return parse_config(raw)


# -- running ------------------------------------------------------------------


@dataclass
class Run:
    """A run's state: built by _start, advanced by _step, written out by _finish."""

    cfg: ExperimentConfig
    seed: int
    out_dir: str
    state: TrainState
    stream: GaussianPairStream
    eval_set: tuple[np.ndarray, np.ndarray]
    probe_train: tuple[np.ndarray, np.ndarray]
    probe_test: tuple[np.ndarray, np.ndarray]
    rows: list[MetricsRow] = field(default_factory=list)

    @property
    def final(self) -> MetricsRow:
        return self.rows[-1]


def _initial_state(cfg: ExperimentConfig, seed: int) -> TrainState:
    """The step-0 state of run (cfg, seed), its memory still empty."""
    _, ss_init, ss_neg, ss_mem, _ = np.random.SeedSequence(seed).spawn(5)
    extractor = FeatureExtractor(
        cfg.stream.d_in,
        cfg.trainer.d_out,
        hidden=cfg.trainer.hidden,
        seed=np.random.default_rng(ss_init).integers(2**31),
    )
    memory = ActiveMemory(
        cfg.memory.capacity,
        cfg.trainer.d_out,
        cfg.memory.kernel,
        cfg.memory.policy,
        seed=np.random.default_rng(ss_mem).integers(2**31),
    )
    return TrainState.create(
        cfg.trainer,
        extractor,
        memory,
        guarded_memory=cfg.memory.guarded,
        seed=int(np.random.default_rng(ss_neg).integers(2**31)),
    )


def _start(cfg: ExperimentConfig, seed: int, out_dir: str) -> Run:
    """The stream, the prefilled step-0 state, the eval sets and config.json."""
    if seed < 0:
        raise ValueError(f"seed: must be >= 0, got {seed}")
    ss_stream, _, _, _, ss_eval = np.random.SeedSequence(seed).spawn(5)

    stream = GaussianPairStream(
        cfg.stream,
        seed=np.random.default_rng(ss_stream).integers(2**31),
        means_seed=seed,
    )
    state = _initial_state(cfg, seed)

    # Seed the memory so memory negatives exist from the first step.
    X0, _, y0 = stream.sample_batch(cfg.trainer.batch_size)
    init_extractor = state.key_extractor or state.extractor
    state.memory.push_batch(init_extractor.forward(X0), y0)

    eval_rng = np.random.default_rng(ss_eval)
    eval_set = stream.sample_balanced(cfg.eval.eval_per_class, eval_rng)
    probe_train = stream.sample_balanced(cfg.eval.probe_train_per_class, eval_rng)
    probe_test = stream.sample_balanced(cfg.eval.probe_test_per_class, eval_rng)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump({**cfg.to_dict(), "seed": seed}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return Run(cfg, seed, out_dir, state, stream, eval_set, probe_train, probe_test)


def _step(run: Run) -> None:
    """One training step, then its eval row and mid-run snapshot when due."""
    cfg, state, memory = run.cfg, run.state, run.state.memory
    X, Xp, labels = run.stream.sample_batch(cfg.trainer.batch_size)
    report = train_step(state, X, Xp, labels)
    if report.step % cfg.eval.cadence == 0 or report.step == cfg.trainer.steps:
        eval_X, eval_y = run.eval_set
        Zeval = state.extractor.forward(eval_X)
        probe_acc = None
        if report.step == cfg.trainer.steps:
            (train_X, train_y), (test_X, test_y) = run.probe_train, run.probe_test
            probe_acc = linear_probe(
                state.extractor.forward(train_X),
                train_y,
                state.extractor.forward(test_X),
                test_y,
                steps=cfg.eval.probe_steps,
            )
        run.rows.append(
            MetricsRow(
                step=report.step,
                loss=report.loss,
                lr=report.lr,
                class_entropy=class_entropy(memory.labels),
                v_intra=intra_class_variance(Zeval, eval_y),
                s_inter=inter_class_similarity(Zeval, eval_y),
                mean_mem_distinct=memory.mean_distinctiveness(),
                dominant_frac=dominant_fraction(memory.labels),
                probe_acc=probe_acc,
            )
        )
    # After the eval row, whose mean_distinctiveness leaves the score
    # cache fresh, so a snapshot at an eval step computes no scores.
    if report.step == max(1, cfg.trainer.steps // 2):
        path = os.path.join(run.out_dir, f"memory_step{report.step:06d}.csv")
        memory.snapshot_csv(path)


def _finish(run: Run) -> Run:
    """Write metrics.csv, the final memory snapshot and the checkpoint."""
    out, state = run.out_dir, run.state
    write_metrics_csv(os.path.join(out, "metrics.csv"), run.rows)
    state.memory.snapshot_csv(os.path.join(out, f"memory_step{state.step:06d}.csv"))
    save_checkpoint(os.path.join(out, "checkpoint.npz"), state, run.cfg, run.seed)
    return run


def run_experiment(
    cfg: ExperimentConfig, seed: int, out_dir: str
) -> Run:
    """Train on the configured stream and write run artifacts.

    Writes config.json, metrics.csv, a mid-run and a final memory snapshot,
    and checkpoint.npz into out_dir, byte-identical for identical (config,
    seed), and returns the Run, which holds the trained state.
    """
    run = _start(cfg, seed, out_dir)
    for _ in range(cfg.trainer.steps):
        _step(run)
    return _finish(run)


# -- benchmarking -------------------------------------------------------------

BENCH_FIELDS = (
    "policy",
    "seed",
    "class_entropy",
    "v_intra",
    "s_inter",
    "dominant_frac",
    "probe_acc",
)


def bench_policies(
    cfg: ExperimentConfig,
    policies: list[str],
    out_dir: str,
) -> list[dict]:
    """Run every (policy, seed) cell and tabulate final metrics.

    Returns per-cell rows followed by one seed-averaged summary row per
    policy (seed column 'mean'). Writes bench.csv under out_dir.
    """
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigError(f"policies: unknown policy {policy!r}")
    os.makedirs(out_dir, exist_ok=True)

    rows: list[dict] = []
    for policy in policies:
        per_seed = []
        for seed in cfg.seeds:
            run_cfg = replace(cfg, memory=replace(cfg.memory, policy=policy))
            result = run_experiment(
                run_cfg, seed, os.path.join(out_dir, f"{policy}_seed{seed}")
            )
            row = {
                "policy": policy,
                "seed": seed,
                **{k: getattr(result.final, k) for k in BENCH_FIELDS[2:]},
            }
            per_seed.append(row)
            rows.append(row)
        mean_row = {"policy": policy, "seed": "mean"}
        for key in BENCH_FIELDS[2:]:
            mean_row[key] = float(np.mean([r[key] for r in per_seed]))
        rows.append(mean_row)

    with open(os.path.join(out_dir, "bench.csv"), "w", newline="") as fh:
        fh.write(csv_row(BENCH_FIELDS, []))
        for row in rows:
            fh.write(
                csv_row(
                    (row["policy"], row["seed"]),
                    [float(row[k]) for k in BENCH_FIELDS[2:]],
                )
            )
    return rows


def export_embeddings(ckpt_path, out_path, per_class: int = 100) -> int:
    """Embed a balanced sample from the checkpoint's stream and write CSV.

    per_class=0 writes a header-only file. Returns the number of rows.
    """
    if per_class < 0:
        raise ValueError(f"per_class: must be >= 0, got {per_class}")
    state, cfg, seed = load_checkpoint(ckpt_path)
    stream = GaussianPairStream(cfg.stream, means_seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE8BED]))
    X, y = stream.sample_balanced(per_class, rng)
    Z = state.extractor.forward(X)
    write_embedding_csv(out_path, Z, labels=y)
    return Z.shape[0]


# -- checkpointing ------------------------------------------------------------

# ActiveMemory.state_dict entries stored as npz arrays; the rest go in meta.
_MEMORY_ARRAYS = ("emb", "labels", "steps", "scores")


@dataclass
class _MemoryMeta:
    count: int
    seen: int
    rng: dict


@dataclass
class _CheckpointMeta:
    """A checkpoint's JSON metadata, less its version. The run's config and
    seed rebuild the state the stored arrays then overwrite."""

    config: ExperimentConfig
    seed: int
    step: int
    rng: dict
    memory: _MemoryMeta

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed: must be >= 0")
        steps = self.config.trainer.steps
        if not 0 <= self.step <= steps:
            raise ValueError(f"step: {self.step} outside [0, {steps}]")


def _param_groups(state: TrainState) -> dict[str, FlatParams]:
    """The state's parameter buffers by npz prefix, in the order they are stored."""
    groups = {"q.": state.extractor.params}
    if state.key_extractor is not None:
        groups["k."] = state.key_extractor.params
    groups["am."] = state.adam_m
    groups["av."] = state.adam_v
    return groups


def save_checkpoint(path, state: TrainState, cfg: ExperimentConfig, seed: int) -> None:
    """Dump the run's config and seed, parameters, optimizer moments, memory
    and RNG state."""
    mem_state = state.memory.state_dict()
    meta = _CheckpointMeta(
        config=cfg,
        seed=seed,
        step=state.step,
        rng=state.rng.bit_generator.state,
        memory=_MemoryMeta(mem_state["count"], mem_state["seen"], mem_state["rng"]),
    )
    arrays = {
        prefix + k: v
        for prefix, params in _param_groups(state).items()
        for k, v in params.items()
    }
    for key in _MEMORY_ARRAYS:
        arrays[f"mem.{key}"] = mem_state[key]
    meta_json = json.dumps({"version": CHECKPOINT_VERSION, **encode(meta)})
    arrays["meta"] = np.frombuffer(meta_json.encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _load_params(data, prefix: str, target: FlatParams) -> None:
    """Copy the arrays under prefix into target, checked against its shapes."""
    for k in target:
        v = data[prefix + k]
        if v.shape != target[k].shape:
            raise ValueError(f"{prefix}{k}: expected shape {target[k].shape}, got {v.shape}")
        target[k] = v


def load_checkpoint(path) -> tuple[TrainState, ExperimentConfig, int]:
    """Read a checkpoint as (state, config, seed); malformed state raises
    ValueError naming the field or array."""
    with np.load(path) as data:
        if "meta" not in data.files:
            raise ValueError("meta: missing from the checkpoint")
        try:
            raw = json.loads(bytes(data["meta"]).decode())
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"meta: invalid JSON ({exc})") from exc
        meta = decode_versioned(_CheckpointMeta, raw, CHECKPOINT_VERSION, "meta")
        state = _initial_state(meta.config, meta.seed)
        groups = _param_groups(state)
        read = [prefix + k for prefix, params in groups.items() for k in params]
        read += [f"mem.{key}" for key in _MEMORY_ARRAYS] + ["meta"]
        missing = [name for name in read if name not in data.files]
        if missing:
            raise ValueError(f"{missing[0]}: missing from the checkpoint")
        unread = [name for name in data.files if name not in read]
        if unread:
            raise ValueError(f"{unread[0]}: not an array this checkpoint's config reads")
        for prefix, params in groups.items():
            _load_params(data, prefix, params)
        try:
            state.memory.load_state_dict(
                {
                    **{key: data[f"mem.{key}"] for key in _MEMORY_ARRAYS},
                    "count": meta.memory.count,
                    "seen": meta.memory.seen,
                    "rng": meta.memory.rng,
                }
            )
        except ValueError as exc:
            # The message starts with the state key; name where it is stored.
            key, _, reason = str(exc).partition(": ")
            where = "mem." if key in _MEMORY_ARRAYS else "meta.memory."
            raise ValueError(f"{where}{key}: {reason}") from exc
        state.rng = rng_from_state(meta.rng, "meta.rng")
        state.step = meta.step
        return state, meta.config, meta.seed
