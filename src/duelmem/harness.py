"""Experiment harness: JSON configs, deterministic runs, policy benchmarks.

A run is fully determined by (config, seed): the seed is split into
independent child seeds for the stream, extractor init, negative sampling
and the memory policy, so repeated runs write byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .codec import ConfigError, decode, decode_versioned, encode
from .kernels import AffineCosine, Kernel
from .memory import POLICIES, ActiveMemory, check_capacity_and_policy
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
from .trainer import (
    FeatureExtractor,
    TrainState,
    TrainerConfig,
    load_checkpoint,
    save_checkpoint,
    train_step,
)

__all__ = [
    "CONFIG_VERSION",
    "ConfigError",
    "EvalConfig",
    "ExperimentConfig",
    "MemoryConfig",
    "RunResult",
    "bench_policies",
    "default_config_dict",
    "export_embeddings",
    "load_config",
    "parse_config",
    "run_experiment",
]

CONFIG_VERSION = 1


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
        check_capacity_and_policy(self.capacity, self.policy)


@dataclass
class ExperimentConfig:
    stream: StreamConfig = field(default_factory=StreamConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    out_dir: str = "runs"
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return parse_config(raw)


# -- running ------------------------------------------------------------------


@dataclass
class RunResult:
    seed: int
    out_dir: str
    rows: list[MetricsRow]
    final: MetricsRow


def _child_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(n)


def run_experiment(
    cfg: ExperimentConfig, seed: int, out_dir: str | None = None
) -> RunResult:
    """Train on the configured stream and write run artifacts.

    Writes config.json, metrics.csv, a mid-run and a final memory snapshot,
    and checkpoint.npz into out_dir. Byte-identical for identical
    (config, seed).
    """
    if seed < 0:
        raise ValueError(f"seed: must be >= 0, got {seed}")
    ss_stream, ss_init, ss_neg, ss_mem, ss_eval = _child_seeds(seed, 5)

    stream = GaussianPairStream(
        cfg.stream,
        seed=np.random.default_rng(ss_stream).integers(2**31),
        means_seed=seed,
    )

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
    state = TrainState.create(
        cfg.trainer,
        extractor,
        memory,
        guarded_memory=cfg.memory.guarded,
        seed=int(np.random.default_rng(ss_neg).integers(2**31)),
    )

    # Seed the memory so memory negatives exist from the first step.
    X0, _, y0 = stream.sample_batch(cfg.trainer.batch_size)
    init_extractor = state.key_extractor or state.extractor
    memory.push_batch(init_extractor.forward(X0), y0)

    eval_rng = np.random.default_rng(ss_eval)
    eval_X, eval_y = stream.sample_balanced(cfg.eval.eval_per_class, eval_rng)
    probe_train_X, probe_train_y = stream.sample_balanced(
        cfg.eval.probe_train_per_class, eval_rng
    )
    probe_test_X, probe_test_y = stream.sample_balanced(
        cfg.eval.probe_test_per_class, eval_rng
    )

    if out_dir is None:
        out_dir = os.path.join(cfg.out_dir, f"seed{seed}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump({**cfg.to_dict(), "seed": seed}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    rows: list[MetricsRow] = []
    mid_step = max(1, cfg.trainer.steps // 2)
    for _ in range(cfg.trainer.steps):
        X, Xp, labels = stream.sample_batch(cfg.trainer.batch_size)
        report = train_step(state, X, Xp, labels)
        if report.step % cfg.eval.cadence == 0 or report.step == cfg.trainer.steps:
            Zeval = state.extractor.forward(eval_X)
            is_final = report.step == cfg.trainer.steps
            probe_acc = None
            if is_final:
                probe_acc = linear_probe(
                    state.extractor.forward(probe_train_X),
                    probe_train_y,
                    state.extractor.forward(probe_test_X),
                    probe_test_y,
                    steps=cfg.eval.probe_steps,
                )
            rows.append(
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
        if report.step == mid_step:
            memory.snapshot_csv(
                os.path.join(out_dir, f"memory_step{report.step:06d}.csv")
            )

    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), rows)
    memory.snapshot_csv(
        os.path.join(out_dir, f"memory_step{cfg.trainer.steps:06d}.csv")
    )
    save_checkpoint(
        os.path.join(out_dir, "checkpoint.npz"),
        state,
        experiment_config={**cfg.to_dict(), "seed": seed},
    )
    return RunResult(seed=seed, out_dir=out_dir, rows=rows, final=rows[-1])


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
    out_dir: str | None = None,
) -> list[dict]:
    """Run every (policy, seed) cell and tabulate final metrics.

    Returns per-cell rows followed by one seed-averaged summary row per
    policy (seed column 'mean'). Writes bench.csv under out_dir.
    """
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigError(f"policies: unknown policy {policy!r}")
    if out_dir is None:
        out_dir = cfg.out_dir
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
    state, exp_cfg = load_checkpoint(ckpt_path)
    if exp_cfg is None:
        raise ValueError("checkpoint carries no experiment config to sample from")
    cfg = decode_versioned(
        ExperimentConfig,
        {k: v for k, v in exp_cfg.items() if k != "seed"},
        CONFIG_VERSION,
        "experiment_config",
    )
    seed = decode(int, exp_cfg.get("seed", 0), "experiment_config.seed")
    if seed < 0:
        raise ConfigError(f"experiment_config.seed: expected >= 0, got {seed}")
    if cfg.stream.d_in != state.extractor.d_in:
        raise ConfigError(
            f"experiment_config.stream.d_in: {cfg.stream.d_in} differs from "
            f"the checkpoint's d_in {state.extractor.d_in}"
        )
    stream = GaussianPairStream(cfg.stream, means_seed=seed)
    if per_class == 0:
        write_embedding_csv(
            out_path, np.zeros((0, state.extractor.d_out)), labels=None
        )
        return 0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE8BED]))
    X, y = stream.sample_balanced(per_class, rng)
    Z = state.extractor.forward(X)
    write_embedding_csv(out_path, Z, labels=y)
    return Z.shape[0]
