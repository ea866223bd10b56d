"""One measured round of a benchmark workload, in a process of its own.

run.py starts this script once per round with BLAS pinned to one thread and
PYTHONPATH pointing at the checkout's src/. The round sets up its workload,
times it, checks the program's outputs against bench/oracle.py, and prints
one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

BATCH = 64
N_CLASSES = 10
RHO_MAX = 0.75

# Train rounds run the harness's run_experiment on a fixed config, so every
# round on one input seed repeats the same computation and writes the same bytes.
TRAIN_STEPS = {"train_duel": 400, "train_fifo": 200}

# filter_duel: a full DUEL memory offered pre-generated batches of unit
# embeddings from a dominant-class clustered stream with exact repeats.
FILTER_CAPACITY = 4096
FILTER_DIM = 16
FILTER_PUSHES = 32
FILTER_SIGMA = 0.35
FILTER_REPEAT_SHARE = 0.1


def dominant_profile() -> np.ndarray:
    p = np.full(N_CLASSES, (1.0 - RHO_MAX) / (N_CLASSES - 1))
    p[0] = RHO_MAX
    return p


def train_config(workload: str) -> dict:
    """The run_experiment config as the JSON a user would pass to `duelmem run`."""
    duel = workload == "train_duel"
    return {
        "version": 1,
        "stream": {
            "n_classes": N_CLASSES,
            "d_in": 32,
            "separation": 1.0,
            "sigma": 0.35,
            "sigma_aug": 0.35,
            "imbalance": {"kind": "dominant", "rho_max": RHO_MAX}
            if duel
            else {"kind": "longtail", "ratio": 50.0},
        },
        "trainer": {
            "batch_size": BATCH,
            "tau": 0.1,
            "epsilon": 1.0,
            "negative_source": "mixed",
            "memory_neg_count": 128,
            "momentum": None if duel else 0.9,
            "lr": 0.01,
            "optimizer": "adam",
            "beta1": 0.9,
            "beta2": 0.999,
            "delta": 1e-8,
            "steps": TRAIN_STEPS[workload],
            "d_out": 16,
            "hidden": 64,
        },
        "memory": {
            "capacity": 256 if duel else 1024,
            "policy": "duel" if duel else "fifo",
            "kernel": {"form": "affine"},
            "guarded": False,
        },
        "eval": {
            "cadence": 50,
            "eval_per_class": 40,
            "probe_train_per_class": 40,
            "probe_test_per_class": 40,
            "probe_steps": 200,
        },
        "out_dir": str(OUT),
        "seeds": [0],
    }


def filter_stream(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefill rows then FILTER_PUSHES batches: unit embeddings and labels.

    A FILTER_REPEAT_SHARE of rows are exact copies of a uniformly chosen
    earlier row, so the memory holds exact duplicates that tie on score.
    """
    rng = np.random.default_rng([seed, 0xF117E5])
    n = FILTER_CAPACITY + FILTER_PUSHES * BATCH
    centers = rng.normal(size=(N_CLASSES, FILTER_DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.choice(N_CLASSES, size=n, p=dominant_profile())
    X = centers[labels] + FILTER_SIGMA * rng.normal(size=(n, FILTER_DIM))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    repeats = np.flatnonzero(rng.random(n) < FILTER_REPEAT_SHARE)
    repeats = repeats[repeats > 0]
    sources = (rng.random(repeats.size) * repeats).astype(np.int64)
    for i, src in zip(repeats, sources):
        X[i] = X[src]
        labels[i] = labels[src]
    return X, labels


class StepTimer:
    """Wall time of each timed step; the first call marks the end of set-up."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.first_perf: float | None = None
        self.first_mono: float | None = None

    def wrap(self, fn):
        def timed(*args, **kwargs):
            t = time.perf_counter()
            if self.first_perf is None:
                self.first_perf, self.first_mono = t, time.monotonic()
            result = fn(*args, **kwargs)
            self.latencies.append(time.perf_counter() - t)
            return result

        return timed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_memory(E: np.ndarray, scores: np.ndarray, capacity: int) -> tuple[dict, float]:
    """Memory full of unit rows whose cached scores match the closed form."""
    drift = float(np.max(np.abs(scores - oracle.affine_row_sums(E))))
    checks = {
        "memory_full_unit_norm": E.shape[0] == capacity
        and bool(np.all(np.abs(np.linalg.norm(E, axis=1) - 1.0) <= 1e-9)),
        "scores_match_row_sums": drift <= 1e-9,
    }
    return checks, drift


def read_snapshot(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(labels, insert ids, cached scores, embeddings) from a memory snapshot CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    labels = np.array([int(r[1]) for r in rows], dtype=np.int64)
    ids = np.array([int(r[2]) for r in rows], dtype=np.int64)
    scores = np.array([float(r[3]) for r in rows])
    E = np.array([[float(v) for v in r[4:]] for r in rows])
    return labels, ids, scores, E


def run_train(workload: str, seed: int, rnd: int, timer: StepTimer) -> dict:
    from duelmem import harness

    raw = train_config(workload)
    cfg = harness.parse_config(raw)
    run_dir = OUT / "runs" / f"{workload}-seed{seed}-round{rnd}"
    harness.train_step = timer.wrap(harness.train_step)
    harness.run_experiment(cfg, seed, str(run_dir))
    t_end = time.perf_counter()
    peak = peak_rss_mb()

    steps = raw["trainer"]["steps"]
    capacity = raw["memory"]["capacity"]
    labels, ids, scores, E = read_snapshot(run_dir / f"memory_step{steps:06d}.csv")
    checks, drift = check_memory(E, scores, capacity)
    metrics_bytes = (run_dir / "metrics.csv").read_bytes()
    table = list(csv.DictReader(metrics_bytes.decode().splitlines()))
    final = table[-1]
    cells = [v for row in table for k, v in row.items() if k != "probe_acc"]
    entropy = oracle.entropy(labels)
    checks["metrics_finite"] = all(np.isfinite(float(v)) for v in cells) and np.isfinite(
        float(final["probe_acc"] or "nan")
    )
    checks["final_row_is_last_step"] = int(final["step"]) == steps
    checks["probe_above_chance"] = float(final["probe_acc"] or "nan") > 1.0 / N_CLASSES
    checks["metrics_entropy_matches_memory"] = abs(float(final["class_entropy"]) - entropy) <= 1e-12
    if workload == "train_duel":
        checks["entropy_above_stream"] = entropy > oracle.profile_entropy(dominant_profile())
        checks["dominant_below_stream"] = float(np.mean(labels == 0)) < RHO_MAX
    else:
        offered = BATCH * (steps + 1)  # one pre-fill batch, then one per step
        checks["fifo_keeps_last_ids"] = np.array_equal(
            np.sort(ids), np.arange(offered - capacity, offered)
        )
    shutil.rmtree(run_dir)
    return {
        "timed_s": t_end - timer.first_perf,
        "samples": steps * BATCH,
        "peak_rss_mb": peak,
        "mem_class_entropy": entropy,
        "score_drift": drift,
        "digest": hashlib.sha256(metrics_bytes).hexdigest(),
        "checks": checks,
        "info": {},
    }


def run_filter(seed: int, timer: StepTimer) -> dict:
    from duelmem.kernels import AffineCosine
    from duelmem.memory import ActiveMemory

    X, labels = filter_stream(seed)
    cap = FILTER_CAPACITY
    mem = ActiveMemory(cap, FILTER_DIM, AffineCosine(), "duel", seed=seed)
    mem.push_batch(X[:cap], labels[:cap])
    batches = [slice(cap + b * BATCH, cap + (b + 1) * BATCH) for b in range(FILTER_PUSHES)]
    push = timer.wrap(mem.push_batch)
    victims = []
    for sl in batches:
        events = push(X[sl], labels[sl])
        victims.append([e.evicted for e in events])
    t_end = time.perf_counter()
    peak = peak_rss_mb()

    E = mem.embeddings
    checks, drift = check_memory(E, mem.scores, cap)
    expected, held, ties = oracle.replay_duel(X[:cap], [X[sl] for sl in batches])
    checks["victims_match_replay"] = victims == expected and np.array_equal(E, held)
    entropy = oracle.entropy(mem.labels)
    checks["entropy_above_stream"] = entropy > oracle.entropy(labels)
    digest = hashlib.sha256(E.tobytes() + mem.insert_steps.tobytes())
    digest.update(json.dumps(victims).encode())
    return {
        "timed_s": t_end - timer.first_perf,
        "samples": FILTER_PUSHES * BATCH,
        "peak_rss_mb": peak,
        "mem_class_entropy": entropy,
        "score_drift": drift,
        "digest": digest.hexdigest(),
        "checks": checks,
        "info": {"tied_evictions": ties},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("train_duel", "train_fifo", "filter_duel"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    import duelmem

    if not Path(duelmem.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"duelmem imported from {duelmem.__file__}, not from {ROOT / 'src'}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        restore = tracer.install()
    timer = StepTimer()
    if args.workload == "filter_duel":
        result = run_filter(args.seed, timer)
    else:
        result = run_train(args.workload, args.seed, args.round, timer)
    result["checks"] = {name: bool(ok) for name, ok in result["checks"].items()}
    result["setup_s"] = timer.first_mono - args.spawned_at
    result["latencies_ms"] = [t * 1e3 for t in timer.latencies]
    result["ops"] = len(timer.latencies)
    result["layers"] = None
    if tracer is not None:
        restore()
        t_end = timer.first_perf + result["timed_s"]
        result["layers"] = tracer.layers(timer.first_perf, t_end, result["ops"])
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}-round{args.round}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
