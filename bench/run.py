"""duelmem benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload train_duel --seed 0 --seconds 30 --trace 0

Runs whole rounds of one workload, each in a fresh process started from the
checkout's src/ with BLAS pinned to one thread, until --seconds have passed
(at least MIN_ROUNDS rounds). Round r gets the inputs of variant r % VARIANTS
of the seed. Every round checks the program's outputs against independent
computations; each failed check is a failed operation.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

WORKLOADS = ("train_duel", "train_fifo", "filter_duel")
END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "mem_class_entropy": "nats",
}
# Each seed has VARIANTS input variants, and mem_class_entropy is their mean:
# a single variant's entropy varies by about 8% from seed to seed. A run
# covers every variant and repeats one, so that rounds on the same inputs
# can be compared. A traced run alternates untraced and traced rounds, so
# the tracing overhead is measured in place.
VARIANTS = 3
MIN_ROUNDS = VARIANTS + 1
# Each run must end within 180 s; a round still running then is killed.
RUN_LIMIT_S = 170.0
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def input_seed(seed: int, rnd: int) -> int:
    return seed * VARIANTS + rnd % VARIANTS


def run_round(workload: str, seed: int, rnd: int, traced: bool, deadline: float) -> dict:
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(ROOT / "src")}
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            str(CHILD),
            "--workload", workload,
            "--seed", str(input_seed(seed, rnd)),
            "--round", str(rnd),
            "--trace", str(int(traced)),
            "--spawned-at", repr(spawned_at),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - spawned_at),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round {rnd} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def samples_per_s(rounds: list[dict]) -> float:
    return statistics.median(r["samples"] / r["timed_s"] for r in rounds)


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    latencies = [t for r in rounds for t in r["latencies_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "samples_per_s": samples_per_s(rounds),
        "step_ms_p50": statistics.median(latencies),
        "step_ms_p90": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "mem_class_entropy": statistics.fmean(r["mem_class_entropy"] for r in rounds[:VARIANTS]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"]
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    layers["memory.score_drift"] = max(r["score_drift"] for r in traced)
    layers["trace.overhead_pct"] = (samples_per_s(plain) / samples_per_s(traced) - 1.0) * 100.0
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "duelmem" / "__init__.py").is_file():
        print(f"bench: no duelmem package at {ROOT / 'src' / 'duelmem'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds: list[dict] = []
    try:
        while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            r = run_round(args.workload, args.seed, len(rounds), traced, deadline)
            r["traced"] = traced
            rounds.append(r)
            failed = sorted(k for k, ok in r["checks"].items() if not ok)
            print(
                f"round {len(rounds) - 1}{' traced' if traced else ''}: "
                f"setup {r['setup_s']:.3f} s, {r['samples'] / r['timed_s']:.1f} samples/s, "
                f"{r['ops']} steps, failed checks {failed or 'none'}, {r['info']}",
                file=sys.stderr,
            )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    # Rounds on the same inputs repeat one computation; their outputs must agree.
    digests_agree = [
        r["digest"] == rounds[i - VARIANTS]["digest"] for i, r in enumerate(rounds) if i >= VARIANTS
    ]
    attempted = sum(r["ops"] + len(r["checks"]) for r in rounds) + len(digests_agree)
    failed = sum(not ok for r in rounds for ok in r["checks"].values())
    failed += digests_agree.count(False)

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        from tracer import LAYER_UNITS

        values = per_layer(plain, [r for r in rounds if r["traced"]])
        units = LAYER_UNITS
    else:
        values = end_to_end(plain)
        units = END_TO_END
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
