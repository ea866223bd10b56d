"""Benchmark eviction policies on the same stream and seeds.

Runs every policy over two seeds with a short budget and prints the
per-seed and seed-averaged final metrics the benchmark CSV contains. With
a dominant class at 75% of the stream, duplicate elimination should hold
the highest memory entropy.

Usage:
    python3 demos/policy_benchmark.py
"""

import tempfile

from duelmem.harness import bench_policies, default_config_dict, parse_config


def main() -> None:
    d = default_config_dict()
    d["stream"]["imbalance"] = {"kind": "dominant", "rho_max": 0.75}
    d["trainer"].update(steps=800, momentum=None, tau=0.1, lr=0.01, hidden=64)
    d["eval"].update(cadence=400, probe_steps=200)
    d["seeds"] = [0, 1]
    cfg = parse_config(d)

    out_dir = tempfile.mkdtemp(prefix="duelmem-bench-")
    rows = bench_policies(cfg, ["duel", "fifo", "random", "reservoir"], out_dir)

    print(f"{'policy':<10} {'seed':>5} {'H(mem)':>8} {'dom':>6} {'probe':>6}")
    for row in rows:
        print(
            f"{row['policy']:<10} {str(row['seed']):>5} "
            f"{row['class_entropy']:>8.3f} {row['dominant_frac']:>6.3f} "
            f"{row['probe_acc']:>6.3f}"
        )
    print(f"\nbench.csv written under {out_dir}")


if __name__ == "__main__":
    main()
