"""One end-to-end training run on the synthetic imbalanced stream.

Trains the small extractor with contrastive negatives drawn from both the
batch and the duplicate-eliminating memory, then prints the metrics table
the harness logged: loss, memory class entropy, representation geometry,
and the final linear-probe accuracy.

Usage:
    python3 demos/train_imbalanced.py
"""

import tempfile

from duelmem.harness import default_config_dict, parse_config, run_experiment


def main() -> None:
    d = default_config_dict()
    d["stream"]["imbalance"] = {"kind": "dominant", "rho_max": 0.75}
    d["trainer"].update(steps=1200, momentum=None, tau=0.1, lr=0.01, hidden=64)
    d["eval"].update(cadence=300, probe_steps=200)
    cfg = parse_config(d)

    print("training 1200 steps, dominant class at rho_max=0.75, duel memory")
    result = run_experiment(
        cfg, seed=0, out_dir=tempfile.mkdtemp(prefix="duelmem-demo-")
    )

    header = f"{'step':>6} {'loss':>8} {'H(mem)':>8} {'dom':>6} {'s_inter':>8} {'probe':>6}"
    print("\n" + header)
    for row in result.rows:
        probe = "" if row.probe_acc is None else f"{row.probe_acc:.3f}"
        print(
            f"{row.step:>6} {row.loss:>8.4f} {row.class_entropy:>8.3f} "
            f"{row.dominant_frac:>6.3f} {row.s_inter:>+8.4f} {probe:>6}"
        )
    print(f"\nartifacts written under {result.out_dir}")


if __name__ == "__main__":
    main()
