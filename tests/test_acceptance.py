"""End-to-end acceptance checks A07-A12: directional training comparisons on
the synthetic imbalanced stream, and run determinism.

The exact identities and policy equivalences that were A01-A06 are checks of
`duelmem verify`, which tests/test_verify.py runs in full: A01 is
balanced_oracle_optimum, balanced_lower_bound and empirical_bound_dominates
(30 s together), A02 duel_selection_equivalence, A03
duel_incremental_matches_naive (10 s), A04 duel_safeness, A05
infonce_information_identity and A06 gradient_checks.

Each check prints one [PASS]/[FAIL] line; run

    pytest tests/test_acceptance.py -v -s

to see the lines for passing checks as well. The training grids reuse one
frozen recipe (tau=0.1, lr=0.01, 6000 steps, hidden=64, no momentum) chosen
so that training converges inside the runtime budget at desk scale.
"""

import math
import time

import numpy as np
import pytest

from duelmem.harness import default_config_dict, parse_config, run_experiment
from duelmem.trainer import NEGATIVE_SOURCES

SEEDS = (0, 1, 2, 3, 4)


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _recipe(rho_max, policy, steps=6000, **trainer_overrides):
    d = default_config_dict()
    d["stream"]["imbalance"] = {"kind": "dominant", "rho_max": rho_max}
    d["trainer"].update(
        tau=0.1,
        lr=0.01,
        steps=steps,
        hidden=64,
        momentum=None,
        memory_neg_count=128,
    )
    d["trainer"].update(trainer_overrides)
    d["memory"]["policy"] = policy
    d["eval"].update(cadence=steps // 2, probe_steps=200)
    d["seeds"] = list(SEEDS)
    return parse_config(d)


@pytest.fixture(scope="module")
def headline_runs(tmp_path_factory):
    """duel and fifo at rho_max=0.75, 5 seeds each; feeds checks A07-A10."""
    root = tmp_path_factory.mktemp("headline")
    runs = {}
    seed_times = []
    for policy in ("duel", "fifo"):
        per_seed = []
        for seed in SEEDS:
            cfg = _recipe(0.75, policy)
            t0 = time.perf_counter()
            per_seed.append(run_experiment(cfg, seed, str(root / policy / f"seed{seed}")))
            seed_times.append(time.perf_counter() - t0)
        runs[policy] = per_seed
    runs["max_seed_time"] = max(seed_times)
    return runs


@pytest.fixture(scope="module")
def half_dominant_runs(tmp_path_factory):
    """duel at rho_max=0.5, 5 seeds; the second half of check A10."""
    root = tmp_path_factory.mktemp("half_dominant")
    cfg = _recipe(0.5, "duel")
    return [run_experiment(cfg, seed, str(root / "duel" / f"seed{seed}")) for seed in SEEDS]


@pytest.fixture(scope="module")
def ablation_grid(tmp_path_factory):
    """negative source x epsilon grid at rho_max=0.1, 3 seeds per cell."""
    root = tmp_path_factory.mktemp("ablation")
    table = {}
    for source in NEGATIVE_SOURCES:
        for eps in (0.0, 1.0):
            cell = root / f"{source}_eps{int(eps)}"
            accs = []
            for seed in SEEDS[:3]:
                cfg = _recipe(
                    0.1, "duel", steps=3000,
                    negative_source=source, epsilon=eps,
                )
                run = run_experiment(cfg, seed, str(cell / f"seed{seed}"))
                accs.append(run.final.probe_acc)
            table[(source, eps)] = accs
    return table


@pytest.mark.slow
def test_a07_memory_entropy_beats_fifo(headline_runs):
    h_duel = float(np.mean([r.final.class_entropy for r in headline_runs["duel"]]))
    h_fifo = float(np.mean([r.final.class_entropy for r in headline_runs["fifo"]]))
    seconds = headline_runs["max_seed_time"]
    ok = h_duel >= h_fifo + 0.3 and seconds < 300.0
    _check(
        "A07 memory class entropy beats fifo by 0.3 nats",
        ok,
        f"duel {h_duel:.3f} vs fifo {h_fifo:.3f} (gap {h_duel - h_fifo:+.3f}), "
        f"slowest seed {seconds:.0f}s",
    )


@pytest.mark.slow
def test_a08_inter_class_similarity_at_most_fifo(headline_runs):
    s_duel = float(np.mean([r.final.s_inter for r in headline_runs["duel"]]))
    s_fifo = float(np.mean([r.final.s_inter for r in headline_runs["fifo"]]))
    _check(
        "A08 inter-class similarity at most fifo",
        s_duel <= s_fifo,
        f"duel {s_duel:+.4f} vs fifo {s_fifo:+.4f}",
    )


@pytest.mark.slow
def test_a09_probe_accuracy_at_least_fifo(headline_runs):
    p_duel = float(np.mean([r.final.probe_acc for r in headline_runs["duel"]]))
    p_fifo = float(np.mean([r.final.probe_acc for r in headline_runs["fifo"]]))
    _check(
        "A09 linear probe at least fifo",
        p_duel >= p_fifo,
        f"duel {p_duel:.4f} vs fifo {p_fifo:.4f}",
    )


@pytest.mark.slow
def test_a10_dominant_fraction_flattened_mid_run(headline_runs, half_dominant_runs):
    # rows[0] is the mid-training evaluation; the memory snapshot at that
    # step is taken with the half-trained extractor.
    frac_75 = float(
        np.mean([r.rows[0].dominant_frac for r in headline_runs["duel"]])
    )
    frac_50 = float(np.mean([r.rows[0].dominant_frac for r in half_dominant_runs]))
    ok = frac_75 < 0.75 and frac_50 < 0.5
    _check(
        "A10 dominant class fraction below stream share",
        ok,
        f"rho 0.75: {frac_75:.3f} < 0.75; rho 0.5: {frac_50:.3f} < 0.5",
    )


def test_a11_identical_runs_are_byte_identical(tmp_path):
    cfg = _recipe(0.75, "duel", steps=60)
    run_experiment(cfg, 3, out_dir=str(tmp_path / "first"))
    run_experiment(cfg, 3, out_dir=str(tmp_path / "second"))
    first = (tmp_path / "first" / "metrics.csv").read_bytes()
    second = (tmp_path / "second" / "metrics.csv").read_bytes()
    _check(
        "A11 identical config and seed give byte-identical metrics",
        first == second,
        f"{len(first)} bytes compared",
    )


@pytest.mark.slow
def test_a12_negative_source_ablation(ablation_grid):
    finite = all(
        0.0 <= acc <= 1.0 and math.isfinite(acc)
        for accs in ablation_grid.values()
        for acc in accs
    )
    mixed_full = float(np.mean(ablation_grid[("mixed", 1.0)]))
    memory_bare = float(np.mean(ablation_grid[("memory_only", 0.0)]))
    ok = finite and len(ablation_grid) == 6 and mixed_full >= memory_bare
    _check(
        "A12 negative-source ablation grid",
        ok,
        f"6 cells ran; mixed/eps=1 {mixed_full:.4f} >= "
        f"memory_only/eps=0 {memory_bare:.4f}",
    )
