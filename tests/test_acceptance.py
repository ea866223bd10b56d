"""End-to-end acceptance checks.

Twelve checks: exact algebraic identities and policy equivalences first,
then directional training comparisons on the synthetic imbalanced stream.
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
from duelmem.information import (
    FiniteDistribution,
    distinctiveness_information,
    hebbian_information,
    hml_loss,
    mhml_bound,
)
from duelmem.kernels import AffineCosine, ExponentialTemp, LabelOracle, normalize
from duelmem.memory import ActiveMemory
from duelmem.streams import oracle_embedding_stream
from duelmem.trainer import (
    NEGATIVE_SOURCES,
    FeatureExtractor,
    TrainerConfig,
    batched_infonce,
    infonce_grad,
    infonce_loss,
    numerical_gradient,
)

SEEDS = (0, 1, 2, 3, 4)


def _unit(rng, n, z):
    return normalize(rng.normal(size=(n, z)))


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _recipe(rho_max, policy, out_dir, steps=6000, **trainer_overrides):
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
    d["out_dir"] = out_dir
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
            cfg = _recipe(0.75, policy, str(root / policy))
            t0 = time.perf_counter()
            per_seed.append(run_experiment(cfg, seed))
            seed_times.append(time.perf_counter() - t0)
        runs[policy] = per_seed
    runs["max_seed_time"] = max(seed_times)
    return runs


@pytest.fixture(scope="module")
def half_dominant_runs(tmp_path_factory):
    """duel at rho_max=0.5, 5 seeds; the second half of check A10."""
    root = tmp_path_factory.mktemp("half_dominant")
    cfg = _recipe(0.5, "duel", str(root / "duel"))
    return [run_experiment(cfg, seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def ablation_grid(tmp_path_factory):
    """negative source x epsilon grid at rho_max=0.1, 3 seeds per cell."""
    root = tmp_path_factory.mktemp("ablation")
    table = {}
    for source in NEGATIVE_SOURCES:
        for eps in (0.0, 1.0):
            cell = str(root / f"{source}_eps{int(eps)}")
            accs = []
            for seed in SEEDS[:3]:
                cfg = _recipe(
                    0.1, "duel", cell, steps=3000,
                    negative_source=source, epsilon=eps,
                )
                accs.append(run_experiment(cfg, seed).final.probe_acc)
            table[(source, eps)] = accs
    return table


def test_a01_information_optimum_and_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    oracle = LabelOracle()

    # Balanced labeled sets under the label-oracle kernel sit exactly at
    # the optimum -ln(n_classes).
    optimum_err = 0.0
    for n_classes in (2, 3, 5, 10):
        per_class = int(rng.integers(2, 6))
        labels = np.repeat(np.arange(n_classes), per_class)
        dist = FiniteDistribution.uniform(_unit(rng, labels.size, 6), labels)
        optimum_err = max(
            optimum_err, abs(hml_loss(dist, oracle) + math.log(n_classes))
        )

    # The optimum is a floor: arbitrary embeddings of a balanced set can
    # only do worse, for either similarity kernel.
    floor_violation = -math.inf
    for trial in range(500):
        n_classes = int(rng.integers(2, 11))
        per_class = int(rng.integers(1, 5))
        labels = np.repeat(np.arange(n_classes), per_class)
        dist = FiniteDistribution.uniform(
            _unit(rng, labels.size, int(rng.integers(2, 9))), labels
        )
        kernel = AffineCosine() if trial % 2 else ExponentialTemp(0.5)
        floor_violation = max(
            floor_violation, -math.log(n_classes) - hml_loss(dist, kernel)
        )

    # The memory-augmented bound dominates the balanced objective whenever
    # the skewed set shares per-class conditionals with the balanced one.
    bound_violation = -math.inf
    for trial in range(100):
        n_classes = int(rng.integers(2, 5))
        per_class = int(rng.integers(2, 5))
        z = int(rng.integers(3, 8))
        labels = np.repeat(np.arange(n_classes), per_class)
        points = _unit(rng, labels.size, z)
        balanced = FiniteDistribution.uniform(points, labels)
        class_probs = rng.uniform(0.05, 1.0, n_classes)
        class_probs /= class_probs.sum()
        weights = np.repeat(class_probs / per_class, per_class)
        skewed = FiniteDistribution(points, labels, weights)
        memory = FiniteDistribution.uniform(
            _unit(rng, 8, z), rng.integers(0, n_classes, 8)
        )
        kernel = AffineCosine() if trial % 2 else ExponentialTemp(0.5)
        bound = mhml_bound(
            skewed, memory, balanced, kernel,
            rho_min=float(class_probs.min()), n_classes=n_classes,
        )
        bound_violation = max(bound_violation, hml_loss(balanced, kernel) - bound)

    elapsed = time.perf_counter() - t0
    ok = (
        optimum_err <= 1e-9
        and floor_violation <= 1e-9
        and bound_violation <= 1e-9
        and elapsed < 30.0
    )
    _check(
        "A01 information optimum and bounds",
        ok,
        f"optimum err {optimum_err:.2e}, floor slack {floor_violation:.2e}, "
        f"bound slack {bound_violation:.2e}, {elapsed:.1f}s",
    )


def test_a02_selection_paths_agree():
    rng = np.random.default_rng(22)
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(2, 65))
        z = int(rng.integers(2, 17))
        kernel = AffineCosine() if trial % 2 else ExponentialTemp(0.5)
        base = _unit(rng, n, z)
        if trial % 7 == 0 and n >= 2:
            base[1] = base[0]  # exact twins force a tie
        mem = ActiveMemory.from_arrays(base, kernel=kernel, seed=trial)
        # Exercise the cached-score path with a few incremental pushes.
        for _ in range(int(rng.integers(0, 3))):
            batch = _unit(rng, int(rng.integers(1, 5)), z)
            if trial % 5 == 0:
                batch[0] = mem.embeddings[int(rng.integers(mem.size))]
            mem.push_batch(batch)
        if mem.duel_select_by_score() != mem.duel_select_naive():
            mismatches += 1
    _check(
        "A02 selection paths agree",
        mismatches == 0,
        f"{1000 - mismatches}/1000 random memories matched",
    )


def test_a03_incremental_matches_naive_eviction_log():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    mismatches = 0
    for trial in range(200):
        kernel = AffineCosine() if trial < 100 else ExponentialTemp(0.5)
        base = _unit(rng, 64, 16)
        if trial % 5 == 0:
            base[7] = base[3]  # resident twins
        labels = rng.integers(0, 6, 64)
        fast = ActiveMemory.from_arrays(base, labels, kernel=kernel, policy="duel")
        slow = ActiveMemory.from_arrays(
            base, labels, kernel=kernel, policy="duel_naive"
        )
        batch = _unit(rng, 8, 16)
        if trial % 3 == 0:
            batch[4] = base[11]  # twin spanning the memory/batch boundary
        batch_labels = rng.integers(0, 6, 8)
        log_fast = [(e.evicted, e.inserted) for e in fast.push_batch(batch, batch_labels)]
        log_slow = [(e.evicted, e.inserted) for e in slow.push_batch(batch, batch_labels)]
        if log_fast != log_slow or not np.array_equal(
            fast.embeddings, slow.embeddings
        ):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _check(
        "A03 incremental eviction log matches naive",
        mismatches == 0 and elapsed < 10.0,
        f"{200 - mismatches}/200 batched updates matched, {elapsed:.1f}s",
    )


def test_a04_replacements_never_decrease_distinctiveness():
    rng = np.random.default_rng(44)
    n_classes, capacity = 8, 32
    probs = np.array([0.51] + [0.07] * 7)
    stream = oracle_embedding_stream(n_classes, rng, probs)
    first = [next(stream) for _ in range(capacity)]
    mem = ActiveMemory.from_arrays(
        np.array([e for e, _ in first]),
        np.array([c for _, c in first]),
        kernel=LabelOracle(),
        policy="duel",
    )
    violations = 0
    worst = math.inf
    for _ in range(10_000):
        pre_emb, pre_lab = mem.embeddings, mem.labels
        before = mem.mean_distinctiveness()
        emb, label = next(stream)
        mem.push_batch(emb[None, :], np.array([label]))
        after = mem.mean_distinctiveness(pre_emb, pre_lab)
        worst = min(worst, after - before)
        if after < before - 1e-12:
            violations += 1
    _check(
        "A04 replacements never decrease distinctiveness",
        violations == 0,
        f"0 violations required, saw {violations}; worst margin {worst:+.2e}",
    )


def test_a05_infonce_equals_information_gap():
    rng = np.random.default_rng(55)
    kernel = ExponentialTemp(0.5)
    worst = 0.0
    for _ in range(100):
        z = int(rng.integers(3, 12))
        k = int(rng.integers(4, 33))
        anchor = _unit(rng, 1, z)[0]
        positive = _unit(rng, 1, z)[0]
        negatives = _unit(rng, k, z)
        loss = infonce_loss(anchor, positive, negatives, tau=0.5, epsilon=0.0)
        i_h = hebbian_information(
            anchor, 0, FiniteDistribution(positive[None, :], np.array([0])), kernel
        )
        i_d = distinctiveness_information(
            anchor,
            FiniteDistribution.uniform(negatives, rng.integers(0, 4, k)),
            kernel,
        )
        worst = max(worst, abs(loss - (i_h - i_d + math.log(k))))
    _check(
        "A05 infonce equals information gap",
        worst <= 1e-9,
        f"max |loss - (I_h - I_d + ln K)| = {worst:.2e} over 100 instances",
    )


def test_a06_gradients_match_finite_differences():
    rng = np.random.default_rng(66)
    cells = [
        (hidden, source, eps)
        for hidden in (None, 5)
        for source in NEGATIVE_SOURCES
        for eps in (0.0, 1.0)
    ]
    worst = 0.0
    for trial in range(50):
        hidden, source, eps = cells[trial % len(cells)]
        cfg = TrainerConfig(
            batch_size=3,
            tau=float(rng.uniform(0.2, 1.0)),
            epsilon=eps,
            negative_source=source,
            memory_neg_count=4,
            d_out=3,
            hidden=hidden,
        )
        extractor = FeatureExtractor(4, 3, hidden=hidden, seed=trial)
        X = rng.normal(size=(3, 4))
        X_pos = X + 0.1 * rng.normal(size=(3, 4))
        negatives = _unit(rng, 4, 3) if source != "batch_only" else None

        def loss_fn():
            Z = extractor.forward(X)
            P = extractor.forward(X_pos)
            return batched_infonce(
                Z, P, negatives, cfg.tau, cfg.epsilon, source, True
            )[0]

        _, grads = infonce_grad(extractor, X, X_pos, negatives, cfg)
        numeric = numerical_gradient(loss_fn, extractor.params)
        for key in grads:
            denom = np.maximum(np.abs(grads[key]) + np.abs(numeric[key]), 1e-6)
            worst = max(
                worst, float(np.max(np.abs(grads[key] - numeric[key]) / denom))
            )
    _check(
        "A06 gradients match finite differences",
        worst < 1e-4,
        f"max relative error {worst:.2e} over 50 configs",
    )


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
    cfg = _recipe(0.75, "duel", str(tmp_path / "base"), steps=60)
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
