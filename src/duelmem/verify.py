"""Self-contained verification suite covering the library's invariants.

Each check returns (ok, detail). run_all executes every check, prints one
line per check, and reports overall success. The quick flag shrinks trial
counts for a fast smoke pass.

NaiveDuel is the reference DUEL memory the incremental path is checked
against: it recomputes the whole pool's score matrix on every push and
shares no code with ActiveMemory's DUEL path beyond the kernels and
PushResult.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass

import numpy as np

from . import memory as memory_module
from .information import (
    FiniteDistribution,
    distinctiveness_information,
    hebbian_information,
    hml_loss,
    imbalance_lambda,
    mhml_bound,
)
from .kernels import (
    AffineCosine,
    ExponentialTemp,
    LabelOracle,
    mdp,
    normalize,
    pair_scores,
)
from .memory import POLICIES, ActiveMemory, PushResult, guarded_update
from .metrics import class_entropy, intra_class_variance, linear_probe
from .streams import StreamConfig, Dominant, GaussianPairStream, longtail_probs, oracle_embedding_stream
from .trainer import (
    FeatureExtractor,
    TrainerConfig,
    TrainState,
    batched_infonce,
    infonce_grad,
    infonce_loss,
    momentum_update,
    numerical_gradient,
    train_step,
)

__all__ = ["run_all", "CHECKS", "NaiveDuel"]


def _random_unit(rng, n, z):
    return normalize(rng.normal(size=(n, z)))


def _random_kernel(rng):
    if rng.random() < 0.5:
        return AffineCosine()
    return ExponentialTemp(tau=float(rng.uniform(0.2, 2.0)))


def _balanced_distribution(rng, n_classes, per_class, z, uniform_weights=False):
    emb = _random_unit(rng, n_classes * per_class, z)
    labels = np.repeat(np.arange(n_classes), per_class)
    if uniform_weights:
        return FiniteDistribution.uniform(emb, labels)
    weights = np.zeros(len(labels))
    for c in range(n_classes):
        mask = labels == c
        w = rng.uniform(0.2, 1.0, size=mask.sum())
        weights[mask] = w / w.sum() / n_classes
    weights = weights / weights.sum()
    return FiniteDistribution(emb, labels, weights)


# -- kernel / information ----------------------------------------------------


def check_kernel_invariants(quick: bool) -> tuple[bool, str]:
    """mdp symmetry, range, q(a, a) = 1; information measures non-negative."""
    rng = np.random.default_rng(11)
    trials = 50 if quick else 300
    for _ in range(trials):
        z = int(rng.integers(2, 12))
        a, b = _random_unit(rng, 2, z)
        k = _random_kernel(rng)
        q_ab, q_ba = mdp(a, b, k), mdp(b, a, k)
        if not (0.0 <= q_ab <= 1.0):
            return False, f"q out of range: {q_ab}"
        if abs(q_ab - q_ba) > 1e-12:
            return False, "mdp not symmetric"
        if abs(mdp(a, a, k) - 1.0) > 1e-9:
            return False, "q(a, a) != 1"
        ref = FiniteDistribution.uniform(
            _random_unit(rng, 6, z), rng.integers(0, 3, size=6)
        )
        i_d = distinctiveness_information(a, ref, k)
        if i_d < -1e-12:
            return False, "distinctiveness negative"
        pos = FiniteDistribution.uniform(_random_unit(rng, 4, z), np.zeros(4, int))
        i_h = hebbian_information(a, 0, pos, k)
        if i_h < -1e-12:
            return False, "hebbian information negative"
        # Jensen: mean of -log q >= -log of mean q.
        q_row = pair_scores(a[None, :], pos.embeddings, k, np.array([0]), pos.labels)[0]
        if i_h < -math.log(float(q_row.mean())) - 1e-9:
            return False, "Jensen consistency violated"
    return True, f"{trials} random pairs"


def check_balanced_oracle_optimum(quick: bool) -> tuple[bool, str]:
    """LabelOracle on a balanced distribution attains exactly -log |C|."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for n_classes in (2, 3, 5, 10):
        per_class = int(rng.integers(1, 5))
        dist = _balanced_distribution(rng, n_classes, per_class, 8)
        loss = hml_loss(dist, LabelOracle())
        worst = max(worst, abs(loss + math.log(n_classes)))
    ok = worst < 1e-9
    return ok, f"max |loss + ln C| = {worst:.2e}"


def check_balanced_lower_bound(quick: bool) -> tuple[bool, str]:
    """hml_loss >= -log |C| for balanced distributions, any kernel."""
    rng = np.random.default_rng(13)
    trials = 50 if quick else 500
    margin = math.inf
    for _ in range(trials):
        n_classes = int(rng.integers(2, 8))
        per_class = int(rng.integers(1, 5))
        z = int(rng.integers(2, 10))
        dist = _balanced_distribution(rng, n_classes, per_class, z)
        loss = hml_loss(dist, _random_kernel(rng))
        margin = min(margin, loss + math.log(n_classes))
        if loss < -math.log(n_classes) - 1e-9:
            return False, f"bound violated by {loss + math.log(n_classes):.2e}"
    return True, f"{trials} trials, min margin {margin:.3g}"


def check_empirical_bound(quick: bool) -> tuple[bool, str]:
    """mhml_bound dominates hml_loss of the balanced counterpart."""
    rng = np.random.default_rng(14)
    trials = 20 if quick else 100
    for _ in range(trials):
        n_classes = int(rng.integers(2, 6))
        per_class = int(rng.integers(1, 4))
        z = int(rng.integers(3, 8))
        emb = _random_unit(rng, n_classes * per_class, z)
        labels = np.repeat(np.arange(n_classes), per_class)
        within = np.zeros(len(labels))
        for c in range(n_classes):
            mask = labels == c
            w = rng.uniform(0.2, 1.0, size=mask.sum())
            within[mask] = w / w.sum()
        rho = rng.uniform(0.05, 1.0, size=n_classes)
        rho = rho / rho.sum()
        oracle = FiniteDistribution(emb, labels, within / n_classes)
        empirical = FiniteDistribution(emb, labels, within * rho[labels])
        m = int(rng.integers(3, 12))
        mem = FiniteDistribution.uniform(
            _random_unit(rng, m, z), rng.integers(0, n_classes, size=m)
        )
        k = _random_kernel(rng)
        bound = mhml_bound(
            empirical, mem, oracle, k, float(rho.min()), n_classes
        )
        target = hml_loss(oracle, k)
        if bound < target - 1e-9:
            return False, f"bound {bound:.6f} < loss {target:.6f}"
    return True, f"{trials} constructed triples"


# -- memory -------------------------------------------------------------------


def _as_labels(labels, n: int) -> np.ndarray:
    if labels is None:
        return np.full(n, -1, dtype=np.int64)
    return np.asarray(labels, dtype=np.int64).reshape(-1)


class NaiveDuel:
    """Reference DUEL memory: a full-memory replay of every push.

    Built full from `emb`, it takes pushes as an ActiveMemory with policy
    "duel" does, and must log the same victims and keep the same entries in
    the same order. Each push builds the (k+b) x (k+b) score matrix of the
    pool [memory; batch] and, per batch element, evicts the selected row with
    the largest row sum over the selected rows, then selects the element. It
    keeps its own copy of the tie rule, so a fault in a helper of the fast
    path cannot hide in the oracle too.
    """

    def __init__(self, emb, labels=None, kernel=None):
        self.kernel = kernel if kernel is not None else AffineCosine()
        self.embeddings = np.array(emb, dtype=np.float64)
        n = self.embeddings.shape[0]
        self.labels = _as_labels(labels, n)
        self.insert_steps = np.arange(n, dtype=np.int64)
        self._seen = n

    def push_batch(self, embeddings, labels=None) -> PushResult:
        X = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        k, b = self.embeddings.shape[0], X.shape[0]
        pool = np.vstack([self.embeddings, X])
        pool_labels = np.concatenate([self.labels, _as_labels(labels, b)])
        ids = np.concatenate([self.insert_steps, self._seen + np.arange(b)])
        S = pair_scores(pool, pool, self.kernel, pool_labels, pool_labels)
        selection = np.arange(k + b) < k
        victims = []
        for i in range(k, k + b):
            sel = np.flatnonzero(selection)
            sums = S[np.ix_(sel, sel)].sum(axis=1)
            # Ties: the lowest index within 1e-9 of the maximum.
            j = int(sel[np.flatnonzero(sums >= sums.max() - 1e-9)[0]])
            selection[j], selection[i] = False, True
            victims.append(j)
        self.embeddings = pool[selection]
        self.labels = pool_labels[selection]
        self.insert_steps = ids[selection]
        self._seen += b
        return PushResult(np.array(victims), ids[k:])


def _random_memory(rng, k, z, kernel=None, policy="duel"):
    emb = _random_unit(rng, k, z)
    labels = rng.integers(0, 5, size=k)
    return ActiveMemory.from_arrays(
        emb, labels, kernel=kernel or _random_kernel(rng), policy=policy
    )


def check_selection_equivalence(quick: bool) -> tuple[bool, str]:
    """duel_select_by_score matches duel_select_naive on random memories."""
    rng = np.random.default_rng(15)
    trials = 100 if quick else 1000
    for t in range(trials):
        k = int(rng.integers(2, 96))
        z = int(rng.integers(2, 24))
        mem = _random_memory(rng, k, z)
        if t % 7 == 0 and k >= 4:
            # Plant exact duplicates so ties exercise the index tie-break.
            dup = mem.embeddings
            dup[1] = dup[0]
            dup[3] = dup[0]
            mem = ActiveMemory.from_arrays(dup, mem.labels, kernel=mem.kernel)
        if mem.duel_select_by_score() != mem.duel_select_naive():
            return False, f"disagreement at trial {t}"
    return True, f"{trials} random memories"


def check_incremental_matches_naive(quick: bool) -> tuple[bool, str]:
    """Batched incremental updates replay NaiveDuel exactly."""
    rng = np.random.default_rng(16)
    trials = 20 if quick else 200
    for kernel in (AffineCosine(), ExponentialTemp(tau=0.5)):
        for t in range(trials):
            k, b, z = 64, 8, 16
            emb = _random_unit(rng, k, z)
            labels = rng.integers(0, 6, size=k)
            batch = _random_unit(rng, b, z)
            if t % 5 == 0:
                batch[1] = batch[0]
                batch[3] = emb[2]
            batch_labels = rng.integers(0, 6, size=b)
            fast = ActiveMemory.from_arrays(emb, labels, kernel=kernel, policy="duel")
            slow = NaiveDuel(emb, labels, kernel=kernel)
            ev_fast = fast.push_batch(batch, batch_labels)
            ev_slow = slow.push_batch(batch, batch_labels)
            if ev_fast != ev_slow:
                return False, f"eviction logs diverge at trial {t} ({kernel})"
            if not np.array_equal(fast.embeddings, slow.embeddings):
                return False, f"contents diverge at trial {t}"
            if np.max(np.abs(fast.scores - fast.recomputed_scores())) > 1e-9:
                return False, "incremental score cache drifted beyond 1e-9"
    # A dominant-class cluster stream. Once DUEL has thinned the dominant
    # cluster, the next replacement evicts most offered rows on arrival, and
    # the incremental path settles them; 20 warm-up pushes get it there.
    k, b, z, warm = 128, 32, 16, 20
    n = k + (warm + 1) * b
    centres = _random_unit(rng, 6, z)
    labels = rng.choice(6, size=n, p=Dominant(0.75).probs(6))
    X = normalize(centres[labels] + 0.35 * rng.normal(size=(n, z)))
    warmed = ActiveMemory.from_arrays(X[:k], labels[:k], policy="duel")
    for p in range(warm):
        rows = slice(k + p * b, k + (p + 1) * b)
        warmed.push_batch(X[rows], labels[rows])
    E, held = warmed.embeddings, warmed.labels
    fast = ActiveMemory.from_arrays(E, held, policy="duel")
    slow = NaiveDuel(E, held)
    ev_fast = fast.push_batch(X[-b:], labels[-b:])
    if ev_fast != slow.push_batch(X[-b:], labels[-b:]):
        return False, "eviction logs diverge on the dominant-cluster trial"
    if not np.array_equal(fast.embeddings, slow.embeddings):
        return False, "contents diverge on the dominant-cluster trial"
    settled = int(np.count_nonzero(ev_fast.victims[1:] == k + np.arange(b - 1)))
    if settled < b // 2:
        return False, f"dominant-cluster trial evicted only {settled} of {b} rows on arrival"
    # The log reads the same when such rows take the general path, which they
    # do unless they score themselves MAX_SCORE; then no row is settled.
    own = np.diagonal(pair_scores(X[-b:], X[-b:], AffineCosine()))
    if np.max(np.abs(own - memory_module.MAX_SCORE)) > 1e-12:
        return False, "unit rows do not score themselves MAX_SCORE, so none settles"
    return True, f"{2 * trials + 1} batched updates, both kernels, {settled}/{b} settled"


def check_cache_coherence(quick: bool) -> tuple[bool, str]:
    """Cached scores match a full recompute after any policy's updates.

    The baselines leave the cache stale, and every reader must recompute it
    first. So before the drift read, which refreshes it, duel_select_by_score
    must agree with duel_select_naive on each baseline memory. They run under
    the label oracle, whose row sums are class counts: a selection read from
    stale counts often names another class's row.
    """
    rng = np.random.default_rng(17)
    trials = 10 if quick else 40
    for policy in POLICIES:
        baseline = policy != "duel"
        for _ in range(trials):
            k, z = int(rng.integers(4, 32)), 8
            kernel = LabelOracle() if baseline else None
            mem = _random_memory(rng, k, z, kernel=kernel, policy=policy)
            for _ in range(3):
                nb = int(rng.integers(1, 9))
                mem.push_batch(_random_unit(rng, nb, z), rng.integers(0, 5, size=nb))
            if baseline and mem.duel_select_by_score() != mem.duel_select_naive():
                return False, f"{policy}: selection read a stale cache"
            drift = np.max(np.abs(mem.scores - mem.recomputed_scores()))
            if drift > 1e-9:
                return False, f"{policy}: cache drift {drift:.2e}"
    return True, "all policies within 1e-9; baseline selections read a fresh cache"


def check_label_blindness(quick: bool) -> tuple[bool, str]:
    """Permuting hidden labels never changes geometric-kernel evictions."""
    rng = np.random.default_rng(18)
    trials = 10 if quick else 50
    for _ in range(trials):
        k, b, z = 24, 6, 8
        emb = _random_unit(rng, k, z)
        labels = rng.integers(0, 4, size=k)
        batch = _random_unit(rng, b, z)
        batch_labels = rng.integers(0, 4, size=b)
        kernel = _random_kernel(rng)
        a = ActiveMemory.from_arrays(emb, labels, kernel=kernel)
        b_mem = ActiveMemory.from_arrays(
            emb, rng.permutation(labels), kernel=kernel
        )
        ev_a = a.push_batch(batch, batch_labels)
        ev_b = b_mem.push_batch(batch, rng.permutation(batch_labels))
        if [e.evicted for e in ev_a] != [e.evicted for e in ev_b]:
            return False, "evictions changed under label permutation"
    return True, f"{trials} permutation trials"


def check_safeness(quick: bool) -> tuple[bool, str]:
    """DUEL replacements never lower pre-mixture probe distinctiveness."""
    rng = np.random.default_rng(19)
    replacements = 1000 if quick else 10000
    n_classes, k = 8, 64
    stream = oracle_embedding_stream(
        n_classes, rng, probs=Dominant(0.75).probs(n_classes)
    )
    mem = ActiveMemory(k, n_classes, LabelOracle(), policy="duel")
    while not mem.is_full:
        e, c = next(stream)
        mem.push_batch(e[None, :], np.array([c]))
    worst = math.inf
    for _ in range(replacements):
        probe_emb, probe_lab = mem.embeddings, mem.labels
        before = mem.mean_distinctiveness(probe_emb, probe_lab)
        e, c = next(stream)
        mem.push_batch(e[None, :], np.array([c]))
        after = mem.mean_distinctiveness(probe_emb, probe_lab)
        worst = min(worst, after - before)
        if after < before - 1e-12:
            return False, f"distinctiveness dropped by {before - after:.3e}"
    return True, f"{replacements} replacements, min delta {worst:.3e}"


def check_guarded_update(quick: bool) -> tuple[bool, str]:
    """guarded_update keeps safe updates and reverts harmful ones."""
    # Safe case: stream-mixture probe, imbalanced memory, minority arrival.
    rng = np.random.default_rng(20)
    eye = np.eye(4)
    emb = np.vstack([np.tile(eye[0], (18, 1)), np.tile(eye[1], (2, 1))])
    labels = np.array([0] * 18 + [1] * 2)
    mem = ActiveMemory.from_arrays(emb, labels, kernel=LabelOracle())
    probe_lab = np.array([0] * 9 + [1])  # mirrors the 0.9 / 0.1 stream
    probe_emb = eye[probe_lab]
    _, applied = guarded_update(
        mem, eye[1][None, :], np.array([1]), probe_emb, probe_lab
    )
    if not applied:
        return False, "safe minority insertion was reverted"
    # Harmful case: balanced probe, skewed memory; the duplicate-eliminating
    # replacement lowers the balanced probe's distinctiveness.
    emb = np.vstack([np.tile(eye[0], (9, 1)), eye[1][None, :]])
    labels = np.array([0] * 9 + [1])
    mem = ActiveMemory.from_arrays(emb, labels, kernel=LabelOracle())
    before = mem.labels
    probe_lab = np.array([0, 1])
    probe_emb = eye[probe_lab]
    _, applied = guarded_update(
        mem, eye[1][None, :], np.array([1]), probe_emb, probe_lab
    )
    if applied:
        return False, "harmful update was not reverted"
    if not np.array_equal(mem.labels, before):
        return False, "revert did not restore memory"
    return True, "safe applied, harmful reverted"


def check_capacity_and_sampling(quick: bool) -> tuple[bool, str]:
    """Size never exceeds capacity; negative sampling handles both regimes."""
    rng = np.random.default_rng(21)
    for policy in ("duel", "fifo", "random", "reservoir"):
        mem = ActiveMemory(16, 4, AffineCosine(), policy=policy, seed=3)
        for _ in range(5):
            mem.push_batch(_random_unit(rng, 7, 4))
            if mem.size > mem.capacity:
                return False, f"{policy}: capacity exceeded"
    mem = ActiveMemory.from_arrays(_random_unit(rng, 8, 4))
    exact = mem.sample_negatives(8, np.random.default_rng(0))
    if not np.array_equal(np.sort(exact, axis=0), np.sort(mem.embeddings, axis=0)):
        return False, "n = size sample is not a permutation"
    over = mem.sample_negatives(20, np.random.default_rng(0))
    if over.shape != (20, 4):
        return False, "oversampling shape wrong"
    return True, "capacity bound and sampling regimes hold"


# -- trainer ------------------------------------------------------------------


def check_infonce_identity(quick: bool) -> tuple[bool, str]:
    """Single-positive loss equals I_h - I_d + ln K for the exp kernel."""
    rng = np.random.default_rng(22)
    trials = 20 if quick else 100
    worst = 0.0
    for _ in range(trials):
        z = int(rng.integers(2, 12))
        k = int(rng.integers(2, 40))
        tau = float(rng.uniform(0.2, 2.0))
        anchor = _random_unit(rng, 1, z)[0]
        positive = _random_unit(rng, 1, z)[0]
        negatives = _random_unit(rng, k, z)
        kernel = ExponentialTemp(tau=tau)
        loss = infonce_loss(anchor, positive, negatives, tau, epsilon=0.0)
        pos_dist = FiniteDistribution.uniform(positive[None, :], np.zeros(1, int))
        i_h = hebbian_information(anchor, 0, pos_dist, kernel)
        ref = FiniteDistribution.uniform(negatives, np.zeros(k, int))
        i_d = distinctiveness_information(anchor, ref, kernel)
        gap = abs(loss - (i_h - i_d + math.log(k)))
        worst = max(worst, gap)
        if gap > 1e-9:
            return False, f"identity off by {gap:.2e}"
    return True, f"{trials} instances, max gap {worst:.2e}"


def _gradient_case(rng, hidden, source, epsilon):
    d_in = int(rng.integers(2, 6))
    d_out = int(rng.integers(2, 5))
    b = int(rng.integers(2, 5))
    n_mem = int(rng.integers(1, 6))
    tau = float(rng.uniform(0.3, 1.5))
    momentum_mode = bool(rng.integers(0, 2))
    cfg = TrainerConfig(
        batch_size=b,
        tau=tau,
        epsilon=epsilon,
        negative_source=source,
        memory_neg_count=n_mem,
        d_out=d_out,
    )
    f = FeatureExtractor(d_in, d_out, hidden, seed=int(rng.integers(1 << 30)))
    X = rng.normal(size=(b, d_in))
    Xp = rng.normal(size=(b, d_in))
    mem_negs = _random_unit(rng, n_mem, d_out) if source != "batch_only" else None
    f_key = f.clone() if momentum_mode else None
    if f_key is not None:
        for key in f_key.params:
            f_key.params[key] += 0.1 * rng.normal(size=f_key.params[key].shape)

    def loss_fn():
        Z = f.forward(X)
        P = f_key.forward(Xp) if f_key is not None else f.forward(Xp)
        loss, _, _ = batched_infonce(
            Z, P, mem_negs, tau, epsilon, source, positives_trainable=False
        )
        return loss

    _, grads = infonce_grad(f, X, Xp, mem_negs, cfg, key_extractor=f_key)
    numeric = numerical_gradient(loss_fn, f.params)
    worst = 0.0
    for key in grads:
        denom = np.maximum(
            np.abs(grads[key]) + np.abs(numeric[key]), 1e-6
        )
        worst = max(worst, float(np.max(np.abs(grads[key] - numeric[key]) / denom)))
    return worst


def check_gradients(quick: bool) -> tuple[bool, str]:
    """Analytic gradients match central differences across the config grid."""
    rng = np.random.default_rng(23)
    cases = []
    for hidden in (None, 7):
        for source in ("batch_only", "memory_only", "mixed"):
            for epsilon in (0.0, 1.0):
                cases.append((hidden, source, epsilon))
    target = 12 if quick else 50
    while len(cases) < target:
        cases.append(
            (
                (None, 7)[rng.integers(2)],
                ("batch_only", "memory_only", "mixed")[rng.integers(3)],
                float(rng.uniform(0, 1)),
            )
        )
    worst = 0.0
    for hidden, source, epsilon in cases[:target]:
        err = _gradient_case(rng, hidden, source, epsilon)
        worst = max(worst, err)
        if err > 1e-4:
            return False, f"rel err {err:.2e} ({hidden}, {source}, eps={epsilon})"
    return True, f"{target} configs, max rel err {worst:.2e}"


def check_trainer_mechanics(quick: bool) -> tuple[bool, str]:
    """Momentum contraction, zero-lr no-op, deterministic replays."""
    rng = np.random.default_rng(24)
    f = FeatureExtractor(4, 3, seed=1)
    g = FeatureExtractor(4, 3, seed=2)
    before = {k: v.copy() for k, v in f.params.items()}
    momentum_update(f.params, g.params, 1.0)
    if any(not np.array_equal(f.params[k], before[k]) for k in f.params):
        return False, "m = 1 should freeze the key extractor"
    momentum_update(f.params, g.params, 0.0)
    if any(not np.array_equal(f.params[k], g.params[k]) for k in f.params):
        return False, "m = 0 should copy the query extractor"

    def tiny_state(lr):
        cfg = TrainerConfig(
            batch_size=4,
            memory_neg_count=4,
            lr=lr,
            steps=5,
            seed=9,
            d_out=3,
        )
        ext = FeatureExtractor(4, 3, seed=7)
        mem = ActiveMemory(8, 3, AffineCosine(), "duel", seed=5)
        mem.push_batch(_random_unit(np.random.default_rng(3), 8, 3))
        return TrainState.create(cfg, ext, mem)

    state = tiny_state(0.0)
    X = rng.normal(size=(4, 4))
    Xp = X + 0.1 * rng.normal(size=(4, 4))
    before = {k: v.copy() for k, v in state.extractor.params.items()}
    mem_before = state.memory.size
    train_step(state, X, Xp)
    unchanged = all(
        np.array_equal(state.extractor.params[k], before[k]) for k in before
    )
    if not unchanged:
        return False, "lr = 0 changed parameters"
    if state.memory.size == mem_before and state.memory.size < 8:
        return False, "lr = 0 skipped the memory update"

    losses = []
    for _ in range(2):
        state = tiny_state(0.05)
        local = np.random.default_rng(42)
        run_losses = []
        for _ in range(5):
            Xb = local.normal(size=(4, 4))
            Xpb = Xb + 0.1 * local.normal(size=(4, 4))
            run_losses.append(train_step(state, Xb, Xpb).loss)
        losses.append(run_losses)
    if losses[0] != losses[1]:
        return False, "same seed produced different loss trajectories"
    return True, "momentum, zero-lr and determinism hold"


# -- streams / metrics --------------------------------------------------------


def check_stream_profiles(quick: bool) -> tuple[bool, str]:
    """Imbalance profiles and pair-generation moments."""
    p = Dominant(0.75).probs(10)
    if abs(p[0] - 0.75) > 1e-12 or abs(p[1] - 0.25 / 9) > 1e-12:
        return False, "dominant profile wrong"
    lt = longtail_probs(1000, 256.0)
    if abs(lt[0] / lt[-1] - 256.0) > 1e-9 or np.any(np.diff(lt) > 0):
        return False, "long-tail profile wrong"
    if np.max(np.abs(longtail_probs(6, 1.0) - 1.0 / 6)) > 1e-12:
        return False, "ratio 1 should be uniform"
    two = longtail_probs(2, 4.0)
    if abs(two[0] - 0.8) > 1e-12:
        return False, "2-class ratio 4 should give (0.8, 0.2)"

    cfg = StreamConfig(
        n_classes=4, d_in=6, separation=2.0, sigma=0.0, sigma_aug=0.0, seed=1
    )
    stream = GaussianPairStream(cfg, seed=2)
    X, Xp, labels = stream.sample_batch(64)
    means = stream.means
    if np.max(np.abs(X - means[labels])) > 1e-12:
        return False, "sigma = 0 should reproduce the class means"
    if np.max(np.abs(X - Xp)) > 1e-12:
        return False, "sigma_aug = 0 should copy the anchor"
    draws = 200_000 if quick else 1_000_000
    rng = np.random.default_rng(4)
    counts = np.bincount(
        rng.choice(10, p=Dominant(0.75).probs(10), size=draws), minlength=10
    )
    if abs(counts[0] / draws - 0.75) > 0.002:
        return False, "dominant frequency off beyond MC tolerance"
    return True, "profiles and moments hold"


def check_metrics_invariants(quick: bool) -> tuple[bool, str]:
    """Entropy ceiling, collapse detection, probe sanity."""
    rng = np.random.default_rng(25)
    if abs(class_entropy([3, 3, 7, 7]) - math.log(2)) > 1e-12:
        return False, "entropy of a 50/50 split must be ln 2"
    if class_entropy(np.zeros(32)) != 0.0:
        return False, "single class entropy must be 0"
    labels = rng.integers(0, 6, size=200)
    if class_entropy(labels) > math.log(6) + 1e-12:
        return False, "entropy ceiling violated"
    emb = normalize(rng.normal(size=(40, 5)))
    labels = np.repeat(np.arange(4), 10)
    collapsed = normalize(rng.normal(size=(4, 5)))[labels]
    if intra_class_variance(collapsed, labels) > 1e-24:
        return False, "collapsed classes must give v_intra = 0"
    if intra_class_variance(emb, labels) <= 0:
        return False, "spread classes must give v_intra > 0"
    feats = np.eye(4)[np.repeat(np.arange(4), 12)]
    y = np.repeat(np.arange(4), 12)
    acc = linear_probe(feats, y, feats, y)
    if acc != 1.0:
        return False, "probe must separate one-hot features"
    shuffled = np.random.default_rng(1).permutation(y)
    acc_sh = linear_probe(feats, shuffled, feats, np.random.default_rng(2).permutation(y))
    if not 0.0 <= acc_sh <= 0.6:
        return False, "shuffled-label probe should be near chance"
    return True, "entropy, variance and probe invariants hold"


def check_harness_determinism(quick: bool) -> tuple[bool, str]:
    """Identical (config, seed) runs write byte-identical metrics."""
    from .harness import ExperimentConfig, MemoryConfig, EvalConfig, run_experiment

    cfg = ExperimentConfig(
        stream=StreamConfig(n_classes=4, d_in=8, sigma=0.3, sigma_aug=0.3),
        trainer=TrainerConfig(
            batch_size=8, memory_neg_count=16, steps=30, d_out=6
        ),
        memory=MemoryConfig(capacity=32),
        eval=EvalConfig(cadence=10, eval_per_class=8,
                        probe_train_per_class=8, probe_test_per_class=8,
                        probe_steps=50),
    )
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("a", "b"):
            result = run_experiment(cfg, seed=123, out_dir=f"{tmp}/{name}")
            with open(f"{result.out_dir}/metrics.csv", "rb") as fh:
                outputs.append(fh.read())
    if outputs[0] != outputs[1]:
        return False, "metrics.csv differs between identical runs"
    return True, "byte-identical metrics for repeated runs"


CHECKS = [
    ("kernel_invariants", check_kernel_invariants),
    ("balanced_oracle_optimum", check_balanced_oracle_optimum),
    ("balanced_lower_bound", check_balanced_lower_bound),
    ("empirical_bound_dominates", check_empirical_bound),
    ("duel_selection_equivalence", check_selection_equivalence),
    ("duel_incremental_matches_naive", check_incremental_matches_naive),
    ("memory_cache_coherence", check_cache_coherence),
    ("memory_label_blindness", check_label_blindness),
    ("duel_safeness", check_safeness),
    ("guarded_update_gate", check_guarded_update),
    ("memory_capacity_and_sampling", check_capacity_and_sampling),
    ("infonce_information_identity", check_infonce_identity),
    ("gradient_checks", check_gradients),
    ("trainer_mechanics", check_trainer_mechanics),
    ("stream_profiles", check_stream_profiles),
    ("metrics_invariants", check_metrics_invariants),
    ("harness_determinism", check_harness_determinism),
]


def run_all(quick: bool = False, printer=print) -> bool:
    """Run every check; print PASS/FAIL per line; True iff all passed."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn(quick)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        printer(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
