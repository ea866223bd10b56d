"""Self-contained verification suite: the one home of the library's exact
invariant checks.

Exact invariants and run determinism live here: the information bounds,
DUEL's selection, replay, cache coherence, label blindness and safeness, the
InfoNCE identity, the gradients, and byte-identical repeated runs. Unit
mechanics, such as a profile's frozen values, a metric's edge cases or a
parameter that turns an update off, live in the tests, and no check repeats
them.

Each check returns (ok, detail). run_all executes every check, prints one
line per check, and reports overall success. The quick flag shrinks trial
counts for a fast smoke pass; tests/test_verify.py runs every check in full.

NaiveDuel and naive_select are the reference DUEL update and selection the
incremental path is checked against: they recompute the whole score matrix
and keep their own copy of the tie rule, so they share no code with
ActiveMemory's DUEL path beyond the kernels and PushResult. infonce_loss,
the single-sample loss, and numerical_gradient, central finite differences,
are the references the trainer's batched loss and analytic gradients are
checked against. ORACLE_KERNEL on one-hot class embeddings stands in for a
perfect extractor.
"""

from __future__ import annotations

import contextlib
import math
import tempfile

import numpy as np

from . import memory as memory_module
from .information import (
    FiniteDistribution,
    distinctiveness_information,
    hebbian_information,
    hml_loss,
    mhml_bound,
)
from .kernels import AffineCosine, ExponentialTemp, normalize, pair_scores, pair_terms
from .memory import POLICIES, ActiveMemory, PushResult
from .streams import StreamConfig, Dominant, oracle_embedding_stream
from .trainer import (
    NEGATIVE_SOURCES,
    FeatureExtractor,
    TrainerConfig,
    batched_infonce,
    infonce_grad,
)

__all__ = [
    "CHECKS",
    "NaiveDuel",
    "ORACLE_KERNEL",
    "affine_duel_replay",
    "infonce_loss",
    "naive_select",
    "numerical_gradient",
    "run_all",
]


# A perfect extractor's kernel. On one-hot class embeddings eye[labels] the
# cosines are exactly 1 within a class and 0 across classes, so q is
# exp(0) = 1 for a shared class and exp(-1000), which underflows to exactly
# 0.0, otherwise: the label-match matrix, bit for bit, with no kernel reading
# a label.
ORACLE_KERNEL = ExponentialTemp(tau=1e-3)


def _random_unit(rng, n, z):
    return normalize(rng.normal(size=(n, z)))


def _random_kernel(rng):
    if rng.random() < 0.5:
        return AffineCosine()
    return ExponentialTemp(tau=float(rng.uniform(0.2, 2.0)))


def _within_class(rng, labels, uniform):
    """Weights summing to 1 within each class: equal, or drawn at random."""
    within = np.zeros(len(labels))
    for c in np.unique(labels):
        mask = labels == c
        w = np.ones(mask.sum()) if uniform else rng.uniform(0.2, 1.0, size=mask.sum())
        within[mask] = w / w.sum()
    return within


def _balanced_distribution(rng, n_classes, per_class, z, uniform):
    emb = _random_unit(rng, n_classes * per_class, z)
    labels = np.repeat(np.arange(n_classes), per_class)
    weights = _within_class(rng, labels, uniform) / n_classes
    return FiniteDistribution(emb, labels, weights / weights.sum())


# -- kernel / information ----------------------------------------------------


def check_kernel_invariants(quick: bool) -> tuple[bool, str]:
    """pair_scores on a pair's 2-row stack: q in [0, 1], symmetric, and 1 on
    the diagonal; pair_terms, which DUEL pushes add up: clipped, q less the
    kernel's constant c, and unclipped, within 3e-15 of [-c, 1 - c];
    information measures non-negative."""
    rng = np.random.default_rng(11)
    trials = 50 if quick else 300
    for _ in range(trials):
        z = int(rng.integers(2, 12))
        pair = _random_unit(rng, 2, z)
        a = pair[0]
        k = _random_kernel(rng)
        Q = pair_scores(pair, pair, k)
        if not np.all((Q >= 0.0) & (Q <= 1.0)):
            return False, f"q out of range: {Q.ravel().tolist()}"
        if abs(Q[0, 1] - Q[1, 0]) > 1e-12:
            return False, "pair_scores not symmetric"
        if np.max(np.abs(np.diagonal(Q) - 1.0)) > 1e-9:
            return False, "q(a, a) != 1"
        # A copy, so that no product runs on one buffer twice as Q's may.
        c = k.constant
        T = pair_terms(pair, pair.copy(), k, True)
        if np.max(np.abs(T + c - Q)) > 1e-15:
            return False, f"pair_terms + {c} != pair_scores: {(T + c - Q).ravel().tolist()}"
        T = pair_terms(pair, pair.copy(), k, False)
        if not np.all((T >= -c - 3e-15) & (T <= 1.0 - c + 3e-15)):
            return False, f"unclipped terms out of range: {T.ravel().tolist()}"
        ref = FiniteDistribution(_random_unit(rng, 6, z), rng.integers(0, 3, size=6))
        i_d = distinctiveness_information(a, ref, k)
        if i_d < -1e-12:
            return False, "distinctiveness negative"
        pos = FiniteDistribution(_random_unit(rng, 4, z), np.zeros(4, int))
        i_h = hebbian_information(a, pos, k)
        if i_h < -1e-12:
            return False, "hebbian information negative"
        # Jensen: mean of -log q >= -log of mean q.
        q_row = pair_scores(a[None, :], pos.embeddings, k)[0]
        if i_h < -math.log(float(q_row.mean())) - 1e-9:
            return False, "Jensen consistency violated"
    return True, f"{trials} random pairs"


def check_balanced_oracle_optimum(quick: bool) -> tuple[bool, str]:
    """ORACLE_KERNEL on a balanced distribution of one-hot class embeddings
    attains exactly -log |C|, with equal or unequal weights within each
    class."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for n_classes in (2, 3, 5, 10):
        for uniform in (False, True):
            per_class = int(rng.integers(1, 5))
            dist = _balanced_distribution(rng, n_classes, per_class, 8, uniform)
            one_hot = np.eye(n_classes)[dist.labels]
            loss = hml_loss(
                FiniteDistribution(one_hot, dist.labels, dist.weights), ORACLE_KERNEL
            )
            worst = max(worst, abs(loss + math.log(n_classes)))
    ok = worst < 1e-9
    return ok, f"max |loss + ln C| = {worst:.2e}"


def check_balanced_lower_bound(quick: bool) -> tuple[bool, str]:
    """hml_loss >= -log |C| for balanced distributions, any kernel."""
    rng = np.random.default_rng(13)
    trials = 50 if quick else 500
    margin = math.inf
    for _ in range(trials):
        n_classes = int(rng.integers(2, 11))
        z = int(rng.integers(2, 10))
        for uniform in (False, True):
            per_class = int(rng.integers(1, 5))
            dist = _balanced_distribution(rng, n_classes, per_class, z, uniform)
            loss = hml_loss(dist, _random_kernel(rng))
            margin = min(margin, loss + math.log(n_classes))
            if loss < -math.log(n_classes) - 1e-9:
                return False, f"bound violated by {loss + math.log(n_classes):.2e}"
    return True, f"{2 * trials} sets up to 10 classes, min margin {margin:.3g}"


def check_empirical_bound(quick: bool) -> tuple[bool, str]:
    """mhml_bound dominates hml_loss of the balanced counterpart, with equal
    or unequal weights within each class."""
    rng = np.random.default_rng(14)
    trials = 20 if quick else 100
    for t in range(2 * trials):
        n_classes = int(rng.integers(2, 6))
        per_class = int(rng.integers(1, 4))
        z = int(rng.integers(3, 8))
        emb = _random_unit(rng, n_classes * per_class, z)
        labels = np.repeat(np.arange(n_classes), per_class)
        within = _within_class(rng, labels, uniform=bool(t % 2))
        rho = rng.uniform(0.05, 1.0, size=n_classes)
        rho = rho / rho.sum()
        oracle = FiniteDistribution(emb, labels, within / n_classes)
        empirical = FiniteDistribution(emb, labels, within * rho[labels])
        m = int(rng.integers(3, 12))
        mem = FiniteDistribution(
            _random_unit(rng, m, z), rng.integers(0, n_classes, size=m)
        )
        k = _random_kernel(rng)
        bound = mhml_bound(
            empirical, mem, oracle, k, float(rho.min()), n_classes
        )
        target = hml_loss(oracle, k)
        if bound < target - 1e-9:
            return False, f"bound {bound:.6f} < loss {target:.6f}"
    return True, f"{2 * trials} constructed triples"


# -- memory -------------------------------------------------------------------


def _first_max(sums: np.ndarray) -> int:
    """The DUEL tie rule: the lowest index within 1e-9 of the maximum."""
    return int(np.flatnonzero(sums >= sums.max() - 1e-9)[0])


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
    the largest row sum over the selected rows, then selects the element.
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
        S = pair_scores(pool, pool, self.kernel)
        selection = np.arange(k + b) < k
        victims = []
        for i in range(k, k + b):
            sel = np.flatnonzero(selection)
            j = int(sel[_first_max(S[np.ix_(sel, sel)].sum(axis=1))])
            selection[j], selection[i] = False, True
            victims.append(j)
        self.embeddings = pool[selection]
        self.labels = pool_labels[selection]
        self.insert_steps = ids[selection]
        self._seen += b
        return PushResult(np.array(victims), ids[k:])


def affine_duel_replay(E0, batches) -> tuple[list[int], np.ndarray]:
    """DUEL victims under AffineCosine, as pool indices, and the rows held
    after the last push, from the closed-form row sums (n + e.S)/2 over the
    n held rows with sum S: O((k+b) z) per replacement, not O((k+b)^2 z)."""
    held, victims = E0, []
    for batch in batches:
        k, pool = held.shape[0], np.vstack([held, batch])
        sel = np.arange(pool.shape[0]) < k
        total = held.sum(axis=0)
        for i in range(k, pool.shape[0]):
            j = _first_max(np.where(sel, (k + pool @ total) / 2.0, -np.inf))
            victims.append(j)
            sel[j], sel[i] = False, True
            total += pool[i] - pool[j]
        held = pool[sel]
    return victims, held


def naive_select(mem: ActiveMemory) -> int:
    """The entry `mem` would evict under DUEL, from a full recompute of its
    score matrix: the largest row sum, lowest index on ties."""
    E = mem.embeddings
    return _first_max(pair_scores(E, E, mem.kernel).sum(axis=1))


def check_selection_equivalence(quick: bool) -> tuple[bool, str]:
    """duel_select_by_score matches naive_select on random memories.

    Up to two pushes first leave the cached scores with summation noise, and
    pushing copies of held rows makes ties on them.
    """
    rng = np.random.default_rng(15)
    trials = 100 if quick else 1000
    for t in range(trials):
        k = int(rng.integers(2, 96))
        z = int(rng.integers(2, 24))
        emb = _random_unit(rng, k, z)
        if t % 7 == 0 and k >= 4:
            # Plant exact duplicates so ties exercise the index tie-break.
            emb[1] = emb[3] = emb[0]
        mem = ActiveMemory.from_arrays(emb, kernel=_random_kernel(rng))
        for _ in range(int(rng.integers(0, 3))):
            batch = _random_unit(rng, int(rng.integers(1, 5)), z)
            if t % 5 == 0:
                batch[0] = mem.embeddings[int(rng.integers(k))]
            mem.push_batch(batch)
        if mem.duel_select_by_score() != naive_select(mem):
            return False, f"disagreement at trial {t}"
    return True, f"{trials} random memories"


@contextlib.contextmanager
def _score_products():
    """Record the row count of every score product a DUEL push makes, each
    a block of memory.pair_terms.

    A DUEL push makes its cross block first, then one row per memory victim
    until its second, which builds the victim block; each product after the
    block is the row of a victim outside it.
    """
    rows: list[int] = []
    inner = memory_module.pair_terms

    def counted(X, *args):
        rows.append(len(X))
        return inner(X, *args)

    memory_module.pair_terms = counted
    try:
        yield rows
    finally:
        memory_module.pair_terms = inner


def check_incremental_matches_naive(quick: bool) -> tuple[bool, str]:
    """Batched incremental updates replay NaiveDuel exactly, on both the
    victim block's rows and rows computed outside it; in full mode also under
    the exp kernel in a memory of 1024."""
    rng = np.random.default_rng(16)
    trials = 20 if quick else 200
    blocks = outside = 0

    def replay(fast, slow, batch, labels=None) -> tuple[PushResult, str | None]:
        nonlocal blocks, outside
        with _score_products() as products:
            events = fast.push_batch(batch, labels)
        # A block of one row, for a second victim picked for the batch's
        # last row, has no later victims and goes uncounted.
        built = [n > 1 for n in products[1:]]
        if any(built):
            blocks += 1
            outside += len(built) - 1 - built.index(True)
        if events != slow.push_batch(batch, labels):
            return events, "eviction logs diverge"
        if not np.array_equal(fast.embeddings, slow.embeddings):
            return events, "contents diverge"
        if not np.array_equal(fast.labels, slow.labels):
            return events, "labels diverge"
        if not np.array_equal(fast.insert_steps, slow.insert_steps):
            return events, "insert ids diverge"
        if np.max(np.abs(fast.scores - fast.recomputed_scores())) > 1e-9:
            return events, "incremental score cache drifted beyond 1e-9"
        return events, None

    for kernel in (AffineCosine(), ExponentialTemp(tau=0.5)):
        for t in range(trials):
            k, b, z = 64, 8, 16
            emb = _random_unit(rng, k, z)
            labels = rng.integers(0, 6, size=k)
            batch = _random_unit(rng, b, z)
            if t % 3 == 0:
                emb[7] = emb[3]  # resident twins
            if t % 4 == 0:
                batch[4] = emb[11]  # a twin across the memory/batch boundary
            if t % 5 == 0:
                batch[1] = batch[0]
                batch[3] = emb[2]
            batch_labels = rng.integers(0, 6, size=b)
            fast = ActiveMemory.from_arrays(emb, labels, kernel=kernel, policy="duel")
            slow = NaiveDuel(emb, labels, kernel=kernel)
            _, fault = replay(fast, slow, batch, batch_labels)
            if fault:
                return False, f"{fault} at trial {t} ({kernel})"
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
    ev_fast, fault = replay(fast, slow, X[-b:], labels[-b:])
    if fault:
        return False, f"{fault} on the dominant-cluster trial"
    settled = int(np.count_nonzero(ev_fast.victims[1:] == k + np.arange(b - 1)))
    if settled < b // 2:
        return False, f"dominant-cluster trial evicted only {settled} of {b} rows on arrival"
    # The log reads the same when such rows take the general path, which they
    # do unless they score themselves MAX_SCORE; then no row is settled.
    own = np.diagonal(pair_scores(X[-b:], X[-b:], AffineCosine()))
    if np.max(np.abs(own - memory_module.MAX_SCORE)) > 1e-12:
        return False, "unit rows do not score themselves MAX_SCORE, so none settles"
    cluster = f"{settled}/{b} settled"
    # A large clustered memory offered scattered rows keeps every row, so
    # each push picks a memory victim per row and reads most of their rows
    # from its victim block.
    k, b, z = 512, 64, 16
    emb = normalize(_random_unit(rng, 1, z) + 0.5 * rng.normal(size=(k, z)))
    fast = ActiveMemory.from_arrays(emb, kernel=AffineCosine(), policy="duel")
    slow = NaiveDuel(emb, kernel=AffineCosine())
    for p in range(1 if quick else 3):
        _, fault = replay(fast, slow, _random_unit(rng, b, z))
        if fault:
            return False, f"{fault} on push {p} into a memory of {k}"
    # Copies of the memory's most distinctive entry: its score climbs with
    # each copy until it is the next victim, and the block, built at the
    # second memory victim from the largest scores, does not hold its row.
    k, b, z = 64, 16, 8
    for kernel in (AffineCosine(), ExponentialTemp(tau=0.5)):
        emb = _random_unit(rng, k, z)
        fast = ActiveMemory.from_arrays(emb, kernel=kernel, policy="duel")
        slow = NaiveDuel(emb, kernel=kernel)
        low = int(np.argmin(fast.scores))
        batch = np.vstack([_random_unit(rng, 2, z), np.tile(emb[low], (b - 2, 1))])
        before = outside
        events, fault = replay(fast, slow, batch)
        if fault:
            return False, f"{fault} on the distinctive-entry trial ({kernel})"
        if low not in events.victims.tolist() or outside == before:
            return False, f"entry {low} was not evicted from outside its push's block ({kernel})"
    if not (blocks and outside):
        return False, f"{blocks} pushes built a victim block, {outside} victims read a row outside one"
    # The filter_duel shape against the affine closed form: batches of 64 into
    # 4096 entries from a dominant-cluster stream, a tenth of rows repeated.
    k, b, z, wide = 4096, 64, 16, 4 if quick else 32
    classes = rng.choice(6, size=k + wide * b, p=Dominant(0.75).probs(6))
    X = normalize(_random_unit(rng, 6, z)[classes] + 0.35 * rng.normal(size=(classes.size, z)))
    for i in np.flatnonzero(rng.random(classes.size - 1) < 0.1) + 1:
        X[i] = X[rng.integers(i)]
    fast, batches = ActiveMemory.from_arrays(X[:k], policy="duel"), np.split(X[k:], wide)
    victims = [v for batch in batches for v in fast.push_batch(batch).victims.tolist()]
    expected, held = affine_duel_replay(X[:k], batches)
    drift = np.max(np.abs(fast.scores - fast.recomputed_scores()))
    if victims != expected or not np.array_equal(fast.embeddings, held) or drift > 1e-9:
        return False, f"memory of {k} diverges from the affine replay (drift {drift:.1e})"
    pushes = 2 * trials + (1 if quick else 3) + 3 + wide
    detail = f"{pushes} batched updates ({wide} into {k}), both kernels, {cluster}"
    if not quick:
        # The exp kernel at scale: batches of 64 into 1024 entries from a
        # dominant-cluster stream, replayed against NaiveDuel at two tau.
        k, b, z, n_push = 1024, 64, 16, 5
        classes = rng.choice(6, size=k + n_push * b, p=Dominant(0.75).probs(6))
        X = normalize(_random_unit(rng, 6, z)[classes] + 0.35 * rng.normal(size=(classes.size, z)))
        for tau in (0.1, 0.5):
            kernel = ExponentialTemp(tau=tau)
            fast = ActiveMemory.from_arrays(X[:k], classes[:k], kernel=kernel, policy="duel")
            slow = NaiveDuel(X[:k], classes[:k], kernel=kernel)
            for p in range(n_push):
                rows = slice(k + p * b, k + (p + 1) * b)
                _, fault = replay(fast, slow, X[rows], classes[rows])
                if fault:
                    return False, f"{fault} on push {p} into a memory of {k} ({kernel})"
        detail += f"; exp tau 0.1 and 0.5: {n_push} pushes of {b} into {k} each"
    return True, (
        f"{detail}; {blocks} built a victim block, {outside} victims read a row outside one"
    )


def check_cache_coherence(quick: bool) -> tuple[bool, str]:
    """Cached scores match a full recompute after any policy's updates.

    The baselines leave the cache stale, and every reader must recompute it
    first. So before the drift read, which refreshes it, duel_select_by_score
    must agree with naive_select on each baseline memory. They hold one-hot
    class embeddings under ORACLE_KERNEL, whose row sums are class counts: a
    selection read from stale counts often names another class's row.
    """
    rng = np.random.default_rng(17)
    trials = 10 if quick else 40
    z = 8
    eye = np.eye(z)
    for policy in POLICIES:
        baseline = policy != "duel"
        for _ in range(trials):
            labels = rng.integers(0, 5, size=int(rng.integers(4, 32)))
            if baseline:
                mem = ActiveMemory.from_arrays(
                    eye[labels], labels, kernel=ORACLE_KERNEL, policy=policy
                )
            else:
                emb = _random_unit(rng, labels.size, z)
                mem = ActiveMemory.from_arrays(emb, labels, kernel=_random_kernel(rng))
            for _ in range(3):
                labels = rng.integers(0, 5, size=int(rng.integers(1, 9)))
                batch = eye[labels] if baseline else _random_unit(rng, labels.size, z)
                mem.push_batch(batch, labels)
            if baseline and mem.duel_select_by_score() != naive_select(mem):
                return False, f"{policy}: selection read a stale cache"
            drift = np.max(np.abs(mem.scores - mem.recomputed_scores()))
            if drift > 1e-9:
                return False, f"{policy}: cache drift {drift:.2e}"
    return True, "all policies within 1e-9; baseline selections read a fresh cache"


def check_label_blindness(quick: bool) -> tuple[bool, str]:
    """Permuting hidden labels never changes evictions.

    No kernel takes labels, so no score can read them; this checks that no
    other step of a DUEL push does either.
    """
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
        if not np.array_equal(ev_a.victims, ev_b.victims):
            return False, "evictions changed under label permutation"
    return True, f"{trials} permutation trials"


def check_safeness(quick: bool) -> tuple[bool, str]:
    """DUEL replacements never lower pre-mixture probe distinctiveness.

    The memory holds one-hot class embeddings under ORACLE_KERNEL. The
    second stream reads "before" through the default probe, the memory's own
    entries as mean_distinctiveness() recomputes them.
    """
    rng = np.random.default_rng(19)
    replacements = 1000 if quick else 10000
    n_classes = 8
    streams = (
        (64, Dominant(0.75).probs(n_classes), False),
        (32, np.array([0.51] + [0.07] * 7), True),
    )
    worst = math.inf
    for k, probs, default_probe in streams:
        stream = oracle_embedding_stream(n_classes, rng, probs=probs)
        mem = ActiveMemory(k, n_classes, ORACLE_KERNEL, policy="duel")
        while mem.size < mem.capacity:
            e, c = next(stream)
            mem.push_batch(e[None, :], np.array([c]))
        for _ in range(replacements):
            probe = mem.embeddings
            before = mem.mean_distinctiveness(None if default_probe else probe)
            e, c = next(stream)
            mem.push_batch(e[None, :], np.array([c]))
            after = mem.mean_distinctiveness(probe)
            worst = min(worst, after - before)
            if after < before - 1e-12:
                return False, f"capacity {k}: distinctiveness dropped by {before - after:.3e}"
    return True, f"{replacements} replacements on each of 2 streams, min delta {worst:.3e}"


# -- trainer ------------------------------------------------------------------


def infonce_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negatives: np.ndarray,
    tau: float,
    epsilon: float,
) -> float:
    """Single-sample loss; negatives is a nonempty (n, z) array."""
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if negatives.shape[0] == 0:
        raise ValueError("negatives must be nonempty")
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    lp = float(np.dot(anchor, positive)) / tau
    ln = (negatives @ anchor) / tau
    m = max(float(ln.max()), lp) if epsilon > 0 else float(ln.max())
    denom = epsilon * math.exp(lp - m) + float(np.exp(ln - m).sum())
    return -lp + m + math.log(denom)


def numerical_gradient(loss_fn, params: dict, h: float = 1e-5) -> dict:
    """Central finite differences of loss_fn() w.r.t. params, in place."""
    grads = {}
    for k, value in params.items():
        g = np.zeros_like(value)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads[k] = g
    return grads


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
        pos_dist = FiniteDistribution(positive[None, :], np.zeros(1, int))
        i_h = hebbian_information(anchor, pos_dist, kernel)
        ref = FiniteDistribution(negatives, np.zeros(k, int))
        i_d = distinctiveness_information(anchor, ref, kernel)
        gap = abs(loss - (i_h - i_d + math.log(k)))
        worst = max(worst, gap)
        if gap > 1e-9:
            return False, f"identity off by {gap:.2e}"
    return True, f"{trials} instances, max gap {worst:.2e}"


def _gradient_case(rng, hidden, source, epsilon, momentum_mode):
    d_in = int(rng.integers(2, 6))
    d_out = int(rng.integers(2, 5))
    b = int(rng.integers(2, 5))
    n_mem = int(rng.integers(1, 6))
    tau = float(rng.uniform(0.3, 1.5))
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

    _, grads, _ = infonce_grad(f, X, Xp, mem_negs, cfg, key_extractor=f_key)
    numeric = numerical_gradient(loss_fn, f.params)
    worst = 0.0
    for key in grads:
        denom = np.maximum(
            np.abs(grads[key]) + np.abs(numeric[key]), 1e-6
        )
        worst = max(worst, float(np.max(np.abs(grads[key] - numeric[key]) / denom)))
    return worst


def check_gradients(quick: bool) -> tuple[bool, str]:
    """Analytic gradients match central differences across the config grid,
    each cell with and without a key extractor."""
    rng = np.random.default_rng(23)
    cases = [
        (hidden, source, epsilon, momentum_mode)
        for hidden in (None, 7)
        for source in NEGATIVE_SOURCES
        for epsilon in (0.0, 1.0)
        for momentum_mode in (False, True)
    ]
    target = len(cases) if quick else 50
    while len(cases) < target:
        cases.append(
            (
                (None, 7)[rng.integers(2)],
                NEGATIVE_SOURCES[rng.integers(3)],
                float(rng.uniform(0, 1)),
                bool(rng.integers(0, 2)),
            )
        )
    worst = 0.0
    for case in cases:
        err = _gradient_case(rng, *case)
        worst = max(worst, err)
        if err > 1e-4:
            return False, f"rel err {err:.2e} (hidden, source, eps, key) = {case}"
    return True, f"{target} configs, max rel err {worst:.2e}"


# -- harness ------------------------------------------------------------------


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
    ("infonce_information_identity", check_infonce_identity),
    ("gradient_checks", check_gradients),
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
