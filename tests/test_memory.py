from __future__ import annotations

import copy
import csv
import math

import numpy as np
import pytest

import duelmem.memory as memory_module
from duelmem.kernels import (
    AffineCosine,
    ExponentialTemp,
    normalize,
    pair_scores,
)
from duelmem.memory import POLICIES, ActiveMemory, guarded_update
from duelmem.verify import (
    ORACLE_KERNEL,
    NaiveDuel,
    affine_duel_replay,
    check_cache_coherence,
    check_incremental_matches_naive,
    check_label_blindness,
    check_selection_equivalence,
    naive_select,
)

E1, E2, E3 = np.eye(3)


def _unit(rng, n, z):
    return normalize(rng.normal(size=(n, z)))


def _count_entries(monkeypatch) -> list[int]:
    """Record the size of every score block the memory module computes."""
    entries = []

    def counted(*args):
        q = pair_scores(*args)
        entries.append(q.size)
        return q

    monkeypatch.setattr(memory_module, "pair_scores", counted)
    return entries


def _filled(rng, k, z, policy="duel", classes=5, seed=0):
    return ActiveMemory.from_arrays(
        _unit(rng, k, z),
        rng.integers(0, classes, size=k),
        kernel=AffineCosine(),
        policy=policy,
        seed=seed,
    )


class TestWorkedExample:
    """The {e1, e1, e2} memory under the affine kernel, enumerated by hand.

    Row sums: entry 0 and 1 each see 1 + 1 + 0.5 = 2.5; entry 2 sees
    0.5 + 0.5 + 1 = 2.0. The duplicate at the lowest index is the victim.
    """

    def _memory(self):
        return ActiveMemory.from_arrays(
            np.array([E1, E1, E2]), np.array([0, 0, 1]), kernel=AffineCosine()
        )

    def test_scores(self):
        mem = self._memory()
        assert np.allclose(mem.scores, [2.5, 2.5, 2.0], atol=1e-12)

    def test_both_selectors_pick_the_first_duplicate(self):
        mem = self._memory()
        assert mem.duel_select_by_score() == 0
        assert naive_select(mem) == 0

    def test_push_evicts_the_duplicate(self):
        mem = self._memory()
        events = mem.push_batch(E3[None, :], np.array([2]))
        assert events.victims.tolist() == [0]
        assert events.inserted.tolist() == [3]
        assert np.array_equal(mem.embeddings, np.array([E1, E2, E3]))
        assert np.array_equal(mem.labels, [0, 1, 2])

    def test_all_identical_selects_index_zero(self):
        mem = ActiveMemory.from_arrays(
            np.array([E1, E1, E1]), np.zeros(3, int), kernel=AffineCosine()
        )
        assert naive_select(mem) == 0
        assert mem.duel_select_by_score() == 0

    def test_orthogonal_ties_select_index_zero(self):
        mem = ActiveMemory.from_arrays(np.eye(3), np.arange(3))
        assert naive_select(mem) == 0
        assert mem.duel_select_by_score() == 0


class TestFillPhase:
    def test_appends_below_capacity(self):
        mem = ActiveMemory(2, 3, AffineCosine())
        events = mem.push_batch(E1[None, :], np.array([0]))
        assert events.victims.tolist() == [-1]
        assert events.inserted.tolist() == [0]
        assert mem.size == 1 and mem.size != mem.capacity

    def test_fill_then_replace_in_one_call(self):
        mem = ActiveMemory(2, 3, AffineCosine())
        events = mem.push_batch(np.array([E1, E1, E2]), np.array([0, 0, 1]))
        # -1 marks an append; the third item replaces one of the duplicated
        # e1 rows.
        assert events.victims.tolist() in ([-1, -1, 0], [-1, -1, 1])
        assert events.inserted.tolist() == [0, 1, 2]
        assert mem.size == 2

    def test_capacity_never_exceeded(self):
        for policy in POLICIES:
            rng = np.random.default_rng(0)
            mem = ActiveMemory(8, 4, AffineCosine(), policy=policy)
            for _ in range(6):
                mem.push_batch(_unit(rng, 5, 4))
                assert mem.size <= 8, policy
            assert mem.size == mem.capacity


class TestIncrementalFill:
    """Appends below capacity extend the cached sums rather than recompute
    them: filling to n entries computes n^2 scores whatever the batch size,
    where a recompute per call costs the sum of the squared sizes."""

    @pytest.mark.parametrize("batch", [7, 64])
    @pytest.mark.parametrize(
        "kernel",
        [AffineCosine(), ExponentialTemp(tau=0.5), ORACLE_KERNEL],
        ids=["affine", "exp", "oracle"],
    )
    def test_fill_keeps_scores_coherent(self, kernel, batch, monkeypatch):
        entries = _count_entries(monkeypatch)
        n = 300
        rng = np.random.default_rng(44)
        X, labels = _unit(rng, n, 6), rng.integers(0, 4, size=n)
        if kernel is ORACLE_KERNEL:
            X = np.eye(6)[labels]
        mem = ActiveMemory(n, 6, kernel)
        for start in range(0, n, batch):
            events = mem.push_batch(X[start : start + batch], labels[start : start + batch])
            assert [e.inserted for e in events] == list(range(start, min(start + batch, n)))
            assert all(e.evicted is None for e in events)
            assert _drift(mem) <= 1e-9
        assert np.array_equal(mem.embeddings, X)
        # _drift recomputes n'^2 entries after each push; leave those out.
        sizes = [min(start + batch, n) for start in range(0, n, batch)]
        assert sum(entries) - sum(c * c for c in sizes) == n * n


class TestValidation:
    def test_dimension_mismatch(self):
        mem = ActiveMemory(4, 3, AffineCosine())
        with pytest.raises(ValueError):
            mem.push_batch(np.eye(4))

    def test_non_unit_rejected(self):
        mem = ActiveMemory(4, 3, AffineCosine())
        with pytest.raises(ValueError):
            mem.push_batch(2.0 * E1[None, :])

    def test_non_finite_rejected(self):
        mem = ActiveMemory(4, 3, AffineCosine())
        with pytest.raises(ValueError):
            mem.push_batch(np.array([[np.nan, 0.0, 0.0]]))

    def test_unknown_policy_rejected(self):
        # The naive DUEL oracle lives in verify, not among the policies.
        for policy in ("lru", "duel_naive"):
            with pytest.raises(ValueError, match=policy):
                ActiveMemory(4, 3, AffineCosine(), policy=policy)

    def test_policy_is_fixed_at_construction(self):
        mem = ActiveMemory(4, 3, AffineCosine(), policy="fifo")
        with pytest.raises(AttributeError):
            mem.policy = "duel"
        assert mem.policy == "fifo"

    def test_from_arrays_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            ActiveMemory.from_arrays(np.eye(3), capacity=0)


class TestIncrementalNaiveEquivalence:
    @pytest.mark.parametrize(
        "kernel", [ExponentialTemp(tau=0.5), ORACLE_KERNEL], ids=["exp", "oracle"]
    )
    def test_batch_larger_than_memory_matches_naive(self, kernel):
        # Rows of the batch that are evicted again, or not yet inserted, sit
        # at -inf in the live scores; one-hot rows under the oracle kernel
        # add exact ties.
        rng = np.random.default_rng(43)
        for trial in range(20):
            emb, labels = _unit(rng, 5, 4), rng.integers(0, 3, size=5)
            batch, batch_labels = _unit(rng, 12, 4), rng.integers(0, 3, size=12)
            if kernel is ORACLE_KERNEL:
                emb, batch = np.eye(4)[labels], np.eye(4)[batch_labels]
            batch[3] = batch[0]
            batch[7] = emb[2]
            fast = ActiveMemory.from_arrays(emb, labels, kernel=kernel)
            slow = NaiveDuel(emb, labels, kernel=kernel)
            assert fast.push_batch(batch, batch_labels) == slow.push_batch(
                batch, batch_labels
            ), f"trial {trial}"
            assert np.array_equal(fast.embeddings, slow.embeddings)
            assert _drift(fast) <= 1e-12

    def test_single_element_batch_equals_select_and_replace(self):
        rng = np.random.default_rng(3)
        emb = _unit(rng, 10, 4)
        mem = ActiveMemory.from_arrays(emb, np.zeros(10, int))
        expected_victim = mem.duel_select_by_score()
        events = mem.push_batch(_unit(rng, 1, 4))
        assert events.victims.tolist() == [expected_victim]

    def test_duplicate_flood_matches_naive(self):
        # A batch of identical vectors into a diverse memory: the two paths
        # must agree even when every insertion creates fresh exact ties.
        rng = np.random.default_rng(4)
        emb = _unit(rng, 12, 6)
        flood = np.tile(normalize(rng.normal(size=6)), (12, 1))
        fast = ActiveMemory.from_arrays(emb, np.zeros(12, int))
        slow = NaiveDuel(emb, np.zeros(12, int))
        ev_fast = fast.push_batch(flood, np.ones(12, dtype=int))
        ev_slow = slow.push_batch(flood, np.ones(12, dtype=int))
        assert ev_fast == ev_slow
        assert np.array_equal(fast.embeddings, slow.embeddings)


def _clustered(rng, n, z, classes=6, repeat_share=0.1):
    """Unit rows around random class centres, class 0 dominant; a share of
    rows are exact copies of an earlier row, so exact ties keep arising."""
    centres = _unit(rng, classes, z)
    p = np.full(classes, 0.4 / (classes - 1))
    p[0] = 0.6
    labels = rng.choice(classes, size=n, p=p)
    X = normalize(centres[labels] + 0.35 * rng.normal(size=(n, z)))
    for i in np.flatnonzero(rng.random(n) < repeat_share):
        if i > 0:
            src = int(rng.integers(i))
            X[i], labels[i] = X[src], labels[src]
    return X, labels


def _drift(mem):
    return float(np.max(np.abs(mem.scores - mem.recomputed_scores())))


class TestLongHorizon:
    """The score cache is trusted across calls, so check it over many."""

    @pytest.mark.parametrize(
        "kernel", [AffineCosine(), ExponentialTemp(tau=0.5)], ids=["affine", "exp"]
    )
    def test_duel_matches_naive_over_consecutive_pushes(self, kernel):
        rng = np.random.default_rng(30)
        emb, labels = _clustered(rng, 48, 6)
        fast = ActiveMemory.from_arrays(emb, labels, kernel=kernel)
        slow = NaiveDuel(emb, labels, kernel=kernel)
        for push in range(60):
            batch, batch_labels = _clustered(rng, 6, 6)
            batch[1] = batch[0]
            batch[3] = fast.embeddings[int(rng.integers(48))]
            assert fast.push_batch(batch, batch_labels) == slow.push_batch(
                batch, batch_labels
            ), f"push {push}"
            assert np.array_equal(fast.embeddings, slow.embeddings)
        assert _drift(fast) <= 1e-9

    def test_duel_victims_match_affine_replay_over_10k_pushes(self):
        k, b, z, pushes = 1024, 8, 8, 10_000
        rng = np.random.default_rng(31)
        X, labels = _clustered(rng, k + pushes * b, z)
        mem = ActiveMemory.from_arrays(X[:k], labels[:k], capacity=k)
        batches = [X[k + p * b : k + (p + 1) * b] for p in range(pushes)]
        victims = []
        for p, batch in enumerate(batches):
            victims += [e.evicted for e in mem.push_batch(batch)]
            if p % 1000 == 999:
                assert _drift(mem) <= 1e-9, f"push {p}"
        expected, held = affine_duel_replay(X[:k], batches)
        assert victims == expected
        assert np.array_equal(mem.embeddings, held)

    @pytest.mark.parametrize("policy", ["fifo", "random", "reservoir"])
    def test_baselines_stay_coherent_over_1k_pushes(self, policy):
        rng = np.random.default_rng(32)
        emb, labels = _clustered(rng, 64, 6)
        mem = ActiveMemory.from_arrays(
            emb, labels, kernel=ExponentialTemp(tau=0.5), policy=policy, seed=4
        )
        for p in range(1000):
            batch, batch_labels = _clustered(rng, 8, 6)
            mem.push_batch(batch, batch_labels)
            if p % 100 == 99:
                assert _drift(mem) <= 1e-9, f"push {p}"

    def test_random_slot_replaced_twice_in_one_call(self):
        rng = np.random.default_rng(33)
        mem = _filled(rng, 16, 5, policy="random", seed=5)
        events = mem.push_batch(_unit(rng, 12, 5))
        slots = [e.evicted for e in events]
        # Some slot is hit twice and some slot is never hit, so untouched
        # rows depend on the update for the slot hit twice.
        assert len(set(slots)) < len(slots) and len(set(slots)) < 16
        assert _drift(mem) <= 1e-12

    def test_baseline_scores_under_label_oracle(self):
        rng = np.random.default_rng(34)
        eye = np.eye(5)
        for policy in ("fifo", "random", "reservoir"):
            labels = rng.integers(0, 5, size=12)
            mem = ActiveMemory.from_arrays(
                eye[labels], labels, kernel=ORACLE_KERNEL, policy=policy, seed=6
            )
            for _ in range(20):
                labels = rng.integers(0, 5, size=5)
                mem.push_batch(eye[labels], labels)
            assert np.array_equal(mem.scores, mem.recomputed_scores()), policy


class TestLazyBaselineScores:
    """fifo, random and reservoir read no scores, so their pushes leave the
    cache stale and the next read recomputes it."""

    @pytest.mark.parametrize("policy", ["fifo", "random", "reservoir"])
    def test_pushes_score_nothing_until_read(self, policy, monkeypatch):
        n, b = 1024, 64
        rng = np.random.default_rng(40)
        mem = _filled(rng, n, 8, policy=policy, seed=7)
        entries = _count_entries(monkeypatch)
        for _ in range(100):
            mem.push_batch(_unit(rng, b, 8), rng.integers(0, 5, size=b))
        assert sum(entries) == 0
        scores = mem.scores
        assert sum(entries) == n * n
        assert np.array_equal(mem.scores, scores)
        assert sum(entries) == n * n
        monkeypatch.undo()
        assert _drift(mem) <= 1e-9

    def test_duel_update_reads_a_stale_cache_the_drift_guard_misses(self):
        # A fifo push of two rows turns the class-3 rows into class 1. Every
        # class-0 row keeps its row sum of 3 and now holds the largest stale
        # sum, but the class-1 rows sum to 4. A selection read from the stale
        # cache is a class-0 row, so only a fresh read picks a class-1 row.
        labels = np.array([3, 3, 0, 0, 0, 1, 1, 2])
        eye = np.eye(8)
        mem = ActiveMemory.from_arrays(
            eye[labels], labels, kernel=ORACLE_KERNEL, policy="fifo"
        )
        mem.push_batch(eye[[1, 1]], np.array([1, 1]))
        assert mem.duel_select_by_score() == naive_select(mem) == 0

    def _stale(self):
        rng = np.random.default_rng(42)
        mem = _filled(rng, 32, 5, policy="fifo")
        mem.push_batch(_unit(rng, 8, 5), rng.integers(0, 5, size=8))
        return mem

    def test_stale_state_dict_loads(self):
        mem = self._stale()
        other = ActiveMemory(32, 5, AffineCosine(), policy="fifo")
        other.load_state_dict(mem.state_dict())
        assert np.array_equal(other.embeddings, mem.embeddings)
        assert np.array_equal(other.scores, mem.scores)

    def test_stale_snapshot_scores_match_recompute(self, tmp_path):
        mem = self._stale()
        path = tmp_path / "snap.csv"
        mem.snapshot_csv(path)
        with open(path, newline="") as fh:
            scores = np.array([float(row[3]) for row in list(csv.reader(fh))[1:]])
        assert np.max(np.abs(scores - mem.recomputed_scores())) <= 1e-9


class TestDistinctivenessRead:
    """mean_distinctiveness() recomputes the memory's own row sums exactly,
    and a stale cache keeps that recompute, so the next reader scores
    nothing."""

    def _stale(self, n=64, z=5):
        rng = np.random.default_rng(43)
        mem = _filled(rng, n, z, policy="fifo")
        mem.push_batch(_unit(rng, 8, z), rng.integers(0, 5, size=8))
        return mem

    @pytest.mark.parametrize("read", ["snapshot_csv", "state_dict", "scores"])
    def test_stale_cache_keeps_the_recompute(self, read, monkeypatch, tmp_path):
        n = 64
        mem = self._stale(n)
        twin = copy.deepcopy(mem)
        entries = _count_entries(monkeypatch)
        value = mem.mean_distinctiveness()
        assert sum(entries) == n * n
        if read == "snapshot_csv":
            mem.snapshot_csv(tmp_path / "snap.csv")
        elif read == "state_dict":
            mem.state_dict()
        else:
            mem.scores
        assert sum(entries) == n * n
        monkeypatch.undo()
        # The same value, and the same cache bytes, as a refresh would give.
        assert value == twin.mean_distinctiveness(twin.embeddings)
        assert mem.scores.tobytes() == twin.scores.tobytes()

    def test_duel_cache_is_left_as_it_is(self, monkeypatch):
        rng = np.random.default_rng(44)
        n = 48
        mem = _filled(rng, n, 5)
        for _ in range(10):
            mem.push_batch(_unit(rng, 8, 5), rng.integers(0, 5, size=8))
        cached = mem._scores.tobytes()
        exact = mem.recomputed_scores()
        # The incremental sums carry summation noise that a recompute drops.
        assert cached != np.concatenate([exact, mem._scores[n:]]).tobytes()
        entries = _count_entries(monkeypatch)
        value = mem.mean_distinctiveness()
        assert sum(entries) == n * n
        assert mem._scores.tobytes() == cached
        assert value == float(np.mean(-np.log(exact / n)))

    def test_fifo_run_recomputes_once_per_eval_row(self, monkeypatch, tmp_path):
        from duelmem.harness import default_config_dict, parse_config, run_experiment

        raw = default_config_dict()
        raw["stream"].update(n_classes=3, d_in=6)
        raw["trainer"].update(batch_size=4, steps=8, memory_neg_count=4, d_out=4)
        raw["memory"].update(capacity=8, policy="fifo")
        raw["eval"].update(
            cadence=2, eval_per_class=4, probe_train_per_class=4,
            probe_test_per_class=4, probe_steps=5,
        )
        entries = _count_entries(monkeypatch)
        result = run_experiment(parse_config(raw), 0, str(tmp_path))
        # Filling to 8 entries costs 8^2 scores; every later recompute is the
        # whole memory, once per eval row. The snapshots at step 4 and 8 and
        # the checkpoint find the cache fresh.
        assert len(result.rows) == 4
        assert sum(entries) == 8 * 8 * (1 + len(result.rows))


def _hub(z=6, theta=np.pi / 6):
    """A hub c = e_0 and a memory of 2(z-1) members at angle theta from it,
    cos(theta) c +- sin(theta) e_i. The hub is more duplicated by the
    members than any member is, so a copy of it offered to that memory is
    evicted on arrival. Returns the memory rows, the hub, and z-1 rows far
    from all of them, which are never evicted on arrival."""
    eye = np.eye(z)
    members = [
        np.cos(theta) * eye[0] + s * np.sin(theta) * eye[i]
        for i in range(1, z)
        for s in (1, -1)
    ]
    far = normalize(-eye[0] + eye[1:])
    return np.array(members), eye[0], far


def _settled(events, k):
    """Batch positions of rows the next replacement evicted, from a push into
    a full memory of k: the victim of row r is the pool index of row r - 1."""
    v = events.victims
    return [r - 1 for r in range(1, v.size) if v[r] == k + r - 1]


def _push_matches_naive(emb, batch, kernel=None):
    """Push batch into two memories built from emb, incremental and naive;
    assert equal logs and contents and return the incremental memory and log."""
    kernel = kernel or AffineCosine()
    fast = ActiveMemory.from_arrays(emb, kernel=kernel)
    slow = NaiveDuel(emb, kernel=kernel)
    events = fast.push_batch(batch)
    assert events == slow.push_batch(batch)
    assert np.array_equal(fast.embeddings, slow.embeddings)
    assert np.array_equal(fast.insert_steps, slow.insert_steps)
    assert _drift(fast) <= 1e-12
    return fast, events


class TestSettle:
    """A row the next replacement would evict is settled: logged as the next
    victim without touching the live scores. Every case replays NaiveDuel."""

    @pytest.mark.parametrize(
        "kernel", [AffineCosine(), ExponentialTemp(tau=0.5)], ids=["affine", "exp"]
    )
    def test_every_row_but_the_last_settles(self, kernel):
        members, hub, _ = _hub()
        k, b = members.shape[0], 6
        _, events = _push_matches_naive(members, np.tile(hub, (b, 1)), kernel)
        assert _settled(events, k) == list(range(b - 1))

    def test_no_row_settles(self):
        members, _, far = _hub()
        _, events = _push_matches_naive(members, far)
        assert _settled(events, members.shape[0]) == []

    def test_settled_and_kept_rows_alternate(self):
        members, hub, far = _hub()
        batch = np.array([hub, far[0], hub, far[1], hub, far[2], hub])
        _, events = _push_matches_naive(members, batch)
        assert _settled(events, members.shape[0]) == [0, 2, 4]

    def test_last_row_is_kept_even_when_most_duplicated(self):
        members, hub, _ = _hub()
        k, b = members.shape[0], 4
        fast, events = _push_matches_naive(members, np.tile(hub, (b, 1)))
        assert events.victims[1:].tolist() == [k, k + 1, k + 2]
        last = int(events.inserted[-1])
        assert last in fast.insert_steps
        # It would be the next victim, but no replacement follows it.
        assert fast.insert_steps[fast.duel_select_by_score()] == last

    def test_exact_duplicates_tie_and_do_not_settle(self):
        # Two held copies of the hub: each incoming copy ties within summation
        # noise with a held one, and ties go to the lower index, so no copy
        # is evicted on its own arrival.
        members, hub, _ = _hub()
        emb = np.vstack([members[:3], hub, members[3:7], hub, members[7:]])
        k = emb.shape[0]
        _, events = _push_matches_naive(emb, np.tile(hub, (4, 1)))
        assert events.victims.tolist() == [3, 8, k, k + 1]
        assert _settled(events, k) == []

    @pytest.mark.parametrize("norm, off_max", [(1.0, False), (1.0 - 5e-10, True)])
    def test_self_score_off_max_takes_the_general_path(self, norm, off_max, monkeypatch):
        # A row _push accepts at norm 1 - 5e-10 scores itself 1 - 5e-10. It
        # is kept rather than settled, and credited that self score, so the
        # drift probe of its eviction passes and nothing is recomputed.
        # Exact unit rows settle and never recompute either.
        members, hub, _ = _hub()
        row = norm * hub
        self_miss = abs(pair_scores(row[None, :], row[None, :], AffineCosine())[0, 0] - 1.0)
        assert (self_miss > 1e-12) == off_max
        k, b = members.shape[0], 5
        batch = np.tile(row, (b, 1))
        fast = ActiveMemory.from_arrays(members)
        slow = NaiveDuel(members)
        calls = []
        row_sums = ActiveMemory._row_sums

        def counted(mem, *args):
            calls.append(args)
            return row_sums(mem, *args)

        monkeypatch.setattr(ActiveMemory, "_row_sums", counted)
        events = fast.push_batch(batch)
        monkeypatch.undo()
        assert calls == []
        assert events == slow.push_batch(batch)
        assert np.array_equal(fast.embeddings, slow.embeddings)
        assert _settled(events, k) == list(range(b - 1))

    # Run lengths on and around every block boundary. Blocks start after three
    # settled rows and are as long as the run so far (3, 6, 12, 24, 48 rows,
    # the rest of the batch at most), so runs of 3, 6, 12, 24, 48 and 96 rows
    # end on a block's last row; the lengths at powers of two and one beside
    # them end inside one.
    RUNS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 23, 24, 25)
    RUNS += (31, 33, 47, 48, 49, 63, 79, 80, 81, 95, 96, 97)

    @pytest.mark.parametrize(
        "kernel", [AffineCosine(), ExponentialTemp(tau=0.5)], ids=["affine", "exp"]
    )
    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    @pytest.mark.parametrize("run", RUNS)
    def test_settle_run_across_block_boundaries(self, run, where, kernel):
        members, hub, far = _hub(z=16)
        hubs = [hub] * run
        # Far rows are kept; at the end the run is closed by the batch's last
        # row, a hub copy that is kept because no replacement follows it.
        batch, first = {
            "start": (hubs + [far[0], far[1]], 0),
            "middle": ([far[0]] + hubs + [far[1], far[2]], 1),
            "end": ([far[0], far[1]] + hubs + [hub], 2),
        }[where]
        _, events = _push_matches_naive(members, np.array(batch), kernel)
        assert _settled(events, members.shape[0]) == list(range(first, first + run))

    @pytest.mark.parametrize(
        "kernel", [AffineCosine(), ExponentialTemp(tau=0.5)], ids=["affine", "exp"]
    )
    def test_settle_runs_restart_after_kept_rows(self, kernel):
        # Every run length in one batch, each closed by a distinct far row and
        # the last by the batch's end, so the block size restarts each time.
        members, hub, far = _hub(z=len(self.RUNS) + 1)
        batch, settled = [], []
        for n, run in enumerate(self.RUNS):
            if n:
                batch.append(far[n - 1])
            settled += range(len(batch), len(batch) + run)
            batch += [hub] * run
        batch.append(hub)
        _, events = _push_matches_naive(members, np.array(batch), kernel)
        assert _settled(events, members.shape[0]) == settled

    @pytest.mark.parametrize(
        "kernel", [AffineCosine(), ExponentialTemp(tau=0.5)], ids=["affine", "exp"]
    )
    def test_carried_start_changes_no_bytes(self, kernel):
        # Two hub batches, in which every row but the last settles, then a
        # batch of copies of held rows, which keeps every row once the memory
        # has settled into its pattern. A push opens with a block as long as
        # the previous push's last run, so after a 63-row run the copy batch
        # computes a full block of which it reads one row. The twin memory
        # forgets the carried length before every push and climbs from one row.
        rng = np.random.default_rng(41)
        k, z = 64, 8
        centre = normalize(rng.normal(size=z))
        emb = normalize(centre + 0.5 * rng.normal(size=(k, z)))
        carried, fresh = (ActiveMemory.from_arrays(emb, kernel=kernel) for _ in range(2))
        slow = NaiveDuel(emb, kernel=kernel)
        seen = []
        for p in range(45):
            if p % 3 == 2:
                held = np.delete(carried.embeddings, carried.duel_select_by_score(), axis=0)
                batch = held[rng.permutation(k - 1)]
            else:
                batch = np.tile(normalize(carried.embeddings.sum(axis=0)), (k, 1))
            start = carried._settle_run
            fresh._settle_run = 0
            events = carried.push_batch(batch)
            assert events == fresh.push_batch(batch), f"push {p}"
            assert events == slow.push_batch(batch), f"push {p}"
            assert carried._scores.tobytes() == fresh._scores.tobytes(), f"push {p}"
            assert np.array_equal(carried.embeddings, slow.embeddings)
            seen.append((start, len(_settled(events, k))))
        assert seen.count((63, 63)) >= 8  # opened with a block that all settled
        assert seen.count((63, 0)) >= 8  # opened with a block nothing settled in

    @pytest.mark.parametrize("width", [320, 4160])
    def test_vecdot_rows_equal_row_dot_products(self, width):
        # A block takes its rows' masked sums from one np.vecdot; the
        # row-at-a-time offer takes each as t @ sel. The block keeps the
        # cached bytes only while the two agree bit for bit.
        rng = np.random.default_rng(40)
        T = rng.uniform(0.0, 1.0, size=(64, width))
        sel = (rng.random(width) < 0.8).astype(np.float64)
        own = np.vecdot(T, sel)
        assert all(own[r] == T[r] @ sel for r in range(T.shape[0]))

    def test_most_rows_settle_on_a_dominant_stream(self):
        k, b, pushes = 256, 64, 200
        rng = np.random.default_rng(37)
        X, labels = _clustered(rng, k + pushes * b, 16)
        fast = ActiveMemory.from_arrays(X[:k], labels[:k])
        slow = NaiveDuel(X[:k], labels[:k])
        settled = 0
        for p in range(pushes):
            batch = X[k + p * b : k + (p + 1) * b]
            events = fast.push_batch(batch)
            assert events == slow.push_batch(batch), f"push {p}"
            settled += len(_settled(events, k))
        assert np.array_equal(fast.embeddings, slow.embeddings)
        assert _drift(fast) <= 1e-9
        assert settled >= 0.9 * pushes * b


class TestVictimBlock:
    """A push computes its second memory victim's row in one block with the
    rows of the other selected memory entries that score highest, one per
    row still to offer; later victims read their row from it."""

    def test_settling_push_builds_no_block(self, monkeypatch):
        # Every row but the last settles, so the push picks one memory victim:
        # its products are the cross block and that victim's row.
        members, hub, _ = _hub()
        k, b = members.shape[0], 6
        fast = ActiveMemory.from_arrays(members)
        slow = NaiveDuel(members)
        entries = _count_entries(monkeypatch)
        events = fast.push_batch(np.tile(hub, (b, 1)))
        assert _settled(events, k) == list(range(b - 1))
        assert entries == [b * (k + b), k + b]
        assert events == slow.push_batch(np.tile(hub, (b, 1)))

    @pytest.mark.parametrize("seed", [42, 43])
    def test_kept_rows_read_the_victim_block(self, seed, monkeypatch):
        # Scattered rows into a clustered memory of 512 are kept, and every
        # victim is a memory entry. The first memory victim's row is computed
        # on its own, the second builds a block of 63 rows, and each later
        # memory victim outside the block costs one more row.
        rng = np.random.default_rng(seed)
        k, b, z = 512, 64, 16
        emb = normalize(_unit(rng, 1, z) + 0.5 * rng.normal(size=(k, z)))
        batch = _unit(rng, b, z)
        fast = ActiveMemory.from_arrays(emb)
        slow = NaiveDuel(emb)
        entries = _count_entries(monkeypatch)
        counted, inputs = memory_module.pair_scores, []

        def recorded(X, *args):
            inputs.append(X.copy())
            return counted(X, *args)

        monkeypatch.setattr(memory_module, "pair_scores", recorded)
        events = fast.push_batch(batch)
        monkeypatch.undo()
        assert events == slow.push_batch(batch)
        assert np.array_equal(fast.embeddings, slow.embeddings)
        assert _drift(fast) <= 1e-9
        assert (events.victims < k).all()
        assert entries[:3] == [b * (k + b), k + b, (b - 1) * (k + b)]
        held = {row.tobytes() for row in inputs[2]}
        misses = sum(emb[v].tobytes() not in held for v in events.victims[2:].tolist())
        assert entries[3:] == [k + b] * misses
        assert misses < b // 8


class TestDriftGuard:
    """A DUEL victim whose cached sum is off by more than the guard's
    constant triggers an exact recompute before the choice stands."""

    def _memories(self):
        rng = np.random.default_rng(35)
        emb, labels = _clustered(rng, 32, 6)
        fast = ActiveMemory.from_arrays(emb, labels)
        slow = NaiveDuel(emb, labels)
        return fast, slow, _unit(rng, 4, 6)

    def _perturb(self, mem) -> int:
        """Offset every cached sum by 1e-8..1e-7 and lift one entry that is
        not the true victim to the top; returns that entry."""
        n = mem.size
        mem._scores[:n] += np.random.default_rng(36).uniform(1e-8, 1e-7, size=n)
        wrong = (naive_select(mem) + 1) % n
        mem._scores[wrong] = mem._scores[:n].max() + 1e-3
        return wrong

    def test_guard_restores_coherence(self):
        fast, slow, batch = self._memories()
        self._perturb(fast)
        assert fast.push_batch(batch) == slow.push_batch(batch)
        assert np.array_equal(fast.embeddings, slow.embeddings)
        assert _drift(fast) <= 1e-12

    def test_without_guard_the_fault_decides(self, monkeypatch):
        monkeypatch.setattr(memory_module, "_DRIFT_TOL", np.inf)
        fast, _, batch = self._memories()
        wrong = self._perturb(fast)
        assert fast.push_batch(batch).victims[0] == wrong
        assert _drift(fast) > 1e-9

    def test_guard_fires_on_a_row_from_the_victim_block(self, monkeypatch):
        # Lift the second memory victim's cached sum by 5e-10: above the
        # guard's constant, below the tie tolerance. The first pick passes its
        # probe; the second reads its row from the block it builds, the probe
        # fails, and the recompute restores the exact sums before it stands.
        fast, slow, batch = self._memories()
        k, b = fast.size, batch.shape[0]
        naive = NaiveDuel(fast.embeddings, fast.labels).push_batch(batch)
        second = [v for v in naive.victims.tolist() if v < k][1]
        fast._scores[second] += 5e-10
        entries = _count_entries(monkeypatch)
        row_sums = ActiveMemory._row_sums

        def guarded(mem, *args):
            entries.append("recompute")
            return row_sums(mem, *args)

        monkeypatch.setattr(ActiveMemory, "_row_sums", guarded)
        events = fast.push_batch(batch)
        monkeypatch.undo()
        assert entries[:4] == [b * (k + b), k + b, (b - 1) * (k + b), "recompute"]
        assert entries.count("recompute") == 1
        assert events == naive == slow.push_batch(batch)
        assert np.array_equal(fast.embeddings, slow.embeddings)
        assert _drift(fast) <= 1e-12

    def test_guard_constant_sits_far_below_tie_tolerance(self):
        assert memory_module._DRIFT_TOL <= memory_module._TIE_TOL / 10


class TestBaselinePolicies:
    def test_fifo_evicts_oldest(self):
        mem = ActiveMemory.from_arrays(np.eye(3), np.arange(3), policy="fifo")
        events = mem.push_batch(normalize(np.ones(3))[None, :], np.array([3]))
        assert events.victims.tolist() == [0]
        assert int(mem.insert_steps.min()) == 1

    def test_fifo_rotates_through_slots(self):
        mem = ActiveMemory.from_arrays(np.eye(3), np.arange(3), policy="fifo")
        rng = np.random.default_rng(8)
        victims = []
        for _ in range(3):
            events = mem.push_batch(_unit(rng, 1, 3))
            victims += events.victims.tolist()
        assert sorted(victims) == [0, 1, 2]

    @staticmethod
    def _fifo_reference(steps, seen, b):
        """Victims and final insert ids from a per-item argmin."""
        steps, victims = steps.copy(), []
        for r in range(b):
            victim = int(np.argmin(steps))
            victims.append(victim)
            steps[victim] = seen + r
        return victims, steps

    @pytest.mark.parametrize("b", [20, 64, 150], ids=["b<k", "b=k", "b>k"])
    @pytest.mark.parametrize("permuted", [False, True], ids=["filled", "loaded"])
    def test_fifo_victims_match_per_item_argmin(self, b, permuted):
        k = 64
        rng = np.random.default_rng(45)
        mem = _filled(rng, k, 5, policy="fifo")
        mem.push_batch(_unit(rng, 9, 5))
        if permuted:
            # Loaded state may hold the ids in any order, and with ties.
            state = mem.state_dict()
            state["steps"] = rng.permutation(state["steps"])
            state["steps"][rng.integers(k, size=20)] = state["steps"][rng.integers(k, size=20)]
            mem.load_state_dict(state)
        seen = mem.state_dict()["seen"]
        victims, steps = self._fifo_reference(mem.insert_steps, seen, b)
        batch = _unit(rng, b, 5)
        events = mem.push_batch(batch, np.arange(b))
        assert events.victims.tolist() == victims
        assert events.inserted.tolist() == list(range(seen, seen + b))
        assert np.array_equal(mem.insert_steps, steps)
        assert np.array_equal(mem.embeddings[victims[-k:]], batch[-k:])
        assert np.array_equal(mem.labels[victims[-k:]], np.arange(b)[-k:])
        assert _drift(mem) <= 1e-12

    def test_random_policy_is_seed_deterministic(self):
        rng = np.random.default_rng(9)
        emb, batch = _unit(rng, 6, 4), _unit(rng, 5, 4)
        runs = []
        for _ in range(2):
            mem = ActiveMemory.from_arrays(
                emb, np.zeros(6, int), policy="random", seed=123
            )
            runs.append([e.evicted for e in mem.push_batch(batch)])
        assert runs[0] == runs[1]

    def test_random_victims_equal_per_item_draws(self):
        # One batched integers call draws what one call per item draws, and
        # leaves the generator in the same state.
        rng = np.random.default_rng(47)
        mem = _filled(rng, 7, 4, policy="random")
        for b in (1, 5, 64, 200):
            twin = copy.deepcopy(mem.rng)
            events = mem.push_batch(_unit(rng, b, 4))
            assert events.victims.tolist() == [int(twin.integers(7)) for _ in range(b)]
            assert mem.rng.bit_generator.state == twin.bit_generator.state

    def test_reservoir_drops_emit_no_event(self):
        rng = np.random.default_rng(10)
        mem = ActiveMemory.from_arrays(
            _unit(rng, 4, 3), np.zeros(4, int), policy="reservoir", seed=1
        )
        offered = 200
        events = mem.push_batch(_unit(rng, offered, 3))
        assert len(events) < offered
        assert all(e.evicted is not None for e in events)

    def test_reservoir_inclusion_rate_tracks_capacity_over_seen(self):
        # After many offers, each arrival is kept w.p. K/seen; the number of
        # replacements over offers 5..1000 should be near K * ln(1000/4).
        rng = np.random.default_rng(11)
        mem = ActiveMemory.from_arrays(
            _unit(rng, 4, 3), np.zeros(4, int), policy="reservoir", seed=2
        )
        kept = len(mem.push_batch(_unit(rng, 996, 3)))
        expected = 4 * math.log(1000 / 4)
        assert 0.6 * expected <= kept <= 1.5 * expected


class TestSafeness:
    def test_majority_entry_evicted_under_oracle_kernel(self):
        # 90% class 0, push a class-1 item: a class-0 row has the largest
        # row sum, so the eviction must hit class 0.
        eye = np.eye(4)
        emb = np.vstack([np.tile(eye[0], (18, 1)), np.tile(eye[1], (2, 1))])
        labels = np.array([0] * 18 + [1] * 2)
        mem = ActiveMemory.from_arrays(emb, labels, kernel=ORACLE_KERNEL)
        mem.push_batch(eye[1][None, :], np.array([1]))
        counts = np.bincount(mem.labels, minlength=2)
        assert counts[0] == 17 and counts[1] == 3


class TestGuardedUpdate:
    def test_safe_update_applies(self):
        eye = np.eye(4)
        emb = np.vstack([np.tile(eye[0], (18, 1)), np.tile(eye[1], (2, 1))])
        labels = np.array([0] * 18 + [1] * 2)
        mem = ActiveMemory.from_arrays(emb, labels, kernel=ORACLE_KERNEL)
        events, applied = guarded_update(
            mem, eye[1][None, :], np.array([1]), eye[[0] * 9 + [1]]
        )
        assert applied
        assert len(events) == 1
        assert np.bincount(mem.labels)[1] == 3

    def test_harmful_update_reverts(self):
        # Balanced probe over a 9:1 memory: eliminating another majority
        # duplicate lowers the balanced probe's mean distinctiveness, so the
        # guard must restore the previous contents.
        eye = np.eye(4)
        emb = np.vstack([np.tile(eye[0], (9, 1)), eye[1][None, :]])
        labels = np.array([0] * 9 + [1])
        mem = ActiveMemory.from_arrays(emb, labels, kernel=ORACLE_KERNEL)
        before_labels = mem.labels
        before_steps = mem.insert_steps
        _, applied = guarded_update(mem, eye[1][None, :], np.array([1]), eye[[0, 1]])
        assert not applied
        assert np.array_equal(mem.labels, before_labels)
        assert np.array_equal(mem.insert_steps, before_steps)

    def test_empty_probe_rejected(self):
        mem = ActiveMemory.from_arrays(np.eye(3), np.arange(3))
        with pytest.raises(ValueError):
            guarded_update(mem, np.eye(3)[:1], np.array([0]), np.zeros((0, 3)))


class TestSampling:
    def test_exact_size_is_permutation(self):
        rng = np.random.default_rng(13)
        mem = ActiveMemory.from_arrays(_unit(rng, 8, 4))
        neg = mem.sample_negatives(8, np.random.default_rng(0))
        assert np.array_equal(
            np.sort(neg, axis=0), np.sort(mem.embeddings, axis=0)
        )

    def test_subset_without_replacement(self):
        rng = np.random.default_rng(14)
        mem = ActiveMemory.from_arrays(_unit(rng, 8, 4))
        neg = mem.sample_negatives(5, np.random.default_rng(1))
        rows = {tuple(r) for r in np.round(neg, 12)}
        assert len(rows) == 5

    def test_oversampling_with_replacement(self):
        rng = np.random.default_rng(15)
        mem = ActiveMemory.from_arrays(_unit(rng, 4, 4))
        neg = mem.sample_negatives(12, np.random.default_rng(2))
        assert neg.shape == (12, 4)

    def test_empty_memory_rejected(self):
        mem = ActiveMemory(4, 3, AffineCosine())
        with pytest.raises(ValueError):
            mem.sample_negatives(1, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [5, 12])
    def test_draws_are_copies_of_the_drawn_rows(self, n):
        rng = np.random.default_rng(17)
        mem = ActiveMemory.from_arrays(_unit(rng, 8, 4))
        store = mem.embeddings
        idx = np.random.default_rng(3).choice(8, size=n, replace=n > 8)
        neg = mem.sample_negatives(n, np.random.default_rng(3))
        assert np.array_equal(neg, store[idx])
        assert not np.shares_memory(neg, mem._emb)
        neg[:] = 0.0
        assert np.array_equal(mem.embeddings, store)


class TestPersistence:
    def test_snapshot_csv_round_trips_floats(self, tmp_path):
        rng = np.random.default_rng(16)
        mem = _filled(rng, 6, 4)
        path = tmp_path / "snap.csv"
        mem.snapshot_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "label", "insert_step", "score"] + [
            f"v_{d}" for d in range(4)
        ]
        assert len(rows) == 7
        got = np.array([[float(v) for v in row[4:]] for row in rows[1:]])
        assert np.array_equal(got, mem.embeddings)

    def test_snapshot_unlabeled_cell_is_empty(self, tmp_path):
        mem = ActiveMemory.from_arrays(np.eye(3))
        path = tmp_path / "snap.csv"
        mem.snapshot_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(row[1] == "" for row in rows[1:])

    def test_snapshot_bytes_match_csv_writer(self, tmp_path):
        # Unit rows holding -0.0 and the smallest subnormal, some unlabeled.
        rows = np.array(
            [[1.0, -0.0, 5e-324], [-0.0, 1.0, 0.0], [0.6, -0.8, -0.0], [-1.0, 0.0, -5e-324]]
        )
        mem = ActiveMemory.from_arrays(rows, np.array([2, -1, 0, -1]), capacity=6)
        path, ref = tmp_path / "snap.csv", tmp_path / "ref.csv"
        mem.snapshot_csv(path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "label", "insert_step", "score", "v_0", "v_1", "v_2"])
            for i, (label, step, score, emb) in enumerate(
                zip(mem.labels, mem.insert_steps, mem.scores, mem.embeddings)
            ):
                writer.writerow(
                    [i, "" if label == -1 else int(label), int(step), repr(float(score))]
                    + [repr(float(v)) for v in emb]
                )
        assert path.read_bytes() == ref.read_bytes()
        assert b"-0.0" in path.read_bytes() and b"5e-324" in path.read_bytes()

    def test_empty_snapshot_writes_header_only(self, tmp_path):
        path = tmp_path / "snap.csv"
        ActiveMemory(4, 2).snapshot_csv(path)
        assert path.read_bytes() == b"index,label,insert_step,score,v_0,v_1\r\n"

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(17)
        mem = _filled(rng, 8, 4, policy="random", seed=3)
        saved = mem.state_dict()
        batch = _unit(rng, 4, 4)
        first = [e.evicted for e in mem.push_batch(batch)]
        after = mem.embeddings
        mem.load_state_dict(saved)
        second = [e.evicted for e in mem.push_batch(batch)]
        assert first == second  # rng state restored too
        assert np.array_equal(mem.embeddings, after)


class TestLoadedScores:
    def test_incoherent_scores_rejected(self):
        rng = np.random.default_rng(37)
        mem = _filled(rng, 8, 4)
        state = mem.state_dict()
        state["scores"][2] += 1e-8
        with pytest.raises(ValueError, match="scores"):
            mem.load_state_dict(state)

    @pytest.mark.parametrize("bad", [-1, 20], ids=["negative", "not-below-seen"])
    def test_insert_ids_outside_seen_rejected(self, bad):
        mem = _filled(np.random.default_rng(39), 8, 4)
        state = mem.state_dict()
        state["seen"] = 20
        state["steps"][5] = bad
        with pytest.raises(ValueError, match="steps"):
            mem.load_state_dict(state)

    @pytest.mark.parametrize(
        "rng_state",
        [{"bit_generator": "PCG64"}, {"bit_generator": "MT19937"}, "pcg64"],
        ids=["missing-state", "other-generator", "not-an-object"],
    )
    def test_refused_rng_leaves_memory_unchanged(self, rng_state):
        rng = np.random.default_rng(41)
        mem = ActiveMemory.from_arrays(_unit(rng, 5, 4), capacity=8, seed=2)
        before = (mem.embeddings, mem.scores, mem.rng.bit_generator.state)
        state = _filled(rng, 8, 4).state_dict()
        state["rng"] = rng_state
        with pytest.raises(ValueError, match="^rng: "):
            mem.load_state_dict(state)
        assert mem.size == 5
        assert np.array_equal(mem.embeddings, before[0])
        assert np.array_equal(mem.scores, before[1])
        assert mem.rng.bit_generator.state == before[2]

    def test_coherent_state_loads_bit_exact(self):
        rng = np.random.default_rng(38)
        mem = _filled(rng, 8, 4)
        other = ActiveMemory(8, 4, AffineCosine())
        other.load_state_dict(mem.state_dict())
        assert np.array_equal(other.scores, mem.scores)

    def test_guarded_revert_restores_cached_scores(self):
        eye = np.eye(4)
        emb = np.vstack([np.tile(eye[0], (9, 1)), eye[1][None, :]])
        labels = np.array([0] * 9 + [1])
        mem = ActiveMemory.from_arrays(emb, labels, kernel=ORACLE_KERNEL)
        before = mem.scores
        _, applied = guarded_update(mem, eye[1][None, :], np.array([1]), eye[[0, 1]])
        assert not applied
        assert np.array_equal(mem.scores, before)

    def test_guarded_fifo_revert_computes_no_scores(self, monkeypatch):
        # 48:16 over two classes, class 0 oldest. An unguarded fifo push of a
        # class-1 row leaves the cache stale at 47:17. Replacing the next
        # class-0 row with a class-1 row moves the memory toward the balanced
        # probe, which lowers its distinctiveness, so the guard reverts, and
        # must do so without scoring the memory.
        eye = np.eye(4)
        labels = np.array([0] * 48 + [1] * 16)
        mem = ActiveMemory.from_arrays(
            eye[labels], labels, kernel=ORACLE_KERNEL, policy="fifo"
        )
        mem.push_batch(eye[1:2], np.array([1]))
        twin = copy.deepcopy(mem)
        refreshes = []
        refresh = ActiveMemory._refresh_scores
        monkeypatch.setattr(
            ActiveMemory, "_refresh_scores", lambda m: refreshes.append(m) or refresh(m)
        )
        _, applied = guarded_update(mem, eye[1][None, :], np.array([1]), eye[[0, 1]])
        assert not applied
        assert refreshes == []
        monkeypatch.undo()
        assert np.array_equal(mem.insert_steps, twin.insert_steps)
        assert np.array_equal(mem.scores, twin.scores)


class TestVerifyNegativeControl:
    """The verify checks must catch faults injected into the memory."""

    def test_wrong_max_score_is_detected(self, monkeypatch):
        monkeypatch.setattr(memory_module, "MAX_SCORE", 0.5)
        coherent, _ = check_cache_coherence(quick=True)
        equivalent, _ = check_incremental_matches_naive(quick=True)
        assert not (coherent and equivalent)

    def test_highest_tied_index_is_detected(self, monkeypatch):
        def highest(values):
            tied = values >= values.max() - memory_module._TIE_TOL
            return int(np.flatnonzero(tied)[-1])

        monkeypatch.setattr(memory_module, "_tied_argmax", highest)
        assert not check_selection_equivalence(quick=True)[0]

    def test_scrambled_labels_are_detected(self, monkeypatch):
        # A compaction that keeps the right rows but reverses the pooled
        # labels: no score reads labels, so only the replay's label
        # comparison sees it.
        compact = ActiveMemory._compact

        def reversed_labels(mem, selection, emb, labels, ids, live_scores):
            compact(mem, selection, emb, labels[::-1], ids, live_scores)

        monkeypatch.setattr(ActiveMemory, "_compact", reversed_labels)
        ok, detail = check_incremental_matches_naive(quick=True)
        assert not ok
        assert detail.startswith("labels diverge")

    def test_label_ordered_push_is_detected(self, monkeypatch):
        # A DUEL push that offers its batch in label order: the victims
        # follow the labels. A memory binds its push path when it is built,
        # so the entry is patched before the check builds any.
        push = memory_module._PUSH["duel"]

        def by_label(mem, X, lab):
            order = np.argsort(lab, kind="stable")
            return push(mem, X[order], lab[order])

        monkeypatch.setitem(memory_module._PUSH, "duel", by_label)
        ok, detail = check_label_blindness(quick=True)
        assert not ok
        assert detail == "evictions changed under label permutation"

    def test_checks_pass_with_correct_constant(self):
        assert check_cache_coherence(quick=True)[0]
        assert check_incremental_matches_naive(quick=True)[0]
        assert check_selection_equivalence(quick=True)[0]
