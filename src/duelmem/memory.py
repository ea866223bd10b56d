"""Capacity-bounded active memory with duplicate-eliminating eviction.

The DUEL policy evicts the entry with minimum distinctiveness, i.e. the one
most duplicated by the rest of the memory. Because -log is monotone, that is
the entry with the largest row sum of the pairwise duplication-score matrix
(self pair included), so the policy can be driven entirely by cached row
sums.

DUEL pushes and appends keep the cache `_scores` coherent across calls, and
no update path builds a k x k score matrix. A batched DUEL update of b
entries into a memory of k follows a selection-mask scheme over the pool
[memory; batch]:

  * rows start selected for memory entries and deselected for the batch;
    live scores start from the cached row sums, and the batch's own rows
    come from one b x (k+b) cross block q(batch, pool);
  * per batch element: unless the element before it settled (below), pick
    the selected row with the largest live score (lowest index on ties,
    grouped at _TIE_TOL), subtract its masked row from the live scores and
    zero it. A victim's row is a row of the cross block when it came in with
    this batch; a memory entry's row is computed on its own;
  * then offer the incoming row: add its masked scores to the other rows in
    a spare buffer, and credit it its own masked row sum plus its self
    score, taken as MAX_SCORE when it is within 1e-12 of it and from the
    cross block's diagonal otherwise. It has the highest pool index among
    the selected rows, so it loses every tie: the next replacement evicts it
    exactly when its score beats every other live score by more than
    _TIE_TOL;
  * settle test: when that holds, the row is not the batch's last, and its
    self score is MAX_SCORE within 1e-12, the row is logged as the next
    element's victim and the state is left as it was, since inserting and
    evicting it returns that state. Otherwise the row is kept: the spare
    buffer becomes the live scores, the row is marked selected, and the
    next victim is picked;
  * settle blocks: since settled rows leave the state unchanged, once three
    rows in a row have settled the next rows are offered together against
    that state, in a block as long as the run so far (3, 6, 12, 24 rows, then
    _SETTLE_BLOCK at most). A block takes one (delta + T) + base add over its
    rows T of the cross block, one row-wise maximum and one np.vecdot(T, sel)
    for their masked sums. These are the bytes each row gets on its own: the
    adds are the same elementwise operations, the maximum is exact, and
    np.vecdot's row r equals T[r] @ sel bit for bit (T @ sel does not). Rows
    before the first that does not settle are logged as victims; that row is
    kept from its row of the block, and the run restarts. The first three
    rows after a kept row are offered one at a time, four numpy calls on
    (k+b) floats each, so short runs pay for no block.

That costs O(b (k+b) z) per call instead of O((k+b)^2 z), and the Python
loop does its victim bookkeeping per kept row only. Elements inserted
earlier in the same call are eviction candidates for later elements.
verify.NaiveDuel replays the same candidate pool but recomputes every score
from the full pool matrix per replacement; both must produce identical
eviction logs.

Drift. The per-call changes to the live scores accumulate in a zero-based
array that is folded into the cached sums once per call, so each cached sum
takes one rounding at its own magnitude per call rather than two per
replacement. The victim's row is computed exactly anyway, so its masked sum
probes the cache for free: when it differs from the cached value by more
than _DRIFT_TOL, the live scores are recomputed exactly before the choice is
made. Settled rows never touch the zero-based array, so they add no rounding.

Appends below capacity extend the cache: held rows gain their sums against
the appended rows, which get theirs exactly. A memory's policy is fixed when
it is built. The baseline policies (fifo, random, reservoir) read no scores,
so their pushes only overwrite slots and mark the cache stale; a DUEL memory
never goes stale, so its pushes read the cache as it is. Every other reader
of the cache (scores, snapshot_csv, state_dict, duel_select_by_score) first
recomputes a stale cache from scratch, _ROW_BLOCK rows at a time.
mean_distinctiveness over the memory's own entries makes that same recompute
whatever the cache holds, and keeps it as the cache when the cache is stale,
so the next reader finds it fresh. A memory goes stale only once it is full,
and stays full, so appends never meet a stale cache.

Eviction-log coordinates: a push returns one PushResult, whose victims
array holds, per accepted item, the displaced entry's index. DUEL reports
the victim's index in the combined pool (entry order at call start, then
batch order); the baseline policies (fifo, random, reservoir) replace slots
in place and report the slot index. Appends below capacity report -1, which
reads as None on the EvictionEvent view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import AffineCosine, Kernel, LabelOracle, pair_scores
# Unused here, but the benchmark's tracer patches memory.self_scores by name.
from .kernels import self_scores  # noqa: F401
from .streams import csv_row

__all__ = [
    "MAX_SCORE",
    "POLICIES",
    "ActiveMemory",
    "EvictionEvent",
    "PushResult",
    "guarded_update",
]

# Score credited to a freshly inserted row for its self pair, q(i, i) = 1.
MAX_SCORE = 1.0

POLICIES = ("duel", "fifo", "random", "reservoir")

UNLABELED = -1

# Exact duplicates tie exactly under a fresh recompute but only to within
# summation noise on the incrementally maintained scores. Grouping ties at
# this tolerance (far above accumulated drift, far below genuine score gaps)
# makes both paths break them identically, toward the lowest index.
_TIE_TOL = 1e-9

# A DUEL victim whose cached row sum differs from its exact row sum by more
# than this triggers an exact recompute of the live scores. Summation noise
# stays near 1e-11 over thousands of calls; real faults are far larger.
_DRIFT_TOL = 1e-10

# Rows per block when scores are summed over the whole memory, so that no
# k x k matrix is ever live (128 rows against 4096 entries is 4 MB).
_ROW_BLOCK = 128

# Most rows offered in one block during a run of settling DUEL rows, so that
# a block holds at most this many (k+b)-long rows of live scores.
_SETTLE_BLOCK = 32


def _tied_argmax(values: np.ndarray) -> int:
    """Lowest index among entries within _TIE_TOL of the maximum."""
    return int(np.flatnonzero(values >= values.max() - _TIE_TOL)[0])


@dataclass(frozen=True)
class EvictionEvent:
    """One insertion: which entry it displaced (None for a plain append)."""

    evicted: int | None
    inserted: int


class PushResult:
    """The accepted items of one push, in offer order, as two int arrays:
    `victims` holds the index each item displaced (-1 for a plain append)
    and `inserted` its insert id.

    It reads as a sequence of EvictionEvent, built only when indexed or
    iterated, and compares equal to a list of them.
    """

    __slots__ = ("victims", "inserted")

    def __init__(self, victims: np.ndarray, inserted: np.ndarray):
        self.victims = np.asarray(victims, dtype=np.int64)
        self.inserted = np.asarray(inserted, dtype=np.int64)

    def __len__(self) -> int:
        return self.victims.size

    def __getitem__(self, index: int) -> EvictionEvent:
        v = int(self.victims[index])
        return EvictionEvent(None if v < 0 else v, int(self.inserted[index]))

    def __iter__(self):
        for v, r in zip(self.victims.tolist(), self.inserted.tolist()):
            yield EvictionEvent(None if v < 0 else v, r)

    def __eq__(self, other) -> bool:
        if isinstance(other, PushResult):
            return np.array_equal(self.victims, other.victims) and np.array_equal(
                self.inserted, other.inserted
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"PushResult(victims={self.victims.tolist()}, inserted={self.inserted.tolist()})"


class ActiveMemory:
    """Fixed-capacity store of unit embeddings under one eviction policy,
    fixed at construction.

    Labels ride along for diagnostics only; no policy reads them unless the
    kernel itself is a LabelOracle (a test fixture).
    """

    def __init__(
        self,
        capacity: int,
        dim: int,
        kernel: Kernel | None = None,
        policy: str = "duel",
        seed: int = 0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.kernel = kernel if kernel is not None else AffineCosine()
        self._policy = policy
        # The policy's replacement path, unbound, so the memory holds no
        # reference to itself.
        self._replace = _PUSH[policy]
        self.rng = np.random.default_rng(seed)
        self._emb = np.zeros((capacity, dim))
        self._labels = np.full(capacity, UNLABELED, dtype=np.int64)
        self._steps = np.zeros(capacity, dtype=np.int64)
        self._scores = np.zeros(capacity)
        # Set when a baseline push overwrote slots: _scores is then out of
        # date until _fresh recomputes it.
        self._stale = False
        self._count = 0
        self._seen = 0  # items offered so far; also the next insert id

    @classmethod
    def from_arrays(
        cls,
        embeddings: np.ndarray,
        labels: np.ndarray | None = None,
        capacity: int | None = None,
        kernel: Kernel | None = None,
        policy: str = "duel",
        seed: int = 0,
    ) -> "ActiveMemory":
        """Build a memory pre-filled with the given entries."""
        embeddings = np.asarray(embeddings, dtype=np.float64)
        n = embeddings.shape[0]
        capacity = n if capacity is None else capacity
        mem = cls(capacity, embeddings.shape[1], kernel, policy, seed)
        mem.push_batch(embeddings, labels)
        return mem

    # -- views ------------------------------------------------------------

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def size(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count == self.capacity

    @property
    def embeddings(self) -> np.ndarray:
        return self._emb[: self._count].copy()

    @property
    def labels(self) -> np.ndarray:
        return self._labels[: self._count].copy()

    @property
    def insert_steps(self) -> np.ndarray:
        return self._steps[: self._count].copy()

    @property
    def scores(self) -> np.ndarray:
        """Cached duplication-score row sums, self pair included."""
        self._fresh()
        return self._scores[: self._count].copy()

    # -- scores -----------------------------------------------------------

    def _kernel_labels(self, labels: np.ndarray) -> np.ndarray | None:
        if isinstance(self.kernel, LabelOracle):
            if np.any(labels == UNLABELED):
                raise ValueError("LabelOracle kernel requires labeled entries")
            return labels
        return None

    def _row_sums(self, X, Y, labels_x, labels_y) -> np.ndarray:
        """Row sums of q(X, Y), _ROW_BLOCK rows of X at a time, so that no
        len(X) x len(Y) matrix is ever live.

        Labels are passed as the kernel reads them (see _kernel_labels).
        """
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            lx = None if labels_x is None else labels_x[rows]
            out[rows] = pair_scores(X[rows], Y, self.kernel, lx, labels_y).sum(axis=1)
        return out

    def recomputed_scores(self) -> np.ndarray:
        """Row sums recomputed from scratch; the cache-coherence oracle."""
        E = self._emb[: self._count]
        labels = self._kernel_labels(self._labels[: self._count])
        return self._row_sums(E, E, labels, labels)

    def _refresh_scores(self) -> np.ndarray:
        """Recompute the cache and return the new row sums."""
        sums = self.recomputed_scores()
        self._scores[: self._count] = sums
        self._stale = False
        return sums

    def _fresh(self) -> None:
        """Bring the cache up to date for a reader; every read of _scores
        goes through here."""
        if self._stale:
            self._refresh_scores()

    # -- selection --------------------------------------------------------

    def duel_select_by_score(self) -> int:
        """Index of the most duplicated entry: argmax of cached row sums."""
        if self._count == 0:
            raise ValueError("memory is empty")
        self._fresh()
        return _tied_argmax(self._scores[: self._count])

    def duel_select_naive(self) -> int:
        """Same selection via per-entry distinctiveness, computed fresh.

        argmin of -log(mean q) is argmax of the row sums, so this is the
        argmax of recomputed_scores; ties group on the row-sum scale so the
        two paths agree bitwise.
        """
        if self._count == 0:
            raise ValueError("memory is empty")
        return _tied_argmax(self.recomputed_scores())

    # -- updates ----------------------------------------------------------

    def push_batch(
        self, embeddings: np.ndarray, labels: np.ndarray | None = None
    ) -> PushResult:
        """Offer a batch of embeddings to the memory under its policy.

        Returns the accepted items, in offer order, as one PushResult.
        """
        X = np.asarray(embeddings, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {X.shape[1]}")
        if not np.all(np.isfinite(X)):
            raise ValueError("batch contains non-finite values")
        norms = np.linalg.norm(X, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("batch embeddings must be unit-norm within 1e-9")
        if labels is None:
            lab = np.full(X.shape[0], UNLABELED, dtype=np.int64)
        else:
            lab = np.asarray(labels, dtype=np.int64).reshape(-1)
            if lab.shape[0] != X.shape[0]:
                raise ValueError("labels must align with the batch")
        if isinstance(self.kernel, LabelOracle) and labels is None:
            raise ValueError("LabelOracle kernel requires labeled entries")

        m = min(X.shape[0], self.capacity - self._count)
        appended = np.arange(self._seen, self._seen + m)
        if m:
            self._append(X[:m], lab[:m])
        if m == X.shape[0]:
            return PushResult(np.full(m, -1), appended)
        rest = self._replace(self, X[m:], lab[m:])
        if m == 0:
            return rest
        return PushResult(
            np.concatenate([np.full(m, -1), rest.victims]),
            np.concatenate([appended, rest.inserted]),
        )

    def _append(self, X: np.ndarray, lab: np.ndarray) -> None:
        """Fill free slots with X and give every row its sum over the new
        contents: held rows gain their sums against X, appended rows get
        theirs exactly. That is O(m n z) for m rows into n, so filling in
        small batches costs O(n^2 z) in total rather than O(n^3 z)."""
        c0, m = self._count, X.shape[0]
        c1 = c0 + m
        self._emb[c0:c1] = X
        self._labels[c0:c1] = lab
        self._steps[c0:c1] = self._seen + np.arange(m)
        self._count, self._seen = c1, self._seen + m
        E = self._emb[:c1]
        kl = self._kernel_labels(self._labels[:c1])
        held, new = (None, None) if kl is None else (kl[:c0], kl[c0:])
        self._scores[:c0] += self._row_sums(E[:c0], E[c0:], held, new)
        self._scores[c0:c1] = self._row_sums(E[c0:], E, new, kl)

    def _compact(self, selection, emb, labels, ids, live_scores) -> None:
        keep = np.flatnonzero(selection)
        self._count = keep.size
        self._emb[: self._count] = emb[keep]
        self._labels[: self._count] = labels[keep]
        self._steps[: self._count] = ids[keep]
        self._scores[: self._count] = live_scores[keep]

    def _push_duel(self, X: np.ndarray, lab: np.ndarray) -> PushResult:
        k, b = self._count, X.shape[0]
        pool = np.vstack([self._emb[:k], X])
        labels = np.concatenate([self._labels[:k], lab])
        ids = np.concatenate(
            [self._steps[:k], self._seen + np.arange(b, dtype=np.int64)]
        )
        kl = self._kernel_labels(labels)
        # Row i - k of the b x (k+b) cross block is row i of the pool's score
        # matrix, for batch entry i.
        cross = pair_scores(X, pool, self.kernel, None if kl is None else kl[k:], kl)

        def row(j: int) -> np.ndarray:
            if j >= k:
                return cross[j - k]
            lj = None if kl is None else kl[j : j + 1]
            return pair_scores(pool[j : j + 1], pool, self.kernel, lj, kl)[0]

        # Deselected rows hold -inf in base, so the live scores need no mask:
        # delta takes whole rows, which is exact on the selected rows, and a
        # row's delta restarts at 0 when it is selected. sel is the selection
        # as 1.0 / 0.0, so a masked row sum is one dot product.
        sel = np.concatenate([np.ones(k), np.zeros(b)])
        base = np.concatenate([self._scores[:k], np.full(b, -np.inf)])
        delta = np.zeros(k + b)  # this call's changes, folded in at the end
        spare = np.empty(k + b)  # delta with the offered row added
        live = base.copy()
        top = np.maximum.reduce(live)
        tied = np.empty(k + b, dtype=bool)
        # Rows whose self score is MAX_SCORE within 1e-12 are credited
        # MAX_SCORE and may settle, unless they are the batch's last; any
        # other row is credited its own, so its drift probe passes.
        diag = np.diagonal(cross, offset=k)
        exact = np.abs(diag - MAX_SCORE) <= 1e-12
        self_credit = np.where(exact, MAX_SCORE, diag).tolist()
        settles = exact.tolist()
        settles[-1] = False
        victims = []
        run = 0  # rows settled since the last kept row; blocks from 3 on
        i = k
        while i < k + b:
            if run < 3:
                if run == 0:
                    # _tied_argmax without its allocations.
                    j = int(np.greater_equal(live, top - _TIE_TOL, out=tied).argmax())
                    r = row(j)
                    # r @ sel is j's exact row sum, a free probe of the cache.
                    if abs(r @ sel - live[j]) > _DRIFT_TOL:
                        held = np.flatnonzero(sel)
                        lh = None if kl is None else kl[held]
                        base.fill(-np.inf)
                        base[held] = self._row_sums(pool[held], pool[held], lh, lh)
                        delta.fill(0.0)
                        j = _tied_argmax(base)
                        r = row(j)
                    delta -= r
                    sel[j] = 0.0
                    base[j] = -np.inf
                    victims.append(j)
                t = cross[i - k]
                np.add(delta, t, out=spare)
                # Row i is still at -inf in base, so top is over the other rows.
                np.add(base, spare, out=live)
                top = np.maximum.reduce(live)
                own = t @ sel + self_credit[i - k]
                if settles[i - k] and top < own - _TIE_TOL:
                    victims.append(i)
                    run, i = run + 1, i + 1
                    continue
            else:
                # A settle block (see the module docstring): each row gets
                # the sums, maximum and masked sum it would get on its own.
                a = i - k
                n = min(run, _SETTLE_BLOCK, b - a)
                T = cross[a : a + n]
                block = delta + T
                block += base
                tops = np.maximum.reduce(block, axis=1).tolist()
                dots = np.vecdot(T, sel).tolist()
                m = 0
                while m < n:
                    top, own = tops[m], dots[m] + self_credit[a + m]
                    if not (settles[a + m] and top < own - _TIE_TOL):
                        break
                    m += 1
                victims.extend(range(i, i + m))
                run, i = run + m, i + m
                if m == n:
                    continue
                # Row i does not settle: it is kept, from its row of the block.
                np.add(delta, cross[i - k], out=spare)
                live[:] = block[m]
            delta, spare = spare, delta
            base[i] = own
            delta[i] = 0.0
            live[i] = own
            sel[i] = 1.0
            top = max(top, own)
            run, i = 0, i + 1
        self._compact(sel, pool, labels, ids, live_scores=base + delta)
        self._seen += b
        return PushResult(victims, ids[k:])

    def _push_fifo(self, X: np.ndarray, lab: np.ndarray) -> PushResult:
        # Each replacement takes the oldest slot and makes it the newest, so
        # the victims cycle through the slots from oldest to newest. Insert
        # ids lie below _seen, and a stable sort breaks ties by lowest index
        # as argmin does.
        n, b = self._count, X.shape[0]
        victims = np.argsort(self._steps[:n], kind="stable")[np.arange(b) % n]
        return self._overwrite(victims, np.arange(b), X, lab)

    def _push_random(self, X: np.ndarray, lab: np.ndarray) -> PushResult:
        # One rng call per item: a batched draw would consume another stream.
        b = X.shape[0]
        victims = np.array([self.rng.integers(self._count) for _ in range(b)])
        return self._overwrite(victims, np.arange(b), X, lab)

    def _push_reservoir(self, X: np.ndarray, lab: np.ndarray) -> PushResult:
        """Keep each offered item with probability capacity / seen_count."""
        victims, kept = [], []
        for r in range(X.shape[0]):
            if self.rng.random() < self.capacity / (self._seen + r + 1):
                victims.append(self.rng.integers(self._count))
                kept.append(r)
        return self._overwrite(
            np.array(victims, dtype=np.int64), np.array(kept, dtype=np.int64), X, lab
        )

    def _overwrite(
        self, victims: np.ndarray, rows: np.ndarray, X: np.ndarray, lab: np.ndarray
    ) -> PushResult:
        """Write X[rows[r]] into slot victims[r] for each r in order, give
        every offered row of X an insert id, and mark the cached row sums
        stale. A slot hit more than once ends with its last write."""
        seen = self._seen
        self._seen += X.shape[0]
        events = PushResult(victims, seen + rows)
        if victims.size == 0:
            return events
        slots, from_end = np.unique(victims[::-1], return_index=True)
        last = rows[victims.size - 1 - from_end]
        self._emb[slots] = X[last]
        self._labels[slots] = lab[last]
        self._steps[slots] = seen + last
        self._stale = True
        return events

    # -- probes and sampling ----------------------------------------------

    def mean_distinctiveness(
        self,
        probe_embeddings: np.ndarray | None = None,
        probe_labels: np.ndarray | None = None,
    ) -> float:
        """Mean -log(mean duplication score against memory) over the probe.

        Defaults to probing with the memory's own entries. Their row sums are
        recomputed exactly rather than read from the cache, whose DUEL sums
        carry summation noise; a stale cache keeps the recompute.
        """
        if self._count == 0:
            raise ValueError("memory is empty")
        if probe_embeddings is None:
            if probe_labels is not None:
                raise ValueError("probe_labels given without probe_embeddings")
            sums = self._refresh_scores() if self._stale else self.recomputed_scores()
        else:
            if isinstance(self.kernel, LabelOracle) and probe_labels is None:
                raise ValueError("LabelOracle kernel requires probe labels")
            sums = self._row_sums(
                np.asarray(probe_embeddings, dtype=np.float64),
                self._emb[: self._count],
                None if probe_labels is None else np.asarray(probe_labels),
                self._kernel_labels(self._labels[: self._count]),
            )
        with np.errstate(divide="ignore"):
            distinct = -np.log(sums / self._count)
        return float(distinct.mean())

    def sample_negatives(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n entries drawn uniformly; without replacement when n <= size."""
        if self._count == 0:
            raise ValueError("memory is empty")
        if n < 0:
            raise ValueError("n must be >= 0")
        replace = n > self._count
        idx = rng.choice(self._count, size=n, replace=replace)
        return self._emb[idx]

    # -- persistence ------------------------------------------------------

    def snapshot_csv(self, path) -> None:
        """Write `index,label,insert_step,score,v_0..v_{z-1}` rows."""
        self._fresh()
        n = self._count
        labels = ["" if v == UNLABELED else v for v in self._labels[:n].tolist()]
        with open(path, "w", newline="") as fh:
            fh.write(
                csv_row(
                    ["index", "label", "insert_step", "score"]
                    + [f"v_{d}" for d in range(self.dim)],
                    [],
                )
            )
            for i, label, step, score in zip(
                range(n), labels, self._steps[:n].tolist(), self._scores[:n].tolist()
            ):
                fh.write(csv_row((i, label, step), [score, *self._emb[i].tolist()]))

    def state_dict(self) -> dict:
        self._fresh()
        return self._save()

    def _save(self) -> dict:
        """The state as it is, without refreshing stale scores; _restore
        takes it back together with the stale flag."""
        return {
            "emb": self._emb.copy(),
            "labels": self._labels.copy(),
            "steps": self._steps.copy(),
            "scores": self._scores.copy(),
            "count": self._count,
            "seen": self._seen,
            "rng": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a state_dict, validating it first.

        Shapes, counters, insert ids and unit-norm entries cost
        O(capacity * dim); the cached scores, which DUEL updates read as they
        are, are checked against a recompute within 1e-9 in O(count^2 * dim).
        """
        emb = np.array(state["emb"], dtype=np.float64)
        labels = np.array(state["labels"], dtype=np.int64)
        steps = np.array(state["steps"], dtype=np.int64)
        scores = np.array(state["scores"], dtype=np.float64)
        count, seen = int(state["count"]), int(state["seen"])
        if emb.shape != (self.capacity, self.dim):
            raise ValueError(
                f"emb: expected shape {(self.capacity, self.dim)}, got {emb.shape}"
            )
        for name, column in (("labels", labels), ("steps", steps), ("scores", scores)):
            if column.shape != (self.capacity,):
                raise ValueError(
                    f"{name}: expected shape {(self.capacity,)}, got {column.shape}"
                )
        if not 0 <= count <= self.capacity:
            raise ValueError(f"count: {count} outside [0, {self.capacity}]")
        if seen < count:
            raise ValueError(f"seen: {seen} is below count {count}")
        # Insert ids are handed out from seen, so every stored one lies below
        # it; fifo's batched victim order relies on that.
        if not np.all((steps[:count] >= 0) & (steps[:count] < seen)):
            raise ValueError(f"steps: stored insert ids must lie in [0, {seen})")
        if not np.all(np.isfinite(emb[:count])):
            raise ValueError("emb: stored entries contain non-finite values")
        if not np.all(np.abs(np.linalg.norm(emb[:count], axis=1) - 1.0) <= 1e-9):
            raise ValueError("emb: stored entries must be unit-norm within 1e-9")
        kl = self._kernel_labels(labels[:count])
        exact = self._row_sums(emb[:count], emb[:count], kl, kl)
        if not np.all(np.abs(scores[:count] - exact) <= 1e-9):
            raise ValueError("scores: cached row sums differ from a recompute by > 1e-9")
        self._restore({**state, "emb": emb, "labels": labels, "steps": steps, "scores": scores})

    def _restore(self, state: dict, stale: bool = False) -> None:
        """Adopt a saved state as it is; for snapshots this memory took
        itself. `stale` is the memory's stale flag when it was saved."""
        self._emb, self._labels = state["emb"], state["labels"]
        self._steps, self._scores = state["steps"], state["scores"]
        self._count, self._seen = int(state["count"]), int(state["seen"])
        self.rng.bit_generator.state = state["rng"]
        self._stale = stale


# The update path of each policy, called with the entries that must displace
# others once the memory is full.
_PUSH = {
    "duel": ActiveMemory._push_duel,
    "fifo": ActiveMemory._push_fifo,
    "random": ActiveMemory._push_random,
    "reservoir": ActiveMemory._push_reservoir,
}


def guarded_update(
    mem: ActiveMemory,
    embeddings: np.ndarray,
    labels: np.ndarray | None,
    probe_embeddings: np.ndarray,
    probe_labels: np.ndarray | None = None,
) -> tuple[PushResult, bool]:
    """Apply push_batch, reverting it if probe distinctiveness drops.

    The probe stands in for the current data distribution. The update is
    kept when the probe's mean distinctiveness against the memory does not
    strictly decrease (a 1e-12 slack absorbs summation-order noise);
    otherwise the memory is restored and applied is False.
    """
    probe_embeddings = np.asarray(probe_embeddings, dtype=np.float64)
    if probe_embeddings.size == 0:
        raise ValueError("probe must be nonempty")
    before = mem.mean_distinctiveness(probe_embeddings, probe_labels)
    # _save, not state_dict: a revert needs no fresh scores.
    saved, stale = mem._save(), mem._stale
    events = mem.push_batch(embeddings, labels)
    after = mem.mean_distinctiveness(probe_embeddings, probe_labels)
    if after < before - 1e-12:
        mem._restore(saved, stale)
        return events, False
    return events, True
