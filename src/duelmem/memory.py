"""Capacity-bounded active memory with duplicate-eliminating eviction.

The DUEL policy evicts the entry with minimum distinctiveness, i.e. the one
most duplicated by the rest of the memory. Because -log is monotone, that is
the entry with the largest row sum of the pairwise duplication-score matrix
(self pair included), so the policy can be driven entirely by cached row
sums. Under the default AffineCosine kernel, q(x, y) = (1 + x.y)/2, so the
row sum of a held entry e among n is (n + e.S)/2, with S the sum of the held
embeddings: affine DUEL evicts the held entry most aligned with S, and
verify.AffineDuel replays pushes by that closed form.

DUEL pushes and appends keep the cache `_scores` coherent across calls, and
no update path builds a k x k score matrix. A batched DUEL update of b
entries into a memory of k follows a selection-mask scheme over the pool
[memory; batch]:

  * rows start selected for memory entries and deselected for the batch;
    live scores start from the cached row sums, and the batch's own rows
    come from one b x (k+b) cross block of terms t(batch, pool) (below);
  * per batch element: unless the element before it settled (below), pick
    the selected row with the largest live score (lowest index on ties,
    grouped at _TIE_TOL), subtract its masked row from the live scores and
    zero it. A victim's row is a row of the cross block when it came in with
    this batch. A memory entry's row comes from the victim block (below) or,
    outside it, is computed on its own;
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
  * settle blocks: settled rows leave the state unchanged, so once three
    rows in a row have settled, the next rows are offered together against
    that state, in a block as long as the run so far (3, 6, 12, 24 rows and
    so on, the rest of the batch at most). A block takes one add,
    (delta + T) + base, over its rows T of the cross block, one row-wise
    maximum and one np.vecdot(T, sel) for their masked sums: the bytes each
    row gets on its own, since the adds are the same elementwise operations,
    the maximum is exact, and np.vecdot's row r equals T[r] @ sel bit for bit
    (T @ sel does not). Rows before the first that does not settle are
    logged as victims; that row is kept from its row of the block, and the
    run restarts with up to three rows offered one at a time, four numpy
    calls on (k+b) floats each, so short runs pay for no block;
  * carried start: the memory keeps the length of the last run that ended at
    a kept row, across calls. When it is at least 3, the next call offers
    its first rows, right after its first victim pick, in one block of that
    length. A state just after a victim pick is the state a run of settled
    rows leaves, so each row gets the same bytes; when the block's first row
    is kept, the rest of the block is computed and not read;
  * victim block: the first memory victim's row is computed on its own, so
    a push in which every other row settles makes two score products, the
    cross block and that row. The second memory victim's pick computes, in
    one product, the rows of the w selected memory entries with the largest
    live scores, the victim among them, where w is the smaller of the rows
    still to offer (each needs at most one more pick) and the selected memory
    entries. Later memory victims read their row from it; one outside it
    gets its own row, so a push makes at most three score products plus one
    per such miss. Rows do not depend on scores, so the block stays valid
    when the drift guard recomputes. A row of the block comes from a
    multi-row product and a lone row from a one-row product, which may
    differ in the last bit of some entries (BLAS gemm against gemv), moving
    the cached sums by a few ulps but no choice: ties are grouped at
    _TIE_TOL, far above that.

Terms. A push adds up pair_terms, t = q - c with the kernel's constant c,
in place of the scores q: under AffineCosine, c = 1/2 and a block is the one
product (X/2) Y^T, with no clip or affine pass; under ExponentialTemp, c = 0
and the terms are the scores. Every live score the push compares (a pick,
a settle test, a block's maxima and masked sums, a drift probe) is a sum of
exactly k terms, so it lies c k below the sum of the k scores, the same
offset at every comparison. The live scores start from the cached sums less
c k, the self score is MAX_SCORE - c, the drift guard's recompute subtracts
c k, and the fold at the end adds c k back. The push skips the affine clip
only when every pool row's squared norm is 1 within _UNIT_TOL, 4e-15: an
unclipped term of such rows passes its range by at most 3e-15, so a sum
moves by at most 3e-15 per near-duplicate partner, 1.3e-11 at k = 4096,
below _DRIFT_TOL and far below _TIE_TOL. Any other pool, such as rows that
push_batch accepts at 1e-9 from unit, keeps the clip, so the push logs
verify.NaiveDuel's victims on every accepted input. The rule reads only the
pool, so a checkpoint load does not change it.

Candidates. Let T be the (b+1)-th largest cached sum when a push of b rows
starts. Terms span 1, and a push changes each live score by at most 2b
terms: at most b rows leave and at most b offered rows stay. So the gap
between two held entries' live scores shrinks by at most 2b over the push.
At most b entries leave, so at every pick one of the b+1 that started at or
above T is still selected. A held entry whose sum started more than 2b +
_REACH_MARGIN below T thus stays more than _REACH_MARGIN (1e-6, far above
_TIE_TOL) below that one: it is never picked, never tied with the maximum,
and never the maximum a settle test reads. Such far entries stay selected
and out of the loop. The loop, its settle blocks, carried start, victim
block and drift guard run over the candidates, the other held entries and
the batch, kept in pool order, so the lowest-index tie rule and the logged
pool indices are unchanged. The far entries enter in three places:
  * each offered row's own sum and each victim's drift probe gain the row's
    terms against them, x.(sum of far rows)/2;
  * the drift guard's recompute sums each held candidate over every
    selected row, far ones included, and recomputes the far entries' sums;
  * at the end each far entry's sum takes one fold, e.(sum of rows selected
    since its sum was set, less rows deselected)/2, which without a
    recompute is the kept offered rows less the memory victims.
The closed forms are kernels.term_sums, O(z) per row against a whole set,
and they need terms linear in y: far entries exist only under AffineCosine
on a pool the push leaves unclipped. Under ExponentialTemp, on a clipped
pool, or when no sum lies that far below T, every held entry is a
candidate, and the push computes the bytes described above. On filter_duel
(4096 entries, batches of 64) a push runs over about 1800 held entries.

Every score block a push holds, cross, settle or victim block, is thus at
most b x (k+b), over its candidates; only the drift guard's recompute goes
_ROW_BLOCK rows at a time. A call costs O(b (k+b) z) instead of
O((k+b)^2 z), and the Python loop does its victim bookkeeping per kept row
only. Elements inserted earlier in the same call can be evicted for later
elements. verify.NaiveDuel replays the same pool from the full pool matrix
per replacement and must log the same evictions.

Drift. The per-call changes to the live scores accumulate in a zero-based
array that is folded into the cached sums once per call, so each cached sum
takes one rounding at its own magnitude per call rather than two per
replacement; a far entry's fold rounds once per call too. That rounding, at
magnitude k/2, still accumulates: at k = 4096, batches of 64 and a dominant
clustered stream with a tenth of rows repeated, the largest |cache -
recompute| grew about as the square root of the pushes, 2.1e-11 after 3k
pushes and 1.5e-10 after 150k. The victim's row is computed exactly anyway,
so its masked sum probes the cache for free: when it differs from the
cached value by more than _DRIFT_TOL, the live scores are recomputed
exactly before the choice is made. Settled rows never touch the zero-based
array, so they add no rounding.

A memory's policy is fixed when it is built. The baseline policies (fifo,
random, reservoir) read no scores, so their appends and pushes only write
slots and mark the cache stale. A DUEL memory never goes stale: its appends
below capacity extend the cache, held rows gaining their sums against the
appended rows, which get theirs exactly, and its pushes read the cache as it
is, so DUEL appends never meet a stale cache. Every other reader of the
cache (scores, snapshot_csv, state_dict, duel_select_by_score) first
recomputes a stale cache from scratch, _ROW_BLOCK rows at a time.
mean_distinctiveness over the memory's own entries makes that same recompute
whatever the cache holds, and keeps it as the cache when the cache is stale,
so the next reader finds it fresh.

Eviction-log coordinates: a push returns one PushResult, whose victims
array holds, per accepted item, the displaced entry's index: for DUEL its
index in the combined pool (entry order at call start, then batch order),
for the baseline policies the slot they overwrite in place, and -1 for an
append below capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import AffineCosine, Kernel, pair_scores, pair_terms, term_sums
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
    "rng_from_state",
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
# grows about as the square root of the pushes: at k = 4096, 2.1e-11 after
# 3k pushes and 1.5e-10 after 150k. Real faults are far larger.
_DRIFT_TOL = 1e-10

# Rows per block when scores are summed over the whole memory, so that no
# k x k matrix is ever live. 128 rows of 4096 (4 MB) also lift glibc's mmap
# threshold above a 64 x 4160 push block; at 64, pushes took twice as long.
_ROW_BLOCK = 128

# A held entry whose cached sum is more than 2b plus this below the (b+1)-th
# largest cannot be picked in a push of b rows (see the module docstring's
# "Candidates"). It covers the unclipped terms' 3e-15 excess over their
# range, summation noise and the 1e-9 a loaded cache may be off, with room.
_REACH_MARGIN = 1e-6

# A DUEL push skips the affine kernel's cosine clip when every pool row's
# squared norm is 1 within this: normalized float64 rows miss 1 by under
# 7e-16, and unclipped terms of such rows pass their range by at most 3e-15.
_UNIT_TOL = 4e-15


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
    and `inserted` its insert id. Iterating it yields one EvictionEvent per
    item, built as it is read.
    """

    __slots__ = ("victims", "inserted")

    def __init__(self, victims: np.ndarray, inserted: np.ndarray):
        self.victims = np.asarray(victims, dtype=np.int64)
        self.inserted = np.asarray(inserted, dtype=np.int64)

    def __len__(self) -> int:
        return self.victims.size

    def __iter__(self):
        for v, r in zip(self.victims.tolist(), self.inserted.tolist()):
            yield EvictionEvent(None if v < 0 else v, r)

    def __eq__(self, other) -> bool:
        if isinstance(other, PushResult):
            return np.array_equal(self.victims, other.victims) and np.array_equal(
                self.inserted, other.inserted
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"PushResult(victims={self.victims.tolist()}, inserted={self.inserted.tolist()})"


class ActiveMemory:
    """Fixed-capacity store of unit embeddings under one eviction policy,
    fixed at construction.

    Labels ride along for diagnostics only: kernels read embeddings alone,
    so no policy reads them.
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
        # Length of the last DUEL settle run that ended at a kept row: where
        # the next _push_duel opens its block ramp. It changes no result.
        self._settle_run = 0

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

    def _row_sums(self, X, Y) -> np.ndarray:
        """Row sums of q(X, Y), _ROW_BLOCK rows of X at a time, so that no
        len(X) x len(Y) matrix is ever live."""
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            out[rows] = pair_scores(X[rows], Y, self.kernel).sum(axis=1)
        return out

    def recomputed_scores(self) -> np.ndarray:
        """Row sums recomputed from scratch; the cache-coherence oracle."""
        E = self._emb[: self._count]
        return self._row_sums(E, E)

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
        if not np.isfinite(X).all():
            raise ValueError("batch contains non-finite values")
        norms = np.sqrt(np.add.reduce(X * X, axis=1))  # np.linalg.norm's formula
        if not (np.abs(norms - 1.0) <= 1e-9).all():
            raise ValueError("batch embeddings must be unit-norm within 1e-9")
        if labels is None:
            lab = np.full(X.shape[0], UNLABELED, dtype=np.int64)
        else:
            lab = np.asarray(labels, dtype=np.int64).reshape(-1)
            if lab.shape[0] != X.shape[0]:
                raise ValueError("labels must align with the batch")

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
        """Fill free slots with X. A DUEL memory gives every row its sum
        over the new contents: held rows gain their sums against X, appended
        rows get theirs exactly. That is O(m n z) for m rows into n, so
        filling in small batches costs O(n^2 z) in total rather than
        O(n^3 z). A baseline memory reads no scores, so it marks the cache
        stale instead."""
        c0, m = self._count, X.shape[0]
        c1 = c0 + m
        self._emb[c0:c1] = X
        self._labels[c0:c1] = lab
        self._steps[c0:c1] = self._seen + np.arange(m)
        self._count, self._seen = c1, self._seen + m
        if self._policy != "duel":
            self._stale = True
            return
        E = self._emb[:c1]
        self._scores[:c0] += self._row_sums(E[:c0], E[c0:])
        self._scores[c0:c1] = self._row_sums(E[c0:], E)

    def _compact(self, selection, emb, labels, ids, live_scores) -> None:
        """Write the selected pool rows into the memory's arrays, in order.

        np.take with an out array writes there directly in "clip" mode; in
        its default "raise" mode, which np.compress uses, it fills a copy of
        out first. The indices are in range, so clipping changes none.
        """
        keep = np.flatnonzero(selection)
        n = self._count = keep.size
        for pooled, held in (
            (emb, self._emb),
            (labels, self._labels),
            (ids, self._steps),
            (live_scores, self._scores),
        ):
            np.take(pooled, keep, axis=0, out=held[:n], mode="clip")

    def _push_duel(self, X: np.ndarray, lab: np.ndarray) -> PushResult:
        n_held, b = self._count, X.shape[0]
        pool = np.vstack([self._emb[:n_held], X])
        labels = np.concatenate([self._labels[:n_held], lab])
        ids = np.concatenate(
            [self._steps[:n_held], self._seen + np.arange(b, dtype=np.int64)]
        )
        # The push adds up pair_terms, q less the kernel's constant c, so
        # every score it compares is c k below a sum of k scores (see the
        # module docstring). The terms go unclipped on a unit pool.
        c = self.kernel.constant
        clip = np.abs(np.vecdot(pool, pool) - 1.0).max() > _UNIT_TOL
        # Candidates (see the module docstring): the loop runs over cand, the
        # held entries that can still be picked and then the batch, in pool
        # order, at the pool indices `at`. The far entries stay selected, and
        # their terms enter every candidate's sum through `fixed`.
        cached = self._scores[:n_held]
        far = None
        if self.kernel.linear and not clip and n_held > b + 1:
            reach = np.partition(cached, n_held - b - 1)[n_held - b - 1]
            far = cached < reach - 2 * b - _REACH_MARGIN
        if far is None or not far.any():
            at, cand, near_sums, far_rows = None, pool, cached, pool[:0]
            fixed = np.zeros(n_held + b)
        else:
            at = np.concatenate([np.flatnonzero(~far), np.arange(n_held, n_held + b)])
            cand, near_sums = pool[at], cached[~far]
            far_rows, far_sums = pool[:n_held][far], cached[far]
            fixed = term_sums(cand, far_rows, self.kernel)
        k = cand.shape[0] - b
        # Row i - k of the b x (k+b) cross block is row i of the candidates'
        # term matrix, for batch entry i.
        cross = pair_terms(X, cand, self.kernel, clip)
        # Memory entries picked so far, and the victim block (see the module
        # docstring): the rows of the likely memory victims, built at the
        # second, with each entry's position in it.
        picked = 0
        likely: dict[int, int] = {}
        victim_block = None

        def row(j: int) -> np.ndarray:
            nonlocal victim_block
            if j >= k:
                return cross[j - k]
            if j in likely:
                return victim_block[likely[j]]
            if picked and not likely:
                # The w selected memory entries with the largest live scores,
                # j among them; w covers a memory pick for every row still
                # to offer. i is the row about to be offered.
                w = min(k + b - i, k - picked)
                ranked = live[:k].copy()
                ranked[j] = np.inf
                rows = np.argpartition(ranked, k - w)[k - w :]
                victim_block = pair_terms(cand[rows], cand, self.kernel, clip)
                likely.update(zip(rows.tolist(), range(w)))
                return victim_block[likely[j]]
            return pair_terms(cand[j : j + 1], cand, self.kernel, clip)[0]

        # Deselected rows hold -inf in base, so the live scores need no mask:
        # delta takes whole rows, which is exact on the selected rows, and a
        # row's delta restarts at 0 when it is selected. sel is the selection
        # as 1.0 / 0.0, so a masked row sum is one dot product; ref is the
        # selection the far entries' sums are over.
        sel = np.concatenate([np.ones(k), np.zeros(b)])
        ref = sel.copy()
        base = np.concatenate([near_sums - c * n_held, np.full(b, -np.inf)])
        delta = np.zeros(k + b)  # this call's changes, folded in at the end
        spare = np.empty(k + b)  # delta with the offered row added
        live = base.copy()
        # The index of the first maximum of live, and that maximum.
        first = int(live.argmax())
        top = live[first]
        tied = np.empty(k + b, dtype=bool)
        # Rows whose self score is MAX_SCORE within 1e-12 are credited
        # MAX_SCORE and may settle, unless they are the batch's last; any
        # other row is credited its own, so its drift probe passes. Each is
        # also credited its terms against the far entries.
        own_max = MAX_SCORE - c
        diag = np.diagonal(cross, offset=k)
        exact = np.abs(diag - own_max) <= 1e-12
        self_credit = (np.where(exact, own_max, diag) + fixed[k:]).tolist()
        settles = exact.tolist()
        settles[-1] = False
        victims = []
        run = 0  # rows settled since the last kept row; blocks from 3 on
        # The first offer is a block as long as the previous call's last run,
        # when that run was long enough to be offered in blocks.
        opening = self._settle_run if self._settle_run >= 3 else 0
        i = k
        while i < k + b:
            if run == 0:
                # _tied_argmax without its allocations: rows after the first
                # maximum cannot win a tie.
                ahead = slice(0, first + 1)
                j = int(np.greater_equal(live[ahead], top - _TIE_TOL, out=tied[ahead]).argmax())
                r = row(j)
                # r @ sel + fixed[j] is j's exact row sum, a free probe of
                # the cache.
                if abs(r @ sel + fixed[j] - live[j]) > _DRIFT_TOL:
                    held = np.flatnonzero(sel)
                    selected = np.vstack([cand[held], far_rows])
                    sums = self._row_sums(selected, selected)
                    base.fill(-np.inf)
                    base[held] = sums[: held.size] - c * n_held
                    far_sums, ref = sums[held.size :], sel.copy()
                    delta.fill(0.0)
                    j = _tied_argmax(base)
                    r = row(j)
                delta -= r
                sel[j] = 0.0
                base[j] = -np.inf
                victims.append(j)
                picked += j < k
            if run < 3 and not opening:
                t = cross[i - k]
                np.add(delta, t, out=spare)
                # Row i is still at -inf in base, so top is over the other rows.
                np.add(base, spare, out=live)
                first = int(live.argmax())
                top = live[first]
                own = t @ sel + self_credit[i - k]
                if settles[i - k] and top < own - _TIE_TOL:
                    victims.append(i)
                    run, i = run + 1, i + 1
                    continue
            else:
                # A settle block (see the module docstring): each row gets
                # the sums, maximum and masked sum it would get on its own.
                a = i - k
                n = min(max(run, opening), b - a)
                opening = 0
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
                first = int(live.argmax())
            delta, spare = spare, delta
            base[i] = own
            delta[i] = 0.0
            live[i] = own
            sel[i] = 1.0
            if own > top:
                first, top = i, own
            self._settle_run, run, i = run, 0, i + 1
        scores = np.add(base, delta, out=base)
        scores += c * n_held
        if at is not None:
            # Back to pool order. The far entries stayed selected; each sum
            # gains the rows selected since ref and loses those deselected.
            folded = far_sums + term_sums(far_rows, cand, self.kernel, sel - ref)
            near_sel, near_scores = sel, scores
            sel = np.concatenate([far.astype(np.float64), np.zeros(b)])
            scores = np.empty(n_held + b)
            sel[at], scores[at] = near_sel, near_scores
            scores[:n_held][far] = folded
            victims = at[victims]
        self._compact(sel, pool, labels, ids, live_scores=scores)
        self._seen += b
        return PushResult(victims, ids[n_held:])

    def _push_fifo(self, X: np.ndarray, lab: np.ndarray) -> PushResult:
        # Each replacement takes the oldest slot and makes it the newest, so
        # the victims cycle through the slots from oldest to newest. Insert
        # ids lie below _seen, and a stable sort breaks ties by lowest index
        # as argmin does.
        n, b = self._count, X.shape[0]
        victims = np.argsort(self._steps[:n], kind="stable")[np.arange(b) % n]
        return self._overwrite(victims, np.arange(b), X, lab)

    def _push_random(self, X: np.ndarray, lab: np.ndarray) -> PushResult:
        b = X.shape[0]
        victims = self.rng.integers(self._count, size=b)
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

    def mean_distinctiveness(self, probe_embeddings: np.ndarray | None = None) -> float:
        """Mean -log(mean duplication score against memory) over the probe.

        Defaults to probing with the memory's own entries. Their row sums are
        recomputed exactly rather than read from the cache, whose DUEL sums
        carry summation noise; a stale cache keeps the recompute.
        """
        if self._count == 0:
            raise ValueError("memory is empty")
        if probe_embeddings is None:
            sums = self._refresh_scores() if self._stale else self.recomputed_scores()
        else:
            sums = self._row_sums(
                np.asarray(probe_embeddings, dtype=np.float64), self._emb[: self._count]
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
        A ValueError's message starts with the state key it rejects.
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
        exact = self._row_sums(emb[:count], emb[:count])
        if not np.all(np.abs(scores[:count] - exact) <= 1e-9):
            raise ValueError("scores: cached row sums differ from a recompute by > 1e-9")
        rng_from_state(state["rng"], "rng")
        self._restore({**state, "emb": emb, "labels": labels, "steps": steps, "scores": scores})

    def _restore(self, state: dict, stale: bool = False) -> None:
        """Adopt a saved state as it is; for snapshots this memory took
        itself. `stale` is the memory's stale flag when it was saved."""
        self._emb, self._labels = state["emb"], state["labels"]
        self._steps, self._scores = state["steps"], state["scores"]
        self._count, self._seen = int(state["count"]), int(state["seen"])
        self.rng.bit_generator.state = state["rng"]
        self._stale = stale


def rng_from_state(state, field: str) -> np.random.Generator:
    """A new generator set to a saved bit_generator state; a malformed state
    raises a ValueError naming field and changes nothing else."""
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, OverflowError, ValueError) as exc:
        raise ValueError(f"{field}: invalid generator state ({exc!r})") from exc
    return rng


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
    before = mem.mean_distinctiveness(probe_embeddings)
    # _save, not state_dict: a revert needs no fresh scores.
    saved, stale = mem._save(), mem._stale
    events = mem.push_batch(embeddings, labels)
    after = mem.mean_distinctiveness(probe_embeddings)
    if after < before - 1e-12:
        mem._restore(saved, stale)
        return events, False
    return events, True
