"""Reference computations the benchmark checks the program against.

Written from the definitions, not from duelmem's code. All workloads use
the affine kernel q(a, b) = (1 + a.b) / 2 on unit vectors, so the row sum
of q over a set E (self pair included) has the closed form

    sum_j q(e_i, e_j) = (|E| + e_i . sum_j e_j) / 2,

which costs O(|E| z) instead of the program's O(|E|^2 z) and sums in a
different order.
"""

from __future__ import annotations

import numpy as np

TIE_TOL = 1e-9


def affine_row_sums(E: np.ndarray) -> np.ndarray:
    return (E.shape[0] + E @ E.sum(axis=0)) / 2.0


def entropy(labels: np.ndarray) -> float:
    """Shannon entropy (nats) of the empirical label distribution."""
    counts = np.bincount(np.asarray(labels, dtype=np.int64))
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def profile_entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    return float(-(p * np.log(p)).sum())


def replay_duel(E0: np.ndarray, batches: list[np.ndarray]):
    """Victims of the DUEL rule over a sequence of pushes into a full memory.

    For each incoming row, in order: among the entries currently held
    (earlier rows of the same push included), evict the one with the
    largest row sum of q over the held set, taking the lowest index in the
    push's pool (memory at push start, then the batch) among entries within
    TIE_TOL of the largest; then hold the incoming row. Returns the victims
    per push, the held embeddings after the last push, and how many
    evictions had more than one entry tied for the largest row sum.
    """
    held = E0
    victims: list[list[int]] = []
    ties = 0
    for batch in batches:
        pool = np.vstack([held, batch])
        k = held.shape[0]
        sel = np.zeros(pool.shape[0], dtype=bool)
        sel[:k] = True
        out = []
        for i in range(k, pool.shape[0]):
            idx = np.flatnonzero(sel)
            sums = affine_row_sums(pool[idx])
            tied = np.flatnonzero(sums >= sums.max() - TIE_TOL)
            ties += int(tied.size > 1)
            j = int(idx[tied[0]])
            out.append(j)
            sel[j] = False
            sel[i] = True
        victims.append(out)
        held = pool[sel]
    return victims, held, ties
