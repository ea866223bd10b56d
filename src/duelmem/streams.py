"""Synthetic class-imbalanced data streams and embedding-stream files.

Samples arrive in batches of pairs: draw a hidden class per pair from an
imbalance profile, draw x around the class mean, and produce a positive view
x+ by adding augmentation noise to x. A batch of n takes two generator calls,
the n classes first and then all of the batch's noise.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import normalize

__all__ = [
    "Dominant",
    "GaussianPairStream",
    "LongTail",
    "StreamConfig",
    "class_means",
    "csv_row",
    "load_embedding_stream",
    "longtail_probs",
    "oracle_embedding_stream",
    "write_embedding_csv",
]


@dataclass(frozen=True)
class Dominant:
    """One class takes rho_max; the rest share the remainder equally."""

    rho_max: float = 0.75

    def probs(self, n_classes: int) -> np.ndarray:
        if n_classes < 2:
            raise ValueError("dominant profile needs >= 2 classes")
        if not 1.0 / n_classes <= self.rho_max < 1.0:
            raise ValueError("rho_max must lie in [1/|C|, 1)")
        rho_min = (1.0 - self.rho_max) / (n_classes - 1)
        p = np.full(n_classes, rho_min)
        p[0] = self.rho_max
        return p


@dataclass(frozen=True)
class LongTail:
    """Geometric decay by class rank with head/tail frequency ratio."""

    ratio: float = 10.0

    def __post_init__(self) -> None:
        if not self.ratio >= 1:
            raise ValueError("ratio: must be >= 1")

    def probs(self, n_classes: int) -> np.ndarray:
        return longtail_probs(n_classes, self.ratio)


Imbalance = Dominant | LongTail


def longtail_probs(n_classes: int, ratio: float) -> np.ndarray:
    """p_c proportional to ratio^(-rank/(|C|-1)), so p_0/p_last = ratio."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if not ratio >= 1:
        raise ValueError("ratio must be >= 1")
    if n_classes == 1:
        return np.ones(1)
    ranks = np.arange(n_classes)
    raw = ratio ** (-ranks / (n_classes - 1))
    return raw / raw.sum()


@dataclass(frozen=True)
class StreamConfig:
    n_classes: int = 10
    d_in: int = 32
    separation: float = 1.0
    sigma: float = 0.35
    sigma_aug: float = 0.35
    imbalance: Imbalance = Dominant()

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("n_classes: must be >= 2")
        if self.d_in < 1:
            raise ValueError("d_in: must be >= 1")
        if not self.separation > 0:
            raise ValueError("separation: must be > 0")
        if self.sigma < 0:
            raise ValueError("sigma: must be >= 0")
        if self.sigma_aug < 0:
            raise ValueError("sigma_aug: must be >= 0")
        # A LongTail checks its ratio itself; the bounds of a dominant share
        # depend on the class count.
        if isinstance(self.imbalance, Dominant) and not (
            1.0 / self.n_classes <= self.imbalance.rho_max < 1.0
        ):
            raise ValueError("imbalance.rho_max: must lie in [1/n_classes, 1)")

    def probs(self) -> np.ndarray:
        return self.imbalance.probs(self.n_classes)


def class_means(cfg: StreamConfig, seed: int = 0) -> np.ndarray:
    """Class mean directions scaled by the separation radius; seed picks them.

    Orthonormal via QR when the ambient dimension allows it, otherwise
    independent random unit directions.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1A55]))
    raw = rng.normal(size=(cfg.d_in, cfg.n_classes))
    if cfg.d_in >= cfg.n_classes:
        q, r = np.linalg.qr(raw[:, : cfg.n_classes])
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q *= signs  # fix sign convention for determinism
        dirs = q.T
    else:
        dirs = normalize(raw.T[: cfg.n_classes])
    return cfg.separation * dirs


class GaussianPairStream:
    """Stateful sampler with cached class means and class probabilities.

    seed seeds the draws and means_seed the class means (see class_means).
    sample_batch(n) makes two generator calls: `rng.choice` of the n classes
    under the profile, then one `standard_normal((n, 2 * d_in))` whose first
    d_in columns are x's noise and last d_in columns x+'s augmentation noise.
    """

    def __init__(self, cfg: StreamConfig, seed: int = 0, means_seed: int = 0):
        self.cfg = cfg
        self.means = class_means(cfg, means_seed)
        self.probs = cfg.probs()
        self.rng = np.random.default_rng(seed)

    def sample_batch(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d = self.cfg.d_in
        labels = self.rng.choice(self.cfg.n_classes, size=n, p=self.probs)
        noise = self.rng.standard_normal((n, 2 * d))
        X = self.means[labels] + self.cfg.sigma * noise[:, :d]
        Xp = X + self.cfg.sigma_aug * noise[:, d:]
        return X, Xp, labels

    def sample_balanced(
        self, per_class: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluation set: per_class draws of x for every class."""
        labels = np.repeat(np.arange(self.cfg.n_classes), per_class)
        noise = rng.normal(size=(labels.size, self.cfg.d_in))
        return self.means[labels] + self.cfg.sigma * noise, labels


def oracle_embedding_stream(
    n_classes: int,
    rng: np.random.Generator,
    probs: np.ndarray | None = None,
    dim: int | None = None,
):
    """Yield (basis-vector embedding, label) pairs forever.

    Class c maps to the standard basis vector e_c, the embedding a perfect
    extractor would produce. dim defaults to n_classes and must be at least
    n_classes.
    """
    if dim is None:
        dim = n_classes
    if n_classes > dim:
        raise ValueError("n_classes must not exceed the embedding dimension")
    if probs is None:
        probs = np.full(n_classes, 1.0 / n_classes)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (n_classes,) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("probs must be a distribution over the classes")
    eye = np.eye(dim)
    while True:
        c = int(rng.choice(n_classes, p=probs))
        yield eye[c].copy(), c


# -- embedding-stream files ---------------------------------------------------

_NORM_SLACK = 1e-6


# Characters that make csv.writer's default dialect quote a cell.
_QUOTED = re.compile('[,"\r\n]')


def _csv_cell(cell) -> str:
    text = "" if cell is None else str(cell)
    if _QUOTED.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_row(lead, floats) -> str:
    """One CSV line: the `lead` cells, then each float through repr, ended
    by '\r\n'.

    For a row of two or more cells the bytes are those csv.writer's default
    dialect writes for `list(lead) + [repr(v) for v in floats]`: lead cells
    through str, None as an empty cell, quoted where they hold a comma, a
    quote or a line break. (A lone empty cell is the one row csv.writer
    writes differently, as '""'.) repr keeps nan, inf and -0.0 as they are.
    `floats` holds Python floats, as ndarray.tolist() gives them.
    """
    return ",".join([*map(_csv_cell, lead), *map(repr, floats)]) + "\r\n"


def write_embedding_csv(
    path,
    embeddings: np.ndarray,
    labels: np.ndarray | None = None,
    ids: np.ndarray | None = None,
) -> None:
    """Write `id,label,v_0..v_{z-1}` rows; empty label column if unlabeled."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n, z = embeddings.shape
    with open(path, "w", newline="") as fh:
        fh.write(csv_row(["id", "label"] + [f"v_{d}" for d in range(z)], []))
        for i in range(n):
            row_id = i if ids is None else ids[i]
            label = "" if labels is None else int(labels[i])
            fh.write(csv_row((row_id, label), embeddings[i].tolist()))


def load_embedding_stream(path) -> tuple[list, np.ndarray, np.ndarray]:
    """Read an embedding CSV back as (ids, labels, unit embeddings).

    Labels are -1 where the label cell is empty. Vectors are renormalized;
    a warning is emitted when a norm deviates from 1 by more than 1e-6.
    Malformed rows raise ValueError naming the line number.
    """
    ids: list = []
    labels: list[int] = []
    rows: list[np.ndarray] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        if header[:2] != ["id", "label"] or len(header) < 3:
            raise ValueError(f"{path}: line 1: malformed header {header!r}")
        z = len(header) - 2
        for line_no, row in enumerate(reader, start=2):
            if len(row) != z + 2:
                raise ValueError(
                    f"{path}: line {line_no}: expected {z + 2} fields, got {len(row)}"
                )
            try:
                vec = np.array([float(v) for v in row[2:]])
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: non-numeric vector entry")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{path}: line {line_no}: non-finite vector entry")
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise ValueError(f"{path}: line {line_no}: zero vector")
            if abs(norm - 1.0) > _NORM_SLACK:
                warnings.warn(
                    f"{path}: line {line_no}: norm {norm:.6g} deviates from 1; "
                    "renormalizing",
                    stacklevel=2,
                )
            try:
                label = int(row[1]) if row[1] != "" else -1
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: non-integer label {row[1]!r}")
            ids.append(row[0])
            labels.append(label)
            rows.append(vec / norm)
    if rows:
        emb = np.vstack(rows)
    else:
        emb = np.zeros((0, z))
    return ids, np.asarray(labels, dtype=np.int64), emb
