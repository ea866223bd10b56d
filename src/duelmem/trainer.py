"""Contrastive trainer with manual analytic gradients.

The feature extractor is a linear map or a one-hidden-layer tanh network
whose output is projected onto the unit sphere. Training minimizes an
InfoNCE objective with a tunable positive-term weight epsilon in the
denominator:

    L = -log( e^{s+/tau} / (epsilon * e^{s+/tau} + sum_k e^{s_k/tau}) )

Negatives come from the batch (the other anchors), from the memory
(stop-gradient constants), or both. All gradients are closed-form,
including the unit-sphere projection Jacobian (I - z z^T)/|u|, and are
validated against central finite differences by `duelmem verify`.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .memory import ActiveMemory, PushResult, guarded_update

__all__ = [
    "FeatureExtractor",
    "FlatParams",
    "NEGATIVE_SOURCES",
    "StepReport",
    "TrainState",
    "TrainerConfig",
    "adam_step",
    "batched_infonce",
    "cosine_lr",
    "infonce_grad",
    "momentum_update",
    "train_step",
]

NEGATIVE_SOURCES = ("batch_only", "memory_only", "mixed")


@dataclass
class TrainerConfig:
    batch_size: int = 64
    tau: float = 0.5
    epsilon: float = 1.0
    negative_source: str = "mixed"
    memory_neg_count: int = 128
    momentum: float | None = 0.9
    lr: float = 0.01
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    delta: float = 1e-8
    steps: int = 800
    d_out: int = 16
    hidden: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size: must be >= 1")
        if self.d_out < 1:
            raise ValueError("d_out: must be >= 1")
        if self.hidden is not None and self.hidden < 1:
            raise ValueError("hidden: must be >= 1 when given")
        if self.negative_source not in NEGATIVE_SOURCES:
            raise ValueError(f"negative_source: must be one of {NEGATIVE_SOURCES}")
        if self.negative_source != "memory_only" and self.batch_size < 2:
            raise ValueError("batch_size: must be >= 2 for batch negatives")
        if not self.tau > 0:
            raise ValueError("tau: must be > 0")
        if not 0 <= self.epsilon <= 1:
            raise ValueError("epsilon: must lie in [0, 1]")
        if self.negative_source != "batch_only" and self.memory_neg_count < 1:
            raise ValueError("memory_neg_count: must be >= 1")
        if self.momentum is not None and not 0 <= self.momentum < 1:
            raise ValueError("momentum: must lie in [0, 1) or be None")
        if self.lr < 0:
            raise ValueError("lr: must be >= 0")
        if self.optimizer != "adam":
            raise ValueError("optimizer: must be 'adam'")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name}: must lie in [0, 1)")
        if not self.delta > 0:
            raise ValueError("delta: must be > 0")
        if self.steps < 1:
            raise ValueError("steps: must be >= 1")


class FlatParams(Mapping):
    """Named float64 arrays held as reshaped views into one contiguous
    buffer, `flat`, so one numpy call updates all of them.

    Item assignment copies into the existing view and refuses another shape,
    so no array ever leaves the buffer. Elementwise arithmetic on `flat`
    gives each element the bytes it gets array by array.
    """

    __slots__ = ("flat", "_views")

    def __init__(self, shapes: dict, flat: np.ndarray | None = None):
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        self._views = {}
        start = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self._views[name] = self.flat[start : start + size].reshape(shape)
            start += size

    @classmethod
    def of(cls, arrays: dict) -> "FlatParams":
        """A FlatParams holding copies of arrays, laid out in their order."""
        params = cls({name: np.shape(value) for name, value in arrays.items()})
        for name, value in arrays.items():
            params[name] = value
        return params

    @property
    def shapes(self) -> dict:
        return {name: view.shape for name, view in self._views.items()}

    def zeros_like(self) -> "FlatParams":
        return FlatParams(self.shapes)

    def empty_like(self) -> "FlatParams":
        return FlatParams(self.shapes, np.empty_like(self.flat))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        view = self._views[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise ValueError(f"{name}: expected shape {view.shape}, got {value.shape}")
        view[...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


class FeatureExtractor:
    """x -> g(x)/|g(x)| with g affine or affine-tanh-affine.

    params is a FlatParams, so the parameters share one buffer; backward
    returns its gradients in a buffer of the same layout.
    """

    def __init__(self, d_in: int, d_out: int, hidden: int | None = None, seed: int = 0):
        if d_in < 1 or d_out < 1:
            raise ValueError("d_in and d_out must be >= 1")
        if hidden is not None and hidden < 1:
            raise ValueError("hidden must be >= 1 when given")
        self.d_in = d_in
        self.d_out = d_out
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        if hidden is None:
            self.params = FlatParams.of({
                "W": rng.normal(0.0, 1.0 / math.sqrt(d_in), (d_out, d_in)),
                "b": np.zeros(d_out),
            })
        else:
            self.params = FlatParams.of({
                "W1": rng.normal(0.0, 1.0 / math.sqrt(d_in), (hidden, d_in)),
                "b1": np.zeros(hidden),
                "W2": rng.normal(0.0, 1.0 / math.sqrt(hidden), (d_out, hidden)),
                "b2": np.zeros(d_out),
            })

    def clone(self) -> "FeatureExtractor":
        twin = copy.copy(self)
        twin.params = FlatParams(self.params.shapes, self.params.flat.copy())
        return twin

    def forward_cached(self, X: np.ndarray):
        # Adds, tanh and the division run in place on the matmul outputs.
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        p = self.params
        if self.hidden is None:
            U = X @ p["W"].T
            U += p["b"]
            H = None
        else:
            H = X @ p["W1"].T
            H += p["b1"]
            np.tanh(H, out=H)
            U = H @ p["W2"].T
            U += p["b2"]
        # np.linalg.norm's own formula for real rows, without its copies.
        norms = np.sqrt(np.add.reduce(U * U, axis=1, keepdims=True))
        if np.any(norms == 0.0):
            raise ValueError("extractor produced a zero vector; cannot normalize")
        U /= norms
        return U, {"X": X, "H": H, "Z": U, "norms": norms}

    def forward(self, X: np.ndarray) -> np.ndarray:
        return self.forward_cached(X)[0]

    def backward(self, cache: dict, dZ: np.ndarray) -> FlatParams:
        """Gradients of a scalar loss given dL/dZ at the cached forward."""
        Z, norms, X = cache["Z"], cache["norms"], cache["X"]
        grads = self.params.empty_like()
        # Unit-sphere projection: dU = (dZ - (z . dZ) z) / |u| per row.
        dU = (Z * dZ).sum(axis=1, keepdims=True) * Z
        np.subtract(dZ, dU, out=dU)
        dU /= norms
        if self.hidden is None:
            np.matmul(dU.T, X, out=grads["W"])
            np.add.reduce(dU, axis=0, out=grads["b"])
            return grads
        H = cache["H"]
        dA = dU @ self.params["W2"]
        tanh_grad = H * H
        np.subtract(1.0, tanh_grad, out=tanh_grad)
        dA *= tanh_grad
        np.matmul(dA.T, X, out=grads["W1"])
        np.add.reduce(dA, axis=0, out=grads["b1"])
        np.matmul(dU.T, H, out=grads["W2"])
        np.add.reduce(dU, axis=0, out=grads["b2"])
        return grads


def momentum_update(key_params: FlatParams, query_params: FlatParams, m: float) -> None:
    """key <- m * key + (1 - m) * query, in place, as one blend of the two
    buffers. m=1 leaves key frozen."""
    if not 0 <= m <= 1:
        raise ValueError("momentum must lie in [0, 1]")
    if key_params.shapes != query_params.shapes:
        raise ValueError("key and query parameters must have the same layout")
    key_params.flat *= m
    key_params.flat += (1.0 - m) * query_params.flat


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at step 0 to 0 at step = total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError("step must lie in [0, total_steps]")
    return lr0 * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


def batched_infonce(
    Z: np.ndarray,
    P: np.ndarray,
    mem_negs: np.ndarray | None,
    tau: float,
    epsilon: float,
    source: str,
    positives_trainable: bool,
):
    """Mean loss over the batch plus gradients w.r.t. Z (and P if trainable).

    Batch negatives for anchor i are the other anchors Z[j != i]; their
    gradient contributions flow both through anchor i's loss and through
    every loss where Z[i] itself served as a negative. Memory negatives are
    constants.
    """
    B = Z.shape[0]
    if source not in NEGATIVE_SOURCES:
        raise ValueError(f"unknown negative source {source!r}")
    use_batch = source in ("batch_only", "mixed")
    use_mem = source in ("memory_only", "mixed")
    if use_batch and B < 2:
        raise ValueError("batch negatives need at least 2 anchors")
    if use_mem and (mem_negs is None or mem_negs.shape[0] == 0):
        raise ValueError("memory negatives requested but none provided")

    # The divide, shift, exp and weight normalisation run in place on the
    # logit matrices the matmuls allocate; each element takes the same
    # operations in the same order as with fresh arrays.
    lp = (Z * P).sum(axis=1) / tau
    m = lp.copy() if epsilon > 0 else np.full(B, -np.inf)
    Eb = Em = None
    if use_batch:
        Eb = Z @ Z.T
        Eb /= tau
        np.fill_diagonal(Eb, -np.inf)
        np.maximum(m, Eb.max(axis=1), out=m)
    if use_mem:
        Em = Z @ mem_negs.T
        Em /= tau
        np.maximum(m, Em.max(axis=1), out=m)

    denom = np.zeros(B)
    Ep = np.exp(lp - m)
    if epsilon > 0:
        denom += epsilon * Ep
    for E in (Eb, Em):
        if E is not None:
            E -= m[:, None]
            np.exp(E, out=E)
            denom += E.sum(axis=1)

    losses = -lp + m + np.log(denom)
    loss = float(losses.mean())

    scale = 1.0 / (B * tau)
    w_pos = (epsilon * Ep / denom) - 1.0
    dZ = scale * w_pos[:, None] * P
    if use_batch:
        Eb /= denom[:, None]
        dZ += scale * (Eb @ Z + Eb.T @ Z)
    if use_mem:
        Em /= denom[:, None]
        dZ += scale * (Em @ mem_negs)
    dP = scale * w_pos[:, None] * Z if positives_trainable else None
    return loss, dZ, dP


@dataclass
class StepReport:
    step: int
    loss: float
    lr: float
    events: PushResult
    memory_update_applied: bool = True


@dataclass
class TrainState:
    config: TrainerConfig
    extractor: FeatureExtractor
    key_extractor: FeatureExtractor | None
    memory: ActiveMemory
    rng: np.random.Generator
    adam_m: FlatParams
    adam_v: FlatParams
    step: int = 0
    guarded_memory: bool = False

    @classmethod
    def create(
        cls,
        config: TrainerConfig,
        extractor: FeatureExtractor,
        memory: ActiveMemory,
        guarded_memory: bool = False,
        seed: int = 0,
    ) -> "TrainState":
        """A step-0 state whose negative sampling is seeded with seed."""
        return cls(
            config=config,
            extractor=extractor,
            key_extractor=extractor.clone() if config.momentum is not None else None,
            memory=memory,
            rng=np.random.default_rng(seed),
            adam_m=extractor.params.zeros_like(),
            adam_v=extractor.params.zeros_like(),
            guarded_memory=guarded_memory,
        )


def adam_step(
    param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
    t: int, lr: float, beta1: float, beta2: float, eps: float,
) -> None:
    """One Adam update of param, in place. m and v, the first and second
    moments, are updated in place too; t counts updates from 1."""
    m *= beta1
    m += (1 - beta1) * grad
    v *= beta2
    v += (1 - beta2) * grad**2
    param -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)


def infonce_grad(
    extractor: FeatureExtractor,
    X: np.ndarray,
    X_pos: np.ndarray,
    negatives: np.ndarray | None,
    config: TrainerConfig,
    key_extractor: FeatureExtractor | None = None,
) -> tuple[float, FlatParams, np.ndarray]:
    """Mean InfoNCE loss over the batch, its gradient w.r.t. extractor
    parameters, and the embeddings of X to push into memory.

    negatives are memory embeddings and act as constants (stop-gradient).
    Positives contribute gradients only when key_extractor is None, i.e.
    when they are embedded by the trainable extractor itself; otherwise the
    key extractor embeds the positives and the pushed embeddings.
    """
    Z, cache_a = extractor.forward_cached(X)
    args = (negatives, config.tau, config.epsilon, config.negative_source)
    if key_extractor is not None:
        P = key_extractor.forward(X_pos)
        push_emb = key_extractor.forward(X)
        loss, dZ, _ = batched_infonce(Z, P, *args, positives_trainable=False)
        grads = extractor.backward(cache_a, dZ)
    else:
        P, cache_p = extractor.forward_cached(X_pos)
        push_emb = Z
        loss, dZ, dP = batched_infonce(Z, P, *args, positives_trainable=True)
        grads = extractor.backward(cache_a, dZ)
        grads.flat += extractor.backward(cache_p, dP).flat
    return loss, grads, push_emb


def train_step(
    state: TrainState,
    X: np.ndarray,
    X_pos: np.ndarray,
    labels: np.ndarray | None = None,
) -> StepReport:
    """One optimization step plus the memory update for this batch.

    Anchors are embedded by the query extractor; positives, and the
    embeddings pushed into memory, go through the key extractor when
    momentum is configured. Pushed embeddings are the ones computed in this
    forward pass, before the parameter updates.
    """
    cfg = state.config
    lr = cosine_lr(state.step, cfg.steps, cfg.lr)

    mem_negs = None
    if cfg.negative_source in ("memory_only", "mixed"):
        mem_negs = state.memory.sample_negatives(cfg.memory_neg_count, state.rng)

    loss, grads, push_emb = infonce_grad(
        state.extractor, X, X_pos, mem_negs, cfg, state.key_extractor
    )
    # One Adam step over the whole flat buffer: the update is elementwise,
    # so each parameter gets the bytes a per-array step would give it.
    adam_step(
        state.extractor.params.flat, grads.flat, state.adam_m.flat, state.adam_v.flat,
        state.step + 1, lr, cfg.beta1, cfg.beta2, cfg.delta,
    )
    if state.key_extractor is not None:
        momentum_update(state.key_extractor.params, state.extractor.params, cfg.momentum)

    applied = True
    if state.guarded_memory:
        events, applied = guarded_update(state.memory, push_emb, labels, push_emb)
    else:
        events = state.memory.push_batch(push_emb, labels)

    state.step += 1
    return StepReport(state.step, loss, lr, events, applied)

