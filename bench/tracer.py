"""Span tracer for the traced benchmark mode.

Wraps public duelmem functions at the names their callers look up (module
globals for functions, class attributes for methods), keeps one span per
call in memory, and derives per-layer figures from the spans once the
round is over. Nothing in the package is edited; `install` patches
attributes and returns a function that puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _evictions(events) -> int:
    return sum(e.evicted is not None for e in events)


def _entries(scores) -> int:
    return scores.size


# (module, attribute path in that module, span name, count taken from the result)
TARGETS = (
    ("duelmem.harness", "run_experiment", "harness.run_experiment", None),
    ("duelmem.harness", "train_step", "trainer.train_step", None),
    ("duelmem.harness", "class_entropy", "metrics.class_entropy", None),
    ("duelmem.harness", "intra_class_variance", "metrics.intra_class_variance", None),
    ("duelmem.harness", "inter_class_similarity", "metrics.inter_class_similarity", None),
    ("duelmem.harness", "dominant_fraction", "metrics.dominant_fraction", None),
    ("duelmem.harness", "linear_probe", "metrics.linear_probe", None),
    ("duelmem.harness", "write_metrics_csv", "metrics.write_metrics_csv", None),
    ("duelmem.harness", "save_checkpoint", "trainer.save_checkpoint", None),
    ("duelmem.streams", "GaussianPairStream.sample_batch", "streams.sample_batch", None),
    ("duelmem.trainer", "FeatureExtractor.forward_cached", "trainer.forward", None),
    ("duelmem.trainer", "FeatureExtractor.backward", "trainer.backward", None),
    ("duelmem.trainer", "batched_infonce", "trainer.batched_infonce", None),
    ("duelmem.trainer", "momentum_update", "trainer.momentum_update", None),
    ("duelmem.trainer", "guarded_update", "memory.guarded_update", None),
    ("duelmem.memory", "ActiveMemory.push_batch", "memory.push_batch", _evictions),
    ("duelmem.memory", "ActiveMemory.sample_negatives", "memory.sample_negatives", None),
    ("duelmem.memory", "ActiveMemory.mean_distinctiveness", "memory.mean_distinctiveness", None),
    ("duelmem.memory", "ActiveMemory.snapshot_csv", "memory.snapshot_csv", None),
    ("duelmem.memory", "self_scores", "kernels.self_scores", None),
    ("duelmem.memory", "pair_scores", "kernels.pair_scores", _entries),
    # self_scores reaches pair_scores through the kernels module's global.
    ("duelmem.kernels", "pair_scores", "kernels.pair_scores", _entries),
)

# Per-layer metrics: name -> unit. Times are ms per timed step (train_step
# or push_batch), summed over the round's timed region. run.py adds the last
# two, which come from the checks and from comparing rounds.
LAYER_UNITS = {
    "streams.sample_batch_ms": "ms/step",
    "trainer.forward_ms": "ms/step",
    "trainer.backward_ms": "ms/step",
    "trainer.infonce_ms": "ms/step",
    "trainer.momentum_ms": "ms/step",
    "trainer.step_self_ms": "ms/step",
    "memory.push_ms": "ms/step",
    "memory.push_self_ms": "ms/step",
    "memory.sample_negatives_ms": "ms/step",
    "memory.mean_distinctiveness_ms": "ms/step",
    "kernels.pair_scores_ms": "ms/step",
    "kernels.score_entries": "entries/step",
    "metrics.eval_ms": "ms/step",
    "metrics.probe_ms": "ms/step",
    "harness.io_ms": "ms/step",
    "memory.evictions": "count",
    "memory.score_drift": "q",
    "trace.overhead_pct": "%",
}

EVAL_SPANS = {
    "metrics.class_entropy",
    "metrics.intra_class_variance",
    "metrics.inter_class_similarity",
    "metrics.dominant_fraction",
}
IO_SPANS = {"metrics.write_metrics_csv", "trainer.save_checkpoint", "memory.snapshot_csv"}


class Tracer:
    """Keeps spans as [name, start, end, parent index, count] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(result)
            return result

        return traced

    def install(self):
        """Patch every target; returns a callable that restores them."""
        saved = []
        for module_name, path, span_name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, span_name, counter))

        def restore() -> None:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    def layers(self, t_start: float, t_end: float, steps: int) -> dict[str, float]:
        """Per-layer figures over spans that start inside [t_start, t_end]."""
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        under_step = [False] * n
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                under_step[i] = under_step[parent] or spans[parent][0] == "trainer.train_step"
        total = {name: 0.0 for name in list(LAYER_UNITS)[:-2]}

        def add(key: str, seconds: float) -> None:
            total[key] += seconds * 1e3 / steps

        for i, (name, start, end, parent, count) in enumerate(spans):
            if not t_start <= start <= t_end:
                continue
            dur = end - start
            if name == "streams.sample_batch":
                add("streams.sample_batch_ms", dur)
            elif name == "trainer.forward":
                add("trainer.forward_ms" if under_step[i] else "metrics.eval_ms", dur)
            elif name == "trainer.backward":
                add("trainer.backward_ms", dur)
            elif name == "trainer.batched_infonce":
                add("trainer.infonce_ms", dur)
            elif name == "trainer.momentum_update":
                add("trainer.momentum_ms", dur)
            elif name == "trainer.train_step":
                add("trainer.step_self_ms", dur - child_time[i])
            elif name == "memory.push_batch":
                add("memory.push_ms", dur)
                add("memory.push_self_ms", dur - child_time[i])
                total["memory.evictions"] += count
            elif name == "memory.sample_negatives":
                add("memory.sample_negatives_ms", dur)
            elif name == "memory.mean_distinctiveness":
                add("memory.mean_distinctiveness_ms", dur)
            elif name == "kernels.pair_scores":
                add("kernels.pair_scores_ms", dur)
                total["kernels.score_entries"] += count / steps
            elif name in EVAL_SPANS:
                add("metrics.eval_ms", dur)
            elif name == "metrics.linear_probe":
                add("metrics.probe_ms", dur)
            elif name in IO_SPANS and not under_step[i]:
                add("harness.io_ms", dur)
        return total

    def write(self, path) -> None:
        """One JSON object per span: name, start and end (s), parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "count": count}
                    )
                )
                fh.write("\n")
