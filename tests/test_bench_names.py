"""What the benchmark uses of the package must exist: the names its tracer
patches, the config fields its train workloads set, and a run loop that calls
the names they rebind."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from duelmem import harness
from duelmem.harness import parse_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name: str):
    """bench/<name>.py as a module, without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    tracer = _load(monkeypatch, "tracer")  # installs nothing
    for module_name, path, _, _ in tracer.TARGETS:
        # The lookup Tracer.install makes before it patches a name.
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{path}"


def test_train_configs_parse(monkeypatch):
    # child.py imports its oracle by plain name, from bench/ on sys.path.
    monkeypatch.syspath_prepend(str(BENCH))
    child = _load(monkeypatch, "child")
    for workload in child.TRAIN_STEPS:
        parse_config(child.train_config(workload))


def test_run_loop_calls_rebound_names(monkeypatch, tmp_path):
    # child.py times steps by rebinding harness.train_step, and the tracer
    # rebinds the others: the run loop must look each one up when it calls it.
    monkeypatch.syspath_prepend(str(BENCH))
    child = _load(monkeypatch, "child")
    calls = dict.fromkeys(("train_step", "linear_probe", "save_checkpoint"), 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    raw = child.train_config("train_duel")
    raw["trainer"]["steps"] = 6
    harness.run_experiment(parse_config(raw), 0, str(tmp_path))
    assert calls == {"train_step": 6, "linear_probe": 1, "save_checkpoint": 1}
