from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duelmem.harness as harness_module
from duelmem.cli import main
from duelmem.harness import (
    BENCH_FIELDS,
    CONFIG_VERSION,
    ConfigError,
    Run,
    bench_policies,
    default_config_dict,
    export_embeddings,
    load_checkpoint,
    parse_config,
    run_experiment,
)
from duelmem.metrics import MetricsRow
from duelmem.verify import check_harness_determinism


def tiny_config_dict(**overrides) -> dict:
    """A seconds-scale experiment: 6 steps, 3 classes, capacity 8."""
    raw = default_config_dict()
    raw["stream"].update(n_classes=3, d_in=6, imbalance={"kind": "dominant", "rho_max": 0.6})
    raw["trainer"].update(
        batch_size=4, steps=6, memory_neg_count=4, d_out=4, momentum=None
    )
    raw["memory"].update(capacity=8)
    raw["eval"].update(
        cadence=3,
        eval_per_class=6,
        probe_train_per_class=6,
        probe_test_per_class=6,
        probe_steps=25,
    )
    raw["seeds"] = [0, 1]
    for key, value in overrides.items():
        raw[key] = value
    return raw


# json.dumps(default_config_dict(), sort_keys=True): the bytes config.json is
# built from. A dict comparison cannot see an int/float drift (1 == 1.0).
DEFAULT_CONFIG_JSON = (
    '{"eval": {"cadence": 50, "eval_per_class": 40, "probe_steps": 200, '
    '"probe_test_per_class": 40, "probe_train_per_class": 40}, '
    '"memory": {"capacity": 256, "guarded": false, "kernel": {"form": "affine"}, '
    '"policy": "duel"}, "out_dir": "runs", "seeds": [0, 1, 2, 3, 4], '
    '"stream": {"d_in": 32, "imbalance": {"kind": "dominant", "rho_max": 0.75}, '
    '"n_classes": 10, "separation": 1.0, "sigma": 0.35, "sigma_aug": 0.35}, '
    '"trainer": {"batch_size": 64, "beta1": 0.9, "beta2": 0.999, "d_out": 16, '
    '"delta": 1e-08, "epsilon": 1.0, "hidden": null, "lr": 0.01, '
    '"memory_neg_count": 128, "momentum": 0.9, "negative_source": "mixed", '
    '"optimizer": "adam", "steps": 800, "tau": 0.5}, "version": 1}'
)

# Variant-only fields and the union each needs selected.
VARIANT_FIELDS = {
    "stream.imbalance.ratio": ("stream.imbalance", {"kind": "longtail", "ratio": 16.0}),
    "memory.kernel.tau": ("memory.kernel", {"form": "exp", "tau": 0.5}),
}


# An out-of-range value for fields of every section, each refused by the
# check in its own dataclass.
VALUE_FAULTS = {
    "memory.capacity": 0,
    "eval.cadence": 0,
    "seeds": [],
    "trainer.tau": 0.0,
    "stream.sigma": -1.0,
    "memory.kernel.tau": 0.0,
    "stream.imbalance.rho_max": 1.0,
    "stream.imbalance.ratio": 0.5,
    "stream.n_classes": 1,
}

# The variant a fault needs selected. Under the tiny config's dominant
# imbalance, one class is refused by the rho_max bound, not by n_classes.
FAULT_VARIANTS = {
    **VARIANT_FIELDS,
    "stream.n_classes": VARIANT_FIELDS["stream.imbalance.ratio"],
}


def config_field_paths() -> list[str]:
    """Dotted path of every field in the config, nested objects included."""
    paths = []

    def walk(section: dict, prefix: str) -> None:
        for key, value in section.items():
            paths.append(prefix + key)
            if isinstance(value, dict):
                walk(value, f"{prefix}{key}.")

    walk({k: v for k, v in default_config_dict().items() if k != "version"}, "")
    return paths + list(VARIANT_FIELDS)


def set_path(raw: dict, path: str, value):
    """Set raw at a dotted path to a copy of value, so no test writes into
    a shared variant; returns the value it replaces."""
    *outer, last = path.split(".")
    for key in outer:
        raw = raw[key]
    previous = raw.get(last)
    raw[last] = copy.deepcopy(value)
    return previous


def set_fault(raw: dict, path: str, value) -> None:
    """Set raw at a dotted path, first selecting the variant it needs."""
    if path in FAULT_VARIANTS:
        set_path(raw, *FAULT_VARIANTS[path])
    set_path(raw, path, value)


def names_exact_path(message: str, path: str) -> bool:
    # The exact path, then a colon: "stream.imbalance" must not be
    # satisfied by a message about "stream.imbalance.kind".
    return re.search(rf"(^| ){re.escape(path)}:", message) is not None


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_default_round_trips(self):
        raw = default_config_dict()
        assert parse_config(raw).to_dict() == raw

    def test_tiny_round_trips(self):
        raw = tiny_config_dict()
        assert parse_config(raw).to_dict() == raw

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_unknown_top_level_field(self):
        raw = tiny_config_dict(bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(raw)

    def test_unknown_nested_field_names_path(self):
        raw = tiny_config_dict()
        raw["stream"]["bogus"] = 1
        with pytest.raises(ConfigError, match=r"stream.*bogus"):
            parse_config(raw)

    def test_type_error_names_field(self):
        raw = tiny_config_dict()
        raw["trainer"]["batch_size"] = "many"
        with pytest.raises(ConfigError, match="trainer.batch_size"):
            parse_config(raw)

    def test_version_mismatch(self):
        raw = tiny_config_dict(version=CONFIG_VERSION + 1)
        with pytest.raises(ConfigError, match="version"):
            parse_config(raw)

    def test_seeds_must_be_distinct_ints(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(tiny_config_dict(seeds=[]))
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(tiny_config_dict(seeds=[0, "1"]))
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(tiny_config_dict(seeds=[3, 3]))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^seeds: must be >= 0, got -3$"):
            parse_config(tiny_config_dict(seeds=[0, -3]))

    @pytest.mark.parametrize(
        "field_name, value",
        [
            ("batch_size", 0),
            ("d_out", 0),
            ("hidden", 0),
            ("negative_source", "queue"),
            ("batch_size", 1),  # batch negatives need two anchors
            ("tau", 0.0),
            ("epsilon", 1.5),
            ("memory_neg_count", 0),
            ("momentum", 1.0),
            ("lr", -0.1),
            ("optimizer", "sgd"),
            ("beta1", 1.0),
            ("beta2", -0.5),
            ("delta", 0.0),
            ("steps", 0),
        ],
    )
    def test_trainer_rejection_names_field(self, field_name, value):
        raw = tiny_config_dict()
        raw["trainer"][field_name] = value
        with pytest.raises(ConfigError, match=rf"^trainer\.{field_name}: "):
            parse_config(raw)

    def test_kernel_forms(self):
        raw = tiny_config_dict()
        raw["memory"]["kernel"] = {"form": "exp", "tau": 0.5}
        cfg = parse_config(raw)
        assert cfg.memory.kernel.tau == 0.5

        raw["memory"]["kernel"] = {"form": "exp"}
        with pytest.raises(ConfigError, match="tau"):
            parse_config(raw)

        raw["memory"]["kernel"] = {"form": "affine", "tau": 0.5}
        with pytest.raises(ConfigError, match="kernel"):
            parse_config(raw)

        # No kernel reads labels, so there is no label-oracle form.
        raw["memory"]["kernel"] = {"form": "oracle"}
        with pytest.raises(ConfigError, match=r"^memory\.kernel\.form: "):
            parse_config(raw)

    def test_unknown_policy(self):
        for policy in ("lru", "duel_naive"):
            raw = tiny_config_dict()
            raw["memory"]["policy"] = policy
            with pytest.raises(ConfigError, match="policy"):
                parse_config(raw)

    def test_bad_imbalance_kind(self):
        raw = tiny_config_dict()
        raw["stream"]["imbalance"] = {"kind": "zipf", "ratio": 2.0}
        with pytest.raises(ConfigError, match="imbalance"):
            parse_config(raw)

    def test_longtail_parses(self):
        raw = tiny_config_dict()
        raw["stream"]["imbalance"] = {"kind": "longtail", "ratio": 16.0}
        cfg = parse_config(raw)
        assert cfg.stream.imbalance.ratio == 16.0

    def test_default_config_json_is_pinned(self):
        assert json.dumps(default_config_dict(), sort_keys=True) == DEFAULT_CONFIG_JSON

    @pytest.mark.parametrize("path", config_field_paths())
    def test_wrong_type_names_exact_path(self, path):
        raw = tiny_config_dict()
        if path in VARIANT_FIELDS:
            set_path(raw, *VARIANT_FIELDS[path])
        current = set_path(raw, path, None)
        set_path(raw, path, 5 if isinstance(current, str) else "x")
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert names_exact_path(str(exc.value), path), str(exc.value)

    @pytest.mark.parametrize("path, value", VALUE_FAULTS.items(), ids=list(VALUE_FAULTS))
    def test_out_of_range_names_exact_path(self, path, value):
        raw = tiny_config_dict()
        set_fault(raw, path, value)
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert names_exact_path(str(exc.value), path), str(exc.value)

    def test_section_must_be_object(self):
        raw = tiny_config_dict()
        raw["eval"] = 5
        with pytest.raises(ConfigError, match="eval: expected an object"):
            parse_config(raw)

    def test_union_parameters_default(self):
        raw = tiny_config_dict()
        raw["stream"]["imbalance"] = {"kind": "longtail"}
        assert parse_config(raw).stream.imbalance.ratio == 10.0
        raw["stream"]["imbalance"] = {"kind": "dominant"}
        assert parse_config(raw).stream.imbalance.rho_max == 0.75

    def test_invalid_value_propagates_section(self):
        raw = tiny_config_dict()
        raw["trainer"]["tau"] = -1.0
        with pytest.raises(ConfigError, match="trainer"):
            parse_config(raw)


class TestRunExperiment:
    def test_artifacts_and_metric_rows(self, tmp_path):
        cfg = parse_config(tiny_config_dict())
        out = tmp_path / "run0"
        result = run_experiment(cfg, seed=0, out_dir=str(out))

        assert result.seed == 0
        assert result.final is result.rows[-1]

        for name in (
            "config.json",
            "metrics.csv",
            "memory_step000003.csv",
            "memory_step000006.csv",
            "checkpoint.npz",
        ):
            assert (out / name).exists(), name

        rows = read_csv(out / "metrics.csv")
        assert rows[0] == list(
            (
                "step",
                "loss",
                "lr",
                "class_entropy",
                "v_intra",
                "s_inter",
                "mean_mem_distinct",
                "dominant_frac",
                "probe_acc",
            )
        )
        # cadence 3 over 6 steps: rows at step 3 and step 6.
        assert [r[0] for r in rows[1:]] == ["3", "6"]
        assert rows[1][-1] == ""  # probe runs only at the end
        assert rows[2][-1] != ""

        with open(out / "config.json") as fh:
            stored = json.load(fh)
        assert stored["seed"] == 0
        assert parse_config({k: v for k, v in stored.items() if k != "seed"}) == cfg

    def test_run_holds_the_trained_state(self, tmp_path):
        cfg = parse_config(tiny_config_dict())
        out = tmp_path / "run"
        result = run_experiment(cfg, seed=0, out_dir=str(out))
        assert isinstance(result, Run)
        assert (result.cfg, result.out_dir) == (cfg, str(out))
        assert result.state.step == cfg.trainer.steps

        _, *cells = read_csv(out / "metrics.csv")
        parsed = [
            MetricsRow(int(step), *map(float, floats), float(probe) if probe else None)
            for step, *floats, probe in cells
        ]
        assert result.rows == parsed

        # The stream's one generator is all a checkpoint needs to continue it.
        generators = [
            name
            for name, value in vars(result.stream).items()
            if isinstance(value, np.random.Generator)
        ]
        assert generators == ["rng"]
        saved = result.stream.rng.bit_generator.state
        first = result.stream.sample_batch(cfg.trainer.batch_size)
        result.stream.rng.bit_generator.state = saved
        again = result.stream.sample_batch(cfg.trainer.batch_size)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_memory_snapshot_row_count(self, tmp_path):
        cfg = parse_config(tiny_config_dict())
        out = tmp_path / "run"
        run_experiment(cfg, seed=1, out_dir=str(out))
        snap = read_csv(out / "memory_step000006.csv")
        assert len(snap) == 1 + cfg.memory.capacity

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = parse_config(tiny_config_dict())
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(cfg, seed=0, out_dir=str(a))
        run_experiment(cfg, seed=0, out_dir=str(b))
        for name in ("metrics.csv", "memory_step000003.csv", "memory_step000006.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seeds_differ(self, tmp_path):
        cfg = parse_config(tiny_config_dict())
        a = run_experiment(cfg, seed=0, out_dir=str(tmp_path / "s0"))
        b = run_experiment(cfg, seed=1, out_dir=str(tmp_path / "s1"))
        assert a.rows[0].loss != b.rows[0].loss

    def test_all_policies_run(self, tmp_path):
        for policy in ("duel", "fifo", "random", "reservoir"):
            raw = tiny_config_dict()
            raw["memory"]["policy"] = policy
            result = run_experiment(
                parse_config(raw), seed=0, out_dir=str(tmp_path / policy)
            )
            assert np.isfinite(result.final.loss)

    def test_checkpoint_records_run_architecture(self, tmp_path):
        raw = tiny_config_dict()
        raw["trainer"]["hidden"] = 5
        cfg = parse_config(raw)
        out = tmp_path / "hidden"
        run_experiment(cfg, seed=0, out_dir=str(out))
        state, loaded_cfg, seed = load_checkpoint(out / "checkpoint.npz")
        assert (loaded_cfg, seed) == (cfg, 0)
        assert state.config.d_out == cfg.trainer.d_out == 4
        assert state.config.hidden == cfg.trainer.hidden == 5

    def test_determinism_check_catches_unseeded_noise(self, monkeypatch):
        train_step = harness_module.train_step

        def noisy(state, X, Xp, *labels):
            noise = 1e-6 * np.random.default_rng().normal(size=X.shape)
            return train_step(state, X + noise, Xp, *labels)

        monkeypatch.setattr(harness_module, "train_step", noisy)
        ok, detail = check_harness_determinism(quick=True)
        assert not ok
        assert detail == "metrics.csv differs between identical runs"

    def test_guarded_memory_runs(self, tmp_path):
        raw = tiny_config_dict()
        raw["memory"]["guarded"] = True
        result = run_experiment(parse_config(raw), seed=0, out_dir=str(tmp_path / "g"))
        assert np.isfinite(result.final.loss)


class TestBenchPolicies:
    def test_rows_and_summary(self, tmp_path):
        cfg = parse_config(tiny_config_dict())
        rows = bench_policies(cfg, ["duel", "fifo"], out_dir=str(tmp_path))
        # 2 seeds per policy plus one mean row per policy.
        assert len(rows) == 2 * (len(cfg.seeds) + 1)

        duel_rows = [r for r in rows if r["policy"] == "duel" and r["seed"] != "mean"]
        duel_mean = next(r for r in rows if r["policy"] == "duel" and r["seed"] == "mean")
        assert duel_mean["class_entropy"] == pytest.approx(
            np.mean([r["class_entropy"] for r in duel_rows])
        )

        table = read_csv(tmp_path / "bench.csv")
        assert table[0] == list(BENCH_FIELDS)
        assert len(table) == 1 + len(rows)
        assert (tmp_path / "fifo_seed1" / "metrics.csv").exists()

    def test_unknown_policy_rejected(self, tmp_path):
        cfg = parse_config(tiny_config_dict())
        for policy in ("lru", "duel_naive"):
            with pytest.raises(ConfigError, match=policy):
                bench_policies(cfg, [policy], out_dir=str(tmp_path))

    def test_file_bytes_match_csv_writer(self, tmp_path, monkeypatch):
        # Final rows chosen per (policy, seed), so that the cells and their
        # seed means hold nan, inf and -0.0.
        finals = {
            ("duel", 0): (math.nan, 0.5, -0.0, np.float64(1.0 / 3.0), 0.75),
            ("duel", 1): (1.0, math.inf, -0.0, 0.25, 0.5),
            ("fifo", 0): (-0.0, -math.inf, 2.0, 1e-300, np.float64(0.125)),
            ("fifo", 1): (-0.0, 1.0, -2.0, 3.0, 0.1),
        }

        def fake_run(cfg, seed, out_dir):
            ent, v, s, dom, probe = finals[cfg.memory.policy, seed]
            final = MetricsRow(6, 0.0, 0.0, ent, v, s, 0.0, dom, probe)
            # bench_policies reads only the final row.
            return Run(cfg, seed, out_dir, None, None, None, None, None, rows=[final])

        monkeypatch.setattr(harness_module, "run_experiment", fake_run)
        rows = bench_policies(
            parse_config(tiny_config_dict()), ["duel", "fifo"], out_dir=str(tmp_path)
        )
        assert [r["seed"] for r in rows] == [0, 1, "mean", 0, 1, "mean"]
        # The former writer: csv.writer over the cells, floats through repr.
        ref = io.StringIO()
        writer = csv.writer(ref)
        writer.writerow(BENCH_FIELDS)
        for row in rows:
            writer.writerow(
                [row["policy"], row["seed"]]
                + [repr(float(row[k])) for k in BENCH_FIELDS[2:]]
            )
        data = (tmp_path / "bench.csv").read_bytes()
        assert data == ref.getvalue().encode()
        assert data.count(b"\r\n") == len(rows) + 1
        assert b"\r\nduel,mean,nan,inf,0.0," in data
        assert b"\r\nfifo,0,-0.0,-inf,2.0," in data


class TestExportEmbeddings:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(tiny_config_dict())
        out = tmp_path / "run"
        run_experiment(cfg, seed=0, out_dir=str(out))
        csv_path = tmp_path / "emb.csv"
        written = export_embeddings(out / "checkpoint.npz", csv_path, per_class=5)
        assert written == 5 * cfg.stream.n_classes

        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        labels = np.array([int(row[1]) for row in rows])
        emb = np.array([[float(v) for v in row[2:]] for row in rows])
        assert np.array_equal(np.bincount(labels), [5, 5, 5])
        assert emb.shape == (15, cfg.trainer.d_out)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize(
        "path, value, field_name",
        [
            ("seed", "3", "meta.seed:"),
            ("seed", True, "meta.seed:"),
            ("seed", -1, "meta.seed:"),
            # The extractor is built from the stored config, so a d_in the
            # run did not train with no longer fits its first layer.
            ("stream.d_in", 7, "q.W:"),
            ("stream.d_in", "6", "meta.config.stream.d_in:"),
            *((p, v, f"meta.config.{p}:") for p, v in VALUE_FAULTS.items()),
        ],
        ids=[
            "seed-string", "seed-bool", "seed-negative", "d_in-differs", "d_in-string",
            *VALUE_FAULTS,
        ],
    )
    def test_bad_experiment_config_names_field(self, tmp_path, capsys, path, value, field_name):
        """The run's config and seed are stored once, in the checkpoint's meta;
        a bad one is refused on load, named by its path there."""
        out = tmp_path / "run"
        run_experiment(parse_config(tiny_config_dict()), seed=0, out_dir=str(out))
        ckpt = out / "checkpoint.npz"
        with np.load(ckpt) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        if path == "seed":
            meta["seed"] = value
        else:
            set_fault(meta["config"], path, value)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(ckpt, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=rf"^{re.escape(field_name)}"):
            load_checkpoint(ckpt)
        csv_path = str(tmp_path / "emb.csv")
        assert main(["export-embeddings", "--ckpt", str(ckpt), "--out", csv_path]) == 1
        assert field_name in capsys.readouterr().err

    def test_zero_per_class_writes_header_only(self, tmp_path):
        cfg = parse_config(tiny_config_dict())
        out = tmp_path / "run"
        run_experiment(cfg, seed=0, out_dir=str(out))
        csv_path = tmp_path / "empty.csv"
        assert export_embeddings(out / "checkpoint.npz", csv_path, per_class=0) == 0
        assert len(read_csv(csv_path)) == 1
        assert csv_path.read_bytes() == b"id,label,v_0,v_1,v_2,v_3\r\n"


class TestCli:
    def _write_config(self, tmp_path, raw=None) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw or tiny_config_dict()))
        return str(path)

    def test_show_config_prints_json(self, capsys):
        assert main(["show-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == default_config_dict()

    def test_python_m_duelmem_runs_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "duelmem", "show-config"],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert json.loads(done.stdout) == default_config_dict()

    def test_closed_stdout_is_quiet(self):
        # A reader that leaves early, as `duelmem show-config | head` does:
        # here no reader exists, so the first write fails with EPIPE.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "duelmem", "show-config"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 1

    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert "seed 0" in capsys.readouterr().out

    def test_run_seed_override(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out), "--seed", "7"]) == 0
        with open(out / "config.json") as fh:
            assert json.load(fh)["seed"] == 7

    def test_run_negative_seed_names_the_field(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out), "--seed", "-1"]) == 1
        assert "seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_export_negative_per_class_names_the_field(self, tmp_path, capsys):
        # The count is checked before the checkpoint is read.
        csv_path = tmp_path / "emb.csv"
        code = main(
            [
                "export-embeddings",
                "--ckpt",
                str(tmp_path / "missing.npz"),
                "--out",
                str(csv_path),
                "--per-class",
                "-2",
            ]
        )
        assert code == 1
        assert "per_class: must be >= 0, got -2" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_bench_policies_command(self, tmp_path, capsys):
        raw = tiny_config_dict(seeds=[0])
        cfg_path = self._write_config(tmp_path, raw)
        out = tmp_path / "bench"
        code = main(
            [
                "bench-policies",
                "--config",
                cfg_path,
                "--out",
                str(out),
                "--policies",
                "duel,fifo",
            ]
        )
        assert code == 0
        assert (out / "bench.csv").exists()
        printed = capsys.readouterr().out
        assert "duel" in printed and "fifo" in printed

    def test_bad_config_returns_usage_error(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, tiny_config_dict(bogus=1))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data", [b"{not json", b"\xff\xfe"], ids=["not-json", "not-utf8"]
    )
    def test_unreadable_config_names_config(self, tmp_path, capsys, data):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(data)
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg_path), "--out", out]) == 1
        assert "config: invalid JSON" in capsys.readouterr().err

    def test_missing_config_file_returns_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        missing = str(tmp_path / "nope.json")
        assert main(["run", "--config", missing, "--out", str(out)]) == 1

    def test_unknown_bench_policy_returns_usage_error(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out = str(tmp_path / "bench")
        for policy in ("lru", "duel_naive"):
            code = main(
                [
                    "bench-policies",
                    "--config",
                    cfg_path,
                    "--out",
                    out,
                    "--policies",
                    f"duel,{policy}",
                ]
            )
            assert code == 1
            assert policy in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_export_embeddings_command(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", cfg_path, "--out", str(out)])
        csv_path = tmp_path / "emb.csv"
        code = main(
            [
                "export-embeddings",
                "--ckpt",
                str(out / "checkpoint.npz"),
                "--out",
                str(csv_path),
                "--per-class",
                "4",
            ]
        )
        assert code == 0
        assert len(read_csv(csv_path)) == 1 + 12
