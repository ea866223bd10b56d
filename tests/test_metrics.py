from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

from duelmem.kernels import normalize
from duelmem.metrics import (
    METRICS_FIELDS,
    MetricsRow,
    class_centroid,
    class_entropy,
    dominant_fraction,
    inter_class_similarity,
    intra_class_variance,
    linear_probe,
    write_metrics_csv,
)


class TestClassEntropy:
    def test_two_even_classes(self):
        assert math.isclose(
            class_entropy(np.array([3, 3, 7, 7])), math.log(2), abs_tol=1e-12
        )

    def test_uniform_ten_classes(self):
        labels = np.repeat(np.arange(10), 5)
        assert math.isclose(class_entropy(labels), math.log(10), abs_tol=1e-12)

    def test_single_class_is_zero(self):
        assert class_entropy(np.zeros(8, dtype=np.int64)) == 0.0

    def test_skew_lowers_entropy(self):
        skewed = np.array([0] * 9 + [1])
        assert class_entropy(skewed) < class_entropy(np.array([0] * 5 + [1] * 5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_entropy(np.array([], dtype=np.int64))


class TestGeometryMetrics:
    def test_centroid_is_unit(self):
        emb = normalize(np.array([[1.0, 0.0], [0.0, 1.0]]))
        r = class_centroid(emb)
        assert np.allclose(r, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_centroid_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            class_centroid(np.array([[1.0, 0.0], [-1.0, 0.0]]))

    def test_intra_variance_frozen_value(self):
        # One class holding e1 and e2: centroid (e1+e2)/sqrt(2), both cosines
        # 1/sqrt(2), so the mean squared gap to 1 is (1/sqrt(2) - 1)^2.
        emb = np.eye(2)
        labels = np.zeros(2, dtype=np.int64)
        expected = (1 / math.sqrt(2) - 1) ** 2
        assert math.isclose(
            intra_class_variance(emb, labels), expected, abs_tol=1e-12
        )
        assert math.isclose(expected, 0.08578643762690495, abs_tol=1e-15)

    def test_intra_variance_tight_class_is_zero(self):
        emb = np.vstack([np.eye(3)[0]] * 4 + [np.eye(3)[1]] * 2)
        labels = np.array([0, 0, 0, 0, 1, 1])
        assert intra_class_variance(emb, labels) < 1e-30

    def test_inter_similarity_frozen_value(self):
        # Class 0 concentrated on e1; class 1 splits between e1 and e2, so its
        # centroid direction is (e1+e2)/sqrt(2) and the cross similarity is
        # 1/sqrt(2).
        emb = np.vstack([np.eye(2)[0], np.eye(2)[0], np.eye(2)[1]])
        labels = np.array([0, 1, 1])
        assert math.isclose(
            inter_class_similarity(emb, labels), 1 / math.sqrt(2), abs_tol=1e-12
        )

    def test_inter_similarity_orthogonal_classes(self):
        emb = np.vstack([np.eye(3)[0]] * 2 + [np.eye(3)[1]] * 2 + [np.eye(3)[2]] * 2)
        labels = np.repeat(np.arange(3), 2)
        assert abs(inter_class_similarity(emb, labels)) < 1e-12

    def test_inter_similarity_needs_two_classes(self):
        with pytest.raises(ValueError):
            inter_class_similarity(np.eye(2), np.zeros(2, dtype=np.int64))


class TestOccupancy:
    def test_dominant_fraction(self):
        labels = np.array([0, 0, 0, 1, 2, 0])
        assert dominant_fraction(labels) == 4 / 6
        assert dominant_fraction(labels, dominant_class=1) == 1 / 6

    def test_dominant_fraction_empty_rejected(self):
        with pytest.raises(ValueError):
            dominant_fraction(np.array([], dtype=np.int64))


class TestLinearProbe:
    def test_separable_features_hit_one(self):
        # Basis-vector embeddings per class are linearly separable, so the
        # probe should fit them exactly.
        emb = np.vstack([np.eye(4)[c] for c in [0, 1, 2, 3] * 10])
        labels = np.tile(np.arange(4), 10)
        assert linear_probe(emb, labels, emb, labels) == 1.0

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(0)
        emb = normalize(rng.normal(size=(120, 8)))
        labels = rng.integers(0, 4, size=120)
        acc = linear_probe(emb, labels, emb, rng.permutation(labels))
        assert acc <= 0.6

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        emb = normalize(rng.normal(size=(60, 6)))
        labels = rng.integers(0, 3, size=60)
        a = linear_probe(emb, labels, emb, labels)
        b = linear_probe(emb, labels, emb, labels)
        assert a == b

    def test_nonconsecutive_class_ids(self):
        emb = np.vstack([np.eye(3)[c] for c in [0, 1, 2] * 6])
        labels = np.tile(np.array([5, 9, 42]), 6)
        assert linear_probe(emb, labels, emb, labels) == 1.0

    def test_needs_two_classes(self):
        emb = np.eye(3)
        with pytest.raises(ValueError):
            linear_probe(emb, np.zeros(3, dtype=np.int64), emb, np.zeros(3))

    def test_probe_config_validation(self):
        emb = np.eye(2)
        with pytest.raises(ValueError):
            linear_probe(emb, np.arange(2), emb, np.arange(2), steps=0)

    def test_more_steps_does_not_hurt_separable(self):
        emb = np.vstack([np.eye(2)[c] for c in [0, 1] * 8])
        labels = np.tile(np.arange(2), 8)
        assert linear_probe(emb, labels, emb, labels, steps=400) == 1.0


class TestMetricsRow:
    def test_field_order(self):
        assert METRICS_FIELDS == (
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

    def test_csv_round_trip_floats(self):
        row = MetricsRow(
            step=7,
            loss=1.0 / 3.0,
            lr=0.01,
            class_entropy=math.log(2),
            v_intra=0.1,
            s_inter=-0.25,
            mean_mem_distinct=12.5,
            dominant_frac=0.75,
            probe_acc=None,
        )
        cells = row.as_csv()
        assert len(cells) == len(METRICS_FIELDS)
        assert cells[0] == "7"
        assert float(cells[1]) == 1.0 / 3.0
        assert cells[-1] == ""  # probe not measured this step

    def test_probe_cell_present_when_measured(self):
        row = MetricsRow(
            step=1,
            loss=0.0,
            lr=0.0,
            class_entropy=0.0,
            v_intra=0.0,
            s_inter=0.0,
            mean_mem_distinct=1.0,
            dominant_frac=1.0,
            probe_acc=0.875,
        )
        assert row.as_csv()[-1] == "0.875"

    def test_file_bytes_match_csv_writer(self, tmp_path):
        odd = [math.nan, math.inf, -math.inf, -0.0, np.float64(-0.0), 1.0 / 3.0, 5e-324]
        rows = [
            MetricsRow(0, *odd),  # probe_acc None: an empty last cell
            MetricsRow(50, *odd[::-1], probe_acc=np.float64(0.875)),
            MetricsRow(100, *odd[1:], 0.5, probe_acc=math.nan),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        # The former writer: csv.writer over the cells, floats through repr.
        ref = io.StringIO()
        writer = csv.writer(ref)
        writer.writerow(METRICS_FIELDS)
        for row in rows:
            writer.writerow(
                [row.step]
                + [repr(float(getattr(row, f))) for f in METRICS_FIELDS[1:-1]]
                + ["" if row.probe_acc is None else repr(float(row.probe_acc))]
            )
        data = path.read_bytes()
        assert data == ref.getvalue().encode()
        assert data.count(b"\r\n") == len(rows) + 1
        assert data.splitlines()[1].endswith(b",")
