from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from duelmem.streams import (
    Dominant,
    GaussianPairStream,
    LongTail,
    StreamConfig,
    class_means,
    csv_row,
    longtail_probs,
    oracle_embedding_stream,
    write_embedding_csv,
)


class TestImbalanceProfiles:
    def test_dominant_frozen_values(self):
        p = Dominant(0.75).probs(10)
        assert p[0] == 0.75
        assert np.allclose(p[1:], 0.25 / 9)
        assert np.allclose(p[1:], 0.25 / 9, rtol=0, atol=1e-12)
        assert math.isclose(float(p.sum()), 1.0, abs_tol=1e-12)

    def test_dominant_uniform_edge(self):
        p = Dominant(0.1).probs(10)
        assert np.allclose(p, 0.1)

    def test_dominant_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Dominant(1.0).probs(4)
        with pytest.raises(ValueError):
            Dominant(0.05).probs(10)  # below 1/|C|
        with pytest.raises(ValueError):
            Dominant(0.9).probs(1)

    def test_longtail_two_class(self):
        p = longtail_probs(2, 4.0)
        assert np.allclose(p, [0.8, 0.2], atol=1e-12)
        assert np.allclose(p, [0.8, 0.2], rtol=0, atol=1e-12)

    def test_longtail_head_tail_ratio(self):
        p = longtail_probs(1000, 256.0)
        assert math.isclose(p[0] / p[-1], 256.0, rel_tol=1e-9)
        assert abs(p[0] / p[-1] - 256.0) <= 1e-9
        assert np.all(np.diff(p) < 0)

    def test_longtail_ratio_one_is_uniform(self):
        assert np.allclose(longtail_probs(6, 1.0), 1.0 / 6, atol=1e-12)
        assert np.allclose(longtail_probs(6, 1.0), 1.0 / 6, rtol=0, atol=1e-12)

    def test_longtail_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            longtail_probs(5, 0.5)

    def test_longtail_profile_object(self):
        cfg = StreamConfig(n_classes=4, imbalance=LongTail(8.0))
        assert np.allclose(cfg.probs(), longtail_probs(4, 8.0))


class TestStreamConfig:
    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            StreamConfig(sigma=-0.1)

    def test_rejects_bad_separation(self):
        with pytest.raises(ValueError):
            StreamConfig(separation=0.0)

    def test_means_are_orthogonal_when_room(self):
        cfg = StreamConfig(n_classes=5, d_in=12, separation=2.0)
        M = class_means(cfg)
        assert M.shape == (5, 12)
        assert np.allclose(M @ M.T, 4.0 * np.eye(5), atol=1e-9)

    def test_means_are_unit_scale_when_crowded(self):
        cfg = StreamConfig(n_classes=8, d_in=3, separation=1.5)
        M = class_means(cfg)
        assert np.allclose(np.linalg.norm(M, axis=1), 1.5, atol=1e-9)

    def test_means_deterministic_per_seed(self):
        cfg = StreamConfig(n_classes=4, d_in=6)
        assert np.array_equal(class_means(cfg, 5), class_means(cfg, 5))
        assert not np.array_equal(class_means(cfg, 5), class_means(cfg, 6))


class TestSampling:
    def test_class_frequencies_match_profile(self):
        cfg = StreamConfig(n_classes=10, imbalance=Dominant(0.75))
        _, _, labels = GaussianPairStream(cfg, seed=0).sample_batch(20000)
        assert abs((labels == 0).mean() - 0.75) < 0.01

    def test_sigma_zero_reproduces_means(self):
        cfg = StreamConfig(n_classes=4, d_in=6, sigma=0.0, sigma_aug=0.0)
        stream = GaussianPairStream(cfg, seed=1)
        X, Xp, labels = stream.sample_batch(20)
        assert np.array_equal(X, class_means(cfg)[labels])
        assert np.array_equal(Xp, X)

    def test_pair_noise_scales(self):
        cfg = StreamConfig(n_classes=2, d_in=8, sigma=0.5, sigma_aug=0.05)
        stream = GaussianPairStream(cfg, seed=3, means_seed=2)
        X, Xp, labels = stream.sample_batch(4000)
        gaps = np.sum((X - class_means(cfg, 2)[labels]) ** 2, axis=1)
        augs = np.sum((Xp - X) ** 2, axis=1)
        # E|x - mean|^2 = d * sigma^2; E|x+ - x|^2 = d * sigma_aug^2.
        assert abs(np.mean(gaps) - 8 * 0.25) < 0.1
        assert abs(np.mean(augs) - 8 * 0.0025) < 0.001

    def test_batch_shapes_and_balanced_sampler(self):
        cfg = StreamConfig(n_classes=3, d_in=5)
        stream = GaussianPairStream(cfg, seed=4)
        X, Xp, labels = stream.sample_batch(12)
        assert X.shape == (12, 5) and Xp.shape == (12, 5) and labels.shape == (12,)
        Xb, yb = stream.sample_balanced(7, np.random.default_rng(5))
        assert Xb.shape == (21, 5)
        assert np.array_equal(np.bincount(yb), [7, 7, 7])

    def test_stream_is_seed_deterministic(self):
        cfg = StreamConfig(n_classes=3, d_in=4)
        a = GaussianPairStream(cfg, seed=9).sample_batch(6)
        b = GaussianPairStream(cfg, seed=9).sample_batch(6)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)


class TestCachedCdf:
    """The stream keeps the profile's probabilities from construction; its
    class draws equal `rng.choice(p=cfg.probs())` on a twin generator."""

    @pytest.mark.parametrize(
        "imbalance", [Dominant(0.75), LongTail(50.0)], ids=["dominant", "longtail"]
    )
    def test_batches_equal_rng_choice_draws(self, imbalance):
        cfg = StreamConfig(imbalance=imbalance)
        stream = GaussianPairStream(cfg, seed=7)
        rng = np.random.default_rng(7)
        assert stream.probs.tobytes() == cfg.probs().tobytes()
        for _ in range(50):
            labels = stream.sample_batch(64)[2]
            c = rng.choice(cfg.n_classes, size=64, p=cfg.probs())
            rng.standard_normal((64, 2 * cfg.d_in))  # the batch's noise
            assert labels.tobytes() == c.tobytes()


class _CallLog:
    """A generator stand-in that records the name of each method called on it."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def logged(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return logged


def _pair(cfg: StreamConfig, means: np.ndarray, c: int, z: np.ndarray):
    """One (x, x+) pair from its class and its 2 * d_in noise values."""
    x = means[c] + cfg.sigma * z[: cfg.d_in]
    return x, x + cfg.sigma_aug * z[cfg.d_in :]


class TestBatchedDraws:
    """The batched samplers consume the generator in a pinned order, so their
    output equals a reference that makes the same draws, byte for byte."""

    def test_sample_batch_draws_classes_then_noise(self):
        stream = GaussianPairStream(StreamConfig(), seed=11)
        log = stream.rng = _CallLog(stream.rng)
        for n in (1, 64, 5, 64, 200):
            log.calls.clear()
            stream.sample_batch(n)
            assert log.calls == ["choice", "standard_normal"]

    @pytest.mark.parametrize(
        "imbalance, sigma_aug",
        [(Dominant(0.75), 0.35), (LongTail(50.0), 0.35), (Dominant(0.75), 0.0)],
        ids=["dominant", "longtail", "no-aug"],
    )
    def test_sample_batch_equals_sample_pair(self, imbalance, sigma_aug):
        # Row i of a batch is the pair built from the i-th class draw and the
        # i-th row of the batch's (n, 2 * d_in) noise draw.
        cfg = StreamConfig(imbalance=imbalance, sigma_aug=sigma_aug)
        stream = GaussianPairStream(cfg, seed=11)
        twin = np.random.default_rng(11)
        for n in [64] * 200 + [1, 5]:
            X, Xp, labels = stream.sample_batch(n)
            c = twin.choice(cfg.n_classes, size=n, p=cfg.probs())
            noise = twin.standard_normal((n, 2 * cfg.d_in))
            assert labels.dtype == np.int64 and labels.tobytes() == c.tobytes()
            for i in range(n):
                x, x_pos = _pair(cfg, stream.means, c[i], noise[i])
                assert X[i].tobytes() == x.tobytes()
                assert Xp[i].tobytes() == x_pos.tobytes()
        assert stream.rng.bit_generator.state == twin.bit_generator.state

    def test_sample_balanced_equals_per_row_draws(self):
        cfg = StreamConfig(n_classes=4, d_in=7, sigma=0.6)
        stream = GaussianPairStream(cfg, seed=12)
        X, labels = stream.sample_balanced(9, np.random.default_rng(13))
        rng = np.random.default_rng(13)
        assert np.array_equal(labels, np.repeat(np.arange(4), 9))
        for i, c in enumerate(labels):
            x = stream.means[c] + cfg.sigma * rng.normal(size=cfg.d_in)
            assert X[i].tobytes() == x.tobytes()


class TestOracleStream:
    def test_yields_basis_vectors(self):
        rng = np.random.default_rng(6)
        stream = oracle_embedding_stream(4, rng)
        for _ in range(50):
            e, c = next(stream)
            assert e.shape == (4,)
            assert e[c] == 1.0 and np.sum(e) == 1.0

    def test_respects_imbalance(self):
        rng = np.random.default_rng(7)
        stream = oracle_embedding_stream(5, rng, probs=Dominant(0.8).probs(5))
        labels = np.array([next(stream)[1] for _ in range(5000)])
        assert abs((labels == 0).mean() - 0.8) < 0.02

    def test_wider_dim_pads_with_zeros(self):
        rng = np.random.default_rng(8)
        e, c = next(oracle_embedding_stream(3, rng, dim=6))
        assert e.shape == (6,)
        assert np.sum(e != 0.0) == 1

    def test_rejects_too_many_classes_for_dim(self):
        with pytest.raises(ValueError):
            next(oracle_embedding_stream(7, np.random.default_rng(0), dim=4))

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            next(
                oracle_embedding_stream(
                    3, np.random.default_rng(0), probs=np.array([0.5, 0.2, 0.2])
                )
            )


# Cells the csv.writer + repr reference must reproduce byte for byte: signed
# zero, the smallest subnormal, non-finite values, and round-trip digits.
_ODD_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 0.1, 1 / 3, -1e300]


def _csv_writer_reference(path, header, rows):
    """The former writer: csv.writer with every float cell through repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lead, floats in rows:
            writer.writerow(list(lead) + [repr(float(v)) for v in floats])


class TestCsvRow:
    @pytest.mark.parametrize(
        "lead",
        [
            (0, ""),
            (12, 3, 40),
            ("", ""),
            ("a,b", 'say "x"', "line\nbreak", "cr\rx", None, np.int64(7), 2.5),
        ],
        ids=["unlabeled", "ints", "empty", "quoted"],
    )
    def test_matches_csv_writer(self, lead, tmp_path):
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        header = ["id", "label"] + [f"v_{d}" for d in range(len(_ODD_FLOATS))]
        with open(got, "w", newline="") as fh:
            fh.write(csv_row(header, []))
            fh.write(csv_row(lead, _ODD_FLOATS))
        _csv_writer_reference(ref, header, [(lead, _ODD_FLOATS)])
        assert got.read_bytes() == ref.read_bytes()
        assert got.read_bytes().count(b"\r\n") == 2

    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabeled"])
    def test_embedding_csv_matches_csv_writer(self, labelled, tmp_path):
        rng = np.random.default_rng(5)
        emb = rng.normal(size=(4, len(_ODD_FLOATS)))
        emb[0] = _ODD_FLOATS
        emb[1, ::2] = -0.0
        labels = np.array([3, 0, 1, 2]) if labelled else None
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        write_embedding_csv(got, emb, labels)
        header = ["id", "label"] + [f"v_{d}" for d in range(emb.shape[1])]
        cells = [(i, "" if labels is None else int(labels[i])) for i in range(4)]
        _csv_writer_reference(ref, header, zip(cells, emb))
        assert got.read_bytes() == ref.read_bytes()
        assert got.read_bytes().endswith(b"\r\n")
        assert b"nan,inf,-inf" in got.read_bytes()

    def test_empty_array_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_embedding_csv(path, np.zeros((0, 3)))
        assert path.read_bytes() == b"id,label,v_0,v_1,v_2\r\n"
