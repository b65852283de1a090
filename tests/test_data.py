"""Generators, CSV interchange and deterministic paired batching."""
from __future__ import annotations

import numpy as np
import pytest

from fixbi.data import (CsvFormatError, Dataset, as_target_view,
                        gen_blobs_shift, gen_moons_shift, load_csv, one_hot, one_hot_table,
                        paired_minibatches, save_csv)


class TestBlobsShift:
    def test_identity_transform_matches_source_distribution(self):
        source, target = gen_blobs_shift(3, 200, 2, rotation_deg=0.0,
                                         translation=(), noise_sigma=0.2, seed=42)
        labels = target.eval_labels()
        for c in range(3):
            mu_src = source.features[source.labels == c].mean(axis=0)
            mu_tgt = target.features[labels == c].mean(axis=0)
            # fresh draw from the same clusters: means agree within sampling error
            assert np.linalg.norm(mu_src - mu_tgt) < 5 * 0.2 / np.sqrt(200)

    def test_seed_determinism_byte_identical(self):
        a = gen_blobs_shift(3, 50, 2, 50.0, (0.1,), 0.15, seed=9)
        b = gen_blobs_shift(3, 50, 2, 50.0, (0.1,), 0.15, seed=9)
        for x, y in zip(a, b):
            assert x.features.tobytes() == y.features.tobytes()
            assert x.labels.tobytes() == y.labels.tobytes()

    def test_unit_separated_means(self):
        source, _ = gen_blobs_shift(4, 500, 2, noise_sigma=0.01, seed=1)
        mus = [source.features[source.labels == c].mean(axis=0) for c in range(4)]
        for c in range(4):
            gap = np.linalg.norm(mus[c] - mus[(c + 1) % 4])
            assert gap == pytest.approx(1.0, abs=0.01)

    def test_balanced_label_marginals(self):
        source, target = gen_blobs_shift(5, 30, 3, seed=2)
        for ds_labels in (source.labels, target.eval_labels()):
            counts = np.bincount(ds_labels, minlength=5)
            assert (counts == 30).all()

    def test_target_training_view_is_unlabeled(self):
        _, target = gen_blobs_shift(3, 10, 2, seed=0)
        assert (target.labels == -1).all()
        assert (target.eval_labels() >= 0).all()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_blobs_shift(1, 10, 2, seed=0)
        with pytest.raises(ValueError):
            gen_blobs_shift(3, 10, 1, seed=0)
        with pytest.raises(ValueError):
            gen_blobs_shift(3, 0, 2, seed=0)
        with pytest.raises(ValueError):
            gen_blobs_shift(3, 10, 2, noise_sigma=-0.1, seed=0)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(noise_sigma=np.nan), "noise_sigma"),
        (dict(noise_sigma=-np.inf), "noise_sigma"),
        (dict(rotation_deg=np.inf), "rotation_deg"),
        (dict(translation=(0.5, np.nan)), "translation"),
    ])
    def test_non_finite_argument_named(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gen_blobs_shift(3, 10, 2, seed=0, **kwargs)

    def test_rotation_creates_domain_gap(self, ordering_battery):
        # source-only training generalizes worse to the rotated target,
        # averaged over the battery's seeds
        cells = ordering_battery["seeds"].values()
        src_accs = [r["source_only"].source_acc for r in cells]
        tgt_accs = [r["source_only"].target_acc for r in cells]
        assert np.mean(tgt_accs) < np.mean(src_accs)


class TestMoonsShift:
    def test_sizes_and_classes(self):
        source, target = gen_moons_shift(100, seed=3)
        assert source.n == target.n == 200
        assert source.num_classes == target.num_classes == 2

    def test_same_distribution_at_zero_rotation(self):
        source, target = gen_moons_shift(400, rotation_deg=0.0,
                                         noise_sigma=0.05, seed=4)
        labels = target.eval_labels()
        for c in range(2):
            mu_s = source.features[source.labels == c].mean(axis=0)
            mu_t = target.features[labels == c].mean(axis=0)
            assert np.linalg.norm(mu_s - mu_t) < 0.1

    def test_rotation_causes_nearest_neighbor_disagreement(self):
        source, target = gen_moons_shift(100, rotation_deg=30.0,
                                         noise_sigma=0.05, seed=5)
        labels = target.eval_labels()
        disagreements = 0
        for i in range(target.n):  # brute-force nearest source neighbor
            d2 = ((source.features - target.features[i]) ** 2).sum(axis=1)
            nearest = int(np.argmin(d2))
            disagreements += int(source.labels[nearest] != labels[i])
        assert disagreements > 0

    @pytest.mark.parametrize("kwargs,name", [
        (dict(noise_sigma=np.inf), "noise_sigma"),
        (dict(rotation_deg=np.nan), "rotation_deg"),
    ])
    def test_non_finite_argument_named(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gen_moons_shift(10, seed=0, **kwargs)

    def test_determinism(self):
        a = gen_moons_shift(30, 30.0, 0.1, seed=6)
        b = gen_moons_shift(30, 30.0, 0.1, seed=6)
        assert a[0].features.tobytes() == b[0].features.tobytes()
        assert a[1].features.tobytes() == b[1].features.tobytes()


class TestCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("# classes=2 dim=2\n1.0,2.0,0\n3.5,-1.25,1\n")
        ds = load_csv(path)
        assert ds.n == 2 and ds.num_classes == 2
        assert ds.domain_tag == "source"
        assert np.array_equal(ds.labels, [0, 1])
        assert np.allclose(ds.features, [[1.0, 2.0], [3.5, -1.25]])

    def test_all_unlabeled_is_target_style(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# classes=3 dim=1\n0.5,-1\n0.25,-1\n")
        ds = load_csv(path)
        assert ds.domain_tag == "target"
        assert (ds.labels == -1).all()

    def test_round_trip_identity(self, tmp_path):
        source, target = gen_blobs_shift(3, 20, 2, 50.0, (), 0.15, seed=8)
        for ds, name in ((source, "s.csv"), (target, "t.csv")):
            path = tmp_path / name
            save_csv(ds, path)
            back = load_csv(path)
            assert back.features.tobytes() == ds.features.tobytes()
            assert np.array_equal(back.labels, ds.labels)
            assert back.num_classes == ds.num_classes
            assert back.domain_tag == ds.domain_tag

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# classes=2 dim=2\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(path)

    def test_non_numeric_feature_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# classes=2 dim=2\nx,2.0,0\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    def test_label_out_of_range_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# classes=2 dim=1\n1.0,2\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)
        path.write_text("# classes=2 dim=1\n1.0,-2\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("rows, line", [("nan,1.0,0\n", 2),
                                            ("1.0,2.0,0\n1.0,inf,1\n", 3)],
                             ids=["nan", "inf"])
    def test_non_finite_feature_reports_line_number(self, tmp_path, rows, line):
        path = tmp_path / "bad.csv"
        path.write_text("# classes=2 dim=2\n" + rows)
        with pytest.raises(CsvFormatError, match=f"line {line}: non-finite"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("classes=2 dim=2\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["", "classes=2 dim=2\n",
                                      "# classes=2 dim=2\n1.0,0\n",
                                      "# classes=2 dim=1\nnan,0\n"],
                             ids=["empty", "header", "ragged", "non-finite"])
    def test_errors_start_with_the_path(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert str(err.value).startswith(f"{path}: line ")

    def test_as_target_view_quarantines_labels(self, tmp_path):
        path = tmp_path / "t.csv"
        source, _ = gen_blobs_shift(2, 5, 2, seed=0)
        save_csv(source, path)
        view = as_target_view(load_csv(path))
        assert view.domain_tag == "target"
        assert (view.labels == -1).all()
        assert np.array_equal(view.eval_labels(), source.labels)


class TestPairedMinibatches:
    @staticmethod
    def _pair(ns, nt, d=2, seed=0):
        rng = np.random.default_rng(seed)
        source = Dataset(rng.normal(size=(ns, d)),
                         rng.integers(0, 2, size=ns), 2, "source")
        target = Dataset(rng.normal(size=(nt, d)),
                         np.full(nt, -1), 2, "target",
                         hidden_labels=rng.integers(0, 2, size=nt))
        return source, target

    def test_equal_sizes_cover_source_once(self):
        source, target = self._pair(4, 4)
        batches = paired_minibatches(source, target, 2, epoch=1, seed=0)
        assert len(batches) == 2
        seen = np.concatenate([
            [np.flatnonzero((source.features == b.xs[i]).all(axis=1))[0]
             for i in range(2)] for b in batches])
        assert sorted(seen.tolist()) == [0, 1, 2, 3]

    def test_shorter_stream_cycles_with_reshuffle(self):
        source, target = self._pair(10, 4)
        batches = paired_minibatches(source, target, 2, epoch=1, seed=1)
        assert len(batches) == 5
        # recover emitted target indices by matching feature rows
        emitted = []
        for b in batches:
            for i in range(2):
                emitted.append(int(np.flatnonzero(
                    (target.features == b.xt[i]).all(axis=1))[0]))
        assert len(emitted) == 10
        # wraparounds at positions 4 and 8; each full block is a permutation
        assert sorted(emitted[0:4]) == [0, 1, 2, 3]
        assert sorted(emitted[4:8]) == [0, 1, 2, 3]
        assert len(set(emitted[8:10])) == 2

    def test_source_indices_form_permutation_minus_remainder(self):
        source, target = self._pair(11, 7)
        batches = paired_minibatches(source, target, 3, epoch=2, seed=3)
        assert len(batches) == 3  # 11 // 3, trailing remainder dropped
        emitted = []
        for b in batches:
            for i in range(3):
                emitted.append(int(np.flatnonzero(
                    (source.features == b.xs[i]).all(axis=1))[0]))
        assert len(emitted) == len(set(emitted)) == 9

    def test_determinism_per_seed_and_epoch(self):
        source, target = self._pair(8, 8)
        a = paired_minibatches(source, target, 2, epoch=3, seed=5)
        b = paired_minibatches(source, target, 2, epoch=3, seed=5)
        for x, y in zip(a, b):
            assert x.xs.tobytes() == y.xs.tobytes()
            assert x.xt.tobytes() == y.xt.tobytes()
            assert np.array_equal(x.ys, y.ys)
        c = paired_minibatches(source, target, 2, epoch=4, seed=5)
        assert any(x.xs.tobytes() != y.xs.tobytes() for x, y in zip(a, c))

    def test_labels_follow_source_rows(self):
        source, target = self._pair(6, 6)
        for b in paired_minibatches(source, target, 3, epoch=1, seed=7):
            for i in range(3):
                j = int(np.flatnonzero((source.features == b.xs[i]).all(axis=1))[0])
                assert b.ys[i] == source.labels[j]

    def test_bad_batch_size_rejected(self):
        source, target = self._pair(4, 4)
        with pytest.raises(ValueError):
            paired_minibatches(source, target, 0, epoch=1, seed=0)
        with pytest.raises(ValueError):
            paired_minibatches(source, target, 5, epoch=1, seed=0)


class TestOneHot:
    def test_encoding(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        assert np.array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_rejects_unlabeled(self):
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)

    def test_labels_of_any_shape_keep_their_axes(self):
        labels = np.array([[0, 2, 1], [1, 1, 3]])
        out = one_hot(labels, 4)
        assert out.shape == (2, 3, 4) and out.dtype == np.float64
        for row, want in zip(out, labels):
            assert row.tobytes() == one_hot(want, 4).tobytes()
        assert one_hot(np.zeros(0, dtype=np.int64), 4).shape == (0, 4)


class TestOneHotTable:
    """A trainer's label rows are gathered from one identity table per run,
    with the bytes of ``one_hot``; the source labels are checked once."""

    @staticmethod
    def _source(labels, c):
        return Dataset(np.zeros((len(labels), 2)), np.array(labels), c, "source")

    @pytest.mark.parametrize("c", [2, 3, 31])
    def test_rows_have_the_bytes_of_one_hot(self, c):
        rng = np.random.default_rng(c)
        eye = one_hot_table(self._source(list(range(c)), c), c)
        for shape in ((32,), (2, 32), (0,)):
            labels = rng.integers(0, c, size=shape)
            assert eye[labels].shape == one_hot(labels, c).shape
            assert eye[labels].tobytes() == one_hot(labels, c).tobytes()

    def test_names_the_first_row_without_a_label(self):
        with pytest.raises(ValueError) as exc:
            one_hot_table(self._source([0, 1, -1, 2, -1], 3), 3)
        assert str(exc.value) == ("source row 2: label -1, but training needs every "
                                  "row's class in [0, 3)")

    def test_names_a_label_past_the_models_classes(self):
        # the set has 3 classes, the model being trained 2
        with pytest.raises(ValueError, match=r"^source row 1: label 2, .* \[0, 2\)$"):
            one_hot_table(self._source([0, 2, 1], 3), 2)


class TestDatasetViews:
    def test_eval_labels_refuses_unlabeled_rows(self):
        ds = Dataset(np.zeros((2, 2)), np.array([0, -1]), 2, "source")
        with pytest.raises(ValueError, match="ground-truth"):
            ds.eval_labels()

    def test_translation_longer_than_dims_rejected(self):
        with pytest.raises(ValueError, match="translation"):
            gen_blobs_shift(2, 4, 2, translation=(0.1, 0.2, 0.3), seed=0)

    def test_label_out_of_range_rejected_at_construction(self):
        with pytest.raises(ValueError, match="label out of range"):
            Dataset(np.zeros((1, 2)), np.array([5]), 3, "source")
