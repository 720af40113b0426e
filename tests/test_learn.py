import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmaction import ContractError, DmmActionError, FormatError, RankError
from dmmaction.learn import (
    PcaModel,
    ScoreVector,
    SvmModel,
    fuse_scores,
    jacobi_eigh,
    load_models,
    pca_fit,
    pca_project,
    save_models,
    svm_margins,
    svm_score,
    svm_train,
)


def _blobs(n_per=50, margin=2.0, seed=7, scale=1.0):
    local = np.random.default_rng(seed)
    a = local.normal(size=(n_per, 2)) * scale * 0.3 + [-1.0 - margin / 2, 0.0]
    b = local.normal(size=(n_per, 2)) * scale * 0.3 + [1.0 + margin / 2, 0.0]
    x = np.vstack([a, b])
    y = ["neg"] * n_per + ["pos"] * n_per
    return x, y


class TestJacobiEigh:
    def test_diagonal_matrix_is_fixed_point(self):
        vals, vecs = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(sorted(vals), [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(vecs), np.eye(3), atol=1e-12)

    def test_reconstruction_from_columns(self, rng):
        a = rng.normal(size=(6, 6))
        sym = a @ a.T
        vals, vecs = jacobi_eigh(sym)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, sym, atol=1e-8)
        assert np.allclose(vecs.T @ vecs, np.eye(6), atol=1e-10)


class TestPcaFit:
    def test_line_data_single_component(self):
        t = np.linspace(-2, 2, 9)
        x = np.stack([t, t], axis=1)
        model = pca_fit(x, target=0.95)
        assert model.components.shape[0] == 1
        direction = model.components[0] * np.sign(model.components[0, 0])
        assert np.allclose(direction, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-9)
        assert model.variance_fractions[0] == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_blob_splits_variance(self):
        local = np.random.default_rng(5)
        x = local.normal(size=(10000, 2))
        model = pca_fit(x, target=1.0)
        assert model.variance_fractions[0] == pytest.approx(0.5, abs=0.05)
        assert model.variance_fractions[1] == pytest.approx(0.5, abs=0.05)

    def test_full_target_keeps_dimension(self, rng):
        x = rng.normal(size=(30, 5))
        model = pca_fit(x, target=1.0)
        assert model.components.shape[0] == 5

    def test_fixed_k(self, rng):
        x = rng.normal(size=(30, 6))
        model = pca_fit(x, target=3)
        assert model.components.shape[0] == 3

    def test_identical_samples_raise_rank_error(self):
        x = np.ones((5, 3))
        with pytest.raises(RankError):
            pca_fit(x)

    def test_single_sample_rejected(self):
        with pytest.raises(ContractError):
            pca_fit(np.ones((1, 3)))

    def test_component_orthonormality(self, rng):
        x = rng.normal(size=(40, 8)) @ np.diag([5, 4, 3, 2, 1, 0.5, 0.2, 0.1])
        model = pca_fit(x, target=1.0)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(model.components.shape[0]))) < 1e-6

    def test_variance_fractions_descending(self, rng):
        x = rng.normal(size=(50, 6)) * np.arange(1, 7)
        model = pca_fit(x, target=1.0)
        assert np.all(np.diff(model.variance_fractions) <= 1e-12)
        assert float(model.variance_fractions.sum()) <= 1.0 + 1e-6

    def test_tall_feature_path_matches_small_path(self, rng):
        # d > n exercises the Gram-matrix route; spectra must agree.
        x = rng.normal(size=(8, 60))
        model = pca_fit(x, target=1.0)
        centered = x - x.mean(axis=0)
        direct = np.linalg.eigvalsh(centered.T @ centered / 7)[::-1]
        kept = direct[: model.components.shape[0]] / direct.sum()
        assert np.allclose(model.variance_fractions, kept, atol=1e-8)


class TestPcaProject:
    def test_mean_projects_to_zero(self, rng):
        x = rng.normal(size=(20, 4))
        model = pca_fit(x, target=1.0)
        out = pca_project(model, x.mean(axis=0))
        assert np.max(np.abs(out)) < 1e-9

    def test_rank_one_recovery(self):
        t = np.linspace(-3, 3, 11)
        x = np.stack([t, 2 * t, -t], axis=1)
        model = pca_fit(x, target=0.95)
        assert model.components.shape[0] == 1
        for row in x:
            z = pca_project(model, row)
            back = model.mean + z @ model.components
            assert np.max(np.abs(back - row)) < 1e-6

    def test_full_rank_isometry(self, rng):
        x = rng.normal(size=(25, 5))
        model = pca_fit(x, target=1.0)
        proj = np.stack([pca_project(model, row) for row in x])
        for i in range(0, 20, 5):
            for j in range(i + 1, 25, 7):
                orig = np.linalg.norm(x[i] - x[j])
                new = np.linalg.norm(proj[i] - proj[j])
                assert abs(orig - new) < 1e-6

    def test_length_mismatch_rejected(self, rng):
        x = rng.normal(size=(10, 4))
        model = pca_fit(x, target=1.0)
        with pytest.raises(ContractError):
            pca_project(model, np.zeros(5))


class TestSvmTrain:
    def test_separable_blobs_reach_full_accuracy(self):
        x, y = _blobs(n_per=50, margin=2.0, seed=7)
        model = svm_train(x, y, regularization=1e-3, epochs=20, seed=7)
        correct = sum(
            model.labels[int(np.argmax(svm_margins(model, row)))] == label
            for row, label in zip(x, y)
        )
        assert correct == len(y)

    def test_retrain_is_bit_identical(self):
        x, y = _blobs(n_per=30, seed=3)
        a = svm_train(x, y, epochs=15, seed=5)
        b = svm_train(x, y, epochs=15, seed=5)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_one_hot_axes_dominate(self):
        x = np.eye(3).repeat(10, axis=0) * 2.0
        y = (["a"] * 10) + (["b"] * 10) + (["c"] * 10)
        model = svm_train(x, y, epochs=50, seed=2)
        for idx, _ in enumerate(model.labels):
            assert int(np.argmax(model.weights[idx])) == idx

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            svm_train(np.zeros((4, 2)), ["a"] * 4)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            svm_train(np.zeros((4, 2)), ["a", "b"])

    def test_nonpositive_regularization_rejected(self):
        x, y = _blobs(n_per=5)
        with pytest.raises(ContractError):
            svm_train(x, y, regularization=0.0)

    def test_labels_sorted(self):
        x, y = _blobs(n_per=5)
        model = svm_train(x, y[::-1], epochs=2)
        assert model.labels == ("neg", "pos")


class TestSvmScore:
    def _two_class_model(self, w, b):
        return SvmModel(
            weights=np.asarray(w, dtype=np.float64),
            biases=np.asarray(b, dtype=np.float64),
            labels=("a", "b"),
            regularization=1e-3,
        )

    def test_zero_margins_split_evenly(self):
        model = self._two_class_model([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        scores = svm_score(model, np.zeros(2))
        assert np.allclose(scores.values, [0.5, 0.5], atol=1e-12)
        assert scores.normalized is True

    def test_log3_margin_gives_three_to_one(self):
        model = self._two_class_model([[1.0, 0.0], [0.0, 1.0]], [math.log(3.0), 0.0])
        scores = svm_score(model, np.zeros(2))
        assert np.allclose(scores.values, [0.75, 0.25], atol=1e-12)

    def test_raw_mode_returns_margins(self):
        model = self._two_class_model([[2.0, 0.0], [0.0, 1.0]], [0.5, -0.5])
        v = np.array([1.0, 3.0])
        scores = svm_score(model, v, normalize=False)
        assert np.allclose(scores.values, [2.5, 2.5], atol=1e-12)
        assert scores.normalized is False

    def test_length_mismatch_rejected(self):
        model = self._two_class_model([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(ContractError):
            svm_score(model, np.zeros(3))

    @given(st.integers(0, 999))
    @settings(max_examples=120, deadline=None)
    def test_argmax_matches_margins(self, seed):
        local = np.random.default_rng(seed)
        c = int(local.integers(2, 5))
        d = int(local.integers(1, 6))
        model = SvmModel(
            weights=local.normal(size=(c, d)),
            biases=local.normal(size=c),
            labels=tuple(f"k{i}" for i in range(c)),
            regularization=1e-3,
        )
        v = local.normal(size=d)
        raw = svm_margins(model, v)
        soft = svm_score(model, v)
        assert int(np.argmax(soft.values)) == int(np.argmax(raw))


class TestFuseScores:
    def _sv(self, values):
        return ScoreVector(np.asarray(values, dtype=np.float64), normalized=True)

    def test_pair_mean(self):
        out = fuse_scores([self._sv([0.2, 0.8]), self._sv([0.4, 0.6])])
        assert np.allclose(out.values, [0.3, 0.7], atol=1e-12)
        assert out.normalized is True

    def test_idempotence_exact(self):
        v = self._sv([0.125, 0.5, 0.375])
        out = fuse_scores([v, v, v, v, v])
        assert np.array_equal(out.values, v.values)

    def test_two_level_equals_half_sum(self):
        a = self._sv([0.6, 0.4])
        b = self._sv([0.1, 0.9])
        top = fuse_scores([a, b])
        assert np.allclose(top.values, 0.5 * (a.values + b.values), atol=1e-15)

    def test_permutation_invariance_exact(self, rng):
        raw = rng.random((6, 4))
        raw /= raw.sum(axis=1, keepdims=True)
        streams = [self._sv(row) for row in raw]
        fwd = fuse_scores(streams)
        rev = fuse_scores(streams[::-1])
        shuffled = fuse_scores([streams[i] for i in (3, 0, 5, 1, 4, 2)])
        assert np.array_equal(fwd.values, rev.values)
        assert np.array_equal(fwd.values, shuffled.values)

    def test_output_on_simplex(self, rng):
        raw = rng.random((5, 3))
        raw /= raw.sum(axis=1, keepdims=True)
        out = fuse_scores([self._sv(row) for row in raw])
        assert abs(float(out.values.sum()) - 1.0) <= 1e-6
        assert np.all(out.values >= 0.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ContractError):
            fuse_scores([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            fuse_scores([self._sv([0.5, 0.5]), self._sv([0.2, 0.3, 0.5])])

    def test_unnormalized_input_rejected(self):
        good = self._sv([0.5, 0.5])
        bad = ScoreVector(np.array([1.0, 2.0]), normalized=False)
        with pytest.raises(ContractError):
            fuse_scores([good, bad])


class TestModelFile:
    def _models(self, seed=0):
        """One slot's models: a PCA and two SVMs trained on its projection."""
        local = np.random.default_rng(seed)
        x = local.normal(size=(30, 6))
        pca = pca_fit(x, target=0.9)
        proj = np.stack([pca_project(pca, row) for row in x])
        y = ["a" if v[0] < 0 else "b" for v in x]
        svms = [svm_train(proj, y, epochs=10, seed=s) for s in (1, 2)]
        return pca, svms

    def test_round_trip_values(self, tmp_path):
        pca, svms = self._models()
        path = tmp_path / "m.models"
        save_models(path, pca, svms)
        pca2, svms2 = load_models(path)
        assert np.allclose(pca2.mean, pca.mean, atol=1e-6)
        assert np.allclose(pca2.components, pca.components, atol=1e-6)
        assert len(svms2) == 2
        for svm, svm2 in zip(svms, svms2):
            assert svm2.labels == svm.labels
            assert np.allclose(svm2.weights, svm.weights, atol=1e-6)

    def test_save_load_save_bytes_identical(self, tmp_path):
        pca, svms = self._models(seed=4)
        p1 = tmp_path / "m1.models"
        p2 = tmp_path / "m2.models"
        save_models(p1, pca, svms)
        pca2, svms2 = load_models(p1)
        save_models(p2, pca2, svms2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pca_stored_once(self, tmp_path):
        pca, svms = self._models(seed=5)
        one, two = tmp_path / "one.models", tmp_path / "two.models"
        save_models(one, pca, svms[:1])
        save_models(two, pca, svms)
        svm_bytes = 8 + 8 + 4 * svms[1].weights.size + 8 + 4 * svms[1].biases.size
        assert two.stat().st_size - one.stat().st_size == svm_bytes

    def test_mixed_labels_rejected(self, tmp_path):
        pca, svms = self._models(seed=6)
        other = dataclasses.replace(svms[1], labels=("a", "c"))
        with pytest.raises(ContractError):
            save_models(tmp_path / "m.models", pca, [svms[0], other])

    def test_version_1_rejected(self, tmp_path):
        pca, svms = self._models(seed=7)
        path = tmp_path / "m.models"
        save_models(path, pca, svms)
        data = bytearray(path.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 1"):
            load_models(path)

    @pytest.mark.parametrize(
        "fault", ["no SVM", "weights transposed", "components transposed", "fraction missing"]
    )
    def test_array_shapes_that_disagree_rejected(self, tmp_path, fault):
        pca, (svm, _) = self._models(seed=8)
        if fault == "weights transposed":
            svm = dataclasses.replace(svm, weights=svm.weights.T)
        elif fault == "components transposed":
            pca = dataclasses.replace(pca, components=pca.components.T)
        elif fault == "fraction missing":
            pca = dataclasses.replace(pca, variance_fractions=pca.variance_fractions[:-1])
        path = tmp_path / "m.models"
        save_models(path, pca, [svm])
        if fault == "no SVM":
            # Count 0, and cut the SVM's regularization, weights and biases.
            data = path.read_bytes()
            count_at = 12 + sum(4 + len(label.encode()) for label in svm.labels)
            svm_arrays = 8 + 4 * svm.weights.size + 8 + 4 * svm.biases.size
            path.write_bytes(
                data[:count_at] + bytes(4) + data[count_at + 12 : len(data) - svm_arrays]
            )
        with pytest.raises(FormatError, match="no SVM, or its array shapes disagree"):
            load_models(path)

    @pytest.mark.parametrize("k, d", [(0, 3), (2, 0), (0, 0)])
    def test_empty_pca_rejected(self, tmp_path, k, d):
        # Such a file would score every vector by the SVM biases alone.
        pca = PcaModel(np.zeros(d), np.zeros((k, d)), np.full(k, 1.0 / max(k, 1)))
        svm = SvmModel(np.zeros((2, k)), np.array([0.1, -0.1]), ("a", "b"), 1e-3)
        path = tmp_path / "m.models"
        save_models(path, pca, [svm])
        with pytest.raises(
            FormatError, match=f"holds a PCA of {k} components over {d} inputs"
        ):
            load_models(path)

    def test_every_truncation_raises_typed_error(self, tmp_path):
        pca, svms = self._models(seed=2)
        # Multi-byte labels, so some cuts land inside a UTF-8 sequence.
        svms = [dataclasses.replace(svm, labels=("wave hand", "grüßen")) for svm in svms]
        path = tmp_path / "m.models"
        save_models(path, pca, svms)
        data = path.read_bytes()
        cut_path = tmp_path / "cut.models"
        for cut in range(len(data)):
            cut_path.write_bytes(data[:cut])
            with pytest.raises(DmmActionError):
                load_models(cut_path)

    @given(data=st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_load_or_raise_typed_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "m.models"
        path.write_bytes(data)
        try:
            pca, _ = load_models(path)
        except DmmActionError:
            return
        assert min(pca.components.shape) >= 1  # k and d, as pca_fit writes them

    @given(position=st.integers(min_value=0), value=st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_single_byte_corruption_loads_or_raises_typed_error(
        self, tmp_path_factory, position, value
    ):
        pca, svms = self._models(seed=3)
        svms = [dataclasses.replace(svm, labels=("wave hand", "grüßen")) for svm in svms]
        path = tmp_path_factory.mktemp("flip") / "m.models"
        save_models(path, pca, svms)
        data = bytearray(path.read_bytes())
        data[position % len(data)] = value
        path.write_bytes(bytes(data))
        try:
            pca2, svms2 = load_models(path)
        except DmmActionError:
            return
        assert min(pca2.components.shape) >= 1  # k and d, as pca_fit writes them
        loaded = [pca2.mean, pca2.components, pca2.variance_fractions]
        loaded += [a for svm in svms2 for a in (svm.weights, svm.biases)]
        assert all(np.isfinite(a).all() for a in loaded)
        v = np.zeros(len(pca2.mean))
        for svm in svms2:
            svm_margins(svm, pca_project(pca2, v))

    @pytest.mark.parametrize(
        "array, value", [("svm 1 biases", np.nan), ("pca mean", np.inf), ("pca mean", -np.inf)]
    )
    def test_non_finite_value_rejected(self, tmp_path, array, value):
        pca, svms = self._models(seed=10)
        if array == "pca mean":
            pca = dataclasses.replace(pca, mean=np.concatenate([[value], pca.mean[1:]]))
        else:
            svms[1] = dataclasses.replace(svms[1], biases=np.append(svms[1].biases[:-1], value))
        path = tmp_path / "m.models"
        save_models(path, pca, svms)
        with pytest.raises(FormatError, match=f"^{array} holds a NaN or an infinity$"):
            load_models(path)

    def test_loaded_model_scores_match_file_precision(self, tmp_path):
        pca, svms = self._models(seed=9)
        path = tmp_path / "m.models"
        save_models(path, pca, svms)
        pca2, svms2 = load_models(path)
        v = np.linspace(-1, 1, 6)
        for svm, svm2 in zip(svms, svms2):
            a = svm_score(svm, pca_project(pca, v))
            b = svm_score(svm2, pca_project(pca2, v))
            assert np.allclose(a.values, b.values, atol=1e-5)
