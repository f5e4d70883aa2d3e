import numpy as np
import pytest

import evaluation_reference as reference
from presets import preset
from airl import augment
from airl.encoder import build_branch
from airl.errors import ConfigError, DimensionError, FeatureCollapseError
from airl.evaluation import (
    PROBE_BATCH,
    Dataset,
    collapse_metrics,
    fit_linear_classifier,
    images_to_inputs,
    isotropic_std_reference,
    linear_probe,
    make_synthetic_dataset,
    probe_lr,
)
from airl.numerics import Rng


def small_dataset(seed=1, **kwargs):
    defaults = dict(classes=4, per_class=8, side=8, noise=0.03, tint=0.1,
                    val_per_class=4)
    defaults.update(kwargs)
    return make_synthetic_dataset(rng=Rng(seed).child("data"), **defaults)


def small_encoder(seed=0, side=8):
    cfg = preset(
        "byol", input_dim=3 * side * side, backbone_hidden=16,
        backbone_out=16, projector_hidden=8, projector_out=4,
    )
    return build_branch(cfg, Rng(seed).child("init"))


class TestSyntheticDataset:
    def test_zero_noise_makes_class_samples_identical(self):
        data = small_dataset(noise=0.0, tint=0.0)
        for c in range(4):
            rows = data.train_images[data.train_labels == c]
            assert all(np.array_equal(rows[0], r) for r in rows[1:])

    def test_different_seeds_have_disjoint_pixel_values(self):
        a = small_dataset(seed=1, noise=0.02, tint=0.0)
        b = small_dataset(seed=2, noise=0.02, tint=0.0)
        assert not (set(a.train_images.ravel().tolist())
                    & set(b.train_images.ravel().tolist()))

    def test_counts(self):
        data = make_synthetic_dataset(8, 64, 8, Rng(0), noise=0.05, tint=0.35,
                                      val_per_class=16)
        assert data.train_images.shape[0] == 512
        assert data.val_images.shape[0] == 128
        assert sorted(set(data.train_labels.tolist())) == list(range(8))

    def test_deterministic_per_seed(self):
        a = small_dataset(seed=7)
        b = small_dataset(seed=7)
        assert np.array_equal(a.train_images, b.train_images)
        assert np.array_equal(a.val_labels, b.val_labels)

    def test_pixels_in_unit_range(self):
        data = small_dataset(noise=0.3, tint=0.5)
        for arr in (data.train_images, data.val_images):
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_classes_linearly_separable_at_low_noise(self):
        data = small_dataset(noise=0.02, tint=0.0, per_class=16)
        train = data.train_images.reshape(len(data.train_labels), -1)
        val = data.val_images.reshape(len(data.val_labels), -1)
        acc, _ = fit_linear_classifier(
            train, data.train_labels, val, data.val_labels,
        )
        assert acc == 1.0


@pytest.mark.parametrize("side_in, side_out", [(12, 16), (16, 8)])
def test_images_to_inputs_equals_per_image_resize(side_in, side_out):
    images = Rng(3).uniform(0.0, 1.0, (5, side_in, side_in, 3))
    per_image = np.stack([augment.resize_bilinear(img, side_out, side_out)
                          for img in images])
    got = images_to_inputs(images, small_encoder(side=side_out))
    assert got.shape == (5, side_out * side_out * 3)
    assert got.tobytes() == per_image.reshape(5, -1).tobytes()


class TestLinearProbe:
    def test_one_hot_features_reach_full_accuracy(self):
        labels = np.repeat(np.arange(4), 8)
        feats = np.eye(4)[labels]
        acc, _ = fit_linear_classifier(feats, labels, feats, labels)
        assert acc == 1.0

    def test_probe_never_mutates_encoder(self):
        params = small_encoder()
        data = small_dataset()
        tensors_before = {k: v.copy() for k, v in params.tensors.items()}
        running_before = {k: v.copy() for k, v in params.running.items()}
        linear_probe(params, data)
        for k, v in params.tensors.items():
            assert np.array_equal(v, tensors_before[k])
        for k, v in params.running.items():
            assert np.array_equal(v, running_before[k])

    def test_probe_deterministic(self):
        params = small_encoder()
        data = small_dataset()
        acc1, _ = linear_probe(params, data, seed=3)
        acc2, _ = linear_probe(params, data, seed=3)
        assert acc1 == acc2

    def test_collapsed_features_raise_diagnostic(self):
        params = small_encoder()
        # zero every backbone projection so features are constant
        for name, tensor in params.tensors.items():
            if name.startswith("backbone"):
                tensor[...] = 0.0
        data = small_dataset()
        with pytest.raises(FeatureCollapseError):
            linear_probe(params, data)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_fit_equals_frozen_momentum_loop(self, seed):
        # 100 rows: the last batch of every epoch is partial. ReLU-like
        # features with one dead column, as a backbone gives.
        n = 100
        assert n % PROBE_BATCH
        rng = Rng(seed).child("probe")
        feats = np.maximum(rng.child("f").normal(size=(n + 40, 24)), 0.0)
        feats[:, 3] = 0.0
        labels = rng.child("y").integers(0, 5, size=n + 40)
        args = (feats[:n], labels[:n], feats[n:], labels[n:], seed)
        acc, (w, b) = fit_linear_classifier(*args)
        ref_acc, (ref_w, ref_b) = reference.fit_linear_classifier(*args)
        assert acc == ref_acc
        assert w.tobytes() == ref_w.tobytes()
        assert b.tobytes() == ref_b.tobytes()

    def test_lr_steps_down_at_sixty_and_eighty_percent(self):
        # 50 epochs at lr 0.3, cut by 10x at epochs 30 and 40
        assert [probe_lr(e) for e in range(50)] == (
            [0.3] * 30 + [0.3 * 0.1**1] * 10 + [0.3 * 0.1**2] * 10)

    def test_empty_val_split_is_config_error(self):
        data = small_dataset(val_per_class=0)
        with pytest.raises(ConfigError, match="val split is empty"):
            linear_probe(small_encoder(), data)


class TestCollapseMetrics:
    def test_identical_rows_collapse(self):
        feats = np.tile(np.array([0.6, 0.8, 0.0]), (10, 1))
        std, erank = collapse_metrics(feats)
        assert std < 1e-12
        assert abs(erank - 1.0) < 1e-9

    def test_orthonormal_rows_full_rank(self):
        d = 12
        std, erank = collapse_metrics(np.eye(d))
        assert abs(erank - d) < 1e-6
        assert std > 0.0

    def test_invariance_to_row_permutation(self):
        feats = Rng(0).normal(size=(30, 6))
        perm = Rng(1).permutation(30)
        a = collapse_metrics(feats)
        b = collapse_metrics(feats[perm])
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-9)

    def test_effective_rank_invariant_to_rotation(self):
        feats = Rng(2).normal(size=(30, 6))
        q, _ = np.linalg.qr(Rng(3).normal(size=(6, 6)))
        _, erank_a = collapse_metrics(feats)
        _, erank_b = collapse_metrics(feats @ q)
        assert erank_a == pytest.approx(erank_b, abs=1e-6)

    def test_needs_two_rows(self):
        with pytest.raises(DimensionError):
            collapse_metrics(np.ones((1, 4)))

    def test_isotropic_reference(self):
        assert isotropic_std_reference(16) == 0.25
        # random unit vectors approach the reference
        z = Rng(4).normal(size=(4000, 16))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        std, _ = collapse_metrics(z)
        assert abs(std - 0.25) < 0.01
