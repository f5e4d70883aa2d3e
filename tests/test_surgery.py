import numpy as np
import pytest

from airl.encoder import build_branch
from airl.errors import (
    ArchitectureMismatchError,
    DegenerateFeatureError,
    DimensionError,
)
from airl.numerics import Rng, norm
from airl.surgery import linear_cka, norm_rescale, stagewise_cka
from presets import preset


def cosine(a, b):
    return float(np.sum(a * b) / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestNormRescale:
    def test_unit_rescale_of_three_four_five(self):
        tensors = {"w": np.array([3.0, 4.0])}
        out, report = norm_rescale(tensors, {"w": 1.0})
        assert np.allclose(out["w"], [0.6, 0.8], atol=1e-15)
        assert [t[0] for t in report.touched] == ["w"]

    def test_identical_anchor_is_identity(self):
        rng = Rng(0)
        tensors = {"a": rng.child("a").normal(size=(4, 3)),
                   "b": rng.child("b").normal(size=6)}
        targets = {name: norm(w) for name, w in tensors.items()}
        out, _ = norm_rescale(tensors, targets)
        for name in tensors:
            assert np.max(np.abs(out[name] - tensors[name])) < 1e-12

    def test_constant_factor_scales_all_norms(self):
        rng = Rng(1)
        tensors = {f"t{i}": rng.child(i).normal(size=(3, 3)) for i in range(4)}
        targets = {name: 0.1 * norm(w) for name, w in tensors.items()}
        out, report = norm_rescale(tensors, targets)
        for name in tensors:
            ratio = np.linalg.norm(out[name]) / np.linalg.norm(tensors[name])
            assert abs(ratio - 0.1) < 1e-12
        assert len(report.touched) == 4

    def test_postconditions_norm_and_direction(self):
        rng = Rng(2)
        tensors = {"w": rng.child("w").normal(size=(8, 5))}
        out, _ = norm_rescale(tensors, {"w": 2.5})
        assert abs(np.linalg.norm(out["w"]) - 2.5) / 2.5 < 1e-9
        assert abs(cosine(out["w"], tensors["w"]) - 1.0) < 1e-12

    def test_idempotent_given_same_anchor(self):
        rng = Rng(3)
        tensors = {"w": rng.child("w").normal(size=(6, 4))}
        targets = {"w": 0.7}
        once, _ = norm_rescale(tensors, targets)
        twice, _ = norm_rescale(once, targets)
        assert np.max(np.abs(np.asarray(once["w"]) - twice["w"])) < 1e-15

    def test_zero_norm_tensor_skipped(self):
        tensors = {"w": np.zeros(4)}
        out, report = norm_rescale(tensors, {"w": 1.0})
        assert np.array_equal(out["w"], np.zeros(4))
        assert report.skipped_zero == ["w"]

    def test_unmatched_names_reported_and_unchanged(self):
        tensors = {"w": np.ones(3), "extra": np.ones(2)}
        out, report = norm_rescale(tensors, {"w": 2.0})
        assert report.unmatched == ["extra"]
        assert np.array_equal(out["extra"], np.ones(2))


class TestLinearCka:
    def test_self_similarity_is_one(self):
        x = Rng(0).normal(size=(20, 6))
        assert abs(linear_cka(x, x) - 1.0) < 1e-9

    def test_scale_invariance(self):
        x = Rng(1).normal(size=(18, 5))
        for c in (0.1, -3.0, 250.0):
            assert abs(linear_cka(x, c * x) - 1.0) < 1e-9

    def test_orthogonal_rotation_invariance(self):
        rng = Rng(2)
        x = rng.child("x").normal(size=(25, 7))
        q, _ = np.linalg.qr(rng.child("q").normal(size=(7, 7)))
        assert abs(np.max(np.abs(q @ q.T - np.eye(7)))) < 1e-12
        assert abs(linear_cka(x, x @ q) - 1.0) < 1e-9

    def test_symmetry_and_bounds(self):
        rng = Rng(3)
        x = rng.child("x").normal(size=(15, 4))
        y = rng.child("y").normal(size=(15, 9))
        assert abs(linear_cka(x, y) - linear_cka(y, x)) < 1e-12
        assert -1e-12 <= linear_cka(x, y) <= 1.0 + 1e-12

    def test_translation_invariance(self):
        rng = Rng(4)
        x = rng.child("x").normal(size=(16, 5))
        y = rng.child("y").normal(size=(16, 5))
        offset = rng.child("o").normal(size=5)
        assert abs(linear_cka(x + offset, y) - linear_cka(x, y)) < 1e-9

    def test_zero_variance_rejected(self):
        x = np.ones((10, 3))
        y = Rng(5).normal(size=(10, 3))
        with pytest.raises(DegenerateFeatureError):
            linear_cka(x, y)

    def test_needs_matching_sample_counts(self):
        with pytest.raises(DimensionError):
            linear_cka(np.zeros((4, 2)), np.zeros((5, 2)))


class TestStagewiseCka:
    def cfg(self, **overrides):
        defaults = dict(input_dim=12, backbone_hidden=6, backbone_out=6,
                        projector_hidden=6, projector_out=4)
        defaults.update(overrides)
        return preset("byol", **defaults)

    def test_same_model_gives_all_ones(self):
        params = build_branch(self.cfg(), Rng(0))
        batch = Rng(1).normal(size=(10, 12))
        rows = stagewise_cka(params, params.copy(), batch)
        assert [s for s, _ in rows] == ["backbone1", "backbone2",
                                        "projector", "predictor"]
        assert all(abs(v - 1.0) < 1e-9 for _, v in rows)

    def test_different_models_below_one(self):
        a = build_branch(self.cfg(), Rng(0))
        b = build_branch(self.cfg(), Rng(99))
        batch = Rng(1).normal(size=(12, 12))
        rows = stagewise_cka(a, b, batch)
        assert all(v < 1.0 for _, v in rows)

    def test_architecture_mismatch_rejected(self):
        a = build_branch(self.cfg(), Rng(0), with_predictor=True)
        b = build_branch(self.cfg(), Rng(0), with_predictor=False)
        with pytest.raises(ArchitectureMismatchError):
            stagewise_cka(a, b, Rng(1).normal(size=(8, 12)))
