import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameworks_reference as reference
from presets import preset
from airl import encoder
from airl.errors import ConfigError, DimensionError
from airl.frameworks import (
    KINDS,
    MemoryQueue,
    byol_loss,
    compute_loss_and_grads,
    contrastive_loss,
    ema_update,
    init_siamese_state,
    momentum_at,
    step_loss,
    training_step,
)
from airl.numerics import Rng, finite_diff_grad, relative_error
from airl.optim import LrSchedule, Optimizer, SgdConfig


def unit_rows(rng, n, d):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def tiny_state(kind, seed=0, total_steps=10, queue_rows=12, **overrides):
    defaults = dict(
        input_dim=12, backbone_hidden=6, backbone_out=6,
        projector_hidden=6, projector_out=5, queue_size=16,
    )
    defaults.update(overrides)
    cfg = preset(kind, **defaults)
    state = init_siamese_state(cfg, Rng(seed).child("init"), total_steps)
    if state.queue is not None and queue_rows:
        state.queue.enqueue(unit_rows(Rng(seed).child("warm"), queue_rows,
                                      cfg.projector_out))
    return cfg, state


class TestContrastiveLoss:
    def test_empty_queue_gives_exactly_zero(self):
        q = unit_rows(Rng(0), 3, 4)
        k = unit_rows(Rng(1), 3, 4)
        loss, grad = contrastive_loss(q, k, np.zeros((0, 4)), 0.2)
        assert loss == 0.0
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_aligned_positive_orthogonal_negative(self):
        # q.k+ = 1, q.k- = 0, tau = 0.2: loss = log(1 + e^-5)
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0]])
        neg = np.array([[0.0, 1.0]])
        loss, _ = contrastive_loss(q, k, neg, 0.2)
        assert abs(loss - np.log1p(np.exp(-5.0))) < 1e-9

    def test_equal_logits_give_ln2(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[0.6, 0.8]])
        neg = np.array([[0.6, -0.8]])  # same dot with q as the positive
        loss, _ = contrastive_loss(q, k, neg, 0.2)
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_invariant_to_negative_order(self):
        rng = Rng(2)
        q = unit_rows(rng.child("q"), 4, 6)
        k = unit_rows(rng.child("k"), 4, 6)
        neg = unit_rows(rng.child("n"), 9, 6)
        loss_a, _ = contrastive_loss(q, k, neg, 0.2)
        perm = Rng(3).permutation(9)
        loss_b, _ = contrastive_loss(q, k, neg[perm], 0.2)
        assert abs(loss_a - loss_b) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = Rng(4)
        q = unit_rows(rng.child("q"), 3, 5)
        k = unit_rows(rng.child("k"), 3, 5)
        neg = unit_rows(rng.child("n"), 7, 5)
        _, grad = contrastive_loss(q, k, neg, 0.2)
        fd = finite_diff_grad(
            lambda v: contrastive_loss(v, k, neg, 0.2)[0], q
        )
        assert relative_error(grad, fd) < 1e-8

    def test_temperature_must_be_positive(self):
        q = unit_rows(Rng(0), 2, 3)
        with pytest.raises(ConfigError):
            contrastive_loss(q, q, np.zeros((0, 3)), 0.0)


class TestByolLoss:
    def test_identical_rows_give_zero(self):
        q = unit_rows(Rng(0), 3, 4)
        loss, grad = byol_loss(q, q.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_orthogonal_rows_give_two(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        k = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss, _ = byol_loss(q, k)
        assert loss == 2.0

    def test_three_four_five_case(self):
        loss, _ = byol_loss(np.array([[0.6, 0.8]]), np.array([[1.0, 0.0]]))
        assert abs(loss - 0.8) < 1e-12
        assert abs(loss - (2.0 - 2.0 * 0.6)) < 1e-12

    def test_unit_row_identity_with_dot_form(self):
        rng = Rng(5)
        q = unit_rows(rng.child("q"), 6, 8)
        k = unit_rows(rng.child("k"), 6, 8)
        loss, _ = byol_loss(q, k)
        dot_form = 2.0 - 2.0 * float(np.mean(np.sum(q * k, axis=1)))
        assert abs(loss - dot_form) < 1e-12

    def test_gradient(self):
        rng = Rng(6)
        q = unit_rows(rng.child("q"), 4, 5)
        k = unit_rows(rng.child("k"), 4, 5)
        _, grad = byol_loss(q, k)
        fd = finite_diff_grad(lambda v: byol_loss(v, k)[0], q)
        assert relative_error(grad, fd) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            byol_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestMomentumSchedule:
    def test_endpoints_exact(self):
        assert momentum_at(0, 100, 0.99, "cosine_ascend") == 0.99
        assert momentum_at(100, 100, 0.99, "cosine_ascend") == 1.0

    def test_midpoint(self):
        assert abs(momentum_at(50, 100, 0.99, "cosine_ascend") - 0.995) < 1e-12

    def test_constant(self):
        assert momentum_at(7, 10, 0.999, "constant") == 0.999

    def test_zero_total_rejected(self):
        with pytest.raises(ConfigError):
            momentum_at(0, 0, 0.99, "cosine_ascend")


class TestMemoryQueue:
    def test_fifo_overwrites_oldest(self):
        queue = MemoryQueue(4, 2)
        a, b, c, d, e, f = [
            np.array([[np.cos(t), np.sin(t)]]) for t in range(6)
        ]
        queue.enqueue(np.vstack([a, b]))
        queue.enqueue(np.vstack([c, d]))
        queue.enqueue(np.vstack([e, f]))
        contents = {tuple(np.round(row, 12)) for row in queue.contents()}
        expected = {tuple(np.round(row[0], 12)) for row in (c, d, e, f)}
        assert contents == expected

    def test_empty_enqueue_is_identity(self):
        queue = MemoryQueue(4, 3)
        queue.enqueue(unit_rows(Rng(0), 2, 3))
        before = queue.contents()
        queue.enqueue(np.zeros((0, 3)))
        assert np.array_equal(queue.contents(), before)

    def test_rows_stay_unit_norm(self):
        queue = MemoryQueue(8, 4)
        queue.enqueue(unit_rows(Rng(1), 5, 4))
        norms = np.linalg.norm(queue.contents(), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_overfull_batch_rejected(self):
        queue = MemoryQueue(2, 3)
        with pytest.raises(ConfigError):
            queue.enqueue(unit_rows(Rng(0), 3, 3))

    def test_non_unit_rows_rejected(self):
        queue = MemoryQueue(4, 3)
        with pytest.raises(ConfigError):
            queue.enqueue(2.0 * unit_rows(Rng(0), 2, 3))

    def test_fill_grows_to_capacity_and_stays(self):
        queue = MemoryQueue(6, 2)
        for step in range(5):
            queue.enqueue(unit_rows(Rng(step), 2, 2))
            assert queue.count == min(2 * (step + 1), 6)


class TestEmaUpdate:
    def test_m_one_freezes_teacher(self):
        _, state = tiny_state("moco_v2")
        before = {k: v.copy() for k, v in state.teacher.tensors.items()}
        for name in state.student.tensors:
            state.student.tensors[name] += 1.0
        ema_update(state.teacher, state.student, 1.0)
        for name, value in state.teacher.tensors.items():
            assert np.array_equal(value, before[name])

    def test_closed_form_with_frozen_student(self):
        _, state = tiny_state("byol", seed=3)
        teacher0 = {k: v.copy() for k, v in state.teacher.tensors.items()}
        m, steps = 0.97, 12
        for _ in range(steps):
            ema_update(state.teacher, state.student, m)
        factor = m**steps
        for name, value in state.teacher.tensors.items():
            expected = (factor * teacher0[name]
                        + (1 - factor) * state.student.tensors[name])
            assert np.max(np.abs(value - expected)) < 1e-10


class TestTrainingStep:
    def make_batch(self, seed, n=4, d=12):
        rng = Rng(seed)
        return (rng.child("x1").random((n, d)),
                rng.child("x2").random((n, d)))

    def opt(self, epochs=10):
        return Optimizer(SgdConfig(momentum=0.9, weight_decay=0.0),
                         LrSchedule(0.05, warmup_epochs=0,
                                    total_epochs=epochs))

    @pytest.mark.parametrize("kind", ["moco_v2", "moco_v2_plus",
                                      "s_moco_v2_plus", "byol"])
    def test_teacher_gets_no_gradients(self, kind):
        cfg, state = tiny_state(kind)
        x1, x2 = self.make_batch(0)
        _, grads, _ = compute_loss_and_grads(state, x1, x2, cfg)
        assert set(grads) == set(state.student.tensors)

    def test_symmetric_loss_is_mean_of_directions(self):
        cfg, state = tiny_state("moco_v2_plus")
        x1, x2 = self.make_batch(1)
        loss, _, aux = compute_loss_and_grads(state, x1, x2, cfg)
        l1, l2 = aux["direction_losses"]
        assert loss == (l1 + l2) * 0.5

    def test_identical_views_make_directions_equal(self):
        # deterministic encoders + identical views
        cfg, state = tiny_state("moco_v2_plus")
        x, _ = self.make_batch(2)
        _, _, aux = compute_loss_and_grads(state, x, x.copy(), cfg)
        l1, l2 = aux["direction_losses"]
        assert abs(l1 - l2) < 1e-12

    def test_symmetric_enqueues_both_directions(self):
        cfg, state = tiny_state("moco_v2_plus", queue_rows=0)
        x1, x2 = self.make_batch(3)
        training_step(state, x1, x2, cfg, self.opt())
        assert state.queue.count == 2 * x1.shape[0]

    def test_asymmetric_enqueues_one_direction(self):
        cfg, state = tiny_state("moco_v2", queue_rows=0)
        x1, x2 = self.make_batch(3)
        training_step(state, x1, x2, cfg, self.opt())
        assert state.queue.count == x1.shape[0]

    def test_byol_has_no_queue(self):
        _, state = tiny_state("byol")
        assert state.queue is None

    def test_step_counter_and_metrics(self):
        cfg, state = tiny_state("byol")
        x1, x2 = self.make_batch(4)
        state, metrics = training_step(state, x1, x2, cfg, self.opt())
        assert state.step == 1
        assert np.isfinite(metrics["loss"])
        assert metrics["queue_fill"] == 0

    def test_step_loss_is_reproducible(self):
        cfg, state = tiny_state("moco_v2")
        x1, x2 = self.make_batch(5)
        assert step_loss(state, x1, x2, cfg) == \
            step_loss(state, x1, x2, cfg)

    @pytest.mark.parametrize("kind", ["moco_v2", "byol"])
    def test_full_step_gradients_match_finite_differences(self, kind):
        cfg, state = tiny_state(kind, seed=8)
        x1, x2 = self.make_batch(8)
        _, grads, _ = compute_loss_and_grads(state, x1, x2, cfg)
        names = sorted(state.student.tensors)
        analytic = np.concatenate([grads[n].ravel() for n in names])
        fd_parts = []
        for name in names:
            orig = state.student.tensors[name].copy()

            def f(arr, _name=name):
                state.student.tensors[_name][...] = arr
                return step_loss(state, x1, x2, cfg)

            fd_parts.append(finite_diff_grad(f, orig).ravel())
            state.student.tensors[name][...] = orig
        assert relative_error(analytic, np.concatenate(fd_parts)) < 1e-4

    def test_contrastive_state_without_queue_rejected(self):
        # The config cannot ask for this; a state assembled by hand can.
        cfg, state = tiny_state("moco_v2_plus")
        state.queue = None
        with pytest.raises(ConfigError, match="needs a memory queue"):
            compute_loss_and_grads(state, *self.make_batch(0), cfg)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError,
                           match="^framework.kind must be one of moco_v2, "):
            dataclasses.replace(preset("byol"), kind="simclr")

    def test_stop_gradient_disabled_restricted_to_byol(self):
        with pytest.raises(ConfigError):
            preset("moco_v2", stop_gradient=False)

    def test_stop_gradient_disabled_moves_both_sides(self):
        cfg, state = tiny_state("byol", stop_gradient=False,
                                predictor_placement="none")
        x1, x2 = self.make_batch(9)
        loss, grads, aux = compute_loss_and_grads(state, x1, x2, cfg)
        assert set(grads) == set(state.student.tensors)
        assert aux["teacher_feats"] is None
        # gradient check for the both-sided path
        names = sorted(state.student.tensors)
        analytic = np.concatenate([grads[n].ravel() for n in names])
        fd_parts = []
        for name in names:
            orig = state.student.tensors[name].copy()

            def f(arr, _name=name):
                state.student.tensors[_name][...] = arr
                return step_loss(state, x1, x2, cfg)

            fd_parts.append(finite_diff_grad(f, orig).ravel())
            state.student.tensors[name][...] = orig
        assert relative_error(analytic, np.concatenate(fd_parts)) < 1e-4


# The four presets, then the collapse study's ablation arm, the only path
# through `_direct_distance_loss`.
STEP_VARIANTS = {
    **{kind: (kind, {}) for kind in KINDS},
    "byol_no_pred_no_stopgrad": ("byol", dict(predictor_placement="none",
                                              stop_gradient=False)),
}


class TestStackedStep:
    """The step encodes both views of a branch in one pass; it must equal
    the frozen per-direction step in `frameworks_reference` bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(sorted(STEP_VARIANTS)),
           seed=st.integers(0, 2**16),
           n=st.integers(2, 6),
           queue_rows=st.integers(0, 16))
    def test_equals_per_direction_reference(self, variant, seed, n,
                                            queue_rows):
        kind, overrides = STEP_VARIANTS[variant]
        cfg, state = tiny_state(kind, seed=seed, queue_rows=queue_rows,
                                **overrides)
        _, ref_state = tiny_state(kind, seed=seed, queue_rows=queue_rows,
                                  **overrides)
        rng = Rng(seed).child("views")
        x1 = rng.child("x1").random((n, 12))
        x2 = rng.child("x2").random((n, 12))

        loss, grads, aux = compute_loss_and_grads(state, x1, x2, cfg)
        ref_loss, ref_grads, ref_aux = reference.compute_loss_and_grads(
            ref_state, x1, x2, cfg)

        assert loss == ref_loss
        assert aux["direction_losses"] == ref_aux["direction_losses"]
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert np.array_equal(grad, ref_grads[name]), name
        for key in ("teacher_feats", "embeddings"):
            if ref_aux[key] is None:
                assert aux[key] is None
            else:
                assert np.array_equal(aux[key], ref_aux[key]), key
        branches = [(state.student, ref_state.student)]
        if cfg.stop_gradient:
            branches.append((state.teacher, ref_state.teacher))
        else:
            assert state.teacher is None and ref_state.teacher is None
        for branch, ref_branch in branches:
            assert branch.running.keys() == ref_branch.running.keys()
            for name, stat in branch.running.items():
                assert np.array_equal(stat, ref_branch.running[name]), name

    def test_views_of_different_shapes_rejected(self):
        for variant in ("moco_v2_plus", "byol_no_pred_no_stopgrad"):
            kind, overrides = STEP_VARIANTS[variant]
            cfg, state = tiny_state(kind, **overrides)
            x1 = Rng(0).random((4, 12))
            with pytest.raises(DimensionError):
                compute_loss_and_grads(state, x1, x1[:3], cfg)
