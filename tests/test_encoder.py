import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airl import encoder
from airl.encoder import (
    Block,
    EncoderParams,
    backward,
    branch_specs,
    build_branch,
    forward,
    init_params,
)
from airl.errors import (
    BatchTooSmallError,
    ConfigError,
    DimensionError,
    NumericOverflowError,
)
from airl.frameworks import PLACEMENTS, init_siamese_state
from airl.numerics import Rng, finite_diff_grad, matmul, relative_error
from presets import preset


def tiny_cfg(**overrides):
    defaults = dict(
        input_dim=12, backbone_hidden=8, backbone_out=8,
        projector_hidden=8, projector_out=6,
    )
    defaults.update(overrides)
    return preset("s_moco_v2_plus", **defaults)


def flat_grads(grads, names):
    return np.concatenate([grads[n].ravel() for n in names])


def encoder_fd_check(params, x, seed, groups=1):
    """Whole-gradient check of a random linear functional of the output.

    With several groups the analytic gradient is the sum of the per-group
    maps, since the functional sums over every group's rows.
    """
    weights = Rng(seed).child("w").normal(size=(x.shape[0], params.out_dim))

    out, cache = forward(params, x, training=True, groups=groups)
    grad_sets = backward(cache, weights)
    assert len(grad_sets) == groups
    names = sorted(params.tensors)
    analytic = sum(flat_grads(grads, names) for grads in grad_sets)

    fd_parts = []
    for name in names:
        orig = params.tensors[name].copy()

        def f(arr, _name=name):
            params.tensors[_name][...] = arr
            value, _ = forward(params, x, training=True, groups=groups)
            return float(np.sum(value * weights))

        fd_parts.append(finite_diff_grad(f, orig).ravel())
        params.tensors[name][...] = orig
    return relative_error(analytic, np.concatenate(fd_parts))


class TestForward:
    def test_zero_depth_encoder_is_identity(self):
        params = EncoderParams(specs=())
        x = Rng(0).normal(size=(3, 5))
        out, _ = forward(params, x, training=True)
        assert np.array_equal(out, x)

    def test_single_linear_identity_weights(self):
        spec = (Block("backbone1", "lin", 4, 4, norm=False, relu=False),)
        params = EncoderParams(specs=spec)
        params.tensors["lin.weight"] = np.eye(4)
        params.tensors["lin.bias"] = np.zeros(4)
        params.roles = {"lin.weight": "weight", "lin.bias": "bias"}
        x = Rng(1).normal(size=(3, 4))
        out, _ = forward(params, x, training=True)
        assert np.array_equal(out, x)

    def test_training_bn_rejects_batch_of_one(self):
        params = build_branch(tiny_cfg(), Rng(0))
        x = Rng(1).normal(size=(1, 12))
        with pytest.raises(BatchTooSmallError):
            forward(params, x, training=True)

    def test_batch_stats_normalize_before_affine(self):
        # Large input variance keeps the BN epsilon negligible.
        spec = (Block("backbone1", "lin", 6, 6, norm=True, relu=False),)
        params = init_params(spec, Rng(0))
        x = 20.0 * Rng(3).normal(size=(64, 6)) + 5.0
        out, _ = forward(params, x, training=True)  # affine is identity at init
        assert np.max(np.abs(out.mean(axis=0))) <= 1e-8
        assert np.max(np.abs(out.var(axis=0) - 1.0)) <= 1e-6

    def test_eval_mode_is_pure(self):
        params = build_branch(tiny_cfg(), Rng(0))
        x = Rng(1).normal(size=(4, 12))
        running_before = {k: v.copy() for k, v in params.running.items()}
        out1, _ = forward(params, x, training=False)
        out2, _ = forward(params, x, training=False)
        assert np.array_equal(out1, out2)
        for key, value in params.running.items():
            assert np.array_equal(value, running_before[key])

    def test_training_updates_running_stats(self):
        params = build_branch(tiny_cfg(), Rng(0))
        before = params.running["backbone1_bn.mean"].copy()
        forward(params, Rng(1).normal(size=(4, 12)), training=True)
        assert not np.array_equal(params.running["backbone1_bn.mean"], before)

    def test_refresh_running_stats_converges_to_batch_stats(self):
        spec = (Block("backbone1", "lin", 4, 4, norm=True, relu=False),)
        params = init_params(spec, Rng(0))
        params.tensors["lin.weight"] = np.eye(4)
        x = 3.0 * Rng(1).normal(size=(64, 4)) + 2.0
        encoder.refresh_running_stats(params, x, passes=200)
        assert np.allclose(params.running["backbone1_bn.mean"],
                           x.mean(axis=0), atol=1e-6)
        assert np.allclose(params.running["backbone1_bn.var"],
                           x.var(axis=0), atol=1e-5)

    def test_non_finite_linear_output_raises_before_relu(self):
        # The relu would map the linear's -inf to 0, so only a check
        # between the two catches it.
        spec = (Block("backbone1", "lin", 2, 2, norm=False, relu=True),)
        params = init_params(spec, Rng(0))
        params.tensors["lin.weight"] = np.full((2, 2), -1e308)
        x = np.full((3, 2), 10.0)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericOverflowError, match="'lin'"):
                forward(params, x, training=True)


class TestBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        params = build_branch(tiny_cfg(), Rng(0))
        x = Rng(1).normal(size=(4, 12))
        _, cache = forward(params, x, training=True)
        [grads] = backward(cache, np.zeros((4, 6)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_linear_weight_grad_analytic_form(self):
        spec = (Block("backbone1", "lin", 3, 2, norm=False, relu=False),)
        params = init_params(spec, Rng(0))
        x = Rng(1).normal(size=(5, 3))
        g = Rng(2).normal(size=(5, 2))
        _, cache = forward(params, x, training=True)
        [grads] = backward(cache, g)
        assert np.array_equal(grads["lin.weight"], matmul(x.T, g))

    def test_eval_cache_rejected(self):
        params = build_branch(tiny_cfg(), Rng(0))
        _, cache = forward(params, Rng(1).normal(size=(4, 12)), training=False)
        with pytest.raises(ConfigError):
            backward(cache, np.zeros((4, 6)))

    def test_grad_shape_mismatch(self):
        params = build_branch(tiny_cfg(), Rng(0))
        _, cache = forward(params, Rng(1).normal(size=(4, 12)), training=True)
        with pytest.raises(DimensionError):
            backward(cache, np.zeros((4, 7)))

    def test_three_layer_encoder_matches_finite_differences(self):
        # linear + BN + relu over a random 4x8 input
        specs = (Block("backbone1", "lin", 8, 6, norm=True, relu=True),)
        params = init_params(specs, Rng(5))
        x = Rng(6).normal(size=(4, 8))
        assert encoder_fd_check(params, x, seed=7) < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_on_random_small_configs(self, seed):
        rng = Rng(seed)
        dims = rng.child("dims")
        cfg = tiny_cfg(
            backbone_hidden=int(dims.integers(3, 8)),
            backbone_out=int(dims.integers(3, 8)),
            projector_hidden=int(dims.integers(3, 8)),
            projector_out=int(dims.integers(2, 6)),
            projector_hidden_bn=bool(dims.random() < 0.5),
        )
        params = build_branch(cfg, rng.child("init"),
                              with_predictor=bool(dims.random() < 0.5))
        x = rng.child("x").normal(size=(4, 12))
        assert encoder_fd_check(params, x, seed=seed) < 1e-4


def random_branch(seed):
    """A small branch with drawn widths (1 to 5), hidden BN and predictor."""
    dims = Rng(seed).child("dims")
    cfg = tiny_cfg(
        backbone_hidden=int(dims.integers(1, 6)),
        backbone_out=int(dims.integers(1, 6)),
        projector_hidden=int(dims.integers(1, 6)),
        projector_out=int(dims.integers(1, 6)),
        projector_hidden_bn=bool(dims.random() < 0.5),
    )
    return build_branch(cfg, Rng(seed).child("init"),
                        with_predictor=bool(dims.random() < 0.5))


class TestGroups:
    """A forward over G stacked groups equals G one-group forwards."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), groups=st.integers(1, 4),
           rows=st.integers(2, 5))
    def test_grouped_pass_equals_sequential_passes(self, seed, groups, rows):
        grouped = random_branch(seed)
        sequential = grouped.copy()
        x = 3.0 * Rng(seed).child("x").normal(size=(groups * rows, 12))
        grad_out = Rng(seed).child("g").normal(
            size=(groups * rows, grouped.out_dim))

        out, cache = forward(grouped, x, training=True, groups=groups)
        grad_sets = backward(cache, grad_out)
        assert len(grad_sets) == groups
        for g in range(groups):
            span = slice(g * rows, (g + 1) * rows)
            out_g, cache_g = forward(sequential, x[span], training=True)
            [grads_g] = backward(cache_g, grad_out[span])
            assert np.array_equal(out[span], out_g)
            assert cache["stages"].keys() == cache_g["stages"].keys()
            for stage, value in cache_g["stages"].items():
                assert np.array_equal(cache["stages"][stage][span], value)
            assert grad_sets[g].keys() == grads_g.keys()
            for name, value in grads_g.items():
                assert np.array_equal(grad_sets[g][name], value), name
        for name, value in sequential.running.items():
            assert np.array_equal(grouped.running[name], value), name

    def test_eval_mode_ignores_groups(self):
        params = build_branch(tiny_cfg(), Rng(0))
        x = Rng(1).normal(size=(6, 12))
        one, _ = forward(params, x, training=False)
        three, _ = forward(params, x, training=False, groups=3)
        assert np.array_equal(one, three)

    @pytest.mark.parametrize("seed", range(4))
    def test_grouped_backward_matches_finite_differences(self, seed):
        params = random_branch(seed)
        x = Rng(seed).child("x").normal(size=(6, 12))
        assert encoder_fd_check(params, x, seed=seed, groups=2) < 1e-4

    def test_each_group_needs_two_rows(self):
        params = build_branch(tiny_cfg(), Rng(0))
        x = Rng(1).normal(size=(4, 12))
        forward(params, x, training=True, groups=2)
        with pytest.raises(BatchTooSmallError):
            forward(params, x, training=True, groups=4)

    @pytest.mark.parametrize("groups", [0, -1, 2, 3])
    def test_rows_must_split_into_equal_groups(self, groups):
        params = build_branch(tiny_cfg(), Rng(0))
        x = Rng(1).normal(size=(5, 12))
        for training in (True, False):
            with pytest.raises(DimensionError):
                forward(params, x, training=training, groups=groups)


class TestBuildBranch:
    def test_placement_none_has_no_predictor(self):
        params = build_branch(tiny_cfg(), Rng(0), with_predictor=False)
        assert not any(name.startswith("predictor") for name in params.tensors)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_teacher_starts_bit_equal_to_student_shared_blocks(self,
                                                              placement):
        # Student and teacher come from one constructor and one rng; each
        # tensor's draw is named by its block, so the shared blocks agree.
        cfg = tiny_cfg(predictor_placement=placement)
        state = init_siamese_state(cfg, Rng(3).child("init"), total_steps=1)
        student, teacher = state.student, state.teacher
        assert ("predictor" in student.stage_names()) == (placement != "none")
        assert ("predictor" in teacher.stage_names()) == (placement == "both")
        assert teacher.specs == tuple(
            b for b in student.specs
            if placement == "both" or b.stage != "predictor")
        assert teacher.roles == {name: student.roles[name]
                                 for name in teacher.roles}
        assert teacher.tensors.keys() == teacher.roles.keys()
        for ours, theirs in ((teacher.tensors, student.tensors),
                             (teacher.running, student.running)):
            assert ours
            for name, value in ours.items():
                assert np.array_equal(value, theirs[name]), name
                assert not np.shares_memory(value, theirs[name]), name

    def test_hidden_bn_flag_off_removes_projector_gains(self):
        params = build_branch(tiny_cfg(projector_hidden_bn=False), Rng(0))
        projector_gains = [
            n for n, role in params.roles.items()
            if n.startswith("projector") and role == "norm_gain"
        ]
        assert projector_gains == []
        # the hidden linear regains its bias when no BN follows
        assert "projector_lin1.bias" in params.tensors

    def test_init_is_deterministic(self):
        a = build_branch(tiny_cfg(), Rng(42))
        b = build_branch(tiny_cfg(), Rng(42))
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_stage_names_in_depth_order(self):
        params = build_branch(tiny_cfg(), Rng(0))
        assert params.stage_names() == [
            "backbone1", "backbone2", "projector", "predictor"
        ]
