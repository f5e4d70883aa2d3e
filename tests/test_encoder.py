import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airl import encoder, numerics
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
from airl.frameworks import (
    KINDS,
    PLACEMENTS,
    init_siamese_state,
    training_step,
)
from airl.numerics import Rng, finite_diff_grad, matmul, relative_error
from airl.optim import LrSchedule, Optimizer, SgdConfig
from presets import preset


# The block paths this host runs: numpy's always, the kernel's where it was
# built and passed the import probe.
BLOCK_PATHS = ("numpy", "kernel") if encoder.BLOCK_PATH == "kernel" else (
    "numpy",)
needs_block_kernel = pytest.mark.skipif(
    encoder.BLOCK_PATH != "kernel",
    reason="the block kernel was not built here or failed the import probe")


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

    @pytest.mark.parametrize("path", BLOCK_PATHS)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_the_input_error(self, path, training,
                                                     value, monkeypatch):
        # The first block's linear check catches the input value, an
        # infinity times a zero weight row included, before any running
        # statistic changes; the error names the input, not the layer.
        monkeypatch.setattr(encoder, "BLOCK_PATH", path)
        params = build_branch(tiny_cfg(), Rng(0))
        params.tensors["backbone1_lin.weight"][5] = 0.0
        x = Rng(1).normal(size=(6, 12))
        x[4, 5] = value
        before = params.copy().running
        with pytest.raises(NumericOverflowError,
                           match="^non-finite value in encoder input$"):
            forward(params, x, training=training, groups=2)
        for name, stat in before.items():
            assert stat.tobytes() == params.running[name].tobytes(), name

    @pytest.mark.parametrize("specs, rows", [
        ((Block("backbone1", "lin", 3, 2, norm=True, relu=True),), 1),
        ((Block("backbone1", "lin", 3, 0, norm=False, relu=True),), 2),
        ((), 2),
    ])
    def test_input_error_comes_first_without_a_product_to_carry_it(
            self, specs, rows):
        # A batch too small for training-mode BN, a first product with no
        # values and a branch without blocks: the input is scanned first.
        params = init_params(specs, Rng(0))
        x = np.full((rows, 3), np.nan)
        with pytest.raises(NumericOverflowError,
                           match="^non-finite value in encoder input$"):
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
    def test_gradients_on_random_small_configs(self, seed, monkeypatch):
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
        for path in BLOCK_PATHS:
            monkeypatch.setattr(encoder, "BLOCK_PATH", path)
            assert encoder_fd_check(params, x, seed=seed) < 1e-4, path


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
    def test_grouped_backward_matches_finite_differences(self, seed,
                                                         monkeypatch):
        params = random_branch(seed)
        x = Rng(seed).child("x").normal(size=(6, 12))
        for path in BLOCK_PATHS:
            monkeypatch.setattr(encoder, "BLOCK_PATH", path)
            assert encoder_fd_check(params, x, seed=seed, groups=2) < 1e-4, \
                path

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


# Values a block pass must carry bit for bit: signed zeros, subnormals and
# values near the top of the range, whose squares overflow.
SPECIALS = np.array([-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.0])
# (norm, relu) of every kind of block.
BLOCK_KINDS = ((True, True), (True, False), (False, True), (False, False))


def with_specials(rng, n, width):
    """Normal values, each column scaled by 10**-3 to 10**3, with
    `SPECIALS` at random places and a first column of -0.0."""
    x = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-3, 4, size=width)
    at = rng.permutation(n * width)[:SPECIALS.size]
    x.flat[at] = SPECIALS[:at.size]
    x[:, 0] = -0.0
    return x


def block_case(seed, width, rows, groups, norm, relu):
    """`encoder._block_trace`'s arguments after `library` for one
    training-mode block with negative gains, a -0.0 BN bias, random running
    statistics and special values in the product and in the gradient."""
    source = Rng(seed).child(width, rows, groups, norm, relu)
    block = Block("probe", "probe_lin", 1, width, norm=norm, relu=relu)
    params = init_params((block,), source.child("init"))
    if norm:
        params.tensors["probe_bn.gain"] = source.child("gain").normal(
            size=width)
        params.tensors["probe_bn.bias"] = source.child("beta").normal(
            size=width)
        params.tensors["probe_bn.bias"][-1] = -0.0
        params.running["probe_bn.mean"] = source.child("mean").normal(
            size=width)
        params.running["probe_bn.var"] = source.child("var").uniform(
            0.5, 2.0, size=width)
    n = groups * rows
    return (block, params, with_specials(source.child("x"), n, width),
            True, groups, with_specials(source.child("grad"), n, width))


@needs_block_kernel
@pytest.mark.parametrize("width", [2, 7, 8, 9, 17, 64])
def test_kernel_block_pass_gives_numpy_bits(width):
    # Output, cache entries, running statistics, the gradient of the
    # product and the per-group sums of a training-mode block, at every
    # width from 2 the kernel's loops split differently (vector bodies and
    # tails), for 1 to 3 groups of 2, 3 and 130 rows. Eval-mode and
    # width-1 blocks never reach the kernel
    # (`test_kernel_takes_training_blocks_of_width_two_and_more`).
    for rows, groups, (norm, relu) in itertools.product(
            (2, 3, 130), (1, 2, 3), BLOCK_KINDS):
        case = block_case(31, width, rows, groups, norm, relu)
        with np.errstate(over="ignore"):
            expected = encoder._block_trace(None, *case)
        assert encoder._same_arrays(
            encoder._block_trace(numerics.LIBRARY, *case), expected), (
                rows, groups, norm, relu)


def encoder_arrays(params, x, training, groups, grad_out):
    """Every array a forward (and in training mode a backward) gives: the
    output, each stage and cache entry, the running statistics and each
    group's gradient map, each in name order."""
    out, cache = forward(params, x, training=training, groups=groups)
    arrays = [out, *cache["stages"].values()]
    for entry in cache["blocks"]:
        arrays += [entry[k] for k in sorted(entry) if k != "block"]
    arrays += [params.running[k] for k in sorted(params.running)]
    if training:
        for grads in backward(cache, grad_out):
            arrays += [grads[k] for k in sorted(grads)]
    return arrays


@needs_block_kernel
@pytest.mark.parametrize("seed", range(6))
def test_encoder_paths_give_the_same_bits(seed, monkeypatch):
    # A whole branch, in both modes, on both block paths.
    groups = seed % 3 + 1
    x = 3.0 * Rng(seed).child("x").normal(size=(groups * 5, 12))
    for training in (True, False):
        grad_out = None
        results = []
        for path in BLOCK_PATHS:
            monkeypatch.setattr(encoder, "BLOCK_PATH", path)
            params = random_branch(seed)
            if grad_out is None:
                grad_out = Rng(seed).child("g").normal(
                    size=(x.shape[0], params.out_dim))
            results.append(encoder_arrays(params, x, training, groups,
                                          grad_out))
        assert encoder._same_arrays(*results), training


@needs_block_kernel
@pytest.mark.parametrize("status, training", [(1, True), (2, True),
                                              (2, False)])
def test_error_statuses_match_the_numpy_path(status, training, monkeypatch):
    # Status 1, a non-finite linear output, leaves the running statistics
    # as they were; status 2, a non-finite BN output, leaves them updated.
    # Both paths raise the same message and leave the same statistics.
    specs = (Block("backbone1", "lin1", 2, 3, norm=True, relu=True),
             Block("backbone2", "lin2", 3, 2, norm=True, relu=True))
    x = np.array([[1.0, -2.0], [3.0, 0.5], [-1.0, 4.0], [2.0, 2.0]])
    outcomes = []
    for path in BLOCK_PATHS:
        monkeypatch.setattr(encoder, "BLOCK_PATH", path)
        params = init_params(specs, Rng(0))
        if status == 1:
            params.tensors["lin2.weight"][...] = -1e308
        else:
            # gain * x_hat + bias overflows wherever x_hat > 0.2.
            params.tensors["backbone2_bn.gain"][...] = 1.5e308
            params.tensors["backbone2_bn.bias"][...] = 1.5e308
        before = params.copy().running
        with np.errstate(over="ignore"):
            with pytest.raises(NumericOverflowError) as raised:
                forward(params, x, training=training)
        outcomes.append((str(raised.value),
                         [params.running[k] for k in sorted(params.running)]))
        changed = {k for k in before
                   if not np.array_equal(before[k], params.running[k])}
        expected = set() if not training else (
            {"backbone1_bn.mean", "backbone1_bn.var"} if status == 1
            else set(before))
        assert changed == expected, path
    layer = "lin2" if status == 1 else "backbone2_bn"
    assert outcomes[0][0] == f"non-finite activation after layer {layer!r}"
    for message, stats in outcomes[1:]:
        assert message == outcomes[0][0]
        assert encoder._same_arrays(stats, outcomes[0][1])


@pytest.mark.parametrize("path", BLOCK_PATHS)
@pytest.mark.parametrize("last", BLOCK_KINDS)
def test_backward_does_not_write_grad_out(path, last, monkeypatch):
    monkeypatch.setattr(encoder, "BLOCK_PATH", path)
    specs = (Block("backbone1", "lin1", 4, 5, norm=True, relu=True),
             Block("projector", "lin2", 5, 3, *last))
    params = init_params(specs, Rng(1))
    _, cache = forward(params, Rng(2).normal(size=(6, 4)), training=True,
                       groups=2)
    grad_out = Rng(3).normal(size=(6, 3))
    kept = grad_out.copy()
    backward(cache, grad_out)
    assert grad_out.tobytes() == kept.tobytes()


def counting_library(calls):
    """`numerics.LIBRARY` whose block functions count their calls in
    `calls`, by field name."""
    def counted(name):
        function = getattr(numerics.LIBRARY, name)

        def call(*args):
            calls[name] += 1
            return function(*args)
        return call
    return numerics.LIBRARY._replace(
        block_forward=counted("block_forward"),
        block_backward=counted("block_backward"))


@needs_block_kernel
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_takes_training_blocks_of_width_two_and_more(kind,
                                                           monkeypatch):
    # A training step calls the kernel once per block of each branch's
    # forward and once per block of the student's backward; an eval
    # forward and the width-1 blocks of a branch call it never.
    calls = collections.Counter()
    monkeypatch.setattr(encoder, "LIBRARY", counting_library(calls))
    cfg = preset(kind, input_dim=12, backbone_hidden=8, backbone_out=8,
                 projector_hidden=8, projector_out=6, queue_size=16)
    state = init_siamese_state(cfg, Rng(0).child("init"), total_steps=2)
    x1, x2 = Rng(1).normal(size=(2, 4, 12))
    opt = Optimizer(SgdConfig(momentum=0.9, weight_decay=0.0),
                    LrSchedule(0.05, warmup_epochs=0, total_epochs=1))
    training_step(state, x1, x2, cfg, opt)
    student = len(state.student.specs)
    teacher = len(state.teacher.specs) if state.teacher else 0
    assert calls == {"block_forward": student + teacher,
                     "block_backward": student}
    calls.clear()
    forward(state.student, x1, training=False)
    encoder.backbone_features(state.student, x2)
    assert not calls
    specs = (Block("backbone1", "lin1", 12, 1, norm=True, relu=True),
             Block("backbone2", "lin2", 1, 5, norm=True, relu=True),
             Block("projector", "lin3", 5, 1, norm=False, relu=False))
    params = init_params(specs, Rng(2))
    _, cache = forward(params, x1, training=True, groups=2)
    backward(cache, np.ones((4, 1)))
    assert calls == {"block_forward": 1, "block_backward": 1}


# Fragments of `_encoder.c` and the mutants that replace them: the
# backward's mask as a select, and a relu that keeps -0.0.
BLOCK_MUTANTS = {
    "mask_as_select": ("d[i] = grad[i] * (double)mask[i];",
                       "d[i] = mask[i] ? grad[i] : 0.0;"),
    "relu_keeps_negative_zero": ("out[i] = v > 0.0 ? v : 0.0;",
                                 "out[i] = v >= 0.0 ? v : 0.0;"),
}


@pytest.mark.skipif(numerics.shutil.which("cc") is None,
                    reason="no cc on PATH")
@pytest.mark.parametrize("mutant", sorted(BLOCK_MUTANTS))
def test_block_probe_rejects_a_mutant_kernel(mutant, tmp_path):
    # Each mutant fails the import probe, and `forward` and `backward` then
    # keep to the numpy block passes.
    *others, source = numerics.KERNEL_SOURCES
    fragment, replacement = BLOCK_MUTANTS[mutant]
    text = source.read_text()
    assert text.count(fragment) == 1
    mutated = tmp_path / source.name
    mutated.write_text(text.replace(fragment, replacement))
    library = numerics._build_library((*others, mutated))
    assert library is not None
    assert not encoder._block_is_exact(library)
    assert encoder._block_path(library) == "numpy"
