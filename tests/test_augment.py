import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import augment_reference as reference
from airl import augment, numerics, runner
from airl.augment import (
    REMOVAL_ORDER,
    AugPipeline,
    AugStage,
    color_jitter,
    draw_plan,
    draw_plans,
    gaussian_blur,
    grayscale,
    hflip,
    random_resized_crop,
    resize_bilinear,
    solarize,
    two_views,
)
from airl.errors import ConfigError, DimensionError
from airl.numerics import Rng

# Every stage after the crop, which a pipeline cannot remove or gate.
LATER_STAGES = augment.STAGE_ORDER[1:]
# The field of `Plans` that holds each later stage's fired mask.
MASKS = dict(zip(LATER_STAGES, ("flip", "jitter", "grayscale", "blur",
                                "solarize")))
# The field of `Plans` that holds what a later stage draws, for those that
# draw something.
VALUES = {"color_jitter": "factors", "gaussian_blur": "sigmas",
          "solarization": "threshold"}
needs_cc = pytest.mark.skipif(numerics.shutil.which("cc") is None,
                              reason="no cc on PATH")


def random_image(seed, side=16):
    return Rng(seed).random((side, side, 3))


def views_of(img, pipe, rng):
    """Both views of one image, each shaped like an image."""
    v1, v2 = two_views(img[None], pipe, [rng])
    shape = (pipe.out_side, pipe.out_side, 3)
    return v1.reshape(shape), v2.reshape(shape)


def identity_pipeline(out_side=16):
    """Full-frame crop, everything else gated off."""
    stages = (
        AugStage("random_crop", 1.0, (("scale", (1.0, 1.0)),
                                      ("aspect", (1.0, 1.0)))),
        AugStage("horizontal_flip", 0.0),
        AugStage("color_jitter", 0.0, (("strengths", (0.4, 0.4, 0.2, 0.1)),)),
        AugStage("grayscale", 0.0),
        AugStage("gaussian_blur", 0.0, (("sigma", (0.1, 2.0)),)),
        AugStage("solarization", 0.0, (("threshold", 128 / 255),)),
    )
    return AugPipeline(out_side=out_side, stages=stages)


class TestSolarize:
    def test_zero_stays_zero(self):
        img = np.zeros((2, 2, 3))
        assert np.array_equal(solarize(img, 0.5), img)

    def test_max_inverts_to_zero(self):
        img = np.ones((2, 2, 3))
        assert np.array_equal(solarize(img, 0.5), np.zeros((2, 2, 3)))

    def test_threshold_value_from_eight_bit_scale(self):
        # pixel == threshold == 128/255 maps to 127/255
        img = np.full((1, 1, 3), 128 / 255)
        out = solarize(img, 128 / 255)
        assert np.allclose(out, 127 / 255, atol=1e-15)

    def test_threshold_out_of_range(self):
        with pytest.raises(ConfigError):
            solarize(np.zeros((1, 1, 3)), 1.5)


class TestCrop:
    def test_degenerate_scale_is_full_resize(self):
        img = random_image(0)
        out = random_resized_crop(img, (1.0, 1.0), (1.0, 1.0), 16, Rng(1))
        assert np.array_equal(out, img)

    def test_output_dims_contract(self):
        img = random_image(2, side=20)
        for seed in range(5):
            out = random_resized_crop(img, (0.08, 1.0), (0.75, 4 / 3), 16,
                                      Rng(seed))
            assert out.shape == (16, 16, 3)

    def test_deterministic_given_stream(self):
        img = random_image(3)
        a = random_resized_crop(img, (0.08, 1.0), (0.75, 4 / 3), 16, Rng(7))
        b = random_resized_crop(img, (0.08, 1.0), (0.75, 4 / 3), 16, Rng(7))
        assert np.array_equal(a, b)

    def test_too_small_output_rejected(self):
        with pytest.raises(ConfigError):
            random_resized_crop(random_image(0), (0.08, 1.0), (1, 1), 1, Rng(0))

    def test_resize_to_same_size_is_identity(self):
        img = random_image(4)
        assert np.array_equal(resize_bilinear(img, 16, 16), img)


class TestPointwiseOps:
    def test_jitter_zero_strengths_is_identity(self):
        img = random_image(5)
        out = color_jitter(img, (0.0, 0.0, 0.0, 0.0), Rng(0))
        assert np.array_equal(out, img)

    def test_grayscale_is_projection(self):
        # idempotent up to one rounding of the luma weights
        img = random_image(6)
        once = grayscale(img)
        assert np.allclose(grayscale(once), once, atol=1e-15, rtol=0)
        assert np.array_equal(once[..., 0], once[..., 1])

    def test_hflip_is_involution(self):
        img = random_image(7)
        assert np.array_equal(hflip(hflip(img)), img)

    def test_blur_preserves_constant_images(self):
        img = np.full((8, 8, 3), 0.4)
        out = gaussian_blur(img, 1.3)
        assert np.max(np.abs(out - 0.4)) < 1e-12

    @pytest.mark.parametrize("sigma", [0.0, -0.5, [1.0, 0.0]])
    def test_blur_rejects_a_sigma_at_or_below_zero(self, sigma):
        images = np.full((2, 8, 8, 3), 0.4)
        with pytest.raises(ConfigError, match="sigma must be > 0"):
            gaussian_blur(images if np.ndim(sigma) else images[0], sigma)

    def test_blur_smooths(self):
        img = np.zeros((9, 9, 3))
        img[4, 4] = 1.0
        out = gaussian_blur(img, 1.0)
        assert out[4, 4, 0] < 1.0
        assert out[4, 3, 0] > 0.0


class TestPipeline:
    def test_default_matches_published_table(self):
        pipe = AugPipeline.default()
        by_name = {s.name: s for s in pipe.stages}
        assert [s.name for s in pipe.stages] == [
            "random_crop", "horizontal_flip", "color_jitter", "grayscale",
            "gaussian_blur", "solarization",
        ]
        assert augment.STAGE_ORDER == tuple(s.name for s in pipe.stages)
        assert by_name["random_crop"].probability == 1.0
        assert dict(by_name["random_crop"].params)["scale"] == (0.08, 1.0)
        assert by_name["horizontal_flip"].probability == 0.5
        assert by_name["color_jitter"].probability == 0.8
        assert dict(by_name["color_jitter"].params)["strengths"] == \
            (0.4, 0.4, 0.2, 0.1)
        assert by_name["grayscale"].probability == 0.2
        assert by_name["gaussian_blur"].probability == 0.5
        assert dict(by_name["gaussian_blur"].params)["sigma"] == (0.1, 2.0)
        assert by_name["solarization"].probability == 0.2
        assert dict(by_name["solarization"].params)["threshold"] == 128 / 255

    def test_removal_ladder_order(self):
        assert REMOVAL_ORDER == (
            "solarization", "gaussian_blur", "grayscale", "color_jitter"
        )
        rungs = [AugPipeline.default(removed=REMOVAL_ORDER[:r])
                 for r in range(len(REMOVAL_ORDER) + 1)]
        names = [s.name for s in rungs[2].stages]
        assert "solarization" not in names
        assert "gaussian_blur" not in names
        assert "grayscale" in names
        assert [len(rung.stages) for rung in rungs] == [6, 5, 4, 3, 2]
        assert [s.name for s in rungs[-1].stages] == ["random_crop",
                                                      "horizontal_flip"]

    def test_remove_unknown_stage(self):
        with pytest.raises(ConfigError):
            AugPipeline.default().remove("nonexistent")

    def test_identity_pipeline_returns_source(self):
        img = random_image(8)
        v1, v2 = views_of(img, identity_pipeline(), Rng(9).child("sample", 0))
        assert np.array_equal(v1, img)
        assert np.array_equal(v2, img)

    def test_two_views_deterministic_per_sample_key(self):
        img = random_image(10)
        pipe = AugPipeline.default()
        pair_a = views_of(img, pipe, Rng(1).child("sample", 42))
        pair_b = views_of(img, pipe, Rng(1).child("sample", 42))
        assert np.array_equal(pair_a[0], pair_b[0])
        assert np.array_equal(pair_a[1], pair_b[1])
        pair_c = views_of(img, pipe, Rng(1).child("sample", 43))
        assert not np.array_equal(pair_a[0], pair_c[0])

    def test_views_differ_from_each_other(self):
        img = random_image(11)
        v1, v2 = views_of(img, AugPipeline.default(), Rng(0).child("s", 0))
        assert not np.array_equal(v1, v2)

    def test_removing_stage_leaves_other_streams_untouched(self):
        # A stage that never fires must be indistinguishable from a stage
        # that was removed: other stages own their sub-streams.
        img = random_image(12)
        base = AugPipeline.default()
        stages_p0 = tuple(
            AugStage(s.name, 0.0, s.params) if s.name == "gaussian_blur" else s
            for s in base.stages
        )
        never_fires = AugPipeline(out_side=16, stages=stages_p0)
        removed = base.remove("gaussian_blur")
        for sample in range(6):
            rng = Rng(3).child("sample", sample)
            for a, b in zip(views_of(img, never_fires, rng),
                            views_of(img, removed, rng)):
                assert np.array_equal(a, b)
            for view in (rng.child("view", 0), rng.child("view", 1)):
                kept = [stage for stage in draw_plan(never_fires, view,
                                                     (16, 16))
                        if stage[0] != "gaussian_blur"]
                assert kept == draw_plan(removed, view, (16, 16))
        # In the batched draw, each rung of the ablation ladder draws rung
        # 0's plans, field for field, with its removed stages' masks
        # cleared.
        rngs = [Rng(3).child("sample", sample) for sample in range(24)]
        full, *rungs = (
            draw_plans(AugPipeline.default(removed=REMOVAL_ORDER[:k]), rngs,
                       (16, 16)) for k in range(len(REMOVAL_ORDER) + 1))
        assert all(getattr(full, field).any() for field in MASKS.values())
        for k, plans in enumerate(rungs, start=1):
            gone = REMOVAL_ORDER[:k]
            assert np.array_equal(plans.boxes, full.boxes)
            for name, field in MASKS.items():
                cleared = getattr(full, field) & (name not in gone)
                assert np.array_equal(getattr(plans, field), cleared)
            for name, field in VALUES.items():
                if name not in gone:
                    assert np.array_equal(getattr(plans, field),
                                          getattr(full, field))

    def test_empirical_gate_probabilities(self):
        # 50,000 images, both views: 100,000 plans, drawn in batches.
        pipe = AugPipeline.default()
        counts = dict.fromkeys(MASKS, 0)
        images, batch = 50_000, 5_000
        draws = 2 * images
        root = Rng(123)
        for start in range(0, images, batch):
            rngs = [root.child("sample", i)
                    for i in range(start, start + batch)]
            plans = draw_plans(pipe, rngs, (16, 16))
            for name, field in MASKS.items():
                counts[name] += int(getattr(plans, field).sum())
        for stage in pipe.stages[1:]:
            observed = counts[stage.name] / draws
            assert abs(observed - stage.probability) <= 0.01, (
                stage.name, observed
            )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pixel_range_invariant(sample):
    img = Rng(999).child("img", sample).random((12, 12, 3))
    out1, out2 = views_of(img, AugPipeline.default(out_side=8),
                          Rng(999).child("s", sample))
    for out in (out1, out2):
        assert out.min() >= 0.0
        assert out.max() <= 1.0
        assert out.shape == (8, 8, 3)


def assert_views_match_reference(images, pipe, rngs):
    first, second = two_views(images, pipe, rngs)
    pairs = [reference.two_views(img, pipe, rng)
             for img, rng in zip(images, rngs)]
    for got, view in ((first, 0), (second, 1)):
        expected = np.stack([pair[view].reshape(-1) for pair in pairs])
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), epoch=st.integers(0, 100),
       removed=st.sets(st.sampled_from(LATER_STAGES)),
       sides=st.sampled_from([(16, 16), (12, 8), (8, 8), (8, 12), (10, 16)]),
       crop_scale=st.sampled_from([(0.08, 1.0), (0.4, 1.0)]),
       batch=st.integers(1, 6))
def test_batched_views_equal_per_image_reference(seed, epoch, removed, sides,
                                                 crop_scale, batch):
    side, out_side = sides
    pipe = AugPipeline.default(out_side, tuple(removed), crop_scale)
    images = Rng(seed).child("img").random((batch, side, side, 3))
    rngs = [Rng(seed).child("aug", epoch, i) for i in range(batch)]
    assert_views_match_reference(images, pipe, rngs)


def _with_gates(pipe, **gates):
    return AugPipeline(pipe.out_side, tuple(
        AugStage(s.name, gates.get(s.name, s.probability), s.params)
        for s in pipe.stages))


def test_batch_holding_every_blur_radius_equals_reference():
    pipe = _with_gates(AugPipeline.default(), gaussian_blur=1.0)
    images = Rng(32).child("img").random((16, 16, 16, 3))
    rngs = [Rng(32).child("aug", 0, i) for i in range(16)]
    plans = draw_plans(pipe, rngs, (16, 16))
    assert plans.blur.all()
    radii = np.ceil(2.0 * plans.sigmas).astype(int)
    assert set(radii.tolist()) == {1, 2, 3, 4}
    assert_views_match_reference(images, pipe, rngs)


@pytest.mark.parametrize("shape", [(11, 7), (5, 13)])
def test_blur_and_jitter_of_a_non_square_batch_equal_reference(shape):
    # Every pipeline test crops to square views, where a blur or a mean
    # that swapped the image axes could go unseen. Here h != w, the blur
    # radii run 1 to 4 (4 beyond the short side of (5, 13)), and each
    # image's jitter runs in both mean orders: the reference sums its mean
    # in its image's memory order, width-major for a column-major row.
    images = Rng(35).child("img").random((5, *shape, 3))
    sigmas = np.array([0.45, 0.3, 0.8, 1.2, 1.9])
    assert np.ceil(2.0 * sigmas).astype(int).tolist() == [1, 1, 2, 3, 4]
    for img, sigma, got in zip(images, sigmas,
                               gaussian_blur(images, sigmas)):
        assert got.tobytes() == reference.gaussian_blur(img, sigma).tobytes()
    strengths = (0.4, 0.4, 0.2, 0.1)
    factors = [augment._draw_jitter(Rng(35).child("jitter", i), strengths)
               for i in range(len(images))]
    alternate = np.arange(len(images)) % 2 == 0
    jittered = []
    for col_major in (alternate, ~alternate):
        got = augment.adjust_colors(images, factors, col_major)
        for i, (img, turned, row) in enumerate(zip(images, col_major, got)):
            if turned:
                img = np.ascontiguousarray(img.transpose(1, 0, 2)).transpose(
                    1, 0, 2)
            expected = reference.color_jitter(img, strengths,
                                              Rng(35).child("jitter", i))
            assert row.tobytes() == expected.tobytes()
        jittered.append(got)
    # The two orders give other bits on some image, so both were checked.
    assert jittered[0].tobytes() != jittered[1].tobytes()


def test_gated_stages_on_scattered_rows_equal_reference():
    # Gates at 0.5 and 1.0 over nine images: each stage runs on its fired
    # rows of both views, scattered or all of them.
    for pipe in (_with_gates(AugPipeline.default(8), color_jitter=0.5,
                             grayscale=0.5, solarization=0.5),
                 _with_gates(AugPipeline.default(8), gaussian_blur=1.0,
                             color_jitter=1.0)):
        images = Rng(33).child("img").random((9, 16, 16, 3))
        rngs = [Rng(33).child("aug", 1, i) for i in range(9)]
        assert_views_match_reference(images, pipe, rngs)


@pytest.mark.parametrize("block_images", [1, 2, 5])
def test_kernels_in_small_blocks_equal_reference(block_images):
    # The same gated pipelines on batches of a few images: a stage may fire
    # on no row, one row or every row of both views.
    for pipe in (_with_gates(AugPipeline.default(8), color_jitter=0.5,
                             grayscale=0.5, solarization=0.5),
                 _with_gates(AugPipeline.default(8), gaussian_blur=1.0,
                             color_jitter=1.0)):
        images = Rng(34).child("img").random((block_images, 16, 16, 3))
        rngs = [Rng(34).child("aug", 1, i) for i in range(block_images)]
        assert_views_match_reference(images, pipe, rngs)


@pytest.mark.parametrize("seed", range(6))
def test_batch_of_one_equals_reference(seed):
    images = Rng(seed).child("img").random((1, 16, 16, 3))
    for pipe in (AugPipeline.default(), AugPipeline.default(8),
                 _with_gates(AugPipeline.default(8), color_jitter=0.5,
                             grayscale=0.5, solarization=0.5)):
        assert_views_match_reference(images, pipe, [Rng(seed).child("s", 0)])


# The gates a test may give the later stages, by stage name.
GATES = st.dictionaries(st.sampled_from(LATER_STAGES),
                        st.sampled_from([0.0, 0.5, 1.0]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       removed=st.sets(st.sampled_from(LATER_STAGES)), gates=GATES,
       sides=st.sampled_from([(16, 16), (12, 8), (6, 9)]))
# The flip on some rows before the jitter on all: both mean orders.
@example(seed=0, removed={"grayscale"},
         gates={"horizontal_flip": 0.5, "color_jitter": 1.0}, sides=(16, 16))
def test_removed_stages_and_gates_equal_reference(seed, removed, gates,
                                                  sides):
    # The crop stays first at gate 1; any later stages may be removed, and
    # `gates` overrides the gates of the ones kept.
    side, out_side = sides
    pipe = _with_gates(AugPipeline.default(out_side, tuple(removed)),
                       **gates)
    images = Rng(seed).child("img").random((6, side, side, 3))
    rngs = [Rng(seed).child("aug", 0, i) for i in range(6)]
    assert_views_match_reference(images, pipe, rngs)


# The compiled pass, `_augment.c`, against the numpy pass and the
# per-image reference.

needs_augment_kernel = pytest.mark.skipif(
    augment.AUGMENT_PATH != "kernel",
    reason="the library was not built here or its apply_plans failed the "
           "import probe")


@needs_augment_kernel
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       removed=st.sets(st.sampled_from(LATER_STAGES)), gates=GATES,
       in_shape=st.tuples(st.integers(2, 21), st.integers(2, 21)),
       out_side=st.sampled_from([2, 3, 5, 8, 11, 12, 13, 16]),
       sigma=st.sampled_from([(0.1, 2.0), (1.5, 3.2)]),
       batch=st.integers(1, 6))
@example(seed=5, removed=set(), gates=dict.fromkeys(LATER_STAGES, 0.0),
         in_shape=(16, 16), out_side=16, sigma=(0.1, 2.0), batch=4)
@example(seed=6, removed=set(), gates=dict.fromkeys(LATER_STAGES, 1.0),
         in_shape=(9, 14), out_side=13, sigma=(0.1, 2.0), batch=1)
@example(seed=7, removed={"horizontal_flip"},
         gates=dict.fromkeys(LATER_STAGES, 0.5), in_shape=(3, 20),
         out_side=2, sigma=(1.5, 3.2), batch=6)
def test_kernel_pass_equals_numpy_pass_and_reference(seed, removed, gates,
                                                      in_shape, out_side,
                                                      sigma, batch):
    # Any removed stages and gates, out sides whose pixel count is below 8,
    # up to 128 and above (the three regimes of the pairwise mean), odd
    # sides, blur radii 1 to 7, an all-gates-off batch and a one-image
    # batch.
    stages = tuple(
        AugStage(s.name, s.probability, (("sigma", sigma),))
        if s.name == "gaussian_blur" else s
        for s in AugPipeline.default(out_side, tuple(removed)).stages)
    pipe = _with_gates(AugPipeline(out_side, stages), **gates)
    images = Rng(seed).child("img").random((batch, *in_shape, 3))
    rngs = [Rng(seed).child("aug", 2, i) for i in range(batch)]
    plans = draw_plans(pipe, rngs, in_shape)
    kernel = augment._kernel_pass(numerics.LIBRARY.apply_plans, images,
                                  plans, out_side)
    numpy_pass = augment._numpy_pass(images, plans, out_side)
    pairs = [reference.two_views(img, pipe, rng)
             for img, rng in zip(images, rngs)]
    expected = np.stack([pair[view] for view in (0, 1) for pair in pairs])
    assert kernel.tobytes() == numpy_pass.tobytes() == expected.tobytes()


def applied_passes():
    """`_numpy_pass` and, where it passed the import probe, `_kernel_pass`."""
    if augment.AUGMENT_PATH != "kernel":
        return (augment._numpy_pass,)
    return (augment._numpy_pass, functools.partial(
        augment._kernel_pass, numerics.LIBRARY.apply_plans))


def _probe_with(**fields):
    """The probe batch with the given fields of its plans replaced."""
    images, plans, out_side = augment._probe_batch()
    return images, replace(plans, **fields), out_side


# (0, 10, 5, 10) overruns the right edge of the 17-wide images by 3 columns
# but stays inside the images' buffer: a pass that trusted it would read the
# next rows' pixels instead of raising.
@pytest.mark.parametrize("box", [(-1, 0, 4, 4), (0, 0, 21, 4), (5, 14, 4, 4),
                                 (0, 0, 0, 3), (0, 10, 5, 10)])
def test_kernel_pass_rejects_a_box_outside_its_image(box):
    # Both passes, through their one input check.
    images, plans, out_side = augment._probe_batch()
    boxes = plans.boxes.copy()
    boxes[3] = box
    plans = replace(plans, boxes=boxes)
    for apply in applied_passes():
        with pytest.raises(IndexError, match="outside its source image"):
            apply(images, plans, out_side)


def test_kernel_pass_rejects_misshaped_images_or_out_side():
    # Both passes, through their one input check; also plans with a field
    # one row short.
    images, plans, out_side = augment._probe_batch()
    short = replace(plans, grayscale=plans.grayscale[:-1])
    for apply in applied_passes():
        for bad, side in ((images[..., :2], out_side), (images[:0], out_side),
                          (images[0], out_side), (images, 0)):
            with pytest.raises(DimensionError, match=r"\(n, h, w, 3\)"):
                apply(bad, plans, side)
        with pytest.raises(DimensionError, match="plans of 12 rows"):
            apply(images, short, out_side)


def test_both_passes_reject_a_solarize_threshold_out_of_range():
    images, plans, out_side = _probe_with(threshold=1.5)
    for apply in applied_passes():
        with pytest.raises(ConfigError, match="threshold must be in"):
            apply(images, plans, out_side)


@pytest.mark.parametrize("sigma", [0.0, -0.5])
def test_both_passes_reject_a_fired_blur_sigma_at_or_below_zero(sigma):
    # Rows 0 and 1 of the probe hold sigma 0 where the blur does not fire.
    _, plans, _ = augment._probe_batch()
    assert not plans.blur[:2].any() and not plans.sigmas[:2].any()
    images, plans, out_side = _probe_with(
        sigmas=np.where(np.arange(12) == 7, sigma, plans.sigmas))
    for apply in applied_passes():
        with pytest.raises(ConfigError, match="sigma must be > 0"):
            apply(images, plans, out_side)


def test_probe_batch_covers_every_stage_radius_and_mean_order():
    # Every stage fires; the jitter sees rows whose mean is summed column by
    # column and rows after a flip; the blur's fired rows hold radii 1 to 4;
    # each mean sums 256 values.
    _, plans, out_side = augment._probe_batch()
    assert all(getattr(plans, field).any() for field in MASKS.values())
    assert (plans.jitter & plans.flip).any()
    assert (plans.jitter & ~plans.flip).any()
    radii = np.ceil(2.0 * plans.sigmas[plans.blur]).astype(int)
    assert set(radii.tolist()) == {1, 2, 3, 4}
    assert out_side * out_side > 128


# The mean's pairwise sum in `_augment.c`, and a plain loop to put in its
# place after the includes.
PAIRWISE_MEAN = "pairwise_sum(order, pixels)"
# The jitter's `col_major` argument in `_augment.c`: set until the row is
# flipped.
FLIP_TURNS = "!gate[FLIP * rows]"
INCLUDES = "#include <stdint.h>\n"
IN_ORDER_SUM = """
static double in_order_sum(const double *a, ptrdiff_t n)
{
    double res = 0.0;
    for (ptrdiff_t i = 0; i < n; i++)
        res += a[i];
    return res;
}

"""


@needs_cc
@pytest.mark.parametrize("mutant", ["mean_in_order", "contracted",
                                    "flip_keeps_col_major"])
def test_probe_rejects_a_mutant_kernel(mutant, tmp_path):
    # A kernel that sums the contrast mean in order, one built with
    # -ffp-contract=fast, or one whose flip leaves the mean summed column
    # by column, fails the import probe, and `apply_plans` then keeps to
    # the numpy pass.
    matmul_source, source, encoder_source = numerics.KERNEL_SOURCES
    flags = numerics.KERNEL_FLAGS
    text = source.read_text()
    if mutant == "mean_in_order":
        assert text.count(PAIRWISE_MEAN) == 1
        source = tmp_path / "_augment.c"
        head, _, body = text.partition(INCLUDES)
        source.write_text(head + INCLUDES + IN_ORDER_SUM + body.replace(
            PAIRWISE_MEAN, "in_order_sum(order, pixels)"))
    elif mutant == "flip_keeps_col_major":
        assert text.count(FLIP_TURNS) == 1
        source = tmp_path / "_augment.c"
        source.write_text(text.replace(FLIP_TURNS, "1"))
    else:
        flags = tuple("-ffp-contract=fast" if flag == "-ffp-contract=off"
                      else flag for flag in flags)
    library = numerics._build_library((matmul_source, source, encoder_source),
                                      flags)
    assert library is not None
    if mutant == "contracted" and numerics._product_is_naive(
            functools.partial(numerics._kernel_product, library.matmul)):
        pytest.skip("this compiler fuses no multiply-add for this CPU")
    assert not augment._kernel_is_exact(library.apply_plans)
    assert augment._augment_path(library) == "numpy"


@st.composite
def _pipelines(draw):
    """Default stages with a removed subset of the later ones, their gates
    overridden to 0, 1 or 0.5, a crop scale that may rarely fit in three
    attempts, and any output side, including the too small side 1."""
    removed = draw(st.sets(st.sampled_from(LATER_STAGES)))
    crop_scale = draw(st.sampled_from([(0.08, 1.0), (0.4, 1.0), (0.9, 1.0),
                                       (1.0, 1.0)]))
    out_side = draw(st.sampled_from([1, 2, 5, 8, 16]))
    crop, *later = AugPipeline.default(out_side, tuple(removed),
                                       crop_scale).stages
    stages = (crop, *(
        stage if gate is None else AugStage(stage.name, gate, stage.params)
        for stage, gate in (
            (stage, draw(st.sampled_from([None, 0.0, 1.0, 0.5])))
            for stage in later)))
    return AugPipeline(out_side=out_side, stages=stages)


def per_stream_plans(pipe, rngs, in_shape):
    """Both views' plans from `draw_plan`, one stream at a time, in the
    rows of `draw_plans`: view 0 of every image, then view 1."""
    return [draw_plan(pipe, rng.child("view", v), in_shape)
            for v in (0, 1) for rng in rngs]


def plan_rows(plans, pipe):
    """Every row of plans drawn for `pipe`, in `draw_plan`'s form."""
    rows = []
    for r in range(plans.rows):
        row = [("random_crop", True, {"box": tuple(plans.boxes[r].tolist())})]
        for stage in pipe.stages[1:]:
            fired = bool(getattr(plans, MASKS[stage.name])[r])
            drawn = {}
            if fired and stage.name == "color_jitter":
                drawn = {"factors": tuple(plans.factors[r].tolist())}
            elif fired and stage.name == "gaussian_blur":
                drawn = {"sigma": plans.sigmas[r].item()}
            elif fired and stage.name == "solarization":
                drawn = {"threshold": plans.threshold}
            row.append((stage.name, fired, drawn))
        rows.append(row)
    return rows


def batched_plans(pipe, rngs, in_shape):
    return plan_rows(draw_plans(pipe, rngs, in_shape), pipe)


def _draw_plans_or_error(pipe, rngs, in_shape, draw):
    try:
        return draw(pipe, rngs, in_shape)
    except ConfigError as exc:
        return ConfigError, str(exc)


def test_batched_plans_equal_draw_plan(monkeypatch):
    # The per-stream oracle is draw_plan; the batched draw's own calls to
    # augment._draw_crop_box are the crops it redraws in place.
    redrawn = []
    draw_crop_box = augment._draw_crop_box

    def counted_crop_box(*args):
        redrawn.append(1)
        return draw_crop_box(*args)

    streams = {"plans": 0}

    @settings(max_examples=150, deadline=None)
    @given(pipe=_pipelines(), seed=st.integers(0, 2**32 - 1),
           in_shape=st.tuples(st.integers(1, 16), st.integers(1, 16)),
           batch=st.integers(1, 6))
    @example(pipe=AugPipeline.default(8, crop_scale=(0.9, 1.0)), seed=3,
             in_shape=(2, 16), batch=6)
    def check(pipe, seed, in_shape, batch):
        rngs = [Rng(seed).child("aug", 1, i) for i in range(batch)]
        expected = _draw_plans_or_error(pipe, rngs, in_shape,
                                        per_stream_plans)
        with monkeypatch.context() as patch:
            patch.setattr(augment, "_draw_crop_box", counted_crop_box)
            got = _draw_plans_or_error(pipe, rngs, in_shape, batched_plans)
        assert got == expected
        if isinstance(got, list):
            streams["plans"] += 2 * batch

    check()
    assert 0 < len(redrawn) < streams["plans"]


def test_crop_on_too_small_image_raises():
    rngs = [Rng(0).child("aug", 0, i) for i in range(4)]
    for pipe, in_shape in ((AugPipeline.default(8), (1, 9)),
                           (AugPipeline.default(1), (9, 9))):
        with pytest.raises(ConfigError, match="at least 2x2"):
            draw_plans(pipe, rngs, in_shape)


CROP, FLIP, *COLOUR_STAGES = AugPipeline.default(8).stages


@pytest.mark.parametrize("stages", [
    (FLIP, *COLOUR_STAGES),
    (AugStage(CROP.name, 0.5, CROP.params), FLIP, *COLOUR_STAGES),
    (FLIP, CROP, *COLOUR_STAGES),
    (CROP, FLIP, CROP, *COLOUR_STAGES),
], ids=["no_crop", "gated_crop", "crop_not_first", "two_crops"])
def test_pipeline_starts_with_its_one_crop_at_gate_one(stages):
    with pytest.raises(ConfigError, match="random_crop"):
        AugPipeline(8, stages)


JITTER, GRAY, BLUR, SOLARIZE = COLOUR_STAGES


@pytest.mark.parametrize("stages, error", [
    ((CROP, JITTER, FLIP), "at most once and in that order"),
    ((CROP, FLIP, FLIP, JITTER), "at most once and in that order"),
    ((CROP, AugStage("sharpen", 0.5)), "at most once and in that order"),
    ((CROP, AugStage(FLIP.name, 7.0)), "probability must be in"),
    ((CROP, AugStage(GRAY.name, -0.1)), "probability must be in"),
    ((CROP, AugStage(GRAY.name, float("nan"))), "probability must be in"),
    ((CROP, AugStage(BLUR.name, 0.5, (("sigma", (0.0, 2.0)),))),
     "0 < low <= high"),
    ((CROP, AugStage(BLUR.name, 0.5, (("sigma", (-1.0, 0.5)),))),
     "0 < low <= high"),
    ((CROP, AugStage(BLUR.name, 0.5, (("sigma", (2.0, 0.1)),))),
     "0 < low <= high"),
    ((CROP, AugStage(SOLARIZE.name, 0.2, (("threshold", 1.5),))),
     "threshold must be in"),
    ((CROP, AugStage(SOLARIZE.name, 0.2, (("threshold", -0.5),))),
     "threshold must be in"),
], ids=["out_of_order", "repeated", "unknown", "probability_above_one",
        "probability_below_zero", "probability_nan", "sigma_zero",
        "sigma_negative", "sigma_reversed", "threshold_above_one",
        "threshold_below_zero"])
def test_pipeline_rejects_a_stage_out_of_order_or_range(stages, error):
    with pytest.raises(ConfigError, match=error):
        AugPipeline(8, stages)


def test_two_views_needs_one_stream_per_image():
    images = Rng(36).child("img").random((4, 16, 16, 3))
    rngs = [Rng(36).child("aug", 0, i) for i in range(3)]
    with pytest.raises(DimensionError, match="one stream per image"):
        two_views(images, AugPipeline.default(), rngs)


# The plan memo of `draw_plans` (tests/conftest.py empties it before every
# test).


def plan_bytes(plans):
    """Every field of a plan: its name, then an array's dtype, shape and
    bytes, or the threshold."""
    return [(name, value.dtype.str, value.shape, value.tobytes())
            if isinstance(value, np.ndarray) else (name, value)
            for name, value in vars(plans).items()]


def _copy_of(pipe):
    """An equal pipeline built from new objects."""
    return AugPipeline(pipe.out_side, tuple(
        AugStage(s.name, s.probability, tuple(s.params)) for s in pipe.stages))


@settings(max_examples=80, deadline=None)
@given(pipe=_pipelines(), seed=st.integers(0, 2**32 - 1),
       in_shape=st.tuples(st.integers(1, 16), st.integers(1, 16)),
       batch=st.integers(1, 6))
def test_memo_hit_equals_cold_draw(pipe, seed, in_shape, batch):
    def draw(p):
        rngs = [Rng(seed).child("aug", 1, i) for i in range(batch)]
        return _draw_plans_or_error(p, rngs, in_shape, draw_plans)

    memo = augment.memo_plans
    memo.cache_clear()
    first = draw(pipe)
    hit = draw(_copy_of(pipe))
    memo_hits = memo.cache_info().hits
    memo.cache_clear()
    cold = draw(pipe)
    if isinstance(cold, tuple):  # the draw raised
        assert first == hit == cold
        assert memo_hits == 0
        return
    assert memo_hits == 1 and hit is first and hit is not cold
    assert plan_bytes(hit) == plan_bytes(cold)


def test_memoized_plans_are_read_only():
    rngs = [Rng(4).child("aug", 0, i) for i in range(3)]
    plans = draw_plans(AugPipeline.default(), rngs, (16, 16))
    for name, value in vars(plans).items():
        if name != "threshold":
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0
    assert plan_bytes(draw_plans(AugPipeline.default(), rngs, (16, 16))) \
        == plan_bytes(augment._draw_plans(AugPipeline.default(), rngs,
                                          (16, 16)))


MEMO_BASE = (AugPipeline.default(16, (), (0.4, 1.0)), 5, 0, (16, 16))


@pytest.mark.parametrize("changed", [
    dict(seed=6),
    dict(epoch=1),
    dict(in_shape=(12, 12)),
    dict(pipe=AugPipeline.default(8, (), (0.4, 1.0))),
    dict(pipe=AugPipeline.default(16, (), (0.08, 1.0))),
    dict(pipe=AugPipeline.default(16, ("solarization",), (0.4, 1.0))),
    dict(reverse=True),
], ids=["seed", "stream_id", "in_shape", "out_side", "crop_scale",
        "removed_stage", "stream_order"])
def test_memo_misses_on_any_key_change(changed):
    # A different seed keeps every stream id: child ids derive from the
    # parent's id and the labels alone.
    def draw(pipe=MEMO_BASE[0], seed=MEMO_BASE[1], epoch=MEMO_BASE[2],
             in_shape=MEMO_BASE[3], reverse=False):
        rngs = [Rng(seed).child("aug", epoch, i) for i in range(4)]
        rngs = rngs[::-1] if reverse else rngs
        return draw_plans(pipe, rngs, in_shape), augment._draw_plans(
            pipe, rngs, in_shape)

    draw()
    got, cold = draw(**changed)
    memo = augment.memo_plans.cache_info()
    assert (memo.hits, memo.misses, memo.currsize) == (0, 2, 2)
    assert plan_bytes(got) == plan_bytes(cold)
    draw(**changed)
    assert augment.memo_plans.cache_info().hits == 1


def test_raising_draw_is_not_memoized():
    rngs = [Rng(0).child("aug", 0, i) for i in range(4)]
    for _ in range(2):
        with pytest.raises(ConfigError, match="crop"):
            draw_plans(AugPipeline.default(8), rngs, (1, 9))
    memo = augment.memo_plans.cache_info()
    assert (memo.hits, memo.misses, memo.currsize) == (0, 2, 0)


def test_memo_evicts_least_recently_used_beyond_its_size():
    pipe = AugPipeline.default()
    size = augment.PLAN_MEMO_SIZE

    def draw(epoch):
        return draw_plans(pipe, [Rng(2).child("aug", epoch, 0)], (16, 16))

    first = draw(0)
    for epoch in range(1, size):
        draw(epoch)
    assert draw(0) is first  # full, and epoch 0 is now the most recently used
    draw(size)  # evicts epoch 1
    memo = augment.memo_plans.cache_info()
    assert (memo.hits, memo.misses, memo.currsize) == (1, size + 1, size)
    assert draw(0) is first
    draw(1)
    memo = augment.memo_plans.cache_info()
    assert (memo.hits, memo.misses, memo.currsize) == (2, size + 2, size)


@pytest.mark.parametrize("study", ["main", "collapse", "norm_divergence"])
def test_memo_holds_a_full_scale_run_of_every_study(study):
    # Arms that share streams ask for a run's plans again one run later, so
    # the memo must hold every batch of the longest run.
    epochs, batch, data = {
        "main": (runner.MAIN_EPOCHS, 48, runner.MAIN_DATA),
        "collapse": (runner.COLLAPSE_EPOCHS, 48, runner.COLLAPSE_DATA),
        "norm_divergence": (runner.NORMDIV_EPOCHS, runner.NORMDIV_BATCH,
                            runner.NORMDIV_DATA),
    }[study]
    batches = epochs * (data["data__classes"] * data["data__per_class"]
                        // batch)
    assert batches <= augment.PLAN_MEMO_SIZE
