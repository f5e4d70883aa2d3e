import numpy as np
import pytest

from airl.encoder import Block, init_params
from airl.errors import ConfigError, NumericOverflowError
from airl.numerics import Rng
from airl.optim import (
    LarsConfig,
    LrSchedule,
    Optimizer,
    SgdConfig,
    lars_step,
    lr_at,
    norm_sum_by_role,
    sgd_step,
    weight_norm_report,
)


def lars_config(momentum, weight_decay=0.0):
    """LARS; its trust coefficient and eps are `optim` constants."""
    return LarsConfig(momentum=momentum, weight_decay=weight_decay)


class TestSgd:
    def test_plain_gradient_step(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        sgd_step(params, grads, {},
                 SgdConfig(momentum=0.0, weight_decay=0.0), 0.1)
        assert params["w"][0] == 0.95

    def test_zero_grad_zero_velocity_is_fixed_point(self):
        params = {"w": np.array([2.0, -3.0])}
        vel = {}
        sgd_step(params, {"w": np.zeros(2)}, vel,
                 SgdConfig(momentum=0.9, weight_decay=0.0), 0.1)
        assert np.array_equal(params["w"], [2.0, -3.0])

    def test_two_momentum_steps_match_hand_unrolled_recurrence(self):
        lr, mu = 0.1, 0.9
        w = 1.0
        g1, g2 = 0.5, -0.25
        # v1 = g1; w1 = w - lr*v1; v2 = mu*v1 + g2; w2 = w1 - lr*v2
        v1 = g1
        w1 = w - lr * v1
        v2 = mu * v1 + g2
        w2 = w1 - lr * v2
        params = {"w": np.array([w])}
        vel = {}
        cfg = SgdConfig(momentum=mu, weight_decay=0.0)
        sgd_step(params, {"w": np.array([g1])}, vel, cfg, lr)
        sgd_step(params, {"w": np.array([g2])}, vel, cfg, lr)
        assert abs(params["w"][0] - w2) < 1e-15

    def test_weight_decay_adds_to_gradient(self):
        params = {"w": np.array([2.0])}
        sgd_step(params, {"w": np.zeros(1)}, {},
                 SgdConfig(momentum=0.0, weight_decay=0.1), 0.5)
        # g = 0 + 0.1*2 = 0.2; w = 2 - 0.5*0.2
        assert abs(params["w"][0] - 1.9) < 1e-15

    def test_non_finite_grad_names_tensor(self):
        with pytest.raises(NumericOverflowError, match="lin.weight"):
            sgd_step({"lin.weight": np.ones(2)},
                     {"lin.weight": np.array([np.nan, 0.0])}, {},
                     SgdConfig(momentum=0.9, weight_decay=0.0), 0.1)


class TestLars:
    def roles(self, *names, role="weight"):
        return {n: role for n in names}

    def test_zero_weight_norm_gives_plain_step(self):
        params = {"w": np.zeros(3)}
        grads = {"w": np.array([1.0, 0.0, 0.0])}
        cfg = lars_config(momentum=0.0)
        lars_step(params, grads, {}, self.roles("w"), cfg, 0.1)
        # local = 1 -> w -= lr * g
        assert np.allclose(params["w"], [-0.1, 0.0, 0.0], atol=1e-15)

    def test_trust_ratio_value(self):
        # ||w|| = 2, ||g|| = 1, eta = 1e-3 -> local = 2e-3 (up to eps)
        params = {"w": np.array([2.0, 0.0])}
        grads = {"w": np.array([0.0, 1.0])}
        cfg = lars_config(momentum=0.0)
        lars_step(params, grads, {}, self.roles("w"), cfg, 1.0)
        step = np.array([2.0, 0.0]) - params["w"]
        local = step[1] / 1.0  # lr * local * g
        assert abs(local - 2e-3) < 1e-9

    def test_excluded_role_ignores_weight_decay(self):
        for wd in (0.0, 0.1):
            params = {"bn.gain": np.array([2.0])}
            grads = {"bn.gain": np.array([0.3])}
            cfg = lars_config(momentum=0.0, weight_decay=wd)
            lars_step(params, grads, {}, self.roles("bn.gain", role="norm_gain"),
                      cfg, 0.1)
            assert abs(params["bn.gain"][0] - (2.0 - 0.1 * 0.3)) < 1e-15

    def test_missing_role_tag_rejected(self):
        with pytest.raises(ConfigError):
            lars_step({"w": np.ones(2)}, {"w": np.ones(2)}, {}, {},
                      lars_config(momentum=0.9), 0.1)

    def test_all_excluded_lars_is_bitwise_sgd_on_dyadic_values(self):
        # dyadic lr/momentum/values keep float ops exact, so the two
        # trajectories must agree bit for bit
        lr, mu = 0.25, 0.5
        w0 = {"bn.gain": np.array([1.0, -0.5]), "b.bias": np.array([0.75])}
        grad_seq = [
            {"bn.gain": np.array([0.5, 0.25]), "b.bias": np.array([-0.5])},
            {"bn.gain": np.array([-0.25, 1.0]), "b.bias": np.array([0.125])},
            {"bn.gain": np.array([0.0, -0.5]), "b.bias": np.array([0.25])},
        ]
        roles = {"bn.gain": "norm_gain", "b.bias": "bias"}

        sgd_params = {k: v.copy() for k, v in w0.items()}
        sgd_vel = {}
        lars_params = {k: v.copy() for k, v in w0.items()}
        lars_vel = {}
        lars_cfg = lars_config(momentum=mu)
        sgd_cfg = SgdConfig(momentum=mu, weight_decay=0.0)
        for grads in grad_seq:
            sgd_step(sgd_params, grads, sgd_vel, sgd_cfg, lr)
            lars_step(lars_params, grads, lars_vel, roles, lars_cfg, lr)
            for name in w0:
                assert np.array_equal(sgd_params[name], lars_params[name])

    def test_norm_growth_mechanism(self):
        # A BN gain trained by LARS (excluded, no decay) keeps more norm than
        # under SGD with weight decay, given the same gradient stream.
        rng = Rng(0)
        gain0 = 2.0 * np.ones(16)
        lars_params = {"bn.gain": gain0.copy()}
        sgd_params = {"bn.gain": gain0.copy()}
        lars_vel, sgd_vel = {}, {}
        lars_cfg = lars_config(momentum=0.9)
        sgd_cfg = SgdConfig(momentum=0.9, weight_decay=1e-4)
        roles = {"bn.gain": "norm_gain"}
        for step in range(500):
            g = {"bn.gain": 0.01 * rng.normal(size=16)}
            lars_step(lars_params, g, lars_vel, roles, lars_cfg, 0.5)
            sgd_step(sgd_params, g, sgd_vel, sgd_cfg, 0.5)
        assert (np.linalg.norm(lars_params["bn.gain"])
                > np.linalg.norm(sgd_params["bn.gain"]))


class TestLrSchedule:
    def test_warmup_boundary_reaches_base(self):
        sched = LrSchedule(base_lr=0.6, warmup_epochs=2,
                           total_epochs=10)
        assert lr_at(0.2, sched) == 0.6

    def test_warmup_is_linear_from_zero(self):
        sched = LrSchedule(base_lr=0.6, warmup_epochs=2,
                           total_epochs=10)
        assert lr_at(0.0, sched) == 0.0
        assert abs(lr_at(0.1, sched) - 0.3) < 1e-15

    def test_cosine_endpoint_is_zero(self):
        sched = LrSchedule(base_lr=0.6, warmup_epochs=0, total_epochs=10)
        assert abs(lr_at(1.0, sched)) < 1e-16

    def test_continuous_at_warmup_and_monotone_after(self):
        sched = LrSchedule(base_lr=1.0, warmup_epochs=1, total_epochs=10)
        wf = 0.1
        assert abs(lr_at(wf - 1e-9, sched) - lr_at(wf, sched)) < 1e-6
        values = [lr_at(p, sched) for p in np.linspace(wf, 1.0, 50)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_out_of_range_progress(self):
        sched = LrSchedule(base_lr=1.0, warmup_epochs=0, total_epochs=1)
        with pytest.raises(ConfigError):
            lr_at(1.5, sched)


class TestNormReports:
    def test_zero_tensor_and_three_four_five(self):
        specs = (
            Block("backbone1", "a", 2, 1, norm=False, relu=False),
            Block("backbone1", "b", 1, 2, norm=False, relu=False),
        )
        params = init_params(specs, Rng(0))
        params.tensors["a.weight"] = np.array([[3.0], [4.0]])
        params.tensors["b.weight"] = np.zeros((1, 2))
        report = weight_norm_report(params)
        assert report["a.weight"] == 5.0
        assert report["b.weight"] == 0.0
        assert list(report) == ["a.weight", "b.weight"]  # depth order

    def test_norm_sum_by_role(self):
        specs = (Block("backbone1", "lin", 4, 4, norm=True, relu=False),)
        params = init_params(specs, Rng(0))
        assert norm_sum_by_role(params, "norm_gain") == pytest.approx(2.0)

    def test_optimizer_wrapper_reports_lr(self):
        opt = Optimizer(SgdConfig(momentum=0.9, weight_decay=0.0),
                        LrSchedule(0.5, warmup_epochs=0, total_epochs=10))
        params = {"w": np.ones(2)}
        lr_used = opt.step(params, {"w": np.zeros(2)}, {"w": "weight"}, 0.0)
        assert lr_used == 0.5
