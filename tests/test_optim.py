import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from ethikit.batching import TokenBatch
from ethikit.errors import ConfigError, IncompleteAccumulation, InvalidStep, ShapeMismatch
from ethikit import model
from ethikit.loss import bce_grad_logits
from ethikit.model import ModelConfig, backward, forward, init_params, is_weight_param
from ethikit.optim import BETA1, BETA2, EPSILON, OptimConfig, accumulate, flush, init_state, lr_at


def scalar_adamw(theta, grad_means, eta0, beta1, beta2, eps, wd, decayed):
    """Independent scalar reimplementation of the update rule."""
    m = v = 0.0
    t = 0
    for g in grad_means:
        t += 1
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        eta = eta0 / math.sqrt(t)
        step = eta * m_hat / (math.sqrt(v_hat) + eps)
        if decayed:
            step += eta * wd * theta
        theta = theta - step
    return theta


def per_tensor_flush(theta, m, v, g_acc, t, counter, cfg):
    """The per-tensor flush the tiled one replaced, on dicts of arrays, in place.

    ``t`` is the step this flush takes and ``counter`` the window's size.
    """
    eta = lr_at(t, cfg.eta0)
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for name in theta:
        g_mean = g_acc[name] / counter
        m[name] *= BETA1
        m[name] += (1.0 - BETA1) * g_mean
        v[name] *= BETA2
        v[name] += (1.0 - BETA2) * g_mean * g_mean
        m_hat = m[name] / bias1
        v_hat = v[name] / bias2
        update = eta * m_hat / (np.sqrt(v_hat) + EPSILON)
        if cfg.weight_decay > 0.0 and is_weight_param(name):
            update = update + eta * cfg.weight_decay * theta[name]
        theta[name] -= update.astype(theta[name].dtype, copy=False)
        g_acc[name][...] = 0


def per_tensor_first_step(params, grads, cfg):
    """Copies of the parameters after ``per_tensor_flush`` takes step 1 on one
    micro-batch of named gradients."""
    ref = {k: t.copy() for k, t in params.tensors.items()}
    ref_m, ref_v = ({k: np.zeros_like(t) for k, t in ref.items()} for _ in range(2))
    per_tensor_flush(ref, ref_m, ref_v, {k: np.array(grads[k]) for k in ref}, 1, 1, cfg)
    return ref


def tiny_params(value=1.0, dtype="float64"):
    cfg = ModelConfig(vocab_size=6, max_len=2, n_layers=1, n_heads=1,
                      d_model=2, d_ff=2, dtype=dtype)
    params = init_params(cfg)
    for t in params.tensors.values():
        t[...] = value
    return params


class TestConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("weight_decay", -0.01, "weight_decay"),
        ("n_acc", 0, "n_acc"),
    ])
    def test_out_of_range_setting_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            OptimConfig(**{field: value})


class TestSchedule:
    def test_exact_values(self):
        assert lr_at(1, 6e-5) == 6e-5
        assert lr_at(4, 6e-5) == 3e-5
        assert lr_at(100, 6e-5) == 6e-6

    def test_step_zero_rejected(self):
        with pytest.raises(InvalidStep):
            lr_at(0, 6e-5)

    def test_strictly_decreasing(self):
        rates = [lr_at(t, 6e-5) for t in range(1, 500)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


def add_grads(state, grads):
    """Add one micro-batch's named gradients into the sum, as ``model.backward``
    does, then count the micro-batch."""
    for name, g in grads.items():
        np.add(state.g_acc[name], g, out=state.g_acc[name])
    accumulate(state)


class TestAccumulate:
    def _setup(self):
        params = tiny_params()
        return params, init_state(params)

    def test_zero_grads_leave_buffer(self):
        params, state = self._setup()
        add_grads(state, {k: np.zeros_like(v) for k, v in params.tensors.items()})
        assert not any(g.any() for g in state.g_acc.values())
        assert state.counter == 1

    def test_linearity(self):
        params, state = self._setup()
        for _ in range(2):
            state.g_acc.flat += 0.5
            accumulate(state)
        assert all((state.g_acc[k] == 1.0).all() for k in params.names)
        assert state.counter == 2

    def test_no_parameter_change(self):
        params, state = self._setup()
        before = params.tensors.flat.copy()
        state.g_acc.flat += 2.0
        accumulate(state)
        assert params.tensors.flat.tobytes() == before.tobytes()

    def test_failed_backward_is_not_counted(self):
        cfg = ModelConfig(vocab_size=6, max_len=4, n_layers=1, n_heads=1,
                          d_model=2, d_ff=2, dtype="float64")
        params = init_params(cfg)
        state = init_state(params)
        batch = TokenBatch(ids=np.array([[2, 5, 3]]), mask=np.ones((1, 3), dtype=np.int8),
                           labels=np.array([1]))
        logits, cache = forward(params, batch, train=True, rng=np.random.default_rng(0))

        def step(dl_dlogits):   # one micro-batch, as ``trainer.train`` runs it
            backward(params, cache, dl_dlogits, state.g_acc)
            accumulate(state)

        before = state.g_acc.flat.copy()
        with pytest.raises(ShapeMismatch, match="dl_dlogits"):
            step(np.zeros(2))
        assert state.counter == 0
        assert state.g_acc.flat.tobytes() == before.tobytes()

        dl = bce_grad_logits(logits, batch.labels)
        step(dl)
        assert state.counter == 1
        # The flush takes the mean of the one micro-batch backward added.
        ref = per_tensor_first_step(
            params, backward(params, cache, dl, params.tensors.zeros_like()), OptimConfig())
        flush(params, state, OptimConfig())
        for name, arr in ref.items():
            assert params[name].tobytes() == arr.tobytes(), name


class TestFlush:
    def test_partial_window_flushes_its_own_mean(self):
        rng = np.random.default_rng(37)
        params = tiny_params(0.5)
        cfg = OptimConfig(eta0=1e-2, n_acc=4)
        state = init_state(params)
        grads = {k: rng.normal(size=v.shape) for k, v in params.tensors.items()}
        ref = per_tensor_first_step(params, grads, cfg)
        add_grads(state, grads)   # one micro-batch of a four-batch window
        flush(params, state, cfg)
        assert (state.t, state.counter) == (1, 0)
        for name, arr in ref.items():
            assert params[name].tobytes() == arr.tobytes(), name

    def test_empty_window_rejected_even_partial(self):
        params = tiny_params()
        state = init_state(params)
        with pytest.raises(IncompleteAccumulation):
            flush(params, state, OptimConfig())

    def test_zero_gradient_fixed_point(self):
        params = tiny_params(0.37)
        cfg = OptimConfig(n_acc=1, weight_decay=0.0)
        state = init_state(params)
        accumulate(state)   # a micro-batch of zero gradients
        flush(params, state, cfg)
        assert all((v == 0.37).all() for v in params.tensors.values())

    def test_pure_decoupled_decay(self):
        params = tiny_params(2.0)
        wd = 0.25
        cfg = OptimConfig(eta0=0.1, weight_decay=wd, n_acc=1)
        state = init_state(params)
        accumulate(state)
        flush(params, state, cfg)
        # theta <- theta * (1 - eta_1 * wd) on decayed tensors only
        assert params["head.w"][0] == pytest.approx(2.0 * (1 - 0.1 * wd), rel=1e-15)
        assert params["embed.tok"][0, 0] == pytest.approx(2.0 * (1 - 0.1 * wd), rel=1e-15)
        assert params["head.b"] == 2.0  # bias: no decay
        assert params["layers.0.ln1.g"][0] == 2.0  # norm gain: no decay

    def test_first_step_direction_and_value(self):
        params = tiny_params(1.0)
        cfg = OptimConfig(eta0=6e-5, weight_decay=0.0, n_acc=1)
        state = init_state(params)
        g = 0.73
        state.g_acc.flat += g
        accumulate(state)
        flush(params, state, cfg)
        oracle = scalar_adamw(1.0, [g], cfg.eta0, BETA1, BETA2,
                              EPSILON, 0.0, decayed=False)
        got = float(params["head.w"][0])
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got < 1.0  # moved against the positive gradient
        # first-step bias correction makes the step ~ eta * sign(g)
        assert (1.0 - got) == pytest.approx(cfg.eta0, rel=1e-3)

    def test_hundred_random_steps_match_scalar_oracle(self):
        rng = np.random.default_rng(17)
        params = tiny_params(rng.normal())
        theta0 = float(params["head.w"][0])
        cfg = OptimConfig(eta0=3e-3, weight_decay=0.02, n_acc=2)
        state = init_state(params)
        grad_means = []
        for _ in range(100):
            g1, g2 = rng.normal(size=2)
            for g in (g1, g2):
                state.g_acc.flat += g
                accumulate(state)
            flush(params, state, cfg)
            grad_means.append((g1 + g2) / 2.0)
        oracle = scalar_adamw(theta0, grad_means, cfg.eta0, BETA1, BETA2,
                              EPSILON, cfg.weight_decay, decayed=True)
        got = float(params["head.w"][0])
        assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_accumulation_equivalence(self):
        rng = np.random.default_rng(23)
        base = tiny_params(0.5)
        grads = [
            {k: rng.normal(size=v.shape) for k, v in base.tensors.items()}
            for _ in range(4)
        ]

        acc_params = base.copy()
        cfg4 = OptimConfig(eta0=1e-2, weight_decay=0.0, n_acc=4)
        state4 = init_state(acc_params)
        for g in grads:
            add_grads(state4, g)
        flush(acc_params, state4, cfg4)

        one_params = base.copy()
        cfg1 = OptimConfig(eta0=1e-2, weight_decay=0.0, n_acc=1)
        state1 = init_state(one_params)
        mean_grad = {
            k: (grads[0][k] + grads[1][k] + grads[2][k] + grads[3][k]) / 4.0
            for k in base.tensors
        }
        add_grads(state1, mean_grad)
        flush(one_params, state1, cfg1)

        for name in base.tensors:
            a, b = acc_params[name], one_params[name]
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), name

    def test_second_moment_stays_nonnegative(self):
        rng = np.random.default_rng(29)
        params = tiny_params(1.0)
        cfg = OptimConfig(n_acc=1)
        state = init_state(params)
        for _ in range(50):
            add_grads(state, {k: rng.normal(size=v.shape) for k, v in params.tensors.items()})
            flush(params, state, cfg)
            assert all((v >= 0).all() for v in state.v.values())

    def test_identical_stream_identical_trajectory(self):
        def run():
            params = tiny_params(1.0)
            cfg = OptimConfig(n_acc=1)
            state = init_state(params)
            rng = np.random.default_rng(31)
            for _ in range(20):
                add_grads(state,
                          {k: rng.normal(size=v.shape) for k, v in params.tensors.items()})
                flush(params, state, cfg)
            return params

        p1, p2 = run(), run()
        for name in p1.tensors:
            assert p1[name].tobytes() == p2[name].tobytes()


class TestTiledFlush:
    """The tiled flush against the per-tensor one, byte for byte."""

    CFG = ModelConfig(vocab_size=13, max_len=5, n_layers=2, n_heads=2, d_model=4, d_ff=6)

    def _run(self, dtype, n_acc, weight_decay):
        params = init_params(replace(self.CFG, dtype=dtype))
        rng = np.random.default_rng(5)
        for t in params.tensors.values():
            t[...] = rng.normal(0.0, 0.5, size=t.shape)
        ref = {k: t.copy() for k, t in params.tensors.items()}
        ref_m, ref_v, ref_g = ({k: np.zeros_like(t) for k, t in ref.items()} for _ in range(3))
        cfg = OptimConfig(eta0=3e-2, weight_decay=weight_decay, n_acc=n_acc)
        state = init_state(params)
        n_micro = 3 * n_acc + (n_acc > 1)   # with n_acc > 1, the last window is partial
        for i in range(n_micro):
            scale = 10.0 ** rng.integers(-4, 2)
            grads = {k: (scale * rng.normal(size=t.shape)).astype(dtype)
                     for k, t in ref.items()}
            add_grads(state, grads)
            for k, g in grads.items():
                ref_g[k] += g
            if state.counter == n_acc or i == n_micro - 1:
                per_tensor_flush(ref, ref_m, ref_v, ref_g, state.t + 1, state.counter, cfg)
                flush(params, state, cfg)
        assert state.t == 3 + (n_acc > 1)
        for got, want in ((params.tensors, ref), (state.m, ref_m), (state.v, ref_v),
                          (state.g_acc, ref_g)):
            for name, arr in want.items():
                assert got[name].dtype == arr.dtype, name
                assert got[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("tile", [1, 7, model._TILE])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("n_acc", [1, 4])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_per_tensor_flush(self, dtype, n_acc, weight_decay, tile):
        # Tiles of 1 and 7 elements end inside tensors and on both sides of
        # the last decayed element; the default tile holds the whole model.
        assert init_params(self.CFG).tensors.n_decayed % 7 != 0
        with mock.patch.object(model, "_TILE", tile):
            self._run(dtype, n_acc, weight_decay)

    def test_state_shares_the_parameter_layout(self):
        params = init_params(self.CFG)
        state = init_state(params)
        for buf in (state.m, state.v, state.g_acc):
            assert buf.same_layout(params.tensors.shapes, params.dtype)
            assert buf.n_decayed == params.tensors.n_decayed
            for name in params.names:
                assert np.shares_memory(buf[name], buf.flat), name

    @pytest.mark.parametrize("other", [
        replace(CFG, vocab_size=14),      # another shape
        replace(CFG, dtype="float64"),    # the same shapes in another dtype
    ])
    def test_state_for_another_layout_rejected(self, other):
        built_for = init_params(other)
        cfg = OptimConfig(n_acc=1)
        state = init_state(built_for)
        state.g_acc.flat += 1.0
        accumulate(state)
        params = init_params(self.CFG)
        before = params.tensors.flat.copy()
        with pytest.raises(ShapeMismatch, match="layout"):
            flush(params, state, cfg)
        assert params.tensors.flat.tobytes() == before.tobytes()
        assert state.t == 0
