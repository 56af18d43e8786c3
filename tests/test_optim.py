"""Adam and SGD update rules: hand-evaluated steps, bounds, rejection."""

import math

import numpy as np
import pytest

from bcnn.errors import ConfigError, UpdateError
from bcnn.optim import adam_init, adam_step, sgd_step
from bcnn.tensor import Tensor
from bcnn.train import TrainConfig


def scalar(value):
    return {"w": Tensor(np.array([value]), dtype=np.float64)}


def grad(value):
    return {"w": np.array([value], dtype=np.float64)}


# ---------------------------------------------------------------------------
# adam_init


def test_adam_init_zero_moments_and_counter():
    params = {"a": Tensor(np.zeros((2, 3), dtype=np.float32)),
              "b": Tensor(np.zeros((4,), dtype=np.float32))}
    state = adam_init(params)
    assert state.t == 0
    assert set(state.m) == set(params) and set(state.v) == set(params)
    for name, p in params.items():
        assert state.m[name].shape == p.shape
        assert state.v[name].shape == p.shape
        assert float(np.abs(state.m[name]).max()) == 0.0
        assert float(np.abs(state.v[name]).max()) == 0.0


def test_adam_init_rejects_bad_hyperparameters():
    params = scalar(0.0)
    with pytest.raises(ConfigError):
        adam_init(params, lr=0.0)
    with pytest.raises(ConfigError):
        adam_init(params, lr=-1e-3)
    with pytest.raises(ConfigError):
        adam_init(params, lr=math.inf)


def test_learning_rate_must_be_a_real_number():
    # adam_init, sgd_step and TrainConfig share one learning-rate rule.
    params = scalar(1.0)
    for lr in ("x", None, True, 10 ** 400, complex(1e-3)):
        with pytest.raises(ConfigError):
            adam_init(params, lr=lr)
        with pytest.raises(ConfigError):
            sgd_step(params, grad(1.0), lr)
        with pytest.raises(ConfigError):
            TrainConfig(lr=lr)
    assert float(params["w"].data[0]) == 1.0


# ---------------------------------------------------------------------------
# adam_step


def test_adam_first_step_is_bias_corrected():
    # with g=1: m_hat = v_hat = 1, so the step is exactly -lr/(1 + eps)
    params = scalar(0.0)
    state = adam_init(params)
    adam_step(state, params, grad(1.0))
    assert state.t == 1
    want = -1e-3 / (1.0 + 1e-8)
    assert abs(float(params["w"].data[0]) - want) < 1e-15


def test_adam_two_constant_steps():
    # constant g keeps m_hat = v_hat = 1, so each step repeats the first
    params = scalar(0.0)
    state = adam_init(params)
    adam_step(state, params, grad(1.0))
    adam_step(state, params, grad(1.0))
    assert abs(float(params["w"].data[0]) + 0.002) < 1e-6


def test_adam_zero_gradient_never_moves():
    params = scalar(0.75)
    state = adam_init(params)
    for _ in range(100):
        adam_step(state, params, grad(0.0))
    assert float(params["w"].data[0]) == 0.75
    assert state.t == 100


def test_adam_constant_gradient_bound_and_sign():
    for g in (3.0, -0.5, 1e-6):
        params = scalar(1.0)
        state = adam_init(params)
        prev = float(params["w"].data[0])
        for _ in range(50):
            adam_step(state, params, grad(g))
            cur = float(params["w"].data[0])
            delta = cur - prev
            assert abs(delta) <= state.lr * 1.01
            assert np.sign(delta) == -np.sign(g)
            prev = cur


def test_adam_quadratic_smoke():
    # f(w) = w^2/2, gradient w; defaults shrink |w| from 1 below 0.1
    # (measured: 0.56 after 500 steps, crossing 0.1 near step 1500)
    params = scalar(1.0)
    state = adam_init(params)
    for step in range(1, 2001):
        adam_step(state, params, {"w": params["w"].data.copy()})
        if abs(float(params["w"].data[0])) < 0.1:
            break
    assert abs(float(params["w"].data[0])) < 0.1
    assert step <= 2000


def test_adam_rejections_leave_everything_untouched():
    params = {"a": Tensor(np.arange(1.0, 5.0).reshape(2, 2), dtype=np.float64),
              "b": Tensor(np.array([7.0]), dtype=np.float64)}
    state = adam_init(params)
    adam_step(state, params, {"a": np.zeros((2, 2), dtype=np.float64),
                              "b": np.zeros((1,), dtype=np.float64)})
    snapshot = {n: p.data.copy() for n, p in params.items()}
    m_snap = {n: m.copy() for n, m in state.m.items()}

    bad_shape = {"a": np.zeros((2, 2), dtype=np.float64),
                 "b": np.zeros((3,), dtype=np.float64)}
    bad_names = {"a": np.zeros((2, 2), dtype=np.float64)}
    bad_values = {"a": np.full((2, 2), np.nan),
                  "b": np.zeros((1,), dtype=np.float64)}
    for bad in (bad_shape, bad_names, bad_values):
        with pytest.raises(UpdateError):
            adam_step(state, params, bad)
        assert state.t == 1
        for name in params:
            assert np.array_equal(params[name].data, snapshot[name])
            assert np.array_equal(state.m[name], m_snap[name])


# ---------------------------------------------------------------------------
# sgd_step


def test_sgd_hand_arithmetic():
    params = scalar(1.0)
    sgd_step(params, grad(2.0), lr=0.1)
    assert abs(float(params["w"].data[0]) - 0.8) < 1e-15


def test_sgd_zero_gradient_unchanged():
    params = scalar(0.3)
    sgd_step(params, grad(0.0), lr=0.1)
    assert float(params["w"].data[0]) == 0.3


def test_sgd_update_linear_in_lr():
    a, b = scalar(1.0), scalar(1.0)
    sgd_step(a, grad(0.7), lr=0.01)
    sgd_step(b, grad(0.7), lr=0.02)
    da = 1.0 - float(a["w"].data[0])
    db = 1.0 - float(b["w"].data[0])
    assert abs(db - 2.0 * da) < 1e-15


def test_sgd_numpy_scalar_lr_matches_python_float():
    # The rate is used as a Python float, so a float64 scalar does not
    # promote the float32 update to float64 and round it differently.
    rng = np.random.default_rng(0)
    w = rng.standard_normal(1000).astype(np.float32)
    g = {"w": rng.standard_normal(1000).astype(np.float32)}
    a, b = {"w": Tensor(w.copy())}, {"w": Tensor(w.copy())}
    sgd_step(a, g, 0.1)
    sgd_step(b, g, np.float64(0.1))
    assert a["w"].data.tobytes() == b["w"].data.tobytes()


def test_sgd_rejects_bad_lr_and_bad_grads():
    params = scalar(1.0)
    with pytest.raises(ConfigError):
        sgd_step(params, grad(1.0), lr=0.0)
    with pytest.raises(ConfigError):
        sgd_step(params, grad(1.0), lr=math.inf)
    with pytest.raises(UpdateError):
        sgd_step(params, {"w": np.full((2,), np.inf)}, lr=0.1)
    assert float(params["w"].data[0]) == 1.0
