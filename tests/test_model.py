"""Cascade architecture: shapes, determinism, both streams, gradients."""

import dataclasses
import math

import numpy as np
import pytest

from bcnn.errors import ConfigError, ConsistencyError, DimensionError
from bcnn.model import (
    ForwardTrace,
    ModelConfig,
    backward,
    build_model,
    forward,
    full_model_gradcheck,
    parameter_shapes,
    predict,
)
from bcnn.tensor import Tensor

TINY = ModelConfig(input_size=8, input_channels=1, stages=2, channels=(2, 3), classes=3, seed=0)


def batch_of(rng, config, n):
    return Tensor(rng.random((n, config.input_channels,
                              config.input_size, config.input_size), dtype=np.float32))


# ---------------------------------------------------------------------------
# configuration and shapes


def test_default_config_shapes():
    shapes = parameter_shapes(ModelConfig())
    assert shapes["head_w"] == (16 + 64, 3)
    assert shapes["head_b"] == (3,)
    assert shapes["fwd1_w"] == (16, 1, 3, 3)
    assert shapes["fwd3_w"] == (64, 32, 3, 3)
    # refine stage 1 fuses channels[0] + channels[1] maps back down to channels[0]
    assert shapes["refine1_w"] == (16, 48, 3, 3)
    assert shapes["refine2_w"] == (32, 96, 3, 3)


def test_default_config_parameter_count():
    # by hand: fwd 16*9+16 + 32*16*9+32 + 64*32*9+64 = 160+4640+18496,
    # refine 16*48*9+16 + 32*96*9+32 = 6928+27680, head 80*3+3 = 243
    params = build_model(ModelConfig())
    total = sum(p.size for p in params.values())
    assert total == 58147


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(stages=1, channels=(16,))
    with pytest.raises(ConfigError):
        ModelConfig(channels=(16, 32))
    with pytest.raises(ConfigError):
        ModelConfig(input_size=60)
    with pytest.raises(ConfigError):
        ModelConfig(input_size=4, stages=3, channels=(2, 2, 2))
    with pytest.raises(ConfigError):
        ModelConfig(classes=1)
    with pytest.raises(ConfigError):
        ModelConfig(channels=(16, 0, 64))
    with pytest.raises(ConfigError):
        ModelConfig(input_channels=0)
    with pytest.raises(ConfigError):
        ModelConfig(seed=-1)
    with pytest.raises(ConfigError):
        ModelConfig(seed=2 ** 32)


def test_build_model_same_seed_is_bitwise_identical():
    a = build_model(ModelConfig(seed=9))
    b = build_model(ModelConfig(seed=9))
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)


def test_build_model_different_seed_differs():
    a = build_model(ModelConfig(seed=0))
    b = build_model(ModelConfig(seed=1))
    assert not np.array_equal(a["fwd1_w"].data, b["fwd1_w"].data)


def test_build_model_he_scale_and_zero_biases():
    params = build_model(ModelConfig())
    for name, p in params.items():
        if name.endswith("_b"):
            assert float(np.abs(p.data).max()) == 0.0
    # largest weight tensor: fwd3_w, fan_in 32*3*3 = 288
    sample_std = float(params["fwd3_w"].data.std())
    assert abs(sample_std - math.sqrt(2.0 / 288.0)) < 0.05 * math.sqrt(2.0 / 288.0)


# ---------------------------------------------------------------------------
# forward


def test_forward_logit_shape_and_finiteness():
    config = ModelConfig()
    params = build_model(config)
    logits, _ = forward(params, batch_of(np.random.default_rng(0), config, 2))
    assert logits.shape == (2, 3)
    assert np.isfinite(logits.data).all()


def test_forward_identical_rows_give_identical_logits():
    config = ModelConfig()
    params = build_model(config)
    one = np.random.default_rng(1).random((1, 1, 64, 64), dtype=np.float32)
    logits, _ = forward(params, Tensor(np.concatenate([one, one], axis=0)))
    assert np.array_equal(logits.data[0], logits.data[1])


def test_forward_trace_resolution_ladder():
    config = ModelConfig()
    params = build_model(config)
    _, trace = forward(params, batch_of(np.random.default_rng(2), config, 2))
    # F_k and B_k are the ReLU outputs of stage k's forward and refine convs
    assert [ctxs[-1].saved["x"].shape for ctxs in trace.down_ctxs] == [
        (2, 16, 32, 32), (2, 32, 16, 16), (2, 64, 8, 8)]
    assert [ctxs[-1].saved["x"].shape for ctxs in trace.up_ctxs] == [
        (2, 16, 32, 32), (2, 32, 16, 16)]
    assert trace.head_ctx.saved["x"].shape == (2, 16 + 64)


def test_forward_trace_keeps_only_what_backward_reads():
    params = build_model(TINY)
    _, trace = forward(params, batch_of(np.random.default_rng(2), TINY, 2))
    assert [f.name for f in dataclasses.fields(ForwardTrace)] == [
        "down_ctxs", "up_ctxs", "head_ctx", "param_shapes"]
    relu_ctxs = [ctxs[-1] for ctxs in trace.down_ctxs + trace.up_ctxs]
    assert all(set(ctx.saved) == {"x"} for ctx in relu_ctxs)


def test_forward_permuting_batch_permutes_logits():
    config = ModelConfig()
    params = build_model(config)
    x = np.random.default_rng(3).random((4, 1, 64, 64), dtype=np.float32)
    perm = np.array([2, 0, 3, 1])
    base, _ = forward(params, Tensor(x))
    permuted, _ = forward(params, Tensor(x[perm]))
    assert np.array_equal(base.data[perm], permuted.data)


def test_forward_input_validation():
    params = build_model(TINY)
    with pytest.raises(DimensionError):
        forward(params, Tensor(np.ones((2, 8, 8), dtype=np.float32)))
    with pytest.raises(DimensionError):
        forward(params, Tensor(np.ones((2, 3, 8, 8), dtype=np.float32)))
    with pytest.raises(DimensionError):
        forward(params, Tensor(np.ones((2, 1, 8, 4), dtype=np.float32)))
    with pytest.raises(DimensionError):
        forward(params, Tensor(np.ones((2, 1, 6, 6), dtype=np.float32)))


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_upstream_gives_zero_gradients():
    params = build_model(TINY)
    _, trace = forward(params, batch_of(np.random.default_rng(4), TINY, 2))
    grads = backward(params, trace, Tensor.zeros((2, 3)))
    assert set(grads) == set(params)
    for g in grads.values():
        assert float(np.abs(g.data).max()) == 0.0


def test_backward_gradient_shapes_match_parameters():
    params = build_model(TINY)
    logits, trace = forward(params, batch_of(np.random.default_rng(5), TINY, 2))
    grads = backward(params, trace, Tensor(np.random.default_rng(6).random(logits.shape,
                                                                           dtype=np.float32)))
    for name, p in params.items():
        assert grads[name].shape == p.shape


def test_backward_rejects_foreign_trace():
    params = build_model(TINY)
    _, trace = forward(params, batch_of(np.random.default_rng(7), TINY, 2))
    other = build_model(ModelConfig(input_size=8, stages=2, channels=(4, 5), classes=3))
    with pytest.raises(ConsistencyError):
        backward(other, trace, Tensor.zeros((2, 3)))
    renamed = dict(params)
    renamed["extra_w"] = renamed.pop("fwd1_w")
    with pytest.raises(ConsistencyError):
        backward(renamed, trace, Tensor.zeros((2, 3)))


# ---------------------------------------------------------------------------
# predict


def test_predict_matches_argmax_of_forward():
    params = build_model(TINY)
    x = batch_of(np.random.default_rng(8), TINY, 5)
    logits, _ = forward(params, x)
    assert np.array_equal(predict(params, x), np.argmax(logits.data, axis=1))


def test_predict_argmax_and_tie_rule():
    # zero head weights make every logit row equal head_b exactly
    params = build_model(TINY)
    params["head_w"] = Tensor.zeros(params["head_w"].shape)
    x = batch_of(np.random.default_rng(9), TINY, 3)

    params["head_b"] = Tensor(np.array([0.1, 0.9, 0.2], dtype=np.float32))
    assert np.array_equal(predict(params, x), np.array([1, 1, 1]))

    params["head_b"] = Tensor(np.array([0.5, 0.5, 0.1], dtype=np.float32))
    assert np.array_equal(predict(params, x), np.array([0, 0, 0]))


# ---------------------------------------------------------------------------
# the full-model finite-difference gate


def test_full_model_gradcheck_passes_on_tiny_config():
    errors = full_model_gradcheck(seed=0)
    assert set(errors) == set(parameter_shapes(TINY))
    assert max(errors.values()) < 1e-4


def test_full_model_gradcheck_other_seed():
    assert max(full_model_gradcheck(seed=7).values()) < 1e-4
