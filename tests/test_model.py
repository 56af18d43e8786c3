"""Cascade architecture: shapes, determinism, both streams, gradients."""

import dataclasses
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bcnn.model
from bcnn.data import MAX_INPUT_SIZE
from bcnn.errors import ConfigError, ConsistencyError, DimensionError
from bcnn.model import (
    ModelConfig,
    backward,
    build_model,
    forward,
    full_model_gradcheck,
    parameter_shapes,
    softmax_xent,
)
from bcnn.tensor import OpContext, Tensor, conv2d, conv2d_backward

_IDENTITY = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_IDENTITY)
_IDENTITY.loader.exec_module(identity)
held_bytes = identity.held_bytes

TINY = ModelConfig(input_size=8, stages=2, channels=(2, 3), classes=3, seed=0)


def batch_of(rng, config, n):
    return Tensor(rng.random((n, 1, config.input_size, config.input_size), dtype=np.float32))


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
    total = sum(p.data.size for p in params.values())
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
        ModelConfig(seed=-1)
    with pytest.raises(ConfigError):
        ModelConfig(seed=2 ** 32)


def test_config_bounds_input_size():
    assert ModelConfig(input_size=MAX_INPUT_SIZE).input_size == MAX_INPUT_SIZE
    # divisible by 2^3, so only the bound rejects it
    with pytest.raises(ConfigError, match="exceeds"):
        ModelConfig(input_size=MAX_INPUT_SIZE + 8)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("classes", 3.5), ("input_size", 64.0), ("stages", 3.0),
    ("channels", (16.7, 32, 64)), ("channels", (16, True, 64)),
])
def test_config_rejects_non_integer_fields(field, value):
    with pytest.raises(ConfigError):
        ModelConfig(**{field: value})


def test_config_accepts_numpy_integers():
    config = ModelConfig(input_size=np.int64(64), channels=np.array([16, 32, 64]))
    assert config.channels == (16, 32, 64)
    assert parameter_shapes(config) == parameter_shapes(ModelConfig())


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_record_free_forward_gives_the_same_logit_bits_and_no_trace(dtype):
    config = ModelConfig(input_size=32, channels=(4, 6, 8))
    params = build_model(config, dtype)
    x = Tensor(np.random.default_rng(3).standard_normal((3, 1, 32, 32)), dtype=dtype)
    logits, _ = forward(params, x)
    bare, trace = forward(params, x, record=False)
    assert trace is None
    assert bare.data.dtype == dtype and bare.data.tobytes() == logits.data.tobytes()


def test_global_average_pool_gives_the_bits_of_mean():
    # H*W mostly not a power of two, so the divide rounds; large and
    # cancelling values make the float32 sum's order matter too.
    rng = np.random.default_rng(17)
    for height, width in ((1, 1), (3, 5), (7, 7), (6, 10), (12, 20), (16, 16), (32, 24),
                          (9, 31), (48, 48), (5, 64), (63, 65)):
        for dtype in (np.float32, np.float64):
            x = (rng.standard_normal((2, 3, height, width)) * 1e4).astype(dtype)
            got = bcnn.model._gap(x)
            want = x.mean(axis=(2, 3))
            assert got.dtype == dtype and got.shape == (2, 3)
            assert got.tobytes() == want.tobytes(), (height, width, dtype)


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
    # The stack holds every op context in application order: fwd1..fwd3,
    # then refine2 and refine1, then the head.
    assert [c.op for c in trace] == (["conv2d", "maxpool2", "relu"] * 3
                                     + ["upsample2", "concat_channels", "conv2d", "relu"] * 2
                                     + ["dense"])
    # F_k and B_k are the ReLU outputs of stage k's forward and refine convs
    assert [c.saved["out"].shape for c in trace if c.op == "relu"] == [
        (2, 16, 32, 32), (2, 32, 16, 16), (2, 64, 8, 8),  # F_1, F_2, F_3
        (2, 32, 16, 16), (2, 16, 32, 32)]                 # B_2, B_1
    assert trace[-1].saved["x"].shape == (2, 16 + 64)


def test_forward_trace_keeps_only_what_backward_reads():
    params = build_model(TINY)
    _, trace = forward(params, batch_of(np.random.default_rng(2), TINY, 2))
    # The trace is the plain list of op contexts, and nothing more.
    assert type(trace) is list and all(type(ctx) is OpContext for ctx in trace)
    relu_ctxs = [c for c in trace if c.op == "relu"]
    assert len(relu_ctxs) == 2 * TINY.stages - 1
    assert all(set(ctx.saved) == {"out"} for ctx in relu_ctxs)


def test_forward_trace_of_a_default_batch_fits_in_20_mib():
    # Pooling keeps a 4-byte winner record per pooled element, not the
    # conv output it pooled, and ReLU keeps the output that the next conv
    # keeps anyway: a batch of 32 default-size images holds 19.7 MiB.
    config = ModelConfig()
    _, trace = forward(build_model(config), batch_of(np.random.default_rng(4), config, 32))
    assert held_bytes(trace) <= 20 * 2 ** 20


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


def test_forward_names_each_missing_tensor_of_the_cascade():
    params = build_model(TINY)
    x = batch_of(np.random.default_rng(3), TINY, 2)
    for name in params:
        partial = {n: t for n, t in params.items() if n != name}
        with pytest.raises(ConsistencyError, match=name):
            forward(partial, x)


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_upstream_gives_zero_gradients():
    params = build_model(TINY)
    _, trace = forward(params, batch_of(np.random.default_rng(4), TINY, 2))
    grads = backward(params, trace, np.zeros((2, 3), dtype=np.float32))
    assert set(grads) == set(params)
    for g in grads.values():
        assert float(np.abs(g).max()) == 0.0


def test_backward_gradient_shapes_match_parameters():
    params = build_model(TINY)
    logits, trace = forward(params, batch_of(np.random.default_rng(5), TINY, 2))
    grads = backward(params, trace, np.random.default_rng(6).random(logits.shape,
                                                                    dtype=np.float32))
    for name, p in params.items():
        assert grads[name].shape == p.shape


def test_backward_skips_only_the_first_input_gradient(monkeypatch):
    # Asking every conv backward for its input gradient must not change a
    # gradient bit; backward() leaves out fwd1's alone.
    params = build_model(TINY)
    rng = np.random.default_rng(8)
    x = batch_of(rng, TINY, 3)
    logits, trace = forward(params, x)
    upstream = rng.standard_normal(logits.shape).astype(np.float32)
    grads = backward(params, trace, upstream)
    skipped = []

    def full_backward(ctx, grad_out, input_grad=True):
        skipped.append(not input_grad)
        return conv2d_backward(ctx, grad_out)

    monkeypatch.setattr(bcnn.model, "conv2d_backward", full_backward)
    _, trace = forward(params, x)  # a trace serves one backward
    full_grads = backward(params, trace, upstream)
    assert skipped == [False, False, True]  # refine1, fwd2, fwd1
    for name in params:
        assert np.array_equal(grads[name], full_grads[name]), name


def test_backward_leaves_no_array_in_the_trace():
    params = build_model(TINY)
    logits, trace = forward(params, batch_of(np.random.default_rng(9), TINY, 2))
    assert held_bytes(trace) > 0
    backward(params, trace, np.ones(logits.shape, dtype=np.float32))
    assert trace == []
    assert held_bytes(trace) == 0


def test_backward_refuses_a_used_trace():
    params = build_model(TINY)
    logits, trace = forward(params, batch_of(np.random.default_rng(9), TINY, 2))
    upstream = np.ones(logits.shape, dtype=np.float32)
    backward(params, trace, upstream)
    with pytest.raises(ConsistencyError, match="already used"):
        backward(params, trace, upstream)
    _, no_trace = forward(params, batch_of(np.random.default_rng(9), TINY, 2), record=False)
    with pytest.raises(ConsistencyError, match="trace-less forward"):
        backward(params, no_trace, upstream)


def test_backward_peak_memory_of_a_default_half_stays_under_26_mib():
    # Backward starts from the 16 MiB trace of 16 default-size images.
    # Holding every context until it returned peaked at 31 MiB above the
    # caller's arrays; freeing each one once used peaks near 22 MiB.
    config = ModelConfig()
    params = build_model(config)
    rng = np.random.default_rng(10)
    x = batch_of(rng, config, 16)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logits, trace = forward(params, x)
        _, d_logits = softmax_xent(logits.data, rng.integers(0, config.classes, size=16))
        tracemalloc.reset_peak()
        backward(params, trace, d_logits)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 26 * 2 ** 20


def test_backward_rejects_foreign_trace():
    params = build_model(TINY)
    _, trace = forward(params, batch_of(np.random.default_rng(7), TINY, 2))
    other = build_model(ModelConfig(input_size=8, stages=2, channels=(4, 5), classes=3))
    with pytest.raises(ConsistencyError):
        backward(other, trace, np.zeros((2, 3), dtype=np.float32))
    # Same shapes, other kernels: the trace is admitted by the arrays it keeps.
    same_shaped = build_model(dataclasses.replace(TINY, seed=1))
    with pytest.raises(ConsistencyError, match="kernels"):
        backward(same_shaped, trace, np.zeros((2, 3), dtype=np.float32))
    renamed = dict(params)
    renamed["extra_w"] = renamed.pop("fwd1_w")
    with pytest.raises(ConsistencyError):
        backward(renamed, trace, np.zeros((2, 3), dtype=np.float32))


# ---------------------------------------------------------------------------
# the full-model finite-difference gate


def test_full_model_gradcheck_passes_on_tiny_config():
    errors = full_model_gradcheck(seed=0)
    assert set(errors) == set(parameter_shapes(TINY))
    assert max(errors.values()) < 1e-4


def test_full_model_gradcheck_other_seed():
    assert max(full_model_gradcheck(seed=7).values()) < 1e-4


def _kink_margin_by_stage_names(trace, params):
    """The kink margin by the stage names: the conv contexts are fwd1..fwdK
    and then refine{K-1}..refine1, each with the bias of its name, and
    only the fwd convs are pooled."""
    stages = sum(name.startswith("fwd") and name.endswith("_w") for name in params)
    names = ([f"fwd{k}" for k in range(1, stages + 1)]
             + [f"refine{k}" for k in range(stages - 1, 0, -1)])
    convs = [ctx for ctx in trace if ctx.op == "conv2d"]
    assert len(convs) == len(names)
    margin = np.inf
    for name, ctx in zip(names, convs):
        pre = conv2d(ctx.saved["x"], ctx.saved["w"], params[f"{name}_b"].data)[0]
        margin = min(margin, float(np.abs(pre).min()))
        if name.startswith("fwd"):
            act = np.maximum(pre, 0.0)
            batch, chans, height, width = act.shape
            windows = (act.reshape(batch, chans, height // 2, 2, width // 2, 2)
                       .transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4))
            top2 = np.partition(windows, 2, axis=1)[:, -2:]
            positive = top2[:, 1] > 0
            if positive.any():
                gaps = top2[positive, 1] - np.maximum(top2[positive, 0], 0.0)
                margin = min(margin, float(gaps.min()))
    return margin


@pytest.mark.parametrize("config", [
    TINY, ModelConfig(input_size=16, stages=3, channels=(2, 3, 4), classes=3, seed=1)],
    ids=["2-stage", "3-stage"])
# Biases from [-0.5, 0.5) put conv outputs near the ReLU kink, so |value|
# decides the margin and a conv given another layer's bias shows; from
# [4, 5) every conv output is far above it, so the pooling gaps decide.
@pytest.mark.parametrize("bias_low", [-0.5, 4.0], ids=["near-kink", "pool-gaps"])
def test_kink_margin_walks_the_trace_as_the_stage_names_do(config, bias_low):
    params = build_model(config, np.float64)
    rng = np.random.default_rng(config.stages)
    for name, tensor in params.items():
        if name.endswith("_b"):
            tensor.data[...] = rng.uniform(bias_low, bias_low + 1.0, tensor.shape)
    for seed in range(3):
        size = config.input_size
        x = np.random.default_rng(seed).random((2, 1, size, size))
        _, trace = forward(params, Tensor(x, dtype=np.float64))
        margin = bcnn.model._kink_margin(trace, params)
        assert margin == _kink_margin_by_stage_names(trace, params)
        assert 0 < margin < np.inf
