"""Cascade architecture: shapes, determinism, both streams, gradients."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import bcnn.model
from bcnn.errors import ConfigError, ConsistencyError, DimensionError
from bcnn.model import (
    ForwardTrace,
    ModelConfig,
    backward,
    build_model,
    forward,
    full_model_gradcheck,
    parameter_shapes,
    softmax_xent,
)
from bcnn.tensor import Tensor, conv2d_backward

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
    assert [c.op for c in trace.ctxs] == (["conv2d", "maxpool2", "relu"] * 3
                                          + ["upsample2", "concat_channels", "conv2d", "relu"] * 2
                                          + ["dense"])
    # F_k and B_k are the ReLU outputs of stage k's forward and refine convs
    assert [c.saved["out"].shape for c in trace.ctxs if c.op == "relu"] == [
        (2, 16, 32, 32), (2, 32, 16, 16), (2, 64, 8, 8),  # F_1, F_2, F_3
        (2, 32, 16, 16), (2, 16, 32, 32)]                 # B_2, B_1
    assert trace.ctxs[-1].saved["x"].shape == (2, 16 + 64)


def test_forward_trace_keeps_only_what_backward_reads():
    params = build_model(TINY)
    _, trace = forward(params, batch_of(np.random.default_rng(2), TINY, 2))
    assert [f.name for f in dataclasses.fields(ForwardTrace)] == ["ctxs", "param_shapes"]
    relu_ctxs = [c for c in trace.ctxs if c.op == "relu"]
    assert len(relu_ctxs) == 2 * TINY.stages - 1
    assert all(set(ctx.saved) == {"out"} for ctx in relu_ctxs)


def _held_bytes(obj, seen):
    """Bytes of the distinct arrays reachable from ``obj``; views count
    once, through the array that owns their memory."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_held_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_held_bytes(v, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        return sum(_held_bytes(v, seen) for v in vars(obj).values())
    return 0


def test_forward_trace_of_a_default_batch_fits_in_20_mib():
    # Pooling keeps a 4-byte winner record per pooled element, not the
    # conv output it pooled, and ReLU keeps the output that the next conv
    # keeps anyway: a batch of 32 default-size images holds 19.7 MiB.
    config = ModelConfig()
    _, trace = forward(build_model(config), batch_of(np.random.default_rng(4), config, 32))
    assert _held_bytes(trace, set()) <= 20 * 2 ** 20


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
    grads = backward(params, trace, Tensor(np.zeros((2, 3), dtype=np.float32)))
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


def test_backward_skips_only_the_first_input_gradient(monkeypatch):
    # Asking every conv backward for its input gradient must not change a
    # gradient bit; backward() leaves out fwd1's alone.
    params = build_model(TINY)
    rng = np.random.default_rng(8)
    x = batch_of(rng, TINY, 3)
    logits, trace = forward(params, x)
    upstream = Tensor(rng.standard_normal(logits.shape).astype(np.float32))
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
        assert np.array_equal(grads[name].data, full_grads[name].data), name


def test_backward_leaves_no_array_in_the_trace():
    params = build_model(TINY)
    logits, trace = forward(params, batch_of(np.random.default_rng(9), TINY, 2))
    assert _held_bytes(trace, set()) > 0
    backward(params, trace, Tensor(np.ones(logits.shape, dtype=np.float32)))
    assert trace.ctxs == []
    assert _held_bytes(trace, set()) == 0


def test_backward_refuses_a_used_trace():
    params = build_model(TINY)
    logits, trace = forward(params, batch_of(np.random.default_rng(9), TINY, 2))
    upstream = Tensor(np.ones(logits.shape, dtype=np.float32))
    backward(params, trace, upstream)
    with pytest.raises(ConsistencyError, match="already used"):
        backward(params, trace, upstream)


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
        _, d_logits = softmax_xent(logits, rng.integers(0, config.classes, size=16))
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
        backward(other, trace, Tensor(np.zeros((2, 3), dtype=np.float32)))
    renamed = dict(params)
    renamed["extra_w"] = renamed.pop("fwd1_w")
    with pytest.raises(ConsistencyError):
        backward(renamed, trace, Tensor(np.zeros((2, 3), dtype=np.float32)))


# ---------------------------------------------------------------------------
# the full-model finite-difference gate


def test_full_model_gradcheck_passes_on_tiny_config():
    errors = full_model_gradcheck(seed=0)
    assert set(errors) == set(parameter_shapes(TINY))
    assert max(errors.values()) < 1e-4


def test_full_model_gradcheck_other_seed():
    assert max(full_model_gradcheck(seed=7).values()) < 1e-4
