"""The bidirectional cascaded classifier.

A bottom-up stream halves resolution stage by stage:

    F_k = relu(maxpool2(conv3x3(F_{k-1})))          F_0 = input batch

and a top-down stream walks back up, fusing each stage's features with the
upsampled coarser map:

    B_K = F_K
    B_k = relu(conv3x3(concat_channels(F_k, upsample2(B_{k+1}))))

The classifier head concatenates the global average pools of B_1 (finest
refined map) and F_K (coarsest forward map) and applies one dense layer.

ReLU is monotone, so pooling first equals the usual
``maxpool2(relu(conv3x3(...)))`` order bit for bit, gradients included,
and ReLU runs on a quarter of the elements.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConsistencyError, DimensionError, NumericError
from .tensor import (OpContext, Tensor, concat_channels, concat_channels_backward,
                     conv2d, conv2d_backward, dense, dense_backward,
                     finite_diff_gradcheck, maxpool2, maxpool2_backward,
                     relu, relu_backward, softmax_xent, upsample2,
                     upsample2_backward)

__all__ = [
    "ModelConfig",
    "ForwardTrace",
    "parameter_shapes",
    "build_model",
    "forward",
    "backward",
    "predict",
    "full_model_gradcheck",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``input_size`` must be divisible by ``2**stages`` so every pooling
    stage sees even extents, and the cascade needs at least two stages for
    the top-down stream to exist.
    """

    input_size: int = 64
    input_channels: int = 1
    stages: int = 3
    channels: tuple = (16, 32, 64)
    classes: int = 3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if self.stages < 2:
            raise ConfigError(f"the cascade needs at least 2 stages, got {self.stages}")
        if len(self.channels) != self.stages:
            raise ConfigError(
                f"got {len(self.channels)} channel counts for {self.stages} stages")
        if any(c < 1 for c in self.channels):
            raise ConfigError(f"channel counts must be positive, got {self.channels}")
        if self.input_channels < 1:
            raise ConfigError(f"input_channels must be positive, got {self.input_channels}")
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        divisor = 1 << self.stages
        if self.input_size < divisor or self.input_size % divisor:
            raise ConfigError(
                f"input_size {self.input_size} is not divisible by 2^{self.stages} = {divisor}")
        if not 0 <= self.seed < 2 ** 32:
            raise ConfigError(f"seed must fit an unsigned 32-bit integer, got {self.seed}")


@dataclass
class ForwardTrace:
    """Exactly what ``backward`` reads, captured in application order.

    ``down_ctxs[k-1]`` holds stage k's ``(conv, pool, relu)`` contexts
    (k = 1..K) and ``up_ctxs[k-1]`` the ``(upsample, concat, conv, relu)``
    contexts of the refinement that produces B_k (k = 1..K-1).  The maps
    themselves are not kept: F_k and B_k have the shapes of the inputs
    saved by the ReLU contexts of ``fwd{k}`` and ``refine{k}``.
    ``param_shapes`` records the parameter set the pass ran with.
    """

    down_ctxs: list
    up_ctxs: list
    head_ctx: OpContext
    param_shapes: dict


def parameter_shapes(config):
    """Named parameter shapes for ``config``, in deterministic order.

    Stage k's forward conv is ``fwd{k}_w``/``fwd{k}_b`` (k = 1..K); the
    refinement conv that produces B_k is ``refine{k}_w``/``refine{k}_b``
    (k = 1..K-1) and consumes channels[k-1] + channels[k] fused channels;
    the head is ``head_w``/``head_b`` over channels[0] + channels[K-1]
    pooled features.
    """
    shapes = {}
    prev = config.input_channels
    for k, ch in enumerate(config.channels, start=1):
        shapes[f"fwd{k}_w"] = (ch, prev, 3, 3)
        shapes[f"fwd{k}_b"] = (ch,)
        prev = ch
    for k in range(1, config.stages):
        fused = config.channels[k - 1] + config.channels[k]
        shapes[f"refine{k}_w"] = (config.channels[k - 1], fused, 3, 3)
        shapes[f"refine{k}_b"] = (config.channels[k - 1],)
    head_in = config.channels[0] + config.channels[-1]
    shapes["head_w"] = (head_in, config.classes)
    shapes["head_b"] = (config.classes,)
    return shapes


def build_model(config, dtype=np.float32):
    """He-initialized parameter set; the same seed gives identical bits.

    Weights draw from N(0, 2/fan_in) where fan_in counts every input
    element feeding one output unit; biases start at zero.
    """
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith("_b"):
            params[name] = Tensor(np.zeros(shape, dtype=dtype))
        else:
            fan_in = shape[0] if len(shape) == 2 else int(np.prod(shape[1:]))
            std = math.sqrt(2.0 / fan_in)
            params[name] = Tensor(rng.standard_normal(shape) * std, dtype=dtype)
    return params


def _stage_count(params):
    k = 0
    while f"fwd{k + 1}_w" in params:
        k += 1
    if k < 2 or "head_w" not in params:
        raise ConsistencyError("parameter set does not describe a cascade (missing tensors)")
    return k


def _gap(x):
    """Global average pool: (B, C, H, W) -> (B, C)."""
    return x.data.mean(axis=(2, 3))


def _gap_backward(grad, shape):
    """Spreads each pooled gradient uniformly over its H*W positions."""
    _, _, height, width = shape
    scale = grad.dtype.type(1.0 / (height * width))
    return np.broadcast_to((grad * scale)[:, :, None, None], shape).copy()


def forward(params, batch):
    """Runs the cascade; returns ``(logits, trace)``.

    ``batch`` must be rank 4 with square spatial extents divisible by
    2^stages, and its channel count must match the first conv kernel.
    """
    stages = _stage_count(params)
    if batch.rank != 4:
        raise DimensionError(f"input batch must be rank 4, got rank {batch.rank}")
    _, c_in, height, width = batch.shape
    want_c = params["fwd1_w"].shape[1]
    if c_in != want_c:
        raise DimensionError(f"input has {c_in} channels but the model expects {want_c}")
    if height != width:
        raise DimensionError(f"input must be square, got {height}x{width}")
    divisor = 1 << stages
    if height < divisor or height % divisor:
        raise DimensionError(
            f"input size {height} is not divisible by 2^{stages} = {divisor}")

    f_maps, down_ctxs = [], []
    cur = batch
    for k in range(1, stages + 1):
        conv_out, conv_ctx = conv2d(cur, params[f"fwd{k}_w"], params[f"fwd{k}_b"],
                                    stride=1, pad=1)
        pooled, pool_ctx = maxpool2(conv_out)
        cur, relu_ctx = relu(pooled)
        f_maps.append(cur)
        down_ctxs.append((conv_ctx, pool_ctx, relu_ctx))

    up_ctxs = [None] * (stages - 1)
    coarse = f_maps[-1]
    for k in range(stages - 1, 0, -1):
        up, up_ctx = upsample2(coarse)
        fused, cat_ctx = concat_channels(f_maps[k - 1], up)
        conv_out, conv_ctx = conv2d(fused, params[f"refine{k}_w"], params[f"refine{k}_b"],
                                    stride=1, pad=1)
        coarse, relu_ctx = relu(conv_out)
        up_ctxs[k - 1] = (up_ctx, cat_ctx, conv_ctx, relu_ctx)

    # ``coarse`` is now B_1.
    pooled_vec = Tensor(np.concatenate([_gap(coarse), _gap(f_maps[-1])], axis=1))
    logits, head_ctx = dense(pooled_vec, params["head_w"], params["head_b"])
    trace = ForwardTrace(
        down_ctxs=down_ctxs,
        up_ctxs=up_ctxs,
        head_ctx=head_ctx,
        param_shapes={name: tuple(t.shape) for name, t in params.items()},
    )
    return logits, trace


def backward(params, trace, d_logits):
    """Gradient of the traced forward pass for every parameter.

    Returns a dict with exactly the parameter names, shape for shape.
    Raises :class:`ConsistencyError` if ``trace`` was recorded with a
    differently-shaped parameter set.
    """
    for name, tensor in params.items():
        if trace.param_shapes.get(name) != tuple(tensor.shape):
            raise ConsistencyError(
                f"trace was recorded for a different parameter set (mismatch at '{name}')")
    if set(trace.param_shapes) != set(params):
        raise ConsistencyError("trace was recorded for a different parameter set")
    stages = _stage_count(params)

    grads = {}
    d_pooled, d_head_w, d_head_b = dense_backward(trace.head_ctx, d_logits)
    grads["head_w"], grads["head_b"] = d_head_w, d_head_b

    # The head pooled B_1 and F_K, the outputs of the ReLUs of refine1
    # and fwd{K}; each has the shape of its ReLU's saved input.
    fine_shape = trace.up_ctxs[0][-1].saved["x"].shape
    coarse_shape = trace.down_ctxs[-1][-1].saved["x"].shape
    d_gap_fine = d_pooled.data[:, :fine_shape[1]]
    d_gap_coarse = d_pooled.data[:, fine_shape[1]:]

    # Accumulators for gradient flowing into each F_k.
    d_f = [None] * stages

    # Top-down stream in reverse application order: refine stage 1 ran
    # last, so its backward runs first; each upsample2 backward hands the
    # gradient to the next coarser B.
    d_b = _gap_backward(d_gap_fine, fine_shape)
    for k in range(1, stages):
        up_ctx, cat_ctx, conv_ctx, relu_ctx = trace.up_ctxs[k - 1]
        d_conv = relu_backward(relu_ctx, Tensor(d_b))
        d_fused, d_w, d_bias = conv2d_backward(conv_ctx, d_conv)
        grads[f"refine{k}_w"], grads[f"refine{k}_b"] = d_w, d_bias
        d_fk, d_up = concat_channels_backward(cat_ctx, d_fused)
        d_f[k - 1] = d_fk.data
        d_b = upsample2_backward(up_ctx, d_up).data

    # d_b now holds the gradient into B_K = F_K; add the head's GAP path.
    d_f[stages - 1] = d_b + _gap_backward(d_gap_coarse, coarse_shape)

    # Bottom-up stream in reverse: stage K first, handing d(stage input)
    # down to stage K-1's output accumulator.
    for k in range(stages, 0, -1):
        conv_ctx, pool_ctx, relu_ctx = trace.down_ctxs[k - 1]
        d_pooled = relu_backward(relu_ctx, Tensor(d_f[k - 1]))
        d_conv = maxpool2_backward(pool_ctx, d_pooled)
        d_input, d_w, d_bias = conv2d_backward(conv_ctx, d_conv)
        grads[f"fwd{k}_w"], grads[f"fwd{k}_b"] = d_w, d_bias
        if k > 1:
            d_f[k - 2] = d_f[k - 2] + d_input.data
    return grads


def predict(params, batch):
    """Class index per item: argmax over logits, ties to the lowest index."""
    logits, _ = forward(params, batch)
    return np.argmax(logits.data, axis=1)


def _kink_margin(trace):
    """Distance of the traced forward pass from its nearest decision flip.

    Returns the smallest of: every conv output's |value|, and every pooling
    window's gap between a positive rectified winner and its runner-up.  A
    finite difference step can only change a ReLU mask or a pooling winner
    when this margin is comparable to the perturbation it causes, so
    requiring a healthy margin keeps the central-difference estimate
    trustworthy.  It is measured on the conv outputs, as for the equal
    rectify-then-pool order, so pooling first does not change which inputs
    pass.
    """
    margin = np.inf
    for *_, relu_ctx in trace.up_ctxs:
        margin = min(margin, float(np.abs(relu_ctx.saved["x"]).min()))
    for _, pool_ctx, _ in trace.down_ctxs:
        pre = pool_ctx.saved["x"]
        margin = min(margin, float(np.abs(pre).min()))
        act = np.maximum(pre, 0.0)
        batch, chans, height, width = act.shape
        windows = (act.reshape(batch, chans, height // 2, 2, width // 2, 2)
                   .transpose(0, 1, 2, 4, 3, 5)
                   .reshape(-1, 4))
        top2 = np.partition(windows, 2, axis=1)[:, -2:]
        positive = top2[:, 1] > 0
        if positive.any():
            gaps = top2[positive, 1] - np.maximum(top2[positive, 0], 0.0)
            margin = min(margin, float(gaps.min()))
    return margin


def full_model_gradcheck(config=None, seed=0, h=1e-3, batch=2,
                         margin=5e-3, max_attempts=5000):
    """Finite-difference check of ``backward`` through the whole network.

    Builds a float64 model (default: 8x8 input, two stages of 2 and 3
    channels, 3 classes), runs one forward/backward pass of the mean
    cross-entropy loss, and compares every parameter's analytic gradient
    against the central-difference estimate.  Returns a dict mapping each
    parameter name to its max relative error.

    The input batch is drawn deterministically from ``(seed, attempt)``
    streams, and an attempt is accepted only if the forward pass keeps
    every ReLU input and pooling decision at least ``margin`` away from
    flipping; a perturbation of size ``h`` must not change any activation
    pattern, or the finite-difference quotient measures the wrong branch.
    """
    if config is None:
        config = ModelConfig(input_size=8, input_channels=1, stages=2,
                             channels=(2, 3), classes=3, seed=seed)
    params = build_model(config, np.float64)
    # A small positive bias keeps no conv channel's pre-activation
    # distribution centred exactly on the ReLU kink.
    for name, tensor in params.items():
        if name.endswith("_b"):
            tensor.data[...] = 0.25
    for attempt in range(max_attempts):
        rng = np.random.default_rng((seed, attempt))
        x = Tensor(rng.random((batch, config.input_channels,
                               config.input_size, config.input_size)), dtype=np.float64)
        y = rng.integers(0, config.classes, size=batch)
        logits, trace = forward(params, x)
        if _kink_margin(trace) >= margin:
            break
    else:
        raise NumericError(
            f"no input with kink margin >= {margin} found in {max_attempts} attempts")

    _, d_logits = softmax_xent(logits, y)
    grads = backward(params, trace, d_logits)

    def loss_now(_tensor):
        out, _ = forward(params, x)
        return softmax_xent(out, y)[0]

    errors = {}
    for name in params:
        errors[name] = finite_diff_gradcheck(loss_now, params[name], grads[name], h=h)
    return errors
