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

from .data import MAX_INPUT_SIZE, _is_int, _tuple_of
from .errors import ConfigError, ConsistencyError, DimensionError, DTypeError, NumericError
from .tensor import (Tensor, concat_channels, concat_channels_backward, conv2d,
                     conv2d_backward, dense, dense_backward,
                     finite_diff_gradcheck, maxpool2, maxpool2_backward,
                     relu, relu_backward, upsample2, upsample2_backward)

__all__ = [
    "ModelConfig",
    "parameter_shapes",
    "build_model",
    "forward",
    "backward",
    "softmax_xent",
    "full_model_gradcheck",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters, all integers.

    The input is one grayscale channel, ``input_size`` pixels square.
    ``input_size`` must be divisible by ``2**stages`` so every pooling
    stage sees even extents, and at most ``MAX_INPUT_SIZE``; the cascade
    needs at least two stages for the top-down stream to exist.
    """

    input_size: int = 64
    stages: int = 3
    channels: tuple = (16, 32, 64)
    classes: int = 3
    seed: int = 0

    def __post_init__(self):
        channels = _tuple_of(self.channels, _is_int, int)
        if channels is None or not all(map(_is_int, (self.input_size, self.stages,
                                                     self.classes, self.seed))):
            raise ConfigError(f"every field must hold integers, got {self!r}")
        object.__setattr__(self, "channels", channels)
        if self.stages < 2:
            raise ConfigError(f"the cascade needs at least 2 stages, got {self.stages}")
        if len(self.channels) != self.stages:
            raise ConfigError(
                f"got {len(self.channels)} channel counts for {self.stages} stages")
        if any(c < 1 for c in self.channels):
            raise ConfigError(f"channel counts must be positive, got {self.channels}")
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        divisor = 1 << self.stages
        if self.input_size < divisor or self.input_size % divisor:
            raise ConfigError(
                f"input_size {self.input_size} is not divisible by 2^{self.stages} = {divisor}")
        if self.input_size > MAX_INPUT_SIZE:
            raise ConfigError(f"input_size {self.input_size} exceeds {MAX_INPUT_SIZE}")
        if not 0 <= self.seed < 2 ** 32:
            raise ConfigError(f"seed must fit an unsigned 32-bit integer, got {self.seed}")


def parameter_shapes(config):
    """Named parameter shapes for ``config``, in deterministic order.

    Stage k's forward conv is ``fwd{k}_w``/``fwd{k}_b`` (k = 1..K), and
    ``fwd1_w`` reads the one grayscale input channel; the refinement conv
    that produces B_k is ``refine{k}_w``/``refine{k}_b`` (k = 1..K-1) and
    consumes channels[k-1] + channels[k] fused channels; the head is
    ``head_w``/``head_b`` over channels[0] + channels[K-1] pooled features.
    """
    shapes = {}
    prev = 1
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
    """The K of the K-stage cascade (K >= 2) that ``params`` describes; every
    tensor of it must be present."""
    k = 2
    while f"fwd{k + 1}_w" in params:
        k += 1
    names = [f"{kind}{i}_{part}" for kind, n in (("fwd", k), ("refine", k - 1))
             for i in range(1, n + 1) for part in "wb"] + ["head_w", "head_b"]
    missing = [name for name in names if name not in params]
    if missing:
        raise ConsistencyError(
            f"parameter set does not describe a cascade (missing {', '.join(missing)})")
    return k


def _layers(params):
    """Each layer's name (``fwd1``, ..., ``head``) by the id of its kernel array."""
    return {id(t.data): name[:-2] for name, t in params.items() if name.endswith("_w")}


def _gap(x):
    """Global average pool: ``x.mean(axis=(2, 3))``'s reduce and unsafe divide, unwrapped."""
    total = np.add.reduce(x, axis=(2, 3))
    return np.true_divide(total, np.intp(x.shape[2] * x.shape[3]), out=total, casting="unsafe")


def _gap_backward(grad, shape):
    """A read-only view spreading each pooled gradient over its H*W positions."""
    _, _, height, width = shape
    scale = grad.dtype.type(1.0 / (height * width))
    return np.broadcast_to((grad * scale)[:, :, None, None], shape)


def forward(params, batch, *, record=True):
    """Runs the cascade; returns ``(logits, trace)``.

    Every parameter must be a Tensor, and ``batch`` a rank-4, square
    Tensor (an ndarray raises :class:`DTypeError`).  Its channel count must
    match the first conv kernel, and its extents must halve evenly
    ``stages`` times; the conv and pooling ops check both.

    The trace lists every op context in application order: stage k's
    conv, pool and relu for k = 1..K, then the upsample, concat, conv and
    relu of the refinement producing B_k for k = K-1..1, then the head's
    dense.  The ReLU contexts of ``fwd{k}`` and ``refine{k}`` hold F_k and
    B_k, their outputs; F_k is also the input the conv of stage k+1 keeps.
    Each pooling context holds its winner record, not the conv output it
    pooled, and each conv or dense context its input and kernel.  With
    ``record=False``, for a pass no backward follows, the trace is None
    and each intermediate is freed once read; the logits are the same bits.
    """
    for name, value in [("batch", batch), *params.items()]:
        if not isinstance(value, Tensor):
            raise DTypeError(f"forward got {name} as {type(value).__name__}; pass Tensor(x)")
    stages = _stage_count(params)
    if len(batch.shape) != 4:
        raise DimensionError(f"input batch must be rank 4, got rank {len(batch.shape)}")
    height, width = batch.shape[2:]
    if height != width:
        raise DimensionError(f"input must be square, got {height}x{width}")
    p = {name: t.data for name, t in params.items()}
    ctxs = []

    def keep(result):
        out, ctx = result
        if record:
            ctxs.append(ctx)
        return out

    f_maps = []
    cur = batch.data
    for k in range(1, stages + 1):
        conv_out = keep(conv2d(cur, p[f"fwd{k}_w"], p[f"fwd{k}_b"]))
        cur = keep(relu(keep(maxpool2(conv_out, record=record))))
        f_maps.append(cur)

    coarse = f_maps[-1]
    for k in range(stages - 1, 0, -1):
        fused = keep(concat_channels(f_maps[k - 1], keep(upsample2(coarse))))
        conv_out = keep(conv2d(fused, p[f"refine{k}_w"], p[f"refine{k}_b"]))
        coarse = keep(relu(conv_out))

    # ``coarse`` is now B_1; the head reads the global average pools of B_1 and F_K.
    pooled_vec = np.concatenate([_gap(coarse), _gap(f_maps[-1])], axis=1)
    logits = keep(dense(pooled_vec, p["head_w"], p["head_b"]))
    return Tensor(logits), (ctxs if record else None)


def backward(params, trace, d_logits):
    """Gradient of the traced forward pass for every parameter.

    Takes and returns ndarrays: a dict with exactly the parameter names, shape for shape.
    Each context is popped off ``trace`` as its backward rule runs,
    and each upstream gradient is dropped once consumed, so the saved
    arrays are freed while the pass goes on and the list ends empty.
    A trace therefore serves exactly one backward.  Raises
    :class:`ConsistencyError`, before the first pop, if ``trace`` is None
    (a record-free forward's) or ``[]`` (used already), or if its conv and
    dense contexts do not keep exactly the kernel arrays of ``params``,
    compared by identity: a trace of a same-shaped model is refused too.
    """
    if trace is None:
        raise ConsistencyError("trace-less forward; run forward with record=True")
    if not trace:
        raise ConsistencyError("trace was already used by a backward pass, which frees it; "
                               "run forward again")
    kernels = sorted(id(ctx.saved["w"]) for ctx in trace if ctx.op in ("conv2d", "dense"))
    if kernels != sorted(_layers(params)):
        raise ConsistencyError("trace does not hold exactly this parameter set's kernels")
    stages = _stage_count(params)

    grads = {}
    d_pooled, grads["head_w"], grads["head_b"] = dense_backward(trace.pop(), d_logits)
    # The head pooled B_1 and F_K, the outputs of refine1's and fwd{K}'s
    # ReLUs; each of those contexts is on top when its shape is read.
    fine_shape = trace[-1].saved["out"].shape
    d_gap_fine = d_pooled[:, :fine_shape[1]]
    d_gap_coarse = d_pooled[:, fine_shape[1]:]

    # Accumulators for gradient flowing into each F_k.
    d_f = [None] * stages

    # Top-down stream in reverse application order: refine stage 1 ran
    # last, so its backward runs first; each upsample2 backward hands the
    # gradient to the next coarser B.
    d_b = _gap_backward(d_gap_fine, fine_shape)
    for k in range(1, stages):
        d_conv = relu_backward(trace.pop(), d_b)
        del d_b
        d_fused, d_w, d_bias = conv2d_backward(trace.pop(), d_conv)
        del d_conv
        grads[f"refine{k}_w"], grads[f"refine{k}_b"] = d_w, d_bias
        d_fk, d_up = concat_channels_backward(trace.pop(), d_fused)
        d_f[k - 1] = d_fk.copy()  # a view would keep all of d_fused alive
        d_b = upsample2_backward(trace.pop(), d_up)
        del d_fused, d_fk, d_up

    # d_b now holds the gradient into B_K = F_K; add the head's GAP path.
    d_f[stages - 1] = d_b + _gap_backward(d_gap_coarse, trace[-1].saved["out"].shape)

    # Bottom-up stream in reverse: stage K first, handing d(stage input)
    # down to stage K-1's output accumulator.
    for k in range(stages, 0, -1):
        d_pooled = relu_backward(trace.pop(), d_f[k - 1])
        d_f[k - 1] = None
        d_conv = maxpool2_backward(trace.pop(), d_pooled)
        d_input, d_w, d_bias = conv2d_backward(trace.pop(), d_conv, input_grad=k > 1)
        del d_conv
        grads[f"fwd{k}_w"], grads[f"fwd{k}_b"] = d_w, d_bias
        if k > 1:
            d_f[k - 2] += d_input
    return grads


def softmax_xent(logits, targets):
    """Mean softmax cross-entropy over a batch of logits, an ndarray (a
    Tensor raises :class:`DTypeError`; pass ``forward``'s ``logits.data``).

    Returns ``(loss, d_logits)`` where the ndarray ``d_logits`` is the
    gradient of the mean loss, i.e. ``(softmax - onehot) / batch``.
    Probabilities are computed with the max subtracted per row, so large
    logits do not overflow.
    """
    if not isinstance(logits, np.ndarray):
        raise DTypeError(f"softmax_xent takes an ndarray, not {type(logits).__name__}; "
                         "pass logits.data")
    if logits.ndim != 2:
        raise DimensionError(f"softmax_xent logits must be rank 2, got rank {logits.ndim}")
    batch, classes = logits.shape
    if classes < 2:
        raise DimensionError(f"softmax_xent needs at least 2 classes, got {classes}")
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != batch:
        raise DimensionError(
            f"softmax_xent needs one target per row, got {t.shape} for batch {batch}")
    if not np.issubdtype(t.dtype, np.integer):
        raise DimensionError(f"softmax_xent targets must be integers, got dtype {t.dtype}")
    if t.min() < 0 or t.max() >= classes:
        bad = int(t[(t < 0) | (t >= classes)][0])
        raise ConsistencyError(f"target label {bad} outside [0, {classes})")

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    log_p = shifted - np.log(denom)
    rows = np.arange(batch)
    loss = float(-log_p[rows, t].mean())
    if not np.isfinite(loss):
        raise NumericError(f"softmax_xent produced a non-finite loss: {loss}")
    d_logits = exp / denom
    d_logits[rows, t] -= 1
    d_logits /= batch
    return loss, d_logits.astype(logits.dtype, copy=False)


def _kink_margin(trace, params):
    """Distance of the traced forward pass from its nearest decision flip.

    Returns the smallest of: every conv output's |value|, and, for every
    conv whose next context is a pooling one, every pooling window's gap
    between a positive rectified winner and its runner-up.  A finite
    difference step can only change a ReLU mask or a pooling winner when
    this margin is comparable to the perturbation it causes, so requiring
    a healthy margin keeps the central-difference estimate trustworthy.
    It is measured on the conv outputs, as for the equal rectify-then-pool
    order, so pooling first does not change which inputs pass.  The trace
    does not keep those outputs; each is recomputed, bit for bit, from its
    conv context's input and kernel and the bias of the layer that
    :func:`_layers` names by that kernel.
    """
    layers = _layers(params)
    margin = np.inf
    for ctx, after in zip(trace, trace[1:]):
        if ctx.op != "conv2d":
            continue
        bias = params[layers[id(ctx.saved["w"])] + "_b"].data
        pre = conv2d(ctx.saved["x"], ctx.saved["w"], bias)[0]
        margin = min(margin, float(np.abs(pre).min()))
        if after.op != "maxpool2":
            continue
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


_GRADCHECK_SHAPE = dict(input_size=8, stages=2, channels=(2, 3), classes=3)
_GRADCHECK_BATCH, _GRADCHECK_MARGIN, _GRADCHECK_ATTEMPTS = 2, 5e-3, 5000


def full_model_gradcheck(seed=0):
    """Finite-difference check of ``backward`` through the whole network.

    Builds a float64 model (8x8 input, two stages of 2 and 3 channels, 3
    classes), runs one forward/backward pass of the mean cross-entropy
    loss on a batch of 2, and compares every parameter's analytic gradient
    against the central-difference estimate.  Returns a dict mapping each
    parameter name to its max relative error.

    The input batch is drawn deterministically from ``(seed, attempt)``
    streams, and an attempt is accepted only if the forward pass keeps
    every ReLU input and pooling decision at least the margin 5e-3 away
    from flipping; a perturbation of size h = 1e-3 must not change any
    activation pattern, or the finite-difference quotient measures the
    wrong branch.
    """
    config = ModelConfig(seed=seed, **_GRADCHECK_SHAPE)
    params = build_model(config, np.float64)
    # A small positive bias keeps no conv channel's pre-activation
    # distribution centred exactly on the ReLU kink.
    for name, tensor in params.items():
        if name.endswith("_b"):
            tensor.data[...] = 0.25
    size = config.input_size
    for attempt in range(_GRADCHECK_ATTEMPTS):
        rng = np.random.default_rng((seed, attempt))
        x = Tensor(rng.random((_GRADCHECK_BATCH, 1, size, size)), dtype=np.float64)
        y = rng.integers(0, config.classes, size=_GRADCHECK_BATCH)
        logits, trace = forward(params, x)
        if _kink_margin(trace, params) >= _GRADCHECK_MARGIN:
            break
    else:
        raise NumericError(f"no input with kink margin >= {_GRADCHECK_MARGIN} found in "
                           f"{_GRADCHECK_ATTEMPTS} attempts")

    _, d_logits = softmax_xent(logits.data, y)
    grads = backward(params, trace, d_logits)

    def loss_now(_array):
        out, _ = forward(params, x, record=False)
        return softmax_xent(out.data, y)[0]

    errors = {}
    for name in params:
        errors[name] = finite_diff_gradcheck(loss_now, params[name].data, grads[name])
    return errors
