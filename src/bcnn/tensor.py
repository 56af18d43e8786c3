"""Dense tensors and the differentiable primitives the network is built from.

Every primitive returns its output together with an :class:`OpContext`
holding exactly the values its backward rule needs; there is no autodiff
graph.  A context holds only arrays the forward pass computes anyway: its
inputs, its output, or the conv's unfolded input.  ReLU keeps just its
input and recomputes its mask in backward.  Conventions fixed here and
relied on everywhere else:

- image batches are laid out ``(batch, channels, height, width)``;
- convolution is cross-correlation (no kernel flip) with zero padding and
  floor semantics for strided output sizes;
- a convolution unfolds its narrower side into the GEMM: the input
  (im2col) when ``C_in <= C_out``, the kernel (shift-accumulate) when
  ``C_in > C_out``, so the ``kh*kw``-fold buffer holds
  ``min(C_in, C_out)`` channels.  The rule follows the measured cost at
  batch 32 with one OpenBLAS 0.3.31 thread on an x86-64 Xeon: the
  cascade's refinement convs take three times more channels than they
  emit (48->16, 96->32), and on them shift-accumulate is 1.8-2.5x faster
  than im2col; on the forward-cascade convs (1->16, 16->32, 32->64)
  im2col is 1.5-28x faster;
- the conv's input gradient is the forward correlation of the transposed
  problem (the kernel flipped, its channels swapped), under the same rule;
- ReLU has gradient 0 at exactly 0, and max pooling breaks ties toward the
  lowest flat index;
- storage is float32 by default, while gradient checking runs in float64.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionError, NumericError

__all__ = [
    "Tensor",
    "OpContext",
    "conv2d",
    "conv2d_backward",
    "maxpool2",
    "maxpool2_backward",
    "relu",
    "relu_backward",
    "upsample2",
    "upsample2_backward",
    "concat_channels",
    "concat_channels_backward",
    "dense",
    "dense_backward",
    "softmax_xent",
    "numeric_gradient",
    "finite_diff_gradcheck",
    "max_relative_error",
]

_ALLOWED_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense rank-1 to rank-4 array with contiguous row-major storage."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray):
                if data.dtype not in _ALLOWED_DTYPES:
                    raise TypeError(
                        f"tensor arrays must be float32 or float64, got {data.dtype}; "
                        f"pass dtype= to convert explicitly")
                dtype = data.dtype
            else:
                dtype = np.float32
        if np.dtype(dtype) not in _ALLOWED_DTYPES:
            raise TypeError(f"tensor dtype must be float32 or float64, got {dtype}")
        # ascontiguousarray promotes 0-d scalars to rank 1; rank-check first
        ndim = np.asarray(data).ndim
        if not 1 <= ndim <= 4:
            raise DimensionError(f"tensor rank must be between 1 and 4, got {ndim}")
        arr = np.ascontiguousarray(data, dtype=dtype)
        if arr.size == 0:
            raise DimensionError(f"every tensor extent must be at least 1, got shape {arr.shape}")
        self.data = arr

    @property
    def shape(self):
        return self.data.shape

    @property
    def rank(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @classmethod
    def zeros(cls, shape, dtype=np.float32):
        return cls(np.zeros(shape, dtype=dtype))

    @classmethod
    def full(cls, shape, value, dtype=np.float32):
        return cls(np.full(shape, value, dtype=dtype))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


@dataclass
class OpContext:
    """Values saved by a primitive's forward pass for its backward rule.

    ``op`` names the primitive that produced the context; each backward
    function refuses contexts produced by a different op, so forward and
    backward calls cannot be mispaired.
    """

    op: str
    saved: dict


def _require(cond, message):
    if not cond:
        raise DimensionError(message)


def _take(ctx, op):
    if not isinstance(ctx, OpContext) or ctx.op != op:
        got = ctx.op if isinstance(ctx, OpContext) else type(ctx).__name__
        raise ConsistencyError(f"backward for '{op}' received a context for '{got}'")
    return ctx.saved


# ---------------------------------------------------------------------------
# conv2d


def _im2col(x, kh, kw, stride, out_h, out_w):
    """Unfold (B, C, H, W) into (B, C*kh*kw, out_h*out_w) patch columns."""
    batch, chans, _, _ = x.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(batch, chans * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols)


def _correlate(xp, w, stride, out_h, out_w):
    """Correlates an already padded input with ``w``; returns the output
    and its im2col columns, or None for them on the shift-accumulate path."""
    batch, c_in = xp.shape[:2]
    c_out, _, kh, kw = w.shape
    if c_in <= c_out:
        cols = _im2col(xp, kh, kw, stride, out_h, out_w)
        out = np.matmul(w.reshape(c_out, c_in * kh * kw), cols)
        return out.reshape(batch, c_out, out_h, out_w), cols
    # Kernel rows (o, i, j) times the input, then tap (i, j)'s strided window of each plane.
    rows = w.transpose(0, 2, 3, 1).reshape(c_out * kh * kw, c_in)
    planes = np.matmul(rows, xp.reshape(batch, c_in, -1))
    planes = planes.reshape((batch, c_out, kh, kw) + xp.shape[2:])
    taps = [planes[:, :, i, j, i:i + stride * out_h:stride, j:j + stride * out_w:stride]
            for i in range(kh) for j in range(kw)]
    out = taps[0].copy()
    for tap in taps[1:]:
        out += tap
    return out, None


def conv2d(x, w, bias, stride=1, pad=0):
    """2-D cross-correlation over a batch.

    ``x`` is (B, C_in, H, W), ``w`` is (C_out, C_in, kh, kw), ``bias`` is
    (C_out,).  Zero padding of ``pad`` pixels is applied on all four sides
    and the output size follows floor semantics:
    ``H' = (H + 2*pad - kh) // stride + 1``.

    The GEMM unfolds the narrower side of the layer, chosen from the
    channel counts alone.  With ``C_in <= C_out`` the input is unrolled
    into ``C_in*kh*kw`` patch rows (im2col) and multiplied by the kernel.
    With ``C_in > C_out`` the kernel rows ``(o, i, j)`` multiply the padded
    input directly and the ``kh*kw`` shifted, strided output planes are
    summed (shift-accumulate); its context keeps the input instead of a
    ``kh*kw``-fold column buffer.
    """
    _require(x.rank == 4, f"conv2d input must be rank 4, got rank {x.rank}")
    _require(w.rank == 4, f"conv2d kernel must be rank 4, got rank {w.rank}")
    _require(bias.rank == 1, f"conv2d bias must be rank 1, got rank {bias.rank}")
    if not (isinstance(stride, int) and stride >= 1):
        raise DimensionError(f"conv2d stride must be a positive integer, got {stride!r}")
    if not (isinstance(pad, int) and pad >= 0):
        raise DimensionError(f"conv2d pad must be a non-negative integer, got {pad!r}")
    _, c_in, height, width = x.shape
    c_out, c_w, kh, kw = w.shape
    _require(c_w == c_in,
             f"kernel expects {c_w} input channels but input has {c_in}")
    _require(bias.shape == (c_out,),
             f"bias shape {bias.shape} does not match {c_out} output channels")
    _require(height + 2 * pad >= kh and width + 2 * pad >= kw,
             f"kernel {kh}x{kw} larger than padded input {height + 2 * pad}x{width + 2 * pad}")
    out_h = (height + 2 * pad - kh) // stride + 1
    out_w = (width + 2 * pad - kw) // stride + 1

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    out, cols = _correlate(xp, w.data, stride, out_h, out_w)
    out += bias.data[None, :, None, None]
    saved = {"w": w.data, "x_shape": x.shape, "stride": stride, "pad": pad,
             "out_hw": (out_h, out_w)}
    if cols is None:
        saved["x"] = x.data
    else:
        saved["cols"] = cols
    return Tensor(out), OpContext("conv2d", saved)


def conv2d_backward(ctx, grad_out):
    """Gradients of conv2d: returns ``(d_input, d_kernel, d_bias)``.

    The input gradient is the forward correlation of the transposed
    problem (Dumoulin & Visin 2016): the upstream gradient, spread at the
    stride over a zero ``(H+kh-1) x (W+kw-1)`` grid, correlated with the
    kernel flipped and its channels swapped.  ``d_kernel`` is the upstream
    gradient times the saved im2col columns or, on shift-accumulate layers,
    that correlation's columns times the saved input, with taps flipped.
    """
    saved = _take(ctx, "conv2d")
    w = saved["w"]
    batch, c_in, height, width = saved["x_shape"]
    stride, pad = saved["stride"], saved["pad"]
    out_h, out_w = saved["out_hw"]
    c_out, _, kh, kw = w.shape
    _require(grad_out.shape == (batch, c_out, out_h, out_w),
             f"conv2d upstream gradient has shape {grad_out.shape}, "
             f"expected {(batch, c_out, out_h, out_w)}")

    g = grad_out.data
    d_bias = g.sum(axis=(0, 2, 3))
    # g[y, x] goes to row kh-1-pad+stride*y, column kw-1-pad+stride*x; with pad >= kh or
    # kw, entries that meet only padding fall outside the grid, into a border cut away.
    edge = max(0, pad + 1 - min(kh, kw))
    grid = np.zeros((batch, c_out, height + kh - 1 + 2 * edge, width + kw - 1 + 2 * edge),
                    dtype=g.dtype)
    grid[:, :, edge + kh - 1 - pad::stride, edge + kw - 1 - pad::stride][:, :, :out_h, :out_w] = g
    grid = grid[:, :, edge:edge + height + kh - 1, edge:edge + width + kw - 1]
    d_x, d_cols = _correlate(grid, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, height, width)
    if "cols" in saved:
        g = g.reshape(batch, c_out, out_h * out_w)
        d_w = np.matmul(g, saved["cols"].transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    else:
        x = saved["x"].reshape(batch, c_in, -1)
        d_w = np.matmul(d_cols, x.transpose(0, 2, 1)).sum(axis=0)
        d_w = d_w.reshape(c_out, kh, kw, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return Tensor(d_x), Tensor(d_w), Tensor(d_bias)


# ---------------------------------------------------------------------------
# maxpool2


# Offsets of the four elements of a 2x2 window, in row-major order.
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2(x):
    """2x2 max pooling with stride 2.

    Both spatial extents must be even; odd inputs are rejected so the
    caller can pad or resize them first.  Ties inside a window resolve to
    the lowest flat index, and only that element receives gradient.
    """
    _require(x.rank == 4, f"maxpool2 input must be rank 4, got rank {x.rank}")
    height, width = x.shape[2:]
    if height % 2 or width % 2:
        raise DimensionError(
            f"maxpool2 needs even spatial extents, got {height}x{width}; pad or resize the input")
    tl, tr, bl, br = (x.data[:, :, di::2, dj::2] for di, dj in _CORNERS)
    out = np.maximum(tl, tr)
    np.maximum(out, bl, out=out)
    np.maximum(out, br, out=out)
    return Tensor(out), OpContext("maxpool2", {"x": x.data, "out": out})


def maxpool2_backward(ctx, grad_out):
    """Routes each upstream gradient to the element that won its window.

    The winner is the first corner, in row-major order, that equals the
    window's maximum: the lowest flat index among tied maxima.  A window
    whose maximum is NaN passes no gradient.
    """
    saved = _take(ctx, "maxpool2")
    x, out = saved["x"], saved["out"]
    _require(grad_out.shape == out.shape,
             f"maxpool2 upstream gradient has shape {grad_out.shape}, expected {out.shape}")
    # Each corner's gradient is the upstream value's bit pattern ANDed with
    # all-ones where the corner won and with zeros elsewhere: exactly
    # where(won, g, +0.0), written in place without a temporary.
    bits = np.dtype(f"i{x.itemsize}")
    g_bits = grad_out.data.astype(x.dtype, copy=False).view(bits)
    d_x = np.empty(x.shape, dtype=x.dtype)
    unrouted = np.ones(out.shape, dtype=bool)
    won = np.empty(out.shape, dtype=bool)
    for di, dj in _CORNERS:
        np.equal(x[:, :, di::2, dj::2], out, out=won)
        won &= unrouted
        unrouted ^= won
        np.bitwise_and(g_bits, -won.astype(bits), out=d_x[:, :, di::2, dj::2].view(bits))
    return Tensor(d_x)


# ---------------------------------------------------------------------------
# relu


def relu(x):
    """Elementwise max(x, 0).  The context keeps only the input ``x``:
    backward recomputes the mask ``x > 0`` from it, and diagnostics read
    it to measure how close the pass came to the kink."""
    out = np.where(x.data > 0, x.data, x.data.dtype.type(0))
    return Tensor(out), OpContext("relu", {"x": x.data})


def relu_backward(ctx, grad_out):
    x = _take(ctx, "relu")["x"]
    _require(grad_out.shape == x.shape,
             f"relu upstream gradient has shape {grad_out.shape}, expected {x.shape}")
    return Tensor(np.where(x > 0, grad_out.data, grad_out.data.dtype.type(0)))


# ---------------------------------------------------------------------------
# upsample2


def upsample2(x):
    """Nearest-neighbour 2x upsampling: every pixel becomes a 2x2 block."""
    _require(x.rank == 4, f"upsample2 input must be rank 4, got rank {x.rank}")
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)
    ctx = OpContext("upsample2", {"x_shape": x.shape})
    return Tensor(out), ctx


def upsample2_backward(ctx, grad_out):
    """Each source pixel collects the sum over its 2x2 output block, added
    as (top-left + top-right) + (bottom-left + bottom-right) + 0.0.  The
    trailing +0.0, like numpy's own sum, turns a block of four -0.0 into
    +0.0 and changes nothing else."""
    saved = _take(ctx, "upsample2")
    batch, chans, height, width = saved["x_shape"]
    _require(grad_out.shape == (batch, chans, 2 * height, 2 * width),
             f"upsample2 upstream gradient has shape {grad_out.shape}, "
             f"expected {(batch, chans, 2 * height, 2 * width)}")
    tl, tr, bl, br = (grad_out.data[:, :, di::2, dj::2] for di, dj in _CORNERS)
    d_x = (tl + tr) + (bl + br)
    d_x += 0.0
    return Tensor(d_x)


# ---------------------------------------------------------------------------
# concat_channels


def concat_channels(a, b):
    """Concatenates two batches along the channel axis."""
    _require(a.rank == 4 and b.rank == 4,
             f"concat_channels needs rank-4 tensors, got ranks {a.rank} and {b.rank}")
    _require(a.shape[0] == b.shape[0] and a.shape[2:] == b.shape[2:],
             f"concat_channels inputs must agree on batch and spatial extents, "
             f"got {a.shape} and {b.shape}")
    out = np.concatenate([a.data, b.data], axis=1)
    ctx = OpContext("concat_channels", {"split": a.shape[1], "shapes": (a.shape, b.shape)})
    return Tensor(out), ctx


def concat_channels_backward(ctx, grad_out):
    """Splits the upstream gradient back into the two inputs' slices."""
    saved = _take(ctx, "concat_channels")
    shape_a, shape_b = saved["shapes"]
    split = saved["split"]
    expected = (shape_a[0], shape_a[1] + shape_b[1]) + shape_a[2:]
    _require(grad_out.shape == expected,
             f"concat_channels upstream gradient has shape {grad_out.shape}, expected {expected}")
    g = grad_out.data
    return Tensor(g[:, :split]), Tensor(g[:, split:])


# ---------------------------------------------------------------------------
# dense


def dense(x, w, bias):
    """Affine map ``x @ w + bias`` for a batch of feature vectors."""
    _require(x.rank == 2, f"dense input must be rank 2, got rank {x.rank}")
    _require(w.rank == 2, f"dense weight must be rank 2, got rank {w.rank}")
    _require(bias.rank == 1, f"dense bias must be rank 1, got rank {bias.rank}")
    _require(x.shape[1] == w.shape[0],
             f"dense input has {x.shape[1]} features but weight expects {w.shape[0]}")
    _require(bias.shape == (w.shape[1],),
             f"dense bias shape {bias.shape} does not match {w.shape[1]} outputs")
    out = x.data @ w.data + bias.data
    ctx = OpContext("dense", {"x": x.data, "w": w.data})
    return Tensor(out), ctx


def dense_backward(ctx, grad_out):
    """Gradients of dense: returns ``(d_input, d_weight, d_bias)``."""
    saved = _take(ctx, "dense")
    x, w = saved["x"], saved["w"]
    _require(grad_out.shape == (x.shape[0], w.shape[1]),
             f"dense upstream gradient has shape {grad_out.shape}, "
             f"expected {(x.shape[0], w.shape[1])}")
    g = grad_out.data
    return Tensor(g @ w.T), Tensor(x.T @ g), Tensor(g.sum(axis=0))


# ---------------------------------------------------------------------------
# softmax cross-entropy


def softmax_xent(logits, targets):
    """Mean softmax cross-entropy over a batch.

    Returns ``(loss, d_logits)`` where ``d_logits`` is the gradient of the
    mean loss, i.e. ``(softmax - onehot) / batch``.  Probabilities are
    computed with the max subtracted per row, so large logits do not
    overflow.
    """
    _require(logits.rank == 2, f"softmax_xent logits must be rank 2, got rank {logits.rank}")
    batch, classes = logits.shape
    _require(classes >= 2, f"softmax_xent needs at least 2 classes, got {classes}")
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != batch:
        raise DimensionError(
            f"softmax_xent needs one target per row, got {t.shape} for batch {batch}")
    if not np.issubdtype(t.dtype, np.integer):
        raise DimensionError(f"softmax_xent targets must be integers, got dtype {t.dtype}")
    if t.min() < 0 or t.max() >= classes:
        bad = int(t[(t < 0) | (t >= classes)][0])
        raise IndexError(f"target label {bad} outside [0, {classes})")

    z = logits.data
    shifted = z - z.max(axis=1, keepdims=True)
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
    return loss, Tensor(d_logits.astype(z.dtype, copy=False))


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def numeric_gradient(f, p, h=1e-3):
    """Central-difference gradient of scalar ``f`` with respect to ``p``.

    Perturbs one coordinate of ``p`` at a time in place (restoring it
    bit-exactly afterwards) and calls ``f(p)``, so ``f`` must recompute its
    value from the tensor's current contents and must be deterministic.
    """
    if not (isinstance(h, float) and h > 0):
        raise NumericError(f"step size must be a positive float, got {h!r}")
    flat = p.data.reshape(-1)
    out = np.zeros(flat.shape, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i].copy()
        flat[i] = orig + h
        f_plus = float(f(p))
        flat[i] = orig - h
        f_minus = float(f(p))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(
                f"function returned a non-finite value while perturbing coordinate {i}")
        out[i] = (f_plus - f_minus) / (2.0 * h)
    return Tensor(out.reshape(p.shape), dtype=np.float64)


def max_relative_error(a, b):
    """max_i |a_i - b_i| / max(|a_i|, |b_i|, 1e-8) over flattened inputs."""
    _require(a.shape == b.shape,
             f"cannot compare gradients of shapes {a.shape} and {b.shape}")
    x = a.data.astype(np.float64).reshape(-1)
    y = b.data.astype(np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-8)
    return float(np.max(np.abs(x - y) / denom))


def finite_diff_gradcheck(f, p, analytic_grad, h=1e-3):
    """Largest relative disagreement between ``analytic_grad`` and the
    central-difference estimate of ``d f / d p``."""
    numeric = numeric_gradient(f, p, h=h)
    return max_relative_error(analytic_grad, numeric)
