"""The model API's :class:`Tensor` and the differentiable primitives.

The primitives and the finite-difference harness take and return plain
ndarrays.  A Tensor holds only the parameters, the batch that
``bcnn.model.forward`` takes and the logits it returns; gradients, the
loss, optimizer state and ``to_batches``' batches are plain ndarrays.

Every primitive returns its output together with an :class:`OpContext`
holding exactly the values its backward rule needs, or None from
``maxpool2(x, record=False)``; there is no autodiff graph.  The trace of
``bcnn.model.forward`` is the list of these contexts in application
order, and ``backward`` pops them; a backward rule handed another op's
context is a caller bug, and it is not checked.
A context holds arrays the forward pass computes anyway, its inputs or
its output, or a record smaller than them.  ReLU keeps its output, the
array it returns and the next layer reads, and recomputes its mask from
it in backward.  Max pooling keeps each window's winner as booleans, 4
bytes per pooled element, not the conv output it pooled.  The conv keeps
its input and kernel; it pads one image at a time into one reused
zero-bordered buffer and builds that image's columns or planes from it,
in backward too.
Conventions fixed here and relied on everywhere else:

- image batches are laid out ``(batch, channels, height, width)``;
- convolution is stride-1 cross-correlation (no kernel flip) with odd
  kernels and "same" zero padding: ``kh // 2`` rows and ``kw // 2``
  columns on each side, so the output keeps the input's extent;
- a convolution unfolds its narrower side into the GEMM: the input
  (im2col) when ``C_in <= C_out``, the kernel (shift-accumulate) when
  ``C_in > C_out``, so the ``kh*kw``-fold buffer holds
  ``min(C_in, C_out)`` channels.  The rule follows the measured cost at
  batch 32 with one OpenBLAS 0.3.31 thread on an x86-64 Xeon: the
  cascade's refinement convs take three times more channels than they
  emit (48->16, 96->32), and on them shift-accumulate is 1.8-2.5x faster
  than im2col; on the forward-cascade convs (1->16, 16->32, 32->64)
  im2col is 1.5-28x faster;
- the conv's input gradient is the forward correlation, padding included,
  of the upstream gradient with the kernel flipped and its channels
  swapped, under the same rule;
- ReLU has gradient 0 at exactly 0, and max pooling breaks ties toward the
  lowest flat index;
- storage is float32 by default, while gradient checking runs in float64.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DTypeError, NumericError

__all__ = [
    "Tensor",
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
    "numeric_gradient",
    "finite_diff_gradcheck",
    "max_relative_error",
]

_ALLOWED_DTYPES = (np.float32, np.float64)
_BITS = {n: np.dtype(f"i{n}") for n in (1, 2, 4, 8)}  # built once: np.dtype() is slow


class Tensor:
    """A dense rank-1 to rank-4 array with contiguous row-major storage."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        if dtype is None:
            dtype = data.dtype if isinstance(data, np.ndarray) else np.float32
        if np.dtype(dtype) not in _ALLOWED_DTYPES:
            raise DTypeError(f"tensor dtype must be float32 or float64, got {np.dtype(dtype)}; "
                             f"pass dtype= to convert an array explicitly")
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


@dataclass
class OpContext:
    """The values a primitive's forward pass saved for its backward rule,
    which reads only ``saved``; ``op`` names the primitive, for readers
    that walk a trace."""

    op: str
    saved: dict


def _require(cond, message):
    if not cond:
        raise DimensionError(message)


def _bits(dtype):
    """The signed integer type as wide as the float type ``dtype``."""
    return _BITS[dtype.itemsize]


def _mask(won):
    """A boolean array as int8 all-ones (-1) where it holds and zeros
    elsewhere.  ANDed with a float's bit pattern, the AND sign-extends it
    to the full word, so ``value_bits & _mask(won)`` is exactly
    ``np.where(won, value, +0.0)``, computed without branching on the
    data."""
    return np.negative(won.view(np.int8))


# ---------------------------------------------------------------------------
# conv2d


def _padded(x, kh, kw):
    """Yields each image of ``x`` with ``kh // 2`` zero rows and ``kw // 2``
    zero columns on each side, np.pad's bytes, in one zero-bordered buffer
    allocated once: each image must be used before the next is asked for."""
    chans, height, width = x.shape[1:]
    ph, pw = kh // 2, kw // 2
    buf = np.zeros((chans, height + kh - 1, width + kw - 1), dtype=x.dtype)
    for image in x:
        buf[:, ph:ph + height, pw:pw + width] = image
        yield buf


def _window(a, shape, strides):
    """``as_strided(a, shape, strides, writeable=False)`` of a contiguous ``a``, made
    faster by the ndarray constructor, which refuses a view past ``a``'s buffer."""
    view = np.ndarray(shape, a.dtype, a, 0, strides)
    view.flags.writeable = False
    return view


def _columns(image, kh, kw):
    """A copy of a padded image's im2col columns, ``(C*kh*kw, out_h*out_w)``, from a window."""
    chans, height, width = image.shape
    s_c, s_h, s_w = image.strides
    return _window(image, (chans, kh, kw, height - kh + 1, width - kw + 1),
                   (s_c, s_h, s_w, s_h, s_w)).reshape(chans * kh * kw, -1)


def _correlate(x, w, rhs=None):
    """Same-padded correlation of an unpadded batch with ``w``, one image
    at a time; the output keeps the input's extent.

    Each image is padded into one reused buffer (:func:`_padded`), and its
    ``kh*kw``-fold buffer, its im2col columns or its shift-accumulate
    planes, is built from that and used at once, while it is still in
    cache; the results go into one preallocated output.  With ``rhs``
    (B, H*W, M), which only the im2col path takes, each image's columns
    are also multiplied by ``rhs[b]``; returns the output and these
    ``(B, C_in*kh*kw, M)`` products, or None for them.
    """
    batch, c_in, height, width = x.shape
    c_out, _, kh, kw = w.shape
    out = np.empty((batch, c_out, height, width), dtype=np.result_type(x, w))
    if c_in <= c_out:
        w_rows = w.reshape(c_out, c_in * kh * kw)
        prods = None if rhs is None else np.empty((batch, c_in * kh * kw, rhs.shape[2]),
                                                  dtype=np.result_type(x, rhs))
        for b, image in enumerate(_padded(x, kh, kw)):
            cols = _columns(image, kh, kw)
            np.matmul(w_rows, cols, out=out[b].reshape(c_out, -1))
            if rhs is not None:
                np.matmul(cols, rhs[b], out=prods[b])
        return out, prods
    # Kernel rows (o, i, j) times the input; output (o, y, x) then sums plane
    # (o, i, j) at (y + i, x + j) over the taps, in row-major tap order.
    rows = w.transpose(0, 2, 3, 1).reshape(c_out * kh * kw, c_in)
    for b, image in enumerate(_padded(x, kh, kw)):
        planes = np.matmul(rows, image.reshape(c_in, -1)).reshape(c_out, kh, kw, *image.shape[1:])
        s_o, s_i, s_j, s_y, s_x = planes.strides
        taps = _window(planes, (c_out, kh, kw, height, width),
                       (s_o, s_i + s_y, s_j + s_x, s_y, s_x))
        # -0.0 is the exact additive identity, so the sum equals adding the
        # taps one by one onto a copy of the first, an all -0.0 sum included.
        np.add.reduce(taps, axis=(1, 2), out=out[b], initial=-0.0)
    return out, None


def conv2d(x, w, bias):
    """Same-padded, stride-1 2-D cross-correlation over a batch.

    ``x`` is (B, C_in, H, W), ``w`` is (C_out, C_in, kh, kw) with odd
    ``kh`` and ``kw``, ``bias`` is (C_out,).  Each image is padded by
    :func:`_padded`, so the output is (B, C_out, H, W).

    The GEMM unfolds the narrower side of the layer, chosen from the
    channel counts alone.  With ``C_in <= C_out`` each image's input is
    unrolled into ``C_in*kh*kw`` patch rows (im2col) and multiplied by
    the kernel.  With ``C_in > C_out`` the kernel rows ``(o, i, j)``
    multiply each padded image directly and the ``kh*kw`` shifted output
    planes are summed (shift-accumulate).  Either way the padded image
    and the ``kh*kw``-fold buffer hold one image and are dropped at once;
    the context keeps the caller's input array and the kernel, not the
    columns.
    """
    _require(x.ndim == 4, f"conv2d input must be rank 4, got rank {x.ndim}")
    _require(w.ndim == 4, f"conv2d kernel must be rank 4, got rank {w.ndim}")
    _require(bias.ndim == 1, f"conv2d bias must be rank 1, got rank {bias.ndim}")
    c_in = x.shape[1]
    c_out, c_w, kh, kw = w.shape
    _require(kh % 2 == 1 and kw % 2 == 1, f"conv2d kernel extents must be odd, got {kh}x{kw}")
    _require(c_w == c_in,
             f"kernel expects {c_w} input channels but input has {c_in}")
    _require(bias.shape == (c_out,),
             f"bias shape {bias.shape} does not match {c_out} output channels")

    out, _ = _correlate(x, w)
    out += bias[None, :, None, None]
    # "x_shape" repeats x.shape; only bench/tracing.py reads it, to count FLOPs.
    return out, OpContext("conv2d", {"w": w, "x": x, "x_shape": x.shape})


def conv2d_backward(ctx, grad_out, input_grad=True):
    """Gradients of conv2d: returns ``(d_input, d_kernel, d_bias)``.

    With ``input_grad=False`` the input gradient is not computed and
    ``d_input`` is None; a network's first layer has no use for it.

    The input gradient of a same-padded, stride-1 correlation is the same
    correlation of the upstream gradient, run with the kernel flipped and
    its channels swapped (Dumoulin & Visin 2016).  ``d_kernel`` sums one
    GEMM per image.  On im2col layers each image's upstream gradient
    multiplies that image's columns, rebuilt from the saved input; on
    shift-accumulate layers the input-gradient correlation's columns
    multiply the saved input, with taps flipped.
    """
    w, x = ctx.saved["w"], ctx.saved["x"]
    batch, c_in, height, width = x.shape
    c_out, _, kh, kw = w.shape
    _require(grad_out.shape == (batch, c_out, height, width),
             f"conv2d upstream gradient has shape {grad_out.shape}, "
             f"expected {(batch, c_out, height, width)}")

    d_bias = grad_out.sum(axis=(0, 2, 3))
    flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    if c_in <= c_out:
        # im2col layers rebuild each image's columns from the saved input.
        d_x = _correlate(grad_out, flipped)[0] if input_grad else None
        g = grad_out.reshape(batch, c_out, height * width)
        # The columns, the larger GEMM operand, go in untransposed and the
        # gradient transposed; d_w is transposed once, after the sum.
        parts = np.empty((batch, c_in * kh * kw, c_out), dtype=np.result_type(g, x))
        for b, image in enumerate(_padded(x, kh, kw)):
            np.matmul(_columns(image, kh, kw), g[b].T, out=parts[b])
        d_w = parts.sum(axis=0).T.reshape(w.shape)
    else:
        # Shift-accumulate layers take d_w from the input-gradient correlation's columns.
        d_x, parts = _correlate(grad_out, flipped, rhs=x.reshape(batch, c_in, -1).transpose(0, 2, 1))
        d_w = parts.sum(axis=0)
        d_w = d_w.reshape(c_out, kh, kw, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    return (d_x if input_grad else None), d_w, d_bias


# ---------------------------------------------------------------------------
# maxpool2


def maxpool2(x, *, record=True):
    """2x2 max pooling with stride 2.

    Both spatial extents must be even; odd inputs are rejected so the
    caller can pad or resize them first.  Ties inside a window resolve to
    the lowest flat index, and only that element receives gradient; a
    window holding a NaN pools to NaN and passes no gradient.

    Each window is a tournament.  In each of its rows the right element
    beats the left only if strictly greater; then the bottom row's maximum
    beats the top row's only if strictly greater.  That is the first
    corner, in row-major order, equal to the window's maximum.  The
    context keeps the outcome, not ``x``: per row pair whether the right
    element won, and per window whether the top row won and whether the
    bottom row won, both False when a NaN is in the window (every
    comparison with NaN is False).  These booleans take 4 bytes per pooled
    element; with them go ``x``'s shape and dtype.  With ``record=False``
    the tournament's two maxima alone run, and the context is None.
    """
    _require(x.ndim == 4, f"maxpool2 input must be rank 4, got rank {x.ndim}")
    height, width = x.shape[2:]
    if height % 2 or width % 2:
        raise DimensionError(
            f"maxpool2 needs even spatial extents, got {height}x{width}; pad or resize the input")
    left, right = x[..., 0::2], x[..., 1::2]
    rows = np.maximum(left, right)
    top, bottom = rows[:, :, 0::2], rows[:, :, 1::2]
    out = np.maximum(top, bottom)
    if not record:
        return out, None
    return out, OpContext("maxpool2", {"right_won": np.greater(right, left),
                                       "top_won": np.greater_equal(top, bottom),
                                       "bottom_won": np.greater(bottom, top),
                                       "x_shape": x.shape, "dtype": x.dtype})


def maxpool2_backward(ctx, grad_out):
    """Routes each upstream gradient to the element that won its window.

    The gradient walks the forward tournament back: to the winning row of
    each window, then to the winning element of that row.  Each step
    writes ``where(won, g, +0.0)`` by bits (see :func:`_mask`), and the
    input gradient has the forward input's dtype.
    """
    saved = ctx.saved
    batch, chans, height, width = saved["x_shape"]
    expected = (batch, chans, height // 2, width // 2)
    _require(grad_out.shape == expected,
             f"maxpool2 upstream gradient has shape {grad_out.shape}, expected {expected}")
    dtype = saved["dtype"]
    bits = _bits(dtype)
    g_bits = grad_out.astype(dtype, copy=False).view(bits)
    rows = np.empty((batch, chans, height, width // 2), dtype=bits)
    np.bitwise_and(g_bits, _mask(saved["top_won"]), out=rows[:, :, 0::2])
    np.bitwise_and(g_bits, _mask(saved["bottom_won"]), out=rows[:, :, 1::2])
    right = _mask(saved["right_won"])
    d_x = np.empty(saved["x_shape"], dtype=dtype)
    np.bitwise_and(rows, right, out=d_x[..., 1::2].view(bits))
    # ~(-1) == 0 and ~0 == -1: the left element won where the right did not.
    np.bitwise_and(rows, ~right, out=d_x[..., 0::2].view(bits))
    return d_x


# ---------------------------------------------------------------------------
# relu


def relu(x):
    """Elementwise max(x, 0), with NaN and -0.0 mapped to +0.0.

    The context keeps the returned array itself, not a copy, and backward
    recomputes the mask ``out > 0`` from it, which equals ``x > 0``, NaN
    included.  The caller must not write into the result while the
    context may still be used.
    """
    out = np.bitwise_and(x.view(_bits(x.dtype)), _mask(x > 0)).view(x.dtype)
    return out, OpContext("relu", {"out": out})


def relu_backward(ctx, grad_out):
    out = ctx.saved["out"]
    _require(grad_out.shape == out.shape,
             f"relu upstream gradient has shape {grad_out.shape}, expected {out.shape}")
    g_bits = grad_out.view(_bits(grad_out.dtype))
    return np.bitwise_and(g_bits, _mask(out > 0)).view(grad_out.dtype)


# ---------------------------------------------------------------------------
# upsample2


def upsample2(x):
    """Nearest-neighbour 2x upsampling: every pixel becomes a 2x2 block, copied into the
    four stride-2 grids of one output; the bytes of ``x.repeat(2, 2).repeat(2, 3)``."""
    _require(x.ndim == 4, f"upsample2 input must be rank 4, got rank {x.ndim}")
    out = np.empty(x.shape[:2] + (2 * x.shape[2], 2 * x.shape[3]), dtype=x.dtype)
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        out[:, :, di::2, dj::2] = x
    return out, OpContext("upsample2", {"x_shape": x.shape})


def upsample2_backward(ctx, grad_out):
    """Each source pixel collects the sum over its 2x2 output block, added
    as (top-left + top-right) + (bottom-left + bottom-right) + 0.0.  The
    trailing +0.0, like numpy's own sum, turns a block of four -0.0 into
    +0.0 and changes nothing else."""
    batch, chans, height, width = ctx.saved["x_shape"]
    _require(grad_out.shape == (batch, chans, 2 * height, 2 * width),
             f"upsample2 upstream gradient has shape {grad_out.shape}, "
             f"expected {(batch, chans, 2 * height, 2 * width)}")
    tl, tr, bl, br = (grad_out[:, :, di::2, dj::2]
                      for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)))
    d_x = (tl + tr) + (bl + br)
    d_x += 0.0
    return d_x


# ---------------------------------------------------------------------------
# concat_channels


def concat_channels(a, b):
    """Concatenates two batches along the channel axis."""
    _require(a.ndim == 4 and b.ndim == 4,
             f"concat_channels needs rank-4 arrays, got ranks {a.ndim} and {b.ndim}")
    _require(a.shape[0] == b.shape[0] and a.shape[2:] == b.shape[2:],
             f"concat_channels inputs must agree on batch and spatial extents, "
             f"got {a.shape} and {b.shape}")
    out = np.concatenate([a, b], axis=1)
    return out, OpContext("concat_channels", {"shapes": (a.shape, b.shape)})


def concat_channels_backward(ctx, grad_out):
    """Splits the upstream gradient back into the two inputs' slices,
    returned as views of ``grad_out``."""
    shape_a, shape_b = ctx.saved["shapes"]
    expected = (shape_a[0], shape_a[1] + shape_b[1]) + shape_a[2:]
    _require(grad_out.shape == expected,
             f"concat_channels upstream gradient has shape {grad_out.shape}, expected {expected}")
    return grad_out[:, :shape_a[1]], grad_out[:, shape_a[1]:]


# ---------------------------------------------------------------------------
# dense


def dense(x, w, bias):
    """Affine map ``x @ w + bias`` for a batch of feature vectors."""
    _require(x.ndim == 2, f"dense input must be rank 2, got rank {x.ndim}")
    _require(w.ndim == 2, f"dense weight must be rank 2, got rank {w.ndim}")
    _require(bias.ndim == 1, f"dense bias must be rank 1, got rank {bias.ndim}")
    _require(x.shape[1] == w.shape[0],
             f"dense input has {x.shape[1]} features but weight expects {w.shape[0]}")
    _require(bias.shape == (w.shape[1],),
             f"dense bias shape {bias.shape} does not match {w.shape[1]} outputs")
    return x @ w + bias, OpContext("dense", {"x": x, "w": w})


def dense_backward(ctx, grad_out):
    """Gradients of dense: returns ``(d_input, d_weight, d_bias)``."""
    x, w = ctx.saved["x"], ctx.saved["w"]
    _require(grad_out.shape == (x.shape[0], w.shape[1]),
             f"dense upstream gradient has shape {grad_out.shape}, "
             f"expected {(x.shape[0], w.shape[1])}")
    return grad_out @ w.T, x.T @ grad_out, grad_out.sum(axis=0)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def numeric_gradient(f, p):
    """Central-difference gradient of scalar ``f`` with respect to ``p``,
    with step h = 1e-3.

    Perturbs one coordinate of the float array ``p`` at a time in place
    (restoring it bit-exactly afterwards) and calls ``f(p)``, so ``f`` must
    recompute its value from the array's current contents and must be
    deterministic.  Returns a float64 array of ``p``'s shape.
    """
    h = 1e-3
    if p.dtype not in _ALLOWED_DTYPES:
        raise NumericError(f"can only perturb float32 or float64 arrays, got {p.dtype}")
    out = np.zeros(p.shape, dtype=np.float64)
    for i in np.ndindex(p.shape):
        orig = p[i]
        p[i] = orig + h
        f_plus = float(f(p))
        p[i] = orig - h
        f_minus = float(f(p))
        p[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(
                f"function returned a non-finite value while perturbing coordinate {i}")
        out[i] = (f_plus - f_minus) / (2.0 * h)
    return out


def max_relative_error(a, b):
    """max_i |a_i - b_i| / max(|a_i|, |b_i|, 1e-8) over flattened inputs."""
    _require(a.shape == b.shape,
             f"cannot compare gradients of shapes {a.shape} and {b.shape}")
    x = a.astype(np.float64).reshape(-1)
    y = b.astype(np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-8)
    return float(np.max(np.abs(x - y) / denom))


def finite_diff_gradcheck(f, p, analytic_grad):
    """Largest relative disagreement between ``analytic_grad`` and the
    central-difference estimate of ``d f / d p``."""
    return max_relative_error(analytic_grad, numeric_gradient(f, p))
