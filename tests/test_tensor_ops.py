"""Tensor container, op forward/backward oracles, and finite differences.

Every expected value here is either computed by hand in a comment or
recomputed independently inside the test (central differences, partition
reassembly), never copied from the implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcnn.errors import BcnnError, ConsistencyError, DimensionError, DTypeError, NumericError
from bcnn.model import softmax_xent
from bcnn.tensor import (
    Tensor,
    _padded,
    concat_channels,
    concat_channels_backward,
    conv2d,
    conv2d_backward,
    dense,
    dense_backward,
    finite_diff_gradcheck,
    max_relative_error,
    maxpool2,
    maxpool2_backward,
    numeric_gradient,
    relu,
    relu_backward,
    upsample2,
    upsample2_backward,
)


def t(values, dtype=np.float64):
    return np.asarray(values, dtype=dtype)


# ---------------------------------------------------------------------------
# Tensor container


def test_tensor_accepts_ranks_one_through_four():
    for rank in range(1, 5):
        shape = (2,) * rank
        assert Tensor(np.ones(shape, dtype=np.float32)).shape == shape


def test_tensor_rejects_rank_zero_and_five():
    with pytest.raises(DimensionError):
        Tensor(np.float32(3.0))
    with pytest.raises(DimensionError):
        Tensor(np.ones((1, 1, 1, 1, 1), dtype=np.float32))


def test_tensor_rejects_empty():
    with pytest.raises(DimensionError):
        Tensor(np.ones((0, 3), dtype=np.float32))


def test_tensor_rejects_integer_dtype():
    with pytest.raises(TypeError):
        Tensor(np.ones((2, 2), dtype=np.int64))


def test_tensor_dtype_error_is_a_bcnn_error_and_a_type_error():
    with pytest.raises(DTypeError) as err:
        Tensor(np.ones((2, 2), dtype=np.int32))
    assert isinstance(err.value, BcnnError) and isinstance(err.value, TypeError)


def test_tensor_default_dtype_is_float32():
    assert Tensor([1.0, 2.0]).data.dtype == np.float32
    assert Tensor(np.ones(3, dtype=np.float64)).data.dtype == np.float64


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = t(rng.random((2, 1, 5, 5)))
    w = t([[[[1.0]]]])
    out, _ = conv2d(x, w, np.zeros((1,), dtype=np.float64))
    assert np.array_equal(out, x)


def test_conv2d_window_sums():
    x = t(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
    w = t(np.ones((1, 1, 3, 3)))
    out, _ = conv2d(x, w, np.zeros((1,), dtype=np.float64))
    # 3x3 neighbourhood sums of [[1, 2, 3], [4, 5, 6], [7, 8, 9]], zeros outside:
    # 1+2+4+5=12, 1+2+3+4+5+6=21, ..., 1+...+9=45, ..., 5+6+8+9=28
    assert np.array_equal(out[0, 0],
                          np.array([[12.0, 21.0, 16.0], [27.0, 45.0, 33.0], [24.0, 39.0, 28.0]]))


def test_conv2d_pad1_preserves_extent():
    x = t(np.random.default_rng(2).random((1, 2, 6, 6)))
    w = t(np.random.default_rng(3).random((4, 2, 3, 3)))
    out, _ = conv2d(x, w, np.zeros((4,), dtype=np.float64))
    assert out.shape == (1, 4, 6, 6)


def test_conv2d_bias_broadcast():
    x = np.zeros((1, 1, 4, 4), dtype=np.float64)
    w = t(np.ones((2, 1, 3, 3)))
    out, _ = conv2d(x, w, t([0.5, -1.5]))
    assert np.array_equal(out[0, 0], np.full((4, 4), 0.5))
    assert np.array_equal(out[0, 1], np.full((4, 4), -1.5))


def test_conv2d_rejects_an_even_kernel():
    # Same padding needs a centre tap; a kernel larger than the input is fine.
    x = t(np.ones((1, 1, 2, 2)))
    conv2d(x, t(np.ones((1, 1, 3, 5))), np.zeros((1,), dtype=np.float64))
    for kh, kw in ((2, 2), (2, 3), (3, 2), (4, 1)):
        with pytest.raises(DimensionError):
            conv2d(x, t(np.ones((1, 1, kh, kw))), np.zeros((1,), dtype=np.float64))


# ---------------------------------------------------------------------------
# maxpool2


def test_maxpool2_max_of_four():
    out, _ = maxpool2(t([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert np.array_equal(out, np.array([[[[4.0]]]]))


def test_maxpool2_constant_image():
    out, _ = maxpool2(np.full((1, 2, 4, 4), 7.0, dtype=np.float64))
    assert out.shape == (1, 2, 2, 2) and np.array_equal(out, np.full((1, 2, 2, 2), 7.0))


def test_maxpool2_backward_argmax_routing():
    _, ctx = maxpool2(t([[[[1.0, 2.0], [3.0, 4.0]]]]))
    dx = maxpool2_backward(ctx, t([[[[1.0]]]]))
    assert np.array_equal(dx, np.array([[[[0.0, 0.0], [0.0, 1.0]]]]))


def test_maxpool2_tie_routes_to_lowest_flat_index():
    _, ctx = maxpool2(t([[[[5.0, 5.0], [3.0, 1.0]]]]))
    dx = maxpool2_backward(ctx, t([[[[2.0]]]]))
    assert np.array_equal(dx, np.array([[[[2.0, 0.0], [0.0, 0.0]]]]))


def test_maxpool2_rejects_odd_extent():
    with pytest.raises(DimensionError):
        maxpool2(t(np.ones((1, 1, 3, 4))))
    with pytest.raises(DimensionError):
        maxpool2(t(np.ones((1, 1, 4, 5))))


def _pool_by_corner_rule(x, grad_out):
    """Max pooling and its input gradient by the corner rule: the maximum
    folds the four corners in row-major order with np.maximum, and the
    gradient goes to the first corner equal to it, so a window whose
    maximum is NaN routes nothing.  ``d_x`` has ``x``'s dtype."""
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    corners = [x[:, :, di::2, dj::2] for di, dj in offsets]
    out = corners[0]
    for corner in corners[1:]:
        out = np.maximum(out, corner)
    g = grad_out.astype(x.dtype)
    d_x = np.zeros(x.shape, dtype=x.dtype)
    unrouted = np.ones(out.shape, dtype=bool)
    for (di, dj), corner in zip(offsets, corners):
        won = (corner == out) & unrouted
        unrouted &= ~won
        d_x[:, :, di::2, dj::2] = np.where(won, g, 0)
    return out, d_x


# Few distinct values make ties, signed-zero ties and NaN windows common.
_POOL_VALUES = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 5e-324, math.inf, -math.inf, math.nan)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_maxpool2_matches_the_corner_rule_bit_for_bit(data):
    x_dtype, g_dtype = (data.draw(st.sampled_from((np.float32, np.float64))) for _ in "xg")
    shape = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)),
             2 * data.draw(st.integers(1, 3)), 2 * data.draw(st.integers(1, 3)))
    size = math.prod(shape)
    x = np.array(data.draw(st.lists(st.sampled_from(_POOL_VALUES), min_size=size,
                                    max_size=size)), dtype=x_dtype).reshape(shape)
    pooled = (shape[0], shape[1], shape[2] // 2, shape[3] // 2)
    g_values = st.one_of(st.sampled_from(_POOL_VALUES), st.floats(-4.0, 4.0))
    grad = np.array(data.draw(st.lists(g_values, min_size=math.prod(pooled),
                                       max_size=math.prod(pooled))),
                    dtype=g_dtype).reshape(pooled)
    want_out, want_dx = _pool_by_corner_rule(x, grad)
    out, ctx = maxpool2(x)
    d_x = maxpool2_backward(ctx, grad)
    assert out.dtype == x_dtype and out.tobytes() == want_out.tobytes()
    assert d_x.dtype == x_dtype and d_x.tobytes() == want_dx.tobytes()


def test_maxpool2_context_keeps_a_winner_record_not_the_input():
    # Backward routes from booleans, at most 4 bytes per pooled element.
    # The context keeps no float array: neither the input nor the output.
    rng = np.random.default_rng(12)
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((2, 3, 8, 6)).astype(dtype)
        out, ctx = maxpool2(x)
        arrays = [v for v in ctx.saved.values() if isinstance(v, np.ndarray)]
        assert arrays and not any(np.issubdtype(a.dtype, np.floating) for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 4 * out.size


# ---------------------------------------------------------------------------
# relu


def test_relu_sign_cases():
    out, _ = relu(t([-1.0, 2.0, 0.0]))
    assert np.array_equal(out, np.array([0.0, 2.0, 0.0]))


def test_relu_positive_identity():
    x = t(np.random.default_rng(4).random(10) + 0.5)
    out, _ = relu(x)
    assert np.array_equal(out, x)


def test_relu_backward_mask_with_zero_convention():
    _, ctx = relu(t([-1.0, 2.0, 0.0]))
    dx = relu_backward(ctx, t([1.0, 1.0, 1.0]))
    assert np.array_equal(dx, np.array([0.0, 1.0, 0.0]))


def test_relu_matches_where_on_nan_signed_zeros_infinities_and_denormals():
    # relu and its backward compute where(x > 0, v, +0.0) by bits: NaN and
    # -0.0 become +0.0, and every kept value keeps its exact bits.
    for dtype in (np.float32, np.float64):
        tiny = np.finfo(dtype).smallest_subnormal
        specials = [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, tiny, -tiny, 1.5, -1.5]
        x = np.array(specials, dtype=dtype)
        out, ctx = relu(x)
        assert out.dtype == dtype
        assert out.tobytes() == np.where(x > 0, x, dtype(0)).tobytes()
        assert ctx.saved["out"] is out  # the context shares the returned array
        for g_dtype in (np.float32, np.float64):
            grad = np.array(specials[::-1], dtype=g_dtype)
            d_x = relu_backward(ctx, grad)
            assert d_x.dtype == g_dtype
            assert d_x.tobytes() == np.where(x > 0, grad, g_dtype(0)).tobytes()


# ---------------------------------------------------------------------------
# upsample2


def test_upsample2_single_pixel():
    out, _ = upsample2(t([[[[1.0]]]]))
    assert np.array_equal(out, np.ones((1, 1, 2, 2)))


def test_upsample2_block_layout():
    out, _ = upsample2(t([[[[1.0, 2.0], [3.0, 4.0]]]]))
    want = np.array([[1.0, 1.0, 2.0, 2.0],
                     [1.0, 1.0, 2.0, 2.0],
                     [3.0, 3.0, 4.0, 4.0],
                     [3.0, 3.0, 4.0, 4.0]])
    assert np.array_equal(out[0, 0], want)


def test_upsample2_backward_block_sum():
    _, ctx = upsample2(t([[[[1.0]]]]))
    dx = upsample2_backward(ctx, t(np.ones((1, 1, 2, 2))))
    assert np.array_equal(dx, np.array([[[[4.0]]]]))


def test_upsample2_backward_on_ones_is_four():
    x = t(np.random.default_rng(5).random((2, 3, 4, 4)))
    _, ctx = upsample2(x)
    dx = upsample2_backward(ctx, np.ones((2, 3, 8, 8)))
    assert np.array_equal(dx, np.full(x.shape, 4.0))


def test_upsample2_backward_matches_the_reshaped_block_sum_bit_for_bit():
    # The block sum over a (B, C, H, 2, W, 2) view, summed over both
    # length-2 axes, is the reference; the strided-slice sum must give the
    # same bits, signed zeros included.
    rng = np.random.default_rng(8)
    for shape in ((3, 4, 6, 10), (2, 32, 32, 32)):  # the second is refine1's at 64x64
        batch, chans, height, width = shape
        cases = [
            rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, size=shape),
            rng.integers(-2 ** 20, 2 ** 20, size=shape).astype(np.float64),
            rng.choice([0.0, -0.0, 1.0, -1.0], size=shape),
        ]
        for dtype in (np.float32, np.float64):
            for g in cases:
                g = g.astype(dtype)
                _, ctx = upsample2(np.zeros((batch, chans, height // 2, width // 2), dtype=dtype))
                got = upsample2_backward(ctx, g)
                want = g.reshape(batch, chans, height // 2, 2, width // 2, 2).sum(axis=(3, 5))
                assert got.dtype == dtype
                assert np.array_equal(got.view(f"u{got.itemsize}"),
                                      want.view(f"u{want.itemsize}"))


# ---------------------------------------------------------------------------
# concat_channels


def test_concat_channels_shape_and_layout():
    a = t(np.random.default_rng(6).random((1, 2, 4, 4)))
    b = t(np.random.default_rng(7).random((1, 3, 4, 4)))
    out, _ = concat_channels(a, b)
    assert out.shape == (1, 5, 4, 4)
    assert np.array_equal(out[:, :2], a)
    assert np.array_equal(out[:, 2:], b)


def test_concat_channels_zero_channel_input_unconstructible():
    with pytest.raises(DimensionError):
        Tensor(np.ones((1, 0, 4, 4), dtype=np.float32))


def test_concat_channels_spatial_mismatch():
    with pytest.raises(DimensionError):
        concat_channels(t(np.ones((1, 2, 4, 4))), t(np.ones((1, 2, 4, 6))))
    with pytest.raises(DimensionError):
        concat_channels(t(np.ones((1, 2, 4, 4))), t(np.ones((2, 2, 4, 4))))


def test_concat_channels_backward_splits_ones():
    a, b = t(np.ones((1, 2, 4, 4))), t(np.ones((1, 3, 4, 4)))
    _, ctx = concat_channels(a, b)
    da, db = concat_channels_backward(ctx, np.ones((1, 5, 4, 4)))
    assert np.array_equal(da, np.ones((1, 2, 4, 4)))
    assert np.array_equal(db, np.ones((1, 3, 4, 4)))


def test_concat_channels_backward_is_exact_partition():
    rng = np.random.default_rng(8)
    a, b = t(rng.random((2, 3, 4, 4))), t(rng.random((2, 5, 4, 4)))
    _, ctx = concat_channels(a, b)
    g = rng.random((2, 8, 4, 4))
    da, db = concat_channels_backward(ctx, g)
    assert np.array_equal(np.concatenate([da, db], axis=1), g)


# ---------------------------------------------------------------------------
# dense


def test_dense_identity_weight():
    x = t(np.random.default_rng(9).random((3, 4)))
    out, _ = dense(x, t(np.eye(4)), np.zeros((4,), dtype=np.float64))
    assert np.array_equal(out, x)


def test_dense_hand_arithmetic():
    out, _ = dense(t([[1.0, 2.0]]), t(np.eye(2)), t([10.0, 20.0]))
    assert np.array_equal(out, np.array([[11.0, 22.0]]))


def test_dense_zero_weight_passes_bias():
    x = t(np.random.default_rng(10).random((3, 4)))
    out, _ = dense(x, np.zeros((4, 2), dtype=np.float64), t([1.5, -2.5]))
    assert np.array_equal(out, np.tile([1.5, -2.5], (3, 1)))


def test_dense_backward_bias_is_column_sum():
    x = t(np.random.default_rng(11).random((2, 3)))
    w = t(np.random.default_rng(12).random((3, 2)))
    _, ctx = dense(x, w, np.zeros((2,), dtype=np.float64))
    g = t([[1.0, 2.0], [3.0, 4.0]])
    dx, dw, dbias = dense_backward(ctx, g)
    assert np.array_equal(dbias, np.array([4.0, 6.0]))
    assert np.array_equal(dx, g @ w.T)
    assert np.array_equal(dw, x.T @ g)


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_softmax_xent_uniform_logits_loss_is_ln3():
    loss, _ = softmax_xent(t([[0.0, 0.0, 0.0]]), np.array([0]))
    assert abs(loss - math.log(3.0)) < 1e-12


def test_softmax_xent_saturated_correct_class():
    loss, _ = softmax_xent(t([[1000.0, 0.0, 0.0]]), np.array([0]))
    assert 0.0 <= loss < 1e-9


def test_softmax_xent_uniform_gradient():
    _, grad = softmax_xent(t([[0.0, 0.0, 0.0]]), np.array([0]))
    want = np.array([[-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])
    assert float(np.abs(grad - want).max()) < 1e-12


def test_softmax_xent_shift_invariance():
    rng = np.random.default_rng(13)
    logits = rng.random((4, 3)) * 5.0
    y = np.array([0, 2, 1, 1])
    base, _ = softmax_xent(t(logits), y)
    shifted, _ = softmax_xent(t(logits + rng.random((4, 1)) * 100.0), y)
    assert abs(base - shifted) < 1e-6


def test_softmax_xent_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(14)
    _, grad = softmax_xent(t(rng.random((5, 4))), np.array([0, 1, 2, 3, 0]))
    assert float(np.abs(grad.sum(axis=1)).max()) < 1e-12


def test_softmax_xent_out_of_range_target():
    with pytest.raises(ConsistencyError):
        softmax_xent(t([[0.0, 0.0, 0.0]]), np.array([3]))
    with pytest.raises(ConsistencyError):
        softmax_xent(t([[0.0, 0.0, 0.0]]), np.array([-1]))


def test_softmax_xent_rejects_bad_targets():
    with pytest.raises(DimensionError):
        softmax_xent(t([[0.0, 0.0], [0.0, 0.0]]), np.array([0]))
    with pytest.raises(DimensionError):
        softmax_xent(t([[0.0, 0.0]]), np.array([0.5]))


# ---------------------------------------------------------------------------
# finite differences


def test_numeric_gradient_sum_of_squares():
    p = t([1.0, 2.0])

    def f(q):
        return float((q ** 2).sum())

    num = numeric_gradient(f, p)
    err = max_relative_error(t([2.0, 4.0]), num)
    assert err < 1e-6


def test_numeric_gradient_constant_function():
    p = t([0.3, -0.7])
    num = numeric_gradient(lambda q: 42.0, p)
    assert float(np.abs(num).max()) == 0.0
    assert finite_diff_gradcheck(lambda q: 42.0, p, np.zeros((2,), dtype=np.float64)) == 0.0


def test_numeric_gradient_restores_parameter_bits():
    p = t([0.1, 0.2, 0.3])
    before = p.copy()
    numeric_gradient(lambda q: float(q.sum()), p)
    assert np.array_equal(p, before)


def test_numeric_gradient_rejects_non_finite_f():
    with pytest.raises(NumericError):
        numeric_gradient(lambda q: float("nan"), t([1.0]))


def test_max_relative_error_shape_mismatch():
    with pytest.raises(DimensionError):
        max_relative_error(t([1.0, 2.0]), t([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# per-op gradient checks against central differences

TOL = 1e-4


def weighted_sum_loss(rng, shape):
    """A fixed random linear readout makes any op output a scalar loss."""
    return rng.standard_normal(shape)


# conv2d unrolls the input when C_in <= C_out and the kernel otherwise;
# each conv gradcheck runs one shape of each kind.
CONV_CHANNELS = ((2, 3), (5, 2))
# Odd kernels, square and not; every conv test below runs them on a
# non-square input.
CONV_KERNELS = ((1, 1), (3, 3), (3, 1), (1, 3), (5, 3))


def test_gradcheck_conv2d_all_arguments():
    rng = np.random.default_rng(20)
    for kh, kw in CONV_KERNELS:
        for c_in, c_out in CONV_CHANNELS:
            x = t(rng.random((2, c_in, 5, 4)) + 0.1)
            w = t(rng.standard_normal((c_out, c_in, kh, kw)) * 0.5)
            bias = t(rng.standard_normal(c_out) * 0.1)
            out, ctx = conv2d(x, w, bias)
            upstream = weighted_sum_loss(rng, out.shape)
            dx, dw, dbias = conv2d_backward(ctx, upstream)

            def f(_q):
                o, _ = conv2d(x, w, bias)
                return float((o * upstream).sum())

            case = (kh, kw, c_in, c_out)
            assert finite_diff_gradcheck(f, x, dx) < TOL, case
            assert finite_diff_gradcheck(f, w, dw) < TOL, case
            assert finite_diff_gradcheck(f, bias, dbias) < TOL, case


def test_conv2d_backward_without_the_input_gradient():
    rng = np.random.default_rng(22)
    for c_in, c_out in CONV_CHANNELS:  # im2col, then shift-accumulate
        x = t(rng.standard_normal((2, c_in, 6, 5)))
        out, ctx = conv2d(x, t(rng.standard_normal((c_out, c_in, 3, 3))),
                          t(rng.standard_normal(c_out)))
        upstream = t(rng.standard_normal(out.shape))
        _, dw, dbias = conv2d_backward(ctx, upstream)
        none, dw_only, dbias_only = conv2d_backward(ctx, upstream, input_grad=False)
        assert none is None
        assert np.array_equal(dw_only, dw)
        assert np.array_equal(dbias_only, dbias)


def test_conv2d_context_keeps_the_input_not_its_columns():
    # Backward rebuilds the kh*kw-fold columns one image at a time, so on
    # both paths the context holds the caller's arrays and nothing larger
    # than the conv's input or output.
    rng = np.random.default_rng(23)
    for c_in, c_out in CONV_CHANNELS:  # im2col, then shift-accumulate
        x = t(rng.standard_normal((3, c_in, 6, 5)))
        w = t(rng.standard_normal((c_out, c_in, 3, 3)))
        out, ctx = conv2d(x, w, t(rng.standard_normal(c_out)))
        assert np.shares_memory(ctx.saved["x"], x), (c_in, c_out)
        assert ctx.saved["w"] is w, (c_in, c_out)
        largest = max(x.size, out.size)
        for name, value in ctx.saved.items():
            assert np.asarray(value).size <= largest, (c_in, c_out, name)


def test_conv2d_batch_rows_are_independent_bit_for_bit():
    # The two-half trainer and the per-image loop inside conv2d both rely
    # on a batch giving each image's own bits: the output and d_x row for
    # row, and d_w as the sum of the stacked single-image gradients.
    rng = np.random.default_rng(24)
    for dtype in (np.float32, np.float64):
        for c_in, c_out in CONV_CHANNELS:  # im2col, then shift-accumulate
            for kh, kw in ((3, 3), (5, 3)):
                x = rng.standard_normal((5, c_in, 7, 6)).astype(dtype)
                w = rng.standard_normal((c_out, c_in, kh, kw)).astype(dtype)
                bias = rng.standard_normal(c_out).astype(dtype)
                g = rng.standard_normal((5, c_out, 7, 6)).astype(dtype)
                out, ctx = conv2d(x, w, bias)
                dx, dw, _ = conv2d_backward(ctx, g)
                singles = []
                for i in range(5):
                    one, one_ctx = conv2d(x[i:i + 1], w, bias)
                    singles.append((one,) + conv2d_backward(one_ctx, g[i:i + 1])[:2])
                case = (dtype.__name__, c_in, c_out, kh, kw)
                stacked_out = np.concatenate([one for one, _, _ in singles])
                stacked_dx = np.concatenate([one_dx for _, one_dx, _ in singles])
                summed_dw = np.sum(np.stack([one_dw for _, _, one_dw in singles]), axis=0)
                assert out.tobytes() == stacked_out.tobytes(), case
                assert dx.tobytes() == stacked_dx.tobytes(), case
                assert dw.tobytes() == summed_dw.tobytes(), case


def _correlate_tap_by_tap(x, w):
    """conv2d's shift-accumulate correlation, zero bias, with each image's
    taps added one at a time in row-major order onto a copy of the first."""
    c_out, c_in, kh, kw = w.shape
    height, width = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    rows = w.transpose(0, 2, 3, 1).reshape(c_out * kh * kw, c_in)
    images = []
    for image in xp:
        planes = np.matmul(rows, image.reshape(c_in, -1)).reshape(c_out, kh, kw, *image.shape[1:])
        acc = planes[:, 0, 0, :height, :width].copy()
        for i in range(kh):
            for j in range(kw):
                if i or j:
                    acc += planes[:, i, j, i:i + height, j:j + width]
        images.append(acc)
    return np.stack(images)


def test_shift_accumulate_sums_its_taps_in_order_bit_for_bit():
    # C_in > C_out takes the shift-accumulate path; one reduction over the
    # taps must give the bits of adding them one by one.  A -0.0 bias adds
    # exactly nothing.  The last two cases are the default model's
    # refinement convs on one image.
    rng = np.random.default_rng(41)
    cases = [((2, 6, 7, 6), (2, 6, k, k)) for k in (1, 3, 5)]
    cases += [((1, 48, 32, 32), (16, 48, 3, 3)), ((1, 96, 16, 16), (32, 96, 3, 3))]
    for dtype in (np.float32, np.float64):
        for x_shape, w_shape in cases:
            x = rng.standard_normal(x_shape).astype(dtype)
            x[..., ::3] = 0.0
            w = rng.standard_normal(w_shape).astype(dtype)
            out, _ = conv2d(x, w, np.full(w_shape[0], -0.0, dtype=dtype))
            want = _correlate_tap_by_tap(x, w)
            case = (dtype.__name__, x_shape, w_shape)
            assert out.dtype == dtype and out.tobytes() == want.tobytes(), case


def test_im2col_weight_gradient_matches_the_per_image_gradient_times_columns():
    # On im2col layers d_w sums, over images, columns times the transposed
    # gradient; it must give the bits of the gradient times the transposed
    # columns, summed the same way.  The shapes are the forward convs of
    # the default model and of the gradient-check model.
    rng = np.random.default_rng(43)
    shapes = ((1, 16, 64), (16, 32, 32), (32, 64, 16), (1, 2, 8), (2, 3, 4))
    for dtype in (np.float32, np.float64):
        for c_in, c_out, size in shapes:
            x = rng.standard_normal((3, c_in, size, size)).astype(dtype)
            w = rng.standard_normal((c_out, c_in, 3, 3)).astype(dtype)
            g = rng.standard_normal((3, c_out, size, size)).astype(dtype)
            _, ctx = conv2d(x, w, np.zeros(c_out, dtype=dtype))
            _, d_w, _ = conv2d_backward(ctx, g, input_grad=False)
            xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
            parts = []
            for b in range(3):
                cols = np.stack([xp[b, c, i:i + size, j:j + size]
                                 for c in range(c_in) for i in range(3) for j in range(3)])
                parts.append(g[b].reshape(c_out, -1) @ cols.reshape(c_in * 9, -1).T)
            want = np.stack(parts).sum(axis=0).reshape(w.shape)
            case = (dtype.__name__, c_in, c_out, size)
            assert d_w.dtype == dtype and d_w.tobytes() == want.tobytes(), case


def test_conv2d_paths_agree_for_any_stride_pad_and_kernel():
    # A 5->2 conv takes the shift-accumulate path.  Appending three zero
    # kernels makes it 5->5, which takes the im2col path; the first two
    # output channels and every gradient must agree.
    rng = np.random.default_rng(29)
    for kh, kw in CONV_KERNELS:
        x = t(rng.standard_normal((2, 5, 7, 6)))
        w = t(rng.standard_normal((2, 5, kh, kw)))
        bias = t(rng.standard_normal(2))
        wide_w = t(np.concatenate([w, np.zeros((3, 5, kh, kw))]))
        wide_b = t(np.concatenate([bias, np.zeros(3)]))
        out, ctx = conv2d(x, w, bias)
        wide, wide_ctx = conv2d(x, wide_w, wide_b)
        np.testing.assert_allclose(out, wide[:, :2], rtol=1e-12, atol=1e-12)

        upstream = rng.standard_normal(out.shape)
        wide_up = np.zeros(wide.shape)
        wide_up[:, :2] = upstream
        dx, dw, dbias = conv2d_backward(ctx, t(upstream))
        wide_dx, wide_dw, wide_dbias = conv2d_backward(wide_ctx, t(wide_up))
        np.testing.assert_allclose(dx, wide_dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dw, wide_dw[:2], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dbias, wide_dbias[:2], rtol=1e-12, atol=1e-12)


def test_conv2d_padding_matches_a_pre_padded_input_bit_for_bit():
    # conv2d's own zero padding and np.pad's both write +0.0 around each
    # image's own bits, an interior negative zero included.  The generator
    # reuses one buffer, so each image is compared before the next is made.
    rng = np.random.default_rng(37)
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((3, 2, 7, 6)).astype(dtype)
        x[:, 0, 3, 2] = -0.0
        for kh in (1, 3, 5, 7):
            for kw in (1, 3, 5, 7):
                ph, pw = kh // 2, kw // 2
                count = 0
                for b, image in enumerate(_padded(x, kh, kw)):
                    ref = np.pad(x[b], ((0, 0), (ph, ph), (pw, pw)))
                    case = (dtype.__name__, kh, kw, b)
                    assert image.dtype == dtype and image.shape == ref.shape, case
                    assert image.tobytes() == ref.tobytes(), case
                    count += 1
                assert count == len(x)


def _traced_peak_beyond_result(call):
    """Bytes tracemalloc saw at the peak of ``call()``, less what was held
    before the call and the arrays it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base - sum(a.nbytes for a in result)


def test_conv2d_allocates_no_padded_batch():
    # The default model's refine1 on a 16-image half: padding the whole
    # input at once would take 16 * 48 * 34 * 34 float32s (3.39 MiB).
    rng = np.random.default_rng(47)
    x = rng.standard_normal((16, 48, 32, 32)).astype(np.float32)
    w = rng.standard_normal((16, 48, 3, 3)).astype(np.float32)
    bias = np.zeros(16, dtype=np.float32)
    padded_batch = 16 * 48 * 34 * 34 * 4
    assert _traced_peak_beyond_result(lambda: conv2d(x, w, bias)[:1]) < padded_batch


def test_conv2d_backward_allocates_no_padded_gradient():
    # fwd1's shape on a 16-image half, input gradient included: padding the
    # whole upstream gradient at once would take 16 * 16 * 66 * 66 float32s
    # (4.25 MiB).
    rng = np.random.default_rng(53)
    x = rng.standard_normal((16, 1, 64, 64)).astype(np.float32)
    w = rng.standard_normal((16, 1, 3, 3)).astype(np.float32)
    _, ctx = conv2d(x, w, np.zeros(16, dtype=np.float32))
    g = rng.standard_normal((16, 16, 64, 64)).astype(np.float32)
    padded_gradient = 16 * 16 * 66 * 66 * 4
    assert _traced_peak_beyond_result(lambda: conv2d_backward(ctx, g)) < padded_gradient


def test_conv2d_backward_is_the_adjoint_of_conv2d():
    # With zero bias conv2d is linear in x and in w, so its gradients are
    # adjoints: <conv2d(x), g> == <x, d_x> == <w, d_w>.  The channel pairs
    # run both unfoldings of the forward and of the input-gradient
    # correlation; a 5-tap kernel on 4 rows reaches across the whole
    # input, padding on both sides.
    rng = np.random.default_rng(31)
    for kh, kw in CONV_KERNELS + ((5, 5),):
        for c_in, c_out in ((2, 5), (5, 2), (5, 5)):
            x = t(rng.standard_normal((2, c_in, 4, 7)))
            w = t(rng.standard_normal((c_out, c_in, kh, kw)))
            out, ctx = conv2d(x, w, t(np.zeros(c_out)))
            g = rng.standard_normal(out.shape)
            dx, dw, _ = conv2d_backward(ctx, t(g))
            case = (kh, kw, c_in, c_out)
            forward = float((out * g).sum())
            assert math.isclose(float((x * dx).sum()), forward, rel_tol=1e-12), case
            assert math.isclose(float((w * dw).sum()), forward, rel_tol=1e-12), case


def test_gradcheck_maxpool2():
    # seed 11 keeps every pooling window's top-two gap above 0.26, so the
    # h=1e-3 perturbation can never flip a winner
    rng = np.random.default_rng(11)
    x = t(rng.random((1, 2, 4, 4)))
    out, ctx = maxpool2(x)
    upstream = weighted_sum_loss(rng, out.shape)
    dx = maxpool2_backward(ctx, upstream)

    def f(_q):
        o, _ = maxpool2(x)
        return float((o * upstream).sum())

    assert finite_diff_gradcheck(f, x, dx) < TOL


def test_gradcheck_relu():
    # magnitudes at least 0.2 keep every input two hundred steps from the kink
    rng = np.random.default_rng(22)
    signs = np.where(rng.random((3, 5)) < 0.5, -1.0, 1.0)
    x = t((rng.random((3, 5)) * 0.8 + 0.2) * signs)
    out, ctx = relu(x)
    upstream = weighted_sum_loss(rng, out.shape)
    dx = relu_backward(ctx, upstream)

    def f(_q):
        o, _ = relu(x)
        return float((o * upstream).sum())

    assert finite_diff_gradcheck(f, x, dx) < TOL


def test_gradcheck_upsample2():
    rng = np.random.default_rng(23)
    x = t(rng.random((2, 2, 3, 3)))
    out, ctx = upsample2(x)
    upstream = weighted_sum_loss(rng, out.shape)
    dx = upsample2_backward(ctx, upstream)

    def f(_q):
        o, _ = upsample2(x)
        return float((o * upstream).sum())

    assert finite_diff_gradcheck(f, x, dx) < TOL


def test_gradcheck_concat_channels():
    rng = np.random.default_rng(24)
    a = t(rng.random((2, 2, 3, 3)))
    b = t(rng.random((2, 4, 3, 3)))
    out, ctx = concat_channels(a, b)
    upstream = weighted_sum_loss(rng, out.shape)
    da, db = concat_channels_backward(ctx, upstream)

    def f(_q):
        o, _ = concat_channels(a, b)
        return float((o * upstream).sum())

    assert finite_diff_gradcheck(f, a, da) < TOL
    assert finite_diff_gradcheck(f, b, db) < TOL


def test_gradcheck_dense_all_arguments():
    rng = np.random.default_rng(25)
    x = t(rng.random((3, 4)))
    w = t(rng.standard_normal((4, 2)))
    bias = t(rng.standard_normal(2))
    out, ctx = dense(x, w, bias)
    upstream = weighted_sum_loss(rng, out.shape)
    dx, dw, dbias = dense_backward(ctx, upstream)

    def f(_q):
        o, _ = dense(x, w, bias)
        return float((o * upstream).sum())

    assert finite_diff_gradcheck(f, x, dx) < TOL
    assert finite_diff_gradcheck(f, w, dw) < TOL
    assert finite_diff_gradcheck(f, bias, dbias) < TOL


def test_gradcheck_softmax_xent():
    rng = np.random.default_rng(26)
    logits = rng.standard_normal((3, 4))
    y = np.array([0, 1, 3])
    _, grad = softmax_xent(logits, y)

    def f(_q):
        return softmax_xent(logits, y)[0]

    assert finite_diff_gradcheck(f, logits, grad) < TOL


# ---------------------------------------------------------------------------
# zero upstream and context discipline


def test_zero_upstream_gives_zero_gradients_everywhere():
    rng = np.random.default_rng(27)
    x = t(rng.random((1, 2, 4, 4)))
    w = t(rng.standard_normal((2, 2, 3, 3)))
    bias = t(rng.standard_normal(2))

    out, ctx = conv2d(x, w, bias)
    for g in conv2d_backward(ctx, np.zeros(out.shape, dtype=np.float64)):
        assert float(np.abs(g).max()) == 0.0

    out, ctx = maxpool2(x)
    assert float(np.abs(maxpool2_backward(ctx, np.zeros(out.shape, dtype=np.float64))).max()) == 0.0

    out, ctx = relu(x)
    assert float(np.abs(relu_backward(ctx, np.zeros(out.shape, dtype=np.float64))).max()) == 0.0

    out, ctx = upsample2(x)
    assert float(np.abs(upsample2_backward(ctx, np.zeros(out.shape, dtype=np.float64))).max()) == 0.0

    out, ctx = concat_channels(x, x)
    for g in concat_channels_backward(ctx, np.zeros(out.shape, dtype=np.float64)):
        assert float(np.abs(g).max()) == 0.0

    xd = t(rng.random((2, 3)))
    out, ctx = dense(xd, t(rng.standard_normal((3, 2))), t(rng.standard_normal(2)))
    for g in dense_backward(ctx, np.zeros(out.shape, dtype=np.float64)):
        assert float(np.abs(g).max()) == 0.0


def test_mispaired_context_is_rejected():
    x = t(np.random.default_rng(28).random((1, 1, 4, 4)) + 0.5)
    _, relu_ctx = relu(x)
    with pytest.raises(ConsistencyError):
        maxpool2_backward(relu_ctx, t(np.ones((1, 1, 2, 2))))
    _, pool_ctx = maxpool2(x)
    with pytest.raises(ConsistencyError):
        relu_backward(pool_ctx, t(np.ones((1, 1, 2, 2))))


def test_every_op_takes_and_returns_plain_arrays():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((2, 3, 4, 4))
    w = rng.standard_normal((5, 3, 3, 3))
    returned = []
    for (out, ctx), backward in (
            (conv2d(x, w, rng.standard_normal(5)), conv2d_backward),
            (maxpool2(x), maxpool2_backward),
            (relu(x), relu_backward),
            (upsample2(x), upsample2_backward),
            (concat_channels(x, x), concat_channels_backward),
            (dense(x[:, :, 0, 0], w[:, :, 0, 0].T, rng.standard_normal(5)), dense_backward)):
        grads = backward(ctx, rng.standard_normal(out.shape))
        returned += [out, *(grads if isinstance(grads, tuple) else [grads])]
    # six outputs; 3 + 1 + 1 + 1 + 2 + 3 gradients
    assert len(returned) == 17
    assert [type(a) for a in returned] == [np.ndarray] * 17


def test_concat_channels_backward_returns_views_of_its_upstream_gradient():
    rng = np.random.default_rng(31)
    _, ctx = concat_channels(rng.random((2, 3, 4, 4)), rng.random((2, 5, 4, 4)))
    g = rng.random((2, 8, 4, 4))
    da, db = concat_channels_backward(ctx, g)
    assert da.base is g and db.base is g
