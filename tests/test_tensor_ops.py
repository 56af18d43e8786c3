"""Tensor container, op forward/backward oracles, and finite differences.

Every expected value here is either computed by hand in a comment or
recomputed independently inside the test (central differences, partition
reassembly), never copied from the implementation.
"""

import math

import numpy as np
import pytest

from bcnn.errors import ConsistencyError, DimensionError, NumericError
from bcnn.tensor import (
    Tensor,
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
    softmax_xent,
    upsample2,
    upsample2_backward,
)


def t(values, dtype=np.float64):
    return Tensor(np.asarray(values, dtype=dtype))


# ---------------------------------------------------------------------------
# Tensor container


def test_tensor_accepts_ranks_one_through_four():
    for rank in range(1, 5):
        shape = (2,) * rank
        assert Tensor(np.ones(shape, dtype=np.float32)).rank == rank


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


def test_tensor_default_dtype_is_float32():
    assert Tensor([1.0, 2.0]).dtype == np.float32
    assert Tensor(np.ones(3, dtype=np.float64)).dtype == np.float64


def test_tensor_zeros_and_full():
    z = Tensor.zeros((2, 3))
    assert z.shape == (2, 3) and float(np.abs(z.data).max()) == 0.0
    f = Tensor.full((4,), 2.5)
    assert np.array_equal(f.data, np.full(4, 2.5, dtype=np.float32))


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = t(rng.random((2, 1, 5, 5)))
    w = t([[[[1.0]]]])
    out, _ = conv2d(x, w, Tensor.zeros((1,), dtype=np.float64))
    assert np.array_equal(out.data, x.data)


def test_conv2d_window_sums():
    x = t(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
    w = t(np.ones((1, 1, 2, 2)))
    out, _ = conv2d(x, w, Tensor.zeros((1,), dtype=np.float64))
    # 1+2+4+5=12, 2+3+5+6=16, 4+5+7+8=24, 5+6+8+9=28
    assert np.array_equal(out.data[0, 0], np.array([[12.0, 16.0], [24.0, 28.0]]))


def test_conv2d_pad1_preserves_extent():
    x = t(np.random.default_rng(2).random((1, 2, 6, 6)))
    w = t(np.random.default_rng(3).random((4, 2, 3, 3)))
    out, _ = conv2d(x, w, Tensor.zeros((4,), dtype=np.float64), stride=1, pad=1)
    assert out.shape == (1, 4, 6, 6)


def test_conv2d_stride_two_window_sums():
    x = t(np.arange(1.0, 17.0).reshape(1, 1, 4, 4))
    w = t(np.ones((1, 1, 2, 2)))
    out, _ = conv2d(x, w, Tensor.zeros((1,), dtype=np.float64), stride=2)
    # non-overlapping 2x2 sums of 1..16
    assert np.array_equal(out.data[0, 0], np.array([[14.0, 22.0], [46.0, 54.0]]))


def test_conv2d_bias_broadcast():
    x = Tensor.zeros((1, 1, 4, 4), dtype=np.float64)
    w = t(np.ones((2, 1, 3, 3)))
    out, _ = conv2d(x, w, t([0.5, -1.5]), pad=1)
    assert np.array_equal(out.data[0, 0], np.full((4, 4), 0.5))
    assert np.array_equal(out.data[0, 1], np.full((4, 4), -1.5))


def test_conv2d_kernel_larger_than_padded_input():
    x = t(np.ones((1, 1, 2, 2)))
    w = t(np.ones((1, 1, 3, 3)))
    with pytest.raises(DimensionError):
        conv2d(x, w, Tensor.zeros((1,), dtype=np.float64))


# ---------------------------------------------------------------------------
# maxpool2


def test_maxpool2_max_of_four():
    out, _ = maxpool2(t([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert np.array_equal(out.data, np.array([[[[4.0]]]]))


def test_maxpool2_constant_image():
    out, _ = maxpool2(Tensor.full((1, 2, 4, 4), 7.0, dtype=np.float64))
    assert out.shape == (1, 2, 2, 2) and np.array_equal(out.data, np.full((1, 2, 2, 2), 7.0))


def test_maxpool2_backward_argmax_routing():
    _, ctx = maxpool2(t([[[[1.0, 2.0], [3.0, 4.0]]]]))
    dx = maxpool2_backward(ctx, t([[[[1.0]]]]))
    assert np.array_equal(dx.data, np.array([[[[0.0, 0.0], [0.0, 1.0]]]]))


def test_maxpool2_tie_routes_to_lowest_flat_index():
    _, ctx = maxpool2(t([[[[5.0, 5.0], [3.0, 1.0]]]]))
    dx = maxpool2_backward(ctx, t([[[[2.0]]]]))
    assert np.array_equal(dx.data, np.array([[[[2.0, 0.0], [0.0, 0.0]]]]))


def test_maxpool2_rejects_odd_extent():
    with pytest.raises(DimensionError):
        maxpool2(t(np.ones((1, 1, 3, 4))))
    with pytest.raises(DimensionError):
        maxpool2(t(np.ones((1, 1, 4, 5))))


# ---------------------------------------------------------------------------
# relu


def test_relu_sign_cases():
    out, _ = relu(t([-1.0, 2.0, 0.0]))
    assert np.array_equal(out.data, np.array([0.0, 2.0, 0.0]))


def test_relu_positive_identity():
    x = t(np.random.default_rng(4).random(10) + 0.5)
    out, _ = relu(x)
    assert np.array_equal(out.data, x.data)


def test_relu_backward_mask_with_zero_convention():
    _, ctx = relu(t([-1.0, 2.0, 0.0]))
    dx = relu_backward(ctx, t([1.0, 1.0, 1.0]))
    assert np.array_equal(dx.data, np.array([0.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# upsample2


def test_upsample2_single_pixel():
    out, _ = upsample2(t([[[[1.0]]]]))
    assert np.array_equal(out.data, np.ones((1, 1, 2, 2)))


def test_upsample2_block_layout():
    out, _ = upsample2(t([[[[1.0, 2.0], [3.0, 4.0]]]]))
    want = np.array([[1.0, 1.0, 2.0, 2.0],
                     [1.0, 1.0, 2.0, 2.0],
                     [3.0, 3.0, 4.0, 4.0],
                     [3.0, 3.0, 4.0, 4.0]])
    assert np.array_equal(out.data[0, 0], want)


def test_upsample2_backward_block_sum():
    _, ctx = upsample2(t([[[[1.0]]]]))
    dx = upsample2_backward(ctx, t(np.ones((1, 1, 2, 2))))
    assert np.array_equal(dx.data, np.array([[[[4.0]]]]))


def test_upsample2_backward_on_ones_is_four():
    x = t(np.random.default_rng(5).random((2, 3, 4, 4)))
    _, ctx = upsample2(x)
    dx = upsample2_backward(ctx, Tensor(np.ones((2, 3, 8, 8))))
    assert np.array_equal(dx.data, np.full(x.shape, 4.0))


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
                _, ctx = upsample2(Tensor.zeros((batch, chans, height // 2, width // 2),
                                                dtype=dtype))
                got = upsample2_backward(ctx, Tensor(g)).data
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
    assert np.array_equal(out.data[:, :2], a.data)
    assert np.array_equal(out.data[:, 2:], b.data)


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
    da, db = concat_channels_backward(ctx, Tensor(np.ones((1, 5, 4, 4))))
    assert np.array_equal(da.data, np.ones((1, 2, 4, 4)))
    assert np.array_equal(db.data, np.ones((1, 3, 4, 4)))


def test_concat_channels_backward_is_exact_partition():
    rng = np.random.default_rng(8)
    a, b = t(rng.random((2, 3, 4, 4))), t(rng.random((2, 5, 4, 4)))
    _, ctx = concat_channels(a, b)
    g = rng.random((2, 8, 4, 4))
    da, db = concat_channels_backward(ctx, Tensor(g))
    assert np.array_equal(np.concatenate([da.data, db.data], axis=1), g)


# ---------------------------------------------------------------------------
# dense


def test_dense_identity_weight():
    x = t(np.random.default_rng(9).random((3, 4)))
    out, _ = dense(x, t(np.eye(4)), Tensor.zeros((4,), dtype=np.float64))
    assert np.array_equal(out.data, x.data)


def test_dense_hand_arithmetic():
    out, _ = dense(t([[1.0, 2.0]]), t(np.eye(2)), t([10.0, 20.0]))
    assert np.array_equal(out.data, np.array([[11.0, 22.0]]))


def test_dense_zero_weight_passes_bias():
    x = t(np.random.default_rng(10).random((3, 4)))
    out, _ = dense(x, Tensor.zeros((4, 2), dtype=np.float64), t([1.5, -2.5]))
    assert np.array_equal(out.data, np.tile([1.5, -2.5], (3, 1)))


def test_dense_backward_bias_is_column_sum():
    x = t(np.random.default_rng(11).random((2, 3)))
    w = t(np.random.default_rng(12).random((3, 2)))
    _, ctx = dense(x, w, Tensor.zeros((2,), dtype=np.float64))
    g = t([[1.0, 2.0], [3.0, 4.0]])
    dx, dw, dbias = dense_backward(ctx, g)
    assert np.array_equal(dbias.data, np.array([4.0, 6.0]))
    assert np.array_equal(dx.data, g.data @ w.data.T)
    assert np.array_equal(dw.data, x.data.T @ g.data)


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
    assert float(np.abs(grad.data - want).max()) < 1e-12


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
    assert float(np.abs(grad.data.sum(axis=1)).max()) < 1e-12


def test_softmax_xent_out_of_range_target():
    with pytest.raises(IndexError):
        softmax_xent(t([[0.0, 0.0, 0.0]]), np.array([3]))
    with pytest.raises(IndexError):
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
        return float((q.data ** 2).sum())

    num = numeric_gradient(f, p, h=1e-4)
    err = max_relative_error(t([2.0, 4.0]), num)
    assert err < 1e-6


def test_numeric_gradient_constant_function():
    p = t([0.3, -0.7])
    num = numeric_gradient(lambda q: 42.0, p, h=1e-3)
    assert float(np.abs(num.data).max()) == 0.0
    assert finite_diff_gradcheck(lambda q: 42.0, p, Tensor.zeros((2,), dtype=np.float64)) == 0.0


def test_numeric_gradient_restores_parameter_bits():
    p = t([0.1, 0.2, 0.3])
    before = p.data.copy()
    numeric_gradient(lambda q: float(q.data.sum()), p, h=1e-3)
    assert np.array_equal(p.data, before)


def test_numeric_gradient_rejects_non_finite_f():
    with pytest.raises(NumericError):
        numeric_gradient(lambda q: float("nan"), t([1.0]), h=1e-3)


def test_numeric_gradient_rejects_bad_step():
    with pytest.raises(NumericError):
        numeric_gradient(lambda q: 0.0, t([1.0]), h=0.0)
    with pytest.raises(NumericError):
        numeric_gradient(lambda q: 0.0, t([1.0]), h=-1e-3)


def test_max_relative_error_shape_mismatch():
    with pytest.raises(DimensionError):
        max_relative_error(t([1.0, 2.0]), t([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# per-op gradient checks against central differences

TOL = 1e-4


def weighted_sum_loss(rng, shape):
    """A fixed random linear readout makes any op output a scalar loss."""
    r = rng.standard_normal(shape)
    return Tensor(r.copy()), r


# conv2d unrolls the input when C_in <= C_out and the kernel otherwise;
# each conv gradcheck runs one shape of each kind.
CONV_CHANNELS = ((2, 3), (5, 2))


def test_gradcheck_conv2d_all_arguments():
    rng = np.random.default_rng(20)
    for c_in, c_out in CONV_CHANNELS:
        x = t(rng.random((2, c_in, 4, 4)) + 0.1)
        w = t(rng.standard_normal((c_out, c_in, 3, 3)) * 0.5)
        bias = t(rng.standard_normal(c_out) * 0.1)
        out, ctx = conv2d(x, w, bias, stride=1, pad=1)
        upstream, _ = weighted_sum_loss(rng, out.shape)
        dx, dw, dbias = conv2d_backward(ctx, upstream)

        def f(_q):
            o, _ = conv2d(x, w, bias, stride=1, pad=1)
            return float((o.data * upstream.data).sum())

        assert finite_diff_gradcheck(f, x, dx) < TOL, (c_in, c_out)
        assert finite_diff_gradcheck(f, w, dw) < TOL, (c_in, c_out)
        assert finite_diff_gradcheck(f, bias, dbias) < TOL, (c_in, c_out)


def test_gradcheck_conv2d_stride_two():
    rng = np.random.default_rng(21)
    for c_in, c_out in CONV_CHANNELS:
        x = t(rng.random((1, c_in, 6, 6)))
        w = t(rng.standard_normal((c_out, c_in, 2, 2)))
        bias = t(rng.standard_normal(c_out))
        out, ctx = conv2d(x, w, bias, stride=2, pad=0)
        upstream, _ = weighted_sum_loss(rng, out.shape)
        dx, dw, _ = conv2d_backward(ctx, upstream)

        def f(_q):
            o, _ = conv2d(x, w, bias, stride=2, pad=0)
            return float((o.data * upstream.data).sum())

        assert finite_diff_gradcheck(f, x, dx) < TOL, (c_in, c_out)
        assert finite_diff_gradcheck(f, w, dw) < TOL, (c_in, c_out)


def test_conv2d_paths_agree_for_any_stride_pad_and_kernel():
    # A 5->2 conv takes the shift-accumulate path.  Appending three zero
    # kernels makes it 5->5, which takes the im2col path; the first two
    # output channels and every gradient must agree.
    rng = np.random.default_rng(29)
    for stride, pad, kh, kw in ((1, 0, 3, 3), (1, 1, 3, 3), (2, 1, 3, 2), (3, 2, 2, 3),
                                (2, 0, 1, 1)):
        x = t(rng.standard_normal((2, 5, 7, 6)))
        w = t(rng.standard_normal((2, 5, kh, kw)))
        bias = t(rng.standard_normal(2))
        wide_w = t(np.concatenate([w.data, np.zeros((3, 5, kh, kw))]))
        wide_b = t(np.concatenate([bias.data, np.zeros(3)]))
        out, ctx = conv2d(x, w, bias, stride=stride, pad=pad)
        wide, wide_ctx = conv2d(x, wide_w, wide_b, stride=stride, pad=pad)
        np.testing.assert_allclose(out.data, wide.data[:, :2], rtol=1e-12, atol=1e-12)

        upstream = rng.standard_normal(out.shape)
        wide_up = np.zeros(wide.shape)
        wide_up[:, :2] = upstream
        dx, dw, dbias = conv2d_backward(ctx, t(upstream))
        wide_dx, wide_dw, wide_dbias = conv2d_backward(wide_ctx, t(wide_up))
        np.testing.assert_allclose(dx.data, wide_dx.data, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dw.data, wide_dw.data[:2], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dbias.data, wide_dbias.data[:2], rtol=1e-12, atol=1e-12)


def test_conv2d_backward_is_the_adjoint_of_conv2d():
    # With zero bias conv2d is linear in x and in w, so its gradients are
    # adjoints: <conv2d(x), g> == <x, d_x> == <w, d_w>.  The channel pairs
    # run both unfoldings of the forward and of the input-gradient
    # correlation; pad 2 with a 2-tap kernel drops gradient entries that
    # see only padding, and stride 2 on 8 rows drops a padded row.
    rng = np.random.default_rng(31)
    for stride, pad, kh, kw in ((1, 0, 3, 3), (1, 1, 3, 3), (2, 1, 3, 2), (3, 2, 2, 3),
                                (2, 0, 1, 1), (2, 1, 3, 3)):
        for c_in, c_out in ((2, 5), (5, 2), (5, 5)):
            x = t(rng.standard_normal((2, c_in, 8, 7)))
            w = t(rng.standard_normal((c_out, c_in, kh, kw)))
            out, ctx = conv2d(x, w, t(np.zeros(c_out)), stride=stride, pad=pad)
            g = rng.standard_normal(out.shape)
            dx, dw, _ = conv2d_backward(ctx, t(g))
            case = (stride, pad, kh, kw, c_in, c_out)
            forward = float((out.data * g).sum())
            assert math.isclose(float((x.data * dx.data).sum()), forward, rel_tol=1e-12), case
            assert math.isclose(float((w.data * dw.data).sum()), forward, rel_tol=1e-12), case


def test_gradcheck_maxpool2():
    # seed 11 keeps every pooling window's top-two gap above 0.26, so the
    # h=1e-3 perturbation can never flip a winner
    rng = np.random.default_rng(11)
    x = t(rng.random((1, 2, 4, 4)))
    out, ctx = maxpool2(x)
    upstream, _ = weighted_sum_loss(rng, out.shape)
    dx = maxpool2_backward(ctx, upstream)

    def f(_q):
        o, _ = maxpool2(x)
        return float((o.data * upstream.data).sum())

    assert finite_diff_gradcheck(f, x, dx) < TOL


def test_gradcheck_relu():
    # magnitudes at least 0.2 keep every input two hundred steps from the kink
    rng = np.random.default_rng(22)
    signs = np.where(rng.random((3, 5)) < 0.5, -1.0, 1.0)
    x = t((rng.random((3, 5)) * 0.8 + 0.2) * signs)
    out, ctx = relu(x)
    upstream, _ = weighted_sum_loss(rng, out.shape)
    dx = relu_backward(ctx, upstream)

    def f(_q):
        o, _ = relu(x)
        return float((o.data * upstream.data).sum())

    assert finite_diff_gradcheck(f, x, dx) < TOL


def test_gradcheck_upsample2():
    rng = np.random.default_rng(23)
    x = t(rng.random((2, 2, 3, 3)))
    out, ctx = upsample2(x)
    upstream, _ = weighted_sum_loss(rng, out.shape)
    dx = upsample2_backward(ctx, upstream)

    def f(_q):
        o, _ = upsample2(x)
        return float((o.data * upstream.data).sum())

    assert finite_diff_gradcheck(f, x, dx) < TOL


def test_gradcheck_concat_channels():
    rng = np.random.default_rng(24)
    a = t(rng.random((2, 2, 3, 3)))
    b = t(rng.random((2, 4, 3, 3)))
    out, ctx = concat_channels(a, b)
    upstream, _ = weighted_sum_loss(rng, out.shape)
    da, db = concat_channels_backward(ctx, upstream)

    def f(_q):
        o, _ = concat_channels(a, b)
        return float((o.data * upstream.data).sum())

    assert finite_diff_gradcheck(f, a, da) < TOL
    assert finite_diff_gradcheck(f, b, db) < TOL


def test_gradcheck_dense_all_arguments():
    rng = np.random.default_rng(25)
    x = t(rng.random((3, 4)))
    w = t(rng.standard_normal((4, 2)))
    bias = t(rng.standard_normal(2))
    out, ctx = dense(x, w, bias)
    upstream, _ = weighted_sum_loss(rng, out.shape)
    dx, dw, dbias = dense_backward(ctx, upstream)

    def f(_q):
        o, _ = dense(x, w, bias)
        return float((o.data * upstream.data).sum())

    assert finite_diff_gradcheck(f, x, dx) < TOL
    assert finite_diff_gradcheck(f, w, dw) < TOL
    assert finite_diff_gradcheck(f, bias, dbias) < TOL


def test_gradcheck_softmax_xent():
    rng = np.random.default_rng(26)
    logits = t(rng.standard_normal((3, 4)))
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

    out, ctx = conv2d(x, w, bias, pad=1)
    for g in conv2d_backward(ctx, Tensor.zeros(out.shape, dtype=np.float64)):
        assert float(np.abs(g.data).max()) == 0.0

    out, ctx = maxpool2(x)
    assert float(np.abs(maxpool2_backward(ctx, Tensor.zeros(out.shape, dtype=np.float64)).data).max()) == 0.0

    out, ctx = relu(x)
    assert float(np.abs(relu_backward(ctx, Tensor.zeros(out.shape, dtype=np.float64)).data).max()) == 0.0

    out, ctx = upsample2(x)
    assert float(np.abs(upsample2_backward(ctx, Tensor.zeros(out.shape, dtype=np.float64)).data).max()) == 0.0

    out, ctx = concat_channels(x, x)
    for g in concat_channels_backward(ctx, Tensor.zeros(out.shape, dtype=np.float64)):
        assert float(np.abs(g.data).max()) == 0.0

    xd = t(rng.random((2, 3)))
    out, ctx = dense(xd, t(rng.standard_normal((3, 2))), t(rng.standard_normal(2)))
    for g in dense_backward(ctx, Tensor.zeros(out.shape, dtype=np.float64)):
        assert float(np.abs(g.data).max()) == 0.0


def test_mispaired_context_is_rejected():
    x = t(np.random.default_rng(28).random((1, 1, 4, 4)) + 0.5)
    _, relu_ctx = relu(x)
    with pytest.raises(ConsistencyError):
        maxpool2_backward(relu_ctx, t(np.ones((1, 1, 2, 2))))
    _, pool_ctx = maxpool2(x)
    with pytest.raises(ConsistencyError):
        relu_backward(pool_ctx, t(np.ones((1, 1, 2, 2))))
