import math

import numpy as np
import pytest

from tsmkit.errors import InvalidShape, InvalidSpec
from tsmkit.ops import (
    Conv2dParams,
    ConvSpec,
    LinearParams,
    LinearSpec,
    _conv_forward_cols,
    conv2d_backward,
    conv2d_forward,
    count_macs,
    global_avg_pool_backward,
    global_avg_pool_forward,
    linear_backward,
    linear_forward,
    macs_of,
    params_of,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)
from tsmkit.shift import ShiftSpec, shift_offline
from tsmkit.tensor import activation

from helpers import central_diff_grad, rel_grad_error
from oracles import conv2d_direct


def rand_conv(rng, c_in, c_out, k, stride=1, pad=0, dtype=np.float32):
    w = rng.uniform(-1, 1, size=(c_out, c_in, k, k)).astype(dtype)
    b = rng.uniform(-1, 1, size=(c_out,)).astype(dtype)
    return Conv2dParams(w, b, stride=stride, pad=pad)


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, size=(2, 3, 4, 4)).astype(np.float32)
    w = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    p = Conv2dParams(w, np.zeros(3, dtype=np.float32))
    np.testing.assert_array_equal(conv2d_forward(x, p), x)


def test_conv_zero_weights_gives_bias():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, size=(1, 2, 5, 5)).astype(np.float32)
    b = np.array([0.5, -1.25, 3.0], dtype=np.float32)
    p = Conv2dParams(np.zeros((3, 2, 3, 3), dtype=np.float32), b)
    out = conv2d_forward(x, p)
    for c in range(3):
        np.testing.assert_array_equal(out[:, c], np.full((1, 3, 3), b[c]))


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0), (3, 2)])
def test_conv_matches_direct_loop(stride, pad):
    rng = np.random.default_rng(2 + stride * 10 + pad)
    x = rng.uniform(-1, 1, size=(2, 2, 5, 5)).astype(np.float32)
    p = rand_conv(rng, 2, 3, 3, stride=stride, pad=pad)
    got = conv2d_forward(x, p)
    want = conv2d_direct(x, p.weights, p.bias, stride=stride, pad=pad)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-5


def test_conv_matches_direct_loop_randomized():
    # each frame's output is also bit-identical whatever its batch position
    # and batch size: order invariance and online/offline parity rely on it
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        h = int(rng.integers(k, 7))
        w = int(rng.integers(k, 7))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x = rng.uniform(-1, 1, size=(n, c_in, h, w)).astype(np.float32)
        p = rand_conv(rng, c_in, c_out, k, stride=stride, pad=pad)
        got = conv2d_forward(x, p)
        want = conv2d_direct(x, p.weights, p.bias, stride=stride, pad=pad)
        assert np.max(np.abs(got - want)) <= 1e-5
        np.testing.assert_array_equal(conv2d_forward(x[::-1], p), got[::-1])
        np.testing.assert_array_equal(
            conv2d_forward(np.concatenate([x, x]), p), np.concatenate([got, got]))
        for i in range(n):
            np.testing.assert_array_equal(conv2d_forward(x[i : i + 1], p), got[i : i + 1])


def test_conv_shape_errors():
    rng = np.random.default_rng(3)
    p = rand_conv(rng, 2, 3, 3)
    with pytest.raises(InvalidShape):
        conv2d_forward(np.zeros((1, 4, 5, 5), dtype=np.float32), p)
    with pytest.raises(InvalidShape):
        conv2d_forward(np.zeros((1, 2, 2, 2), dtype=np.float32), p)
    with pytest.raises(InvalidSpec):
        Conv2dParams(np.zeros((2, 2, 3, 3), dtype=np.float32),
                     np.zeros(3, dtype=np.float32))


def test_conv_backward_zero_grad():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(1, 2, 4, 4)).astype(np.float32)
    p = rand_conv(rng, 2, 3, 3)
    gx, gw, gb = conv2d_backward(x, p, np.zeros((1, 3, 2, 2), dtype=np.float32))
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_backward_bias_is_grad_sum():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(2, 2, 5, 5)).astype(np.float32)
    p = rand_conv(rng, 2, 3, 3, pad=1)
    g = rng.uniform(-1, 1, size=(2, 3, 5, 5)).astype(np.float32)
    _, _, gb = conv2d_backward(x, p, g)
    np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-5)


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
def test_conv_backward_finite_difference(stride, pad):
    rng = np.random.default_rng(6 + stride + pad)
    x = rng.uniform(-1, 1, size=(2, 2, 4, 4)).astype(np.float64)
    p = Conv2dParams(
        rng.uniform(-1, 1, size=(3, 2, 3, 3)), rng.uniform(-1, 1, size=(3,)),
        stride=stride, pad=pad,
    )
    g = rng.uniform(-1, 1, size=conv2d_forward(x, p).shape)

    gx, gw, gb = conv2d_backward(x, p, g)
    num_gx = central_diff_grad(lambda v: float((conv2d_forward(v, p) * g).sum()), x)
    assert rel_grad_error(gx, num_gx) <= 1e-5

    def loss_w(wv):
        return float((conv2d_forward(x, Conv2dParams(wv, p.bias, p.stride, p.pad)) * g).sum())

    num_gw = central_diff_grad(loss_w, p.weights)
    assert rel_grad_error(gw, num_gw) <= 1e-5

    def loss_b(bv):
        return float((conv2d_forward(x, Conv2dParams(p.weights, bv, p.stride, p.pad)) * g).sum())

    num_gb = central_diff_grad(loss_b, p.bias)
    assert rel_grad_error(gb, num_gb) <= 1e-5


def test_conv_backward_many_random_cases():
    # passing the forward's columns gives bit-identical gradients to
    # recomputing them
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        h = int(rng.integers(k, 6))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x = rng.uniform(-1, 1, size=(n, c_in, h, h))
        p = Conv2dParams(
            rng.uniform(-1, 1, size=(c_out, c_in, k, k)),
            rng.uniform(-1, 1, size=(c_out,)), stride=stride, pad=pad,
        )
        y, cols = _conv_forward_cols(x, p)
        g = rng.uniform(-1, 1, size=y.shape)
        grads = conv2d_backward(x, p, g)
        num = central_diff_grad(lambda v: float((conv2d_forward(v, p) * g).sum()), x)
        assert rel_grad_error(grads[0], num) <= 1e-5
        for got, want in zip(conv2d_backward(x, p, g, cols=cols), grads):
            np.testing.assert_array_equal(got, want)


def test_relu_values_and_grad():
    x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
    np.testing.assert_array_equal(relu_forward(x), [0.0, 0.0, 2.0])
    g = np.array([5.0, 7.0, 9.0], dtype=np.float32)
    np.testing.assert_array_equal(relu_backward(x, g), [0.0, 0.0, 9.0])
    with pytest.raises(InvalidShape):
        relu_backward(x, g[:2])


def test_relu_finite_difference():
    rng = np.random.default_rng(8)
    for seed in range(20):
        x = rng.uniform(-1, 1, size=(3, 4))
        x[np.abs(x) < 1e-2] += 0.05  # keep away from the kink
        g = rng.uniform(-1, 1, size=(3, 4))
        got = relu_backward(x, g)
        num = central_diff_grad(lambda v: float((relu_forward(v) * g).sum()), x)
        assert rel_grad_error(got, num) <= 1e-5


def test_pool_forward_and_backward():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, size=(2, 3, 4, 5)).astype(np.float32)
    out = global_avg_pool_forward(x)
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-6)
    g = rng.uniform(-1, 1, size=(2, 3))
    gx = global_avg_pool_backward(x.shape, g)
    num = central_diff_grad(
        lambda v: float((global_avg_pool_forward(v) * g).sum()), x.astype(np.float64)
    )
    assert rel_grad_error(gx, num) <= 1e-5
    with pytest.raises(InvalidShape):
        global_avg_pool_backward(x.shape, np.zeros((2, 4)))


def test_linear_forward_and_backward():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, size=(4, 6))
    p = LinearParams(rng.uniform(-1, 1, size=(3, 6)), rng.uniform(-1, 1, size=(3,)))
    out = linear_forward(x, p)
    np.testing.assert_allclose(out, x @ p.weights.T + p.bias, rtol=1e-6)
    g = rng.uniform(-1, 1, size=(4, 3))
    gx, gw, gb = linear_backward(x, p, g)
    num_gx = central_diff_grad(lambda v: float((linear_forward(v, p) * g).sum()), x)
    assert rel_grad_error(gx, num_gx) <= 1e-5
    num_gw = central_diff_grad(
        lambda wv: float((linear_forward(x, LinearParams(wv, p.bias)) * g).sum()),
        p.weights,
    )
    assert rel_grad_error(gw, num_gw) <= 1e-5
    np.testing.assert_allclose(gb, g.sum(axis=0), rtol=1e-6)
    with pytest.raises(InvalidShape):
        linear_forward(np.zeros((4, 7)), p)


def test_softmax_uniform_logits():
    for k in (2, 5, 9):
        logits = np.full((3, k), 0.37, dtype=np.float32)
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1, k - 1]))
        assert abs(loss - math.log(k)) <= 1e-6


def test_softmax_label_range():
    logits = np.zeros((2, 4), dtype=np.float32)
    with pytest.raises(IndexError):
        softmax_cross_entropy(logits, np.array([0, 4]))
    with pytest.raises(IndexError):
        softmax_cross_entropy(logits, np.array([-1, 0]))


def test_softmax_grad_finite_difference():
    rng = np.random.default_rng(11)
    for seed in range(20):
        logits = rng.uniform(-2, 2, size=(3, 5))
        labels = rng.integers(0, 5, size=3)
        _, grad = softmax_cross_entropy(logits, labels)
        num = central_diff_grad(
            lambda v: softmax_cross_entropy(v, labels)[0], logits
        )
        assert rel_grad_error(grad, num) <= 1e-5


def test_softmax_stability_large_logits():
    logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]], dtype=np.float32)
    loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
    assert math.isfinite(loss)
    assert np.isfinite(grad).all()
    # confidently wrong rows: log-sum-exp gives the margin, not -log(0)
    with np.errstate(divide="raise", invalid="raise"):
        loss, grad = softmax_cross_entropy(logits, np.array([1, 0]))
    assert math.isfinite(loss) and loss == 1000.0
    assert np.isfinite(grad).all()


def test_macs_and_params_accounting():
    conv = ConvSpec(16, 16, 3, stride=1, pad=1)
    assert macs_of(conv, (16, 8, 8)) == 16 * 16 * 9 * 64 == 147_456
    assert params_of(conv) == 16 * 16 * 9 + 16
    lin = LinearSpec(32, 10)
    assert macs_of(lin, (32,)) == 320
    assert params_of(lin) == 330
    shift = ShiftSpec(2, 2)
    assert macs_of(shift, (16, 8, 8)) == 0
    assert params_of(shift) == 0
    assert macs_of("relu", (16, 8, 8)) == 0
    assert params_of("pool") == 0
    with pytest.raises(InvalidSpec):
        macs_of("batchnorm", (16, 8, 8))
    with pytest.raises(InvalidSpec):
        params_of(object())
    with pytest.raises(InvalidSpec):
        macs_of(ConvSpec(3, 4, 3), (16, 8, 8))


def test_mac_counter_matches_accounting():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, size=(1, 4, 6, 6)).astype(np.float32)
    p = rand_conv(rng, 4, 8, 3, pad=1)
    with count_macs() as c:
        conv2d_forward(x, p)
    assert c.total == macs_of(ConvSpec(4, 8, 3, pad=1), (4, 6, 6))
    with count_macs() as c:
        linear_forward(np.zeros((2, 5), dtype=np.float32),
                       LinearParams(np.zeros((3, 5), dtype=np.float32),
                                    np.zeros(3, dtype=np.float32)))
    assert c.total == 2 * 3 * 5


def test_shift_records_zero_macs():
    rng = np.random.default_rng(13)
    x = activation(rng.uniform(-1, 1, size=(1, 4, 8, 3, 3)).astype(np.float32))
    with count_macs() as c:
        shift_offline(x, ShiftSpec(1, 1))
        relu_forward(x.data)
        global_avg_pool_forward(x.data[:, 0])
    assert c.total == 0
