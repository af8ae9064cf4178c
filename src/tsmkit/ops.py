"""2D network kernels (forward + backward) and MAC/parameter accounting.

All kernels take and return plain numpy arrays in (N, C, H, W) / (N, F)
layout and preserve the input dtype, so the float32 production path and the
float64 shadow path used by gradient checks share one implementation.

Convolution builds one frame-major column matrix per call, shape
(N, C*K*K, Ho*Wo): row (c, kh, kw) of frame n is input plane c read at
kernel tap (kh, kw), filled by K*K strided copies from the zero-padded
NCHW input. One (C_out, C*K*K) @ (C*K*K, Ho*Wo) GEMM per frame then writes
the output in NCHW directly, so activations never leave NCHW. Each frame's
result is bit-identical whatever its batch position or batch size, and
bit-reproducible run to run on one machine. The backward pass reuses the
same columns for the weight gradient and scatters the column gradient back
with K*K contiguous adds over the flattened padded plane.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShape, InvalidSpec
from .shift import ShiftSpec

# --- layer descriptors (shapes only; weights live in a store) ---


@dataclass(frozen=True)
class ConvSpec:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.in_ch < 1 or self.out_ch < 1 or self.kernel < 1:
            raise InvalidSpec(f"conv extents must be >= 1: {self}")
        if self.stride < 1 or self.pad < 0:
            raise InvalidSpec(f"bad stride/pad: {self}")

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        ho = (h + 2 * self.pad - self.kernel) // self.stride + 1
        wo = (w + 2 * self.pad - self.kernel) // self.stride + 1
        return ho, wo


@dataclass(frozen=True)
class LinearSpec:
    in_features: int
    out_features: int

    def __post_init__(self):
        if self.in_features < 1 or self.out_features < 1:
            raise InvalidSpec(f"linear extents must be >= 1: {self}")


# --- parameter bundles (actual weights) ---


@dataclass
class Conv2dParams:
    weights: np.ndarray  # (C_out, C_in, K, K)
    bias: np.ndarray     # (C_out,)
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.weights.ndim != 4 or self.weights.shape[2] != self.weights.shape[3]:
            raise InvalidSpec(f"conv weights must be (O, I, K, K), got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise InvalidSpec(f"bias shape {self.bias.shape} != ({self.weights.shape[0]},)")
        if self.stride < 1 or self.pad < 0:
            raise InvalidSpec(f"bad stride/pad: stride={self.stride} pad={self.pad}")


@dataclass
class LinearParams:
    weights: np.ndarray  # (out_features, in_features)
    bias: np.ndarray     # (out_features,)

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise InvalidSpec(
                f"linear shapes inconsistent: w {self.weights.shape}, b {self.bias.shape}"
            )


# --- MAC instrumentation ---


class MacCounter:
    """Accumulates the multiply-accumulate count of executed forward kernels."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0


_active_counters: list[MacCounter] = []


@contextmanager
def count_macs():
    """Record MACs of every forward kernel run inside the block.

    Shift, relu and pooling perform no multiply-accumulates and record 0.
    """
    counter = MacCounter()
    _active_counters.append(counter)
    try:
        yield counter
    finally:
        _active_counters.remove(counter)


def _record_macs(n: int) -> None:
    for counter in _active_counters:
        counter.total += n


# --- kernels ---


def _conv_geometry(x: np.ndarray, p: Conv2dParams):
    if x.ndim != 4:
        raise InvalidShape(f"conv input must be (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    c_out, c_in, k, _ = p.weights.shape
    if c != c_in:
        raise InvalidShape(f"input has {c} channels, weights expect {c_in}")
    ho = (h + 2 * p.pad - k) // p.stride + 1
    wo = (w + 2 * p.pad - k) // p.stride + 1
    if ho < 1 or wo < 1 or h + 2 * p.pad < k or w + 2 * p.pad < k:
        raise InvalidShape(
            f"kernel {k} with pad {p.pad} does not fit {h}x{w} input"
        )
    return n, c_in, c_out, k, h, w, ho, wo


def _im2col(x: np.ndarray, k: int, stride: int, pad: int, ho: int, wo: int) -> np.ndarray:
    """(N, C, H, W) -> frame-major patch columns (N, C*K*K, Ho*Wo).

    Row (c, kh, kw) of frame n holds that input plane read at kernel tap
    (kh, kw); each tap is one strided copy whose inner runs are Wo long.
    """
    n, c, h, w = x.shape
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x
    else:
        xp = x
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for kh in range(k):
        for kw in range(k):
            cols[:, :, kh, kw] = xp[:, :, kh : kh + stride * (ho - 1) + 1 : stride,
                                    kw : kw + stride * (wo - 1) + 1 : stride]
    return cols.reshape(n, c * k * k, ho * wo)


def _conv_forward_cols(x: np.ndarray, p: Conv2dParams):
    """conv2d_forward that also hands back the im2col matrix.

    The columns are exactly what the backward pass needs; callers that keep
    activations around for a backward pass should keep these too instead of
    paying for a second im2col.
    """
    n, c_in, c_out, k, h, w, ho, wo = _conv_geometry(x, p)
    cols = _im2col(x, k, p.stride, p.pad, ho, wo)
    # one (C_out, C*K*K) @ (C*K*K, Ho*Wo) GEMM per frame: already NCHW
    out = np.matmul(p.weights.reshape(c_out, c_in * k * k), cols)
    out += p.bias[:, None]
    _record_macs(n * c_out * c_in * k * k * ho * wo)
    return out.reshape(n, c_out, ho, wo), cols


def conv2d_forward(x: np.ndarray, p: Conv2dParams) -> np.ndarray:
    """Cross-correlation with bias, (N, C_in, H, W) -> (N, C_out, Ho, Wo)."""
    return _conv_forward_cols(x, p)[0]


def _conv_param_grads(cols: np.ndarray, grad_out: np.ndarray, w_shape):
    """(grad_w, grad_b) of a conv from its im2col columns and d(loss)/d(output).

    grad_w is the sum over frames of grad_out[n] @ cols[n]^T. A conv whose
    input needs no gradient (the network's stem) stops here.
    """
    n, c_out = grad_out.shape[:2]
    g = grad_out.reshape(n, c_out, cols.shape[2])
    grad_w = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)
    return grad_w, grad_out.sum(axis=(0, 2, 3))


def conv2d_backward(x: np.ndarray, p: Conv2dParams, grad_out: np.ndarray,
                    cols: np.ndarray | None = None):
    """Gradients of sum(grad_out * conv2d_forward(x, p)) w.r.t. (x, w, b).

    cols, if given, must be the im2col matrix of x (from _conv_forward_cols);
    it is recomputed otherwise.
    """
    n, c_in, c_out, k, h, w, ho, wo = _conv_geometry(x, p)
    if grad_out.shape != (n, c_out, ho, wo):
        raise InvalidShape(
            f"grad_out shape {grad_out.shape} != {(n, c_out, ho, wo)}"
        )
    if cols is None:
        cols = _im2col(x, k, p.stride, p.pad, ho, wo)
    grad_w, grad_b = _conv_param_grads(cols, grad_out, p.weights.shape)
    s = p.stride
    hp, wp = h + 2 * p.pad, w + 2 * p.pad
    # col2im on the flattened padded plane: with grad rows widened to the
    # padded width wp (zeros past wo), output pixel m = i*wp + j of tap
    # (kh, kw) lands on flat index kh*wp + kw + s*m, so each tap is one add
    # over Ho*wp positions, contiguous at stride 1; the zero columns land
    # harmlessly on later rows or past the plane
    run = ho * wp
    g_rows = np.zeros((n, c_out, ho, wp), dtype=grad_out.dtype)
    g_rows[:, :, :, :wo] = grad_out
    gcols = np.matmul(p.weights.reshape(c_out, c_in * k * k).T,
                      g_rows.reshape(n, c_out, run)).reshape(n, c_in, k * k, run)
    size = max(hp * wp, (k - 1) * (wp + 1) + s * (run - 1) + 1)
    gxp = np.zeros((n, c_in, size), dtype=x.dtype)
    for kh in range(k):
        for kw in range(k):
            at = kh * wp + kw
            gxp[:, :, at : at + s * (run - 1) + 1 : s] += gcols[:, :, kh * k + kw]
    grad_x = gxp[:, :, : hp * wp].reshape(n, c_in, hp, wp)[
        :, :, p.pad : p.pad + h, p.pad : p.pad + w]
    return np.ascontiguousarray(grad_x), grad_w, grad_b


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    if x.shape != grad_out.shape:
        raise InvalidShape(f"relu grad shape {grad_out.shape} != input {x.shape}")
    return np.where(x > 0, grad_out, 0)


def global_avg_pool_forward(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> per-channel means (N, C)."""
    if x.ndim != 4:
        raise InvalidShape(f"pool input must be (N, C, H, W), got {x.shape}")
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(x_shape, grad_out: np.ndarray) -> np.ndarray:
    n, c, h, w = x_shape
    if grad_out.shape != (n, c):
        raise InvalidShape(f"pool grad shape {grad_out.shape} != {(n, c)}")
    scale = grad_out / (h * w)
    return np.broadcast_to(scale[:, :, None, None], (n, c, h, w)).copy()


def linear_forward(x: np.ndarray, p: LinearParams) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != p.weights.shape[1]:
        raise InvalidShape(
            f"linear input {x.shape} does not match weights {p.weights.shape}"
        )
    _record_macs(x.shape[0] * p.weights.shape[0] * p.weights.shape[1])
    return x @ p.weights.T + p.bias


def linear_backward(x: np.ndarray, p: LinearParams, grad_out: np.ndarray):
    if grad_out.shape != (x.shape[0], p.weights.shape[0]):
        raise InvalidShape(
            f"linear grad shape {grad_out.shape} != {(x.shape[0], p.weights.shape[0])}"
        )
    return grad_out @ p.weights, grad_out.T @ x, grad_out.sum(axis=0)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    Softmax uses max-subtraction for stability and the loss is taken as
    log-sum-exp minus the label's logit, so a confidently wrong row gives a
    large finite loss instead of -log(0); labels are class indices.
    """
    if logits.ndim != 2:
        raise InvalidShape(f"logits must be (N, K), got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise InvalidShape(f"labels shape {labels.shape} != ({logits.shape[0]},)")
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"label out of range [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    probs = exp / total
    loss = float((np.log(total[:, 0]) - shifted[np.arange(n), labels]).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1
    grad /= n
    return loss, grad.astype(logits.dtype)


# --- cost accounting ---


def macs_of(layer, input_shape) -> int:
    """Multiply-accumulates of one layer applied to a (C, H, W) frame.

    Shift, relu and pooling are zero; unknown layer kinds are rejected.
    """
    if isinstance(layer, ConvSpec):
        c, h, w = input_shape
        if c != layer.in_ch:
            raise InvalidSpec(f"input has {c} channels, {layer} expects {layer.in_ch}")
        ho, wo = layer.out_hw(h, w)
        if ho < 1 or wo < 1:
            raise InvalidSpec(f"{layer} yields empty output on {input_shape}")
        return layer.out_ch * layer.in_ch * layer.kernel ** 2 * ho * wo
    if isinstance(layer, LinearSpec):
        return layer.out_features * layer.in_features
    if isinstance(layer, ShiftSpec) or layer in ("relu", "pool"):
        return 0
    raise InvalidSpec(f"unknown layer kind {layer!r}")


def params_of(layer) -> int:
    if isinstance(layer, ConvSpec):
        return layer.out_ch * layer.in_ch * layer.kernel ** 2 + layer.out_ch
    if isinstance(layer, LinearSpec):
        return layer.out_features * layer.in_features + layer.out_features
    if isinstance(layer, ShiftSpec) or layer in ("relu", "pool"):
        return 0
    raise InvalidSpec(f"unknown layer kind {layer!r}")
