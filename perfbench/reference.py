"""Float64 reference network, written apart from the program.

Convolution is a direct sum over kernel taps (one channel contraction per
tap, no im2col), the temporal shift is two slice assignments, and the
consensus is a plain mean. Only the layer sizes are read from the program's
spec objects; none of its kernels run here.
"""

from __future__ import annotations

import numpy as np


def conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """(N, C, H, W) cross-correlation with bias, summed tap by tap."""
    n, _, h, wd = x.shape
    c_out, _, k, _ = w.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, c_out, ho, wo))
    for kh in range(k):
        for kw in range(k):
            tap = xp[:, :, kh:kh + stride * ho:stride, kw:kw + stride * wo:stride]
            out += np.einsum("oc,nchw->nohw", w[:, :, kh, kw], tap, optimize=True)
    return out + b[None, :, None, None]


def shift(a: np.ndarray, n_fwd: int, n_bwd: int) -> np.ndarray:
    """(N, T, C, H, W) zero-padded shift: first n_fwd channels read t-1, next n_bwd read t+1."""
    out = a.copy()
    out[:, :, :n_fwd + n_bwd] = 0
    out[:, 1:, :n_fwd] = a[:, :-1, :n_fwd]
    out[:, :-1, n_fwd:n_fwd + n_bwd] = a[:, 1:, n_fwd:n_fwd + n_bwd]
    return out


def forward(clip: np.ndarray, spec, weights: dict, causal: bool = False,
            relu_signs: list | None = None) -> np.ndarray:
    """(N, T, C, H, W) clip -> (N, T, K) per-frame logits in float64.

    causal keeps only the forward-shifted channels, which is what a live
    stream can compute. relu_signs, if given, receives which inputs of each
    relu were positive, so a caller can tell whether two forward passes
    sit on the same linear piece.
    """
    w = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
    n, t = clip.shape[:2]

    def frames(a):
        return a.reshape((n * t,) + a.shape[2:])

    def clips(a):
        return a.reshape((n, t) + a.shape[1:])

    def conv_layer(a, c, name):
        return conv(a, w[name + ".w"], w[name + ".b"], c.stride, c.pad)

    def relu(z):
        if relu_signs is not None:
            relu_signs.append(z > 0)
        return np.maximum(z, 0)

    cur = relu(conv_layer(frames(clip.astype(np.float64)), spec.stem, "stem"))
    for i, b in enumerate(spec.blocks):
        name = f"block{i}"
        x = clips(cur)
        if b.placement != "none":
            x = shift(x, b.shift.n_fwd, 0 if causal else b.shift.n_bwd)
        y = relu(conv_layer(frames(x), b.conv1, name + ".conv1"))
        y = relu(conv_layer(y, b.conv2, name + ".conv2"))
        if b.placement == "residual":
            y = y + (cur if b.downsample is None
                     else conv_layer(cur, b.downsample, name + ".down"))
        cur = y
    pooled = cur.mean(axis=(2, 3))
    logits = pooled @ w["head.w"].T + w["head.b"]
    return clips(logits)


def clip_loss(clips: np.ndarray, labels: np.ndarray, spec, weights: dict,
              relu_signs: list | None = None) -> float:
    """Mean softmax cross-entropy of the frame-mean logits, via log-sum-exp."""
    z = forward(clips, spec, weights, relu_signs=relu_signs).mean(axis=1)
    m = z.max(axis=1, keepdims=True)
    log_norm = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return float(np.mean(log_norm - z[np.arange(len(labels)), labels]))
