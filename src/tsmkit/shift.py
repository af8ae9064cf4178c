"""Temporal channel shift: the zero-arithmetic temporal-mixing primitive.

A shift moves a leading group of channels one step forward in time (frame t
receives frame t-1's values), a second group one step backward, and leaves
the rest untouched. Offline clips may shift both ways; a live stream can
only shift forward (the future does not exist yet), which a one-frame cache
per layer turns into a constant-memory state machine.

All variants move data and perform no arithmetic on the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CacheMismatch, InvalidSpec
from .tensor import ACTIVATION_AXES, FRAME_AXES, Tensor, _require_axes

PAD_ZERO = "zero"
PAD_CIRCULAR = "circular"
MODE_BI = "bi"
MODE_UNI = "uni"

@dataclass(frozen=True)
class ShiftSpec:
    """Channel partition and boundary policy for a +/-1 temporal shift.

    ``n_fwd`` channels (the lowest indices) move forward in time, the next
    ``n_bwd`` move backward, the rest stay put. Unidirectional mode forbids
    backward movement and circular wrap-around, since both need future frames.
    """

    n_fwd: int
    n_bwd: int = 0
    padding: str = PAD_ZERO
    mode: str = MODE_BI

    def __post_init__(self):
        if self.n_fwd < 0 or self.n_bwd < 0:
            raise InvalidSpec(f"negative channel count in {self}")
        if self.padding not in (PAD_ZERO, PAD_CIRCULAR):
            raise InvalidSpec(f"unknown padding {self.padding!r}")
        if self.mode not in (MODE_BI, MODE_UNI):
            raise InvalidSpec(f"unknown mode {self.mode!r}")
        if self.mode == MODE_UNI and self.n_bwd != 0:
            raise InvalidSpec("unidirectional shift cannot move channels backward")
        if self.mode == MODE_UNI and self.padding != PAD_ZERO:
            raise InvalidSpec("unidirectional shift requires zero padding")

    def check_channels(self, c: int) -> None:
        if self.n_fwd + self.n_bwd > c:
            raise InvalidSpec(
                f"n_fwd+n_bwd = {self.n_fwd + self.n_bwd} exceeds C = {c}"
            )


def fraction_to_count(c: int, fraction) -> int:
    """floor(C * fraction), exact for Fraction inputs; remainders stay untouched."""
    return math.floor(c * Fraction(fraction))


def spec_from_total_fraction(c, fraction) -> ShiftSpec:
    """Spec whose two groups together cover ``fraction`` of C, split evenly.

    Used by the benchmark sweep: fraction 1 shifts every channel
    (n_fwd = n_bwd = C/2), fraction 0 is the copy-free identity.
    """
    n = fraction_to_count(c, Fraction(fraction) / 2)
    return ShiftSpec(n_fwd=n, n_bwd=n)


def _check_activation(x: Tensor, spec: ShiftSpec) -> None:
    _require_axes(x, ACTIVATION_AXES, "shift")
    spec.check_channels(x.extents[2])


def _move_group(buf: np.ndarray, ch: slice, step: int, circular: bool) -> None:
    """Move channels ``ch`` of an (N, T, C, H, W) buffer one frame, in place.

    step=1: frame t takes frame t-1's values; step=-1: frame t takes t+1's.
    Frames are copied in the order that reads each before it is overwritten;
    the slot left empty takes the wrapped-around frame or zeros.
    """
    t = buf.shape[1]
    empty, wrap = (0, t - 1) if step > 0 else (t - 1, 0)
    edge = buf[:, wrap, ch].copy() if circular else 0
    for dst in (range(t - 1, 0, -1) if step > 0 else range(t - 1)):
        buf[:, dst, ch] = buf[:, dst - step, ch]
    buf[:, empty, ch] = edge


def _shift_groups(buf: np.ndarray, spec: ShiftSpec, direction: int) -> None:
    """The one shift move: n_fwd group by +direction, n_bwd group by -direction.

    direction=1 is the shift, direction=-1 its adjoint (the backward pass).
    Untouched channels are never read or written.
    """
    nf, nb = spec.n_fwd, spec.n_bwd
    circular = spec.padding == PAD_CIRCULAR
    if nf:
        _move_group(buf, slice(0, nf), direction, circular)
    if nb:
        _move_group(buf, slice(nf, nf + nb), -direction, circular)


def _shift_array(a: np.ndarray, spec: ShiftSpec, direction: int = 1) -> np.ndarray:
    """Shift an (N, T, C, H, W) array out-of-place; dtype preserved."""
    out = a.copy()
    _shift_groups(out, spec, direction)
    return out


def _shift_array_adjoint(g: np.ndarray, spec: ShiftSpec) -> np.ndarray:
    """Adjoint shift on an (N, T, C, H, W) array: _shift_array with direction -1."""
    return _shift_array(g, spec, -1)


def _shift_tensor(x: Tensor, spec: ShiftSpec, direction: int) -> Tensor:
    _check_activation(x, spec)
    if spec.n_fwd == 0 and spec.n_bwd == 0:
        return x
    return Tensor(_shift_array(x.data, spec, direction), ACTIVATION_AXES)


def shift_offline(x: Tensor, spec: ShiftSpec) -> Tensor:
    """Shift a whole clip: forward group reads frame t-1, backward group t+1.

    Boundary slots take zeros under zero padding and wrap under circular.
    The input is never modified; the identity spec (no moved channels)
    returns the input tensor itself, copy-free.
    """
    return _shift_tensor(x, spec, 1)


def shift_offline_naive(x: Tensor, spec: ShiftSpec) -> Tensor:
    """Element-by-element reference for shift_offline; no slab copies."""
    _check_activation(x, spec)
    n_total, t_total, c_total, h_total, w_total = x.extents
    nf, nb = spec.n_fwd, spec.n_bwd
    circular = spec.padding == PAD_CIRCULAR
    src = x.data
    out = np.empty_like(src)
    for n in range(n_total):
        for t in range(t_total):
            for c in range(c_total):
                if c < nf:
                    ts = t - 1
                elif c < nf + nb:
                    ts = t + 1
                else:
                    ts = t
                if circular:
                    ts %= t_total
                for h in range(h_total):
                    for w in range(w_total):
                        if 0 <= ts < t_total:
                            out[n, t, c, h, w] = src[n, ts, c, h, w]
                        else:
                            out[n, t, c, h, w] = 0.0
    return Tensor(out, ACTIVATION_AXES)


def shift_adjoint(g: Tensor, spec: ShiftSpec) -> Tensor:
    """Backward operator of shift_offline: each group's direction reversed.

    Satisfies dot(shift_offline(x, s), y) == dot(x, shift_adjoint(y, s)) for
    either padding (the adjoint of a circular shift wraps the opposite way;
    under zero padding, boundary gradients fall off the clip and are dropped).
    Equivalently: the direction-swapped shift on the same channel groups.
    """
    return _shift_tensor(g, spec, -1)


def shift_inplace(x: Tensor, spec: ShiftSpec) -> None:
    """Shift a clip inside its own buffer, touching only the moved groups.

    Untouched channels are never read or written, so the traffic is exactly
    what bytes_moved() reports. Circular padding stashes one boundary slab
    per direction before overwriting it.
    """
    _check_activation(x, spec)
    _shift_groups(x.data, spec, 1)


def bytes_moved(spec: ShiftSpec, shape) -> int:
    """Predicted data movement of shifting, in bytes.

    ``shape`` is (N, C, T, H, W). Counts one 4-byte read plus one 4-byte
    write per element of each moved channel group, the traffic of the
    in-buffer strategy (shift_inplace), which never touches the untouched
    channels. The identity spec moves nothing.
    """
    n, c, t, h, w = (int(v) for v in shape)
    if min(n, c, t, h, w) < 1:
        raise InvalidSpec(f"invalid shape {shape}")
    spec.check_channels(c)
    return 2 * (spec.n_fwd + spec.n_bwd) * n * t * h * w * 4


@dataclass
class ShiftCache:
    """One stream's per-layer state: the previous frame's forward-group slab."""

    slab: np.ndarray

    @classmethod
    def for_stream(cls, n: int, n_fwd: int, h: int, w: int) -> "ShiftCache":
        return cls(slab=np.zeros((n, n_fwd, h, w), dtype=np.float32))

    def reset(self) -> None:
        self.slab[:] = 0


def shift_online_step(frame: Tensor, spec: ShiftSpec, state: ShiftCache):
    """Uni-directional shift of one live frame against the layer cache.

    The output's forward-group channels are replaced by the cached slab
    (zeros before the first frame); the cache then holds this frame's
    forward group. Streaming a clip this way reproduces the offline
    unidirectional shift exactly.
    """
    if spec.mode != MODE_UNI:
        raise InvalidSpec("online shift requires a unidirectional spec")
    _require_axes(frame, FRAME_AXES, "shift_online_step")
    n, c, h, w = frame.extents
    nf = spec.n_fwd
    if c < nf:
        raise CacheMismatch(f"frame has C={c} < n_fwd={nf}")
    if state.slab.shape != (n, nf, h, w):
        raise CacheMismatch(
            f"cache slab {state.slab.shape} does not match frame ({n}, {nf}, {h}, {w})"
        )
    out = frame.data.copy()
    incoming = frame.data[:, :nf].copy()
    out[:, :nf] = state.slab
    state.slab = incoming
    return Tensor(out, FRAME_AXES), state
