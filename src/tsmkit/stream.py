"""Streaming inference: frame in, logits and running consensus out.

Offline inference sees a whole clip; here frames arrive one at a time and
each shift-bearing block keeps a small cache holding the forward-shift
channels of the previous frame. Both run the same forward walk
(net.forward_walk) and differ only in the shift. Stepping a frame costs
exactly the MACs of the shift-free 2D network; temporal modeling adds only
the cache copies. A stream takes uni-directional shifts only;
uni_network_spec gives the streaming form of a bi-directional network.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import CacheMismatch, InvalidShape, InvalidSpec
from .net import NetworkSpec, PLACEMENT_NONE, forward_walk
from .shift import MODE_UNI, PAD_ZERO, ShiftCache, ShiftSpec, shift_online_step
from .tensor import FRAME_AXES, Tensor, _require_axes


@dataclass
class StreamState:
    """Mutable per-stream state; one owner, never shared across streams.

    caches holds one entry per block with a placement, in block order.
    running_sum accumulates per-frame logits in float64 so the running
    consensus agrees with the offline consensus to float32 precision.
    window, when set, bounds the consensus to the most recent frames.
    """

    caches: list[ShiftCache]
    running_sum: np.ndarray
    frames_seen: int = 0
    window: int | None = None
    recent: deque = field(default_factory=deque)


def uni_network_spec(spec: NetworkSpec) -> NetworkSpec:
    """Streaming form of a network: forward-shift channels only.

    Backward-shift channels need future frames, which a stream never has,
    so each bi-directional shift keeps n_fwd and drops n_bwd; circular
    padding degrades to zero padding (a stream has no last frame to wrap
    to). Warns once per block whose behavior actually changes.
    """
    blocks = []
    for i, b in enumerate(spec.blocks):
        s = b.shift
        if b.placement == PLACEMENT_NONE or s is None or s.mode == MODE_UNI:
            blocks.append(b)
            continue
        dropped = []
        if s.n_bwd > 0:
            dropped.append(f"n_bwd={s.n_bwd}")
        if s.padding != PAD_ZERO:
            dropped.append(f"{s.padding} padding")
        if dropped:
            warnings.warn(
                f"block {i}: dropping {', '.join(dropped)} for streaming",
                UserWarning,
                stacklevel=2,
            )
        blocks.append(dataclasses.replace(
            b, shift=ShiftSpec(s.n_fwd, 0, padding=PAD_ZERO, mode=MODE_UNI)))
    return dataclasses.replace(spec, blocks=tuple(blocks))


def _shift_blocks(spec: NetworkSpec):
    """(block index, block) for every block that shifts, in order."""
    return [(i, b) for i, b in enumerate(spec.blocks) if b.placement != PLACEMENT_NONE]


def stream_init(spec: NetworkSpec, batch: int = 1,
                window: int | None = None) -> StreamState:
    """Zeroed caches sized from shape inference; strict about modes.

    A bi-directional shift cannot stream and raises InvalidSpec;
    uni_network_spec(spec) is its streaming form, and stream_step then
    takes that converted spec too.
    """
    if batch < 1:
        raise InvalidSpec(f"batch must be >= 1, got {batch}")
    if window is not None and window < 1:
        raise InvalidSpec(f"window must be >= 1, got {window}")
    for i, b in _shift_blocks(spec):
        if b.shift.mode != MODE_UNI:
            raise InvalidSpec(
                f"block {i} shift is bi-directional; streaming needs "
                "uni-directional shifts (convert with uni_network_spec)"
            )
    shapes = spec.stage_shapes()
    caches = [
        ShiftCache.for_stream(batch, b.shift.n_fwd, shapes[i][1], shapes[i][2])
        for i, b in _shift_blocks(spec)
    ]
    running = np.zeros((batch, spec.num_classes), dtype=np.float64)
    return StreamState(caches=caches, running_sum=running, window=window)


def stream_reset(state: StreamState) -> StreamState:
    """Zero every cache and counter; the next stream starts fresh."""
    for cache in state.caches:
        cache.reset()
    state.running_sum[:] = 0.0
    state.frames_seen = 0
    state.recent.clear()
    return state


def stream_step(frame: Tensor, spec: NetworkSpec, store: dict,
                state: StreamState):
    """Advance one frame; returns (logits, running consensus, state).

    The frame runs through net.forward_walk as a one-frame clip. Each
    shift-bearing block shifts in streaming form (forward group from its
    cache, cache updated from this frame); a bi-directional shift raises
    InvalidSpec there.
    """
    _require_axes(frame, FRAME_AXES, "frame")
    n, c, h, w = frame.extents
    if (c, h, w) != (spec.in_channels, spec.height, spec.width):
        raise InvalidShape(
            f"frame shape {frame.extents} does not match network input "
            f"(C={spec.in_channels}, H={spec.height}, W={spec.width})"
        )
    if n != state.running_sum.shape[0]:
        raise CacheMismatch(
            f"state built for batch {state.running_sum.shape[0]}, frame has {n}"
        )
    expected = len(_shift_blocks(spec))
    if len(state.caches) != expected:
        raise CacheMismatch(
            f"state has {len(state.caches)} caches, spec needs {expected}"
        )

    caches = iter(state.caches)

    def online_shift(a, shift):
        shifted, _ = shift_online_step(Tensor(a[:, 0], FRAME_AXES), shift, next(caches))
        return shifted.data[:, None]

    logits = forward_walk(frame.data[:, None], spec, store, online_shift)[:, 0]

    kept = logits.astype(np.float64)
    state.frames_seen += 1
    if state.window is None:
        state.running_sum += kept
        count = state.frames_seen
    else:
        state.recent.append(kept)
        if len(state.recent) > state.window:
            state.recent.popleft()
        # summed afresh each step: subtracting an evicted huge logit cannot
        # restore the small ones that adding it had rounded away
        state.running_sum[:] = sum(state.recent)
        count = len(state.recent)
    consensus = (state.running_sum / count).astype(np.float32)
    return logits, consensus, state


def cache_footprint_bytes(spec: NetworkSpec, batch: int = 1) -> int:
    """Exact cache memory: sum of n_fwd * N * H * W * 4 over shift blocks."""
    shapes = spec.stage_shapes()
    total = 0
    for i, b in _shift_blocks(spec):
        _, h, w = shapes[i]
        total += b.shift.n_fwd * batch * h * w * 4
    return total


def state_nbytes(state: StreamState) -> int:
    """Array payload bytes held by the state; constant across steps."""
    total = int(state.running_sum.nbytes)
    for cache in state.caches:
        total += int(cache.slab.nbytes)
    for kept in state.recent:
        total += int(kept.nbytes)
    return total
