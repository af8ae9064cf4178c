import numpy as np
import pytest

from tsmkit.errors import CacheMismatch, InvalidShape, InvalidSpec
from tsmkit.net import (
    BlockSpec,
    NetworkSpec,
    consensus_average,
    count_network,
    forward_offline,
    forward_offline_array,
    init_weights,
)
from tsmkit.ops import ConvSpec, count_macs
from tsmkit.shift import ShiftSpec
from tsmkit.stream import (
    cache_footprint_bytes,
    state_nbytes,
    stream_init,
    stream_reset,
    stream_step,
    uni_network_spec,
)
from tsmkit.tensor import ACTIVATION_AXES, FRAME_AXES, Tensor

from helpers import random_network_spec


def conv3(c_in, c_out, **kw):
    return ConvSpec(c_in, c_out, 3, pad=1, **kw)


def uni_block(c=4, n_fwd=1, placement="residual"):
    return BlockSpec(conv3(c, c), conv3(c, c), placement=placement,
                     shift=ShiftSpec(n_fwd, 0, mode="uni"))


def plain_block(c=4):
    return BlockSpec(conv3(c, c), conv3(c, c))


def make_spec(blocks, t=4, hw=6):
    return NetworkSpec(in_channels=1, height=hw, width=hw, frames=t,
                       stem=conv3(1, 4), blocks=tuple(blocks), num_classes=2)


def run_stream(clip, spec, w, state):
    logits, consensus = [], None
    for t in range(clip.extents[1]):
        out, consensus, state = stream_step(
            Tensor(clip.data[:, t], FRAME_AXES), spec, w, state)
        logits.append(out)
    return np.stack(logits, axis=1), consensus, state


# --- init ---


def test_init_one_cache_per_shift_block():
    spec = make_spec([uni_block(), plain_block(), uni_block(), uni_block()])
    state = stream_init(spec)
    assert len(state.caches) == 3
    for cache in state.caches:
        assert not cache.slab.any()
    assert state.frames_seen == 0 and not state.running_sum.any()


def test_init_no_shifts_empty_caches():
    state = stream_init(make_spec([plain_block()]))
    assert state.caches == []


def test_init_rejects_bidirectional_unless_converted():
    spec = make_spec([BlockSpec(conv3(4, 4), conv3(4, 4), placement="residual",
                                shift=ShiftSpec(1, 1))])
    with pytest.raises(InvalidSpec, match="uni_network_spec"):
        stream_init(spec)
    with pytest.warns(UserWarning, match="n_bwd"):
        state = stream_init(uni_network_spec(spec))
    assert len(state.caches) == 1
    with pytest.raises(InvalidSpec):
        stream_init(make_spec([uni_block()]), batch=0)


def test_uni_conversion_rules():
    bi = make_spec([BlockSpec(conv3(4, 4), conv3(4, 4), placement="residual",
                              shift=ShiftSpec(2, 1, padding="circular"))])
    with pytest.warns(UserWarning, match="circular"):
        uni = uni_network_spec(bi)
    s = uni.blocks[0].shift
    assert (s.n_fwd, s.n_bwd, s.padding, s.mode) == (2, 0, "zero", "uni")
    already = make_spec([uni_block()])
    assert uni_network_spec(already) == already  # no warning expected


# --- online/offline equivalence ---


@pytest.mark.parametrize("t", [1, 2, 4, 8])
def test_online_matches_offline_unidirectional(t):
    rng = np.random.default_rng(40 + t)
    spec = random_network_spec(rng, frames=t, uni_only=True, force_shift=True)
    w = init_weights(spec, seed=t)
    clip = Tensor(rng.uniform(
        -1, 1, size=(2, t, spec.in_channels, spec.height, spec.width)
    ).astype(np.float32), ACTIVATION_AXES)
    offline = forward_offline(clip, spec, w).data
    online, consensus, _ = run_stream(clip, spec, w, stream_init(spec, batch=2))
    assert np.max(np.abs(online - offline)) <= 1e-5
    want = consensus_average(offline)
    assert np.max(np.abs(consensus - want)) <= 1e-6


def test_first_frame_sees_zero_history():
    rng = np.random.default_rng(41)
    spec = make_spec([uni_block()], t=1)
    w = init_weights(spec, seed=1)
    clip = Tensor(rng.uniform(-1, 1, size=(1, 1, 1, 6, 6)).astype(np.float32), ACTIVATION_AXES)
    offline = forward_offline(clip, spec, w).data
    logits, _, _ = stream_step(
        Tensor(clip.data[:, 0], FRAME_AXES), spec, w, stream_init(spec))
    assert np.max(np.abs(logits - offline[:, 0])) <= 1e-5


# --- reset and contamination ---


def test_reset_then_replay_is_bit_identical():
    rng = np.random.default_rng(42)
    spec = make_spec([uni_block(), uni_block()])
    w = init_weights(spec, seed=2)
    clip = Tensor(rng.uniform(-1, 1, size=(1, 4, 1, 6, 6)).astype(np.float32), ACTIVATION_AXES)
    state = stream_init(spec)
    first, first_cons, state = run_stream(clip, spec, w, state)
    stream_reset(state)
    second, second_cons, _ = run_stream(clip, spec, w, state)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(first_cons, second_cons)


def test_reset_of_fresh_state_is_noop():
    spec = make_spec([uni_block()])
    w = init_weights(spec, seed=3)
    frame = Tensor(np.ones((1, 1, 6, 6), dtype=np.float32), ("N", "C", "H", "W"))
    a, _, _ = stream_step(frame, spec, w, stream_init(spec))
    b, _, _ = stream_step(frame, spec, w, stream_reset(stream_init(spec)))
    np.testing.assert_array_equal(a, b)


def test_interleaved_streams_contaminate_without_reset():
    rng = np.random.default_rng(43)
    spec = make_spec([uni_block()], t=2)
    w = init_weights(spec, seed=4)
    clip_a, clip_b = (
        Tensor(rng.uniform(-1, 1, size=(1, 2, 1, 6, 6)).astype(np.float32), ACTIVATION_AXES)
        for _ in range(2))
    state = stream_init(spec)
    run_stream(clip_a, spec, w, state)
    dirty, _, _ = run_stream(clip_b, spec, w, state)  # no reset
    clean, _, _ = run_stream(clip_b, spec, w, stream_init(spec))
    assert np.any(dirty[:, 0] != clean[:, 0]), "stale cache must leak into frame 0"


# --- state size and cost ---


def test_state_size_constant_across_steps():
    rng = np.random.default_rng(44)
    spec = make_spec([uni_block(), uni_block(n_fwd=2)], t=8)
    w = init_weights(spec, seed=5)
    state = stream_init(spec)
    size0 = state_nbytes(state)
    assert size0 == cache_footprint_bytes(spec) + state.running_sum.nbytes
    sizes = set()
    for t in range(8):
        frame = Tensor(rng.uniform(-1, 1, size=(1, 1, 6, 6)).astype(np.float32),
                       ("N", "C", "H", "W"))
        _, _, state = stream_step(frame, spec, w, state)
        sizes.add(state_nbytes(state))
    assert sizes == {size0}


def test_cache_footprint_formula():
    spec = make_spec([uni_block(n_fwd=1), plain_block(), uni_block(n_fwd=2)])
    # both shift blocks see 4 channels at 6x6
    assert cache_footprint_bytes(spec) == (1 + 2) * 6 * 6 * 4
    assert cache_footprint_bytes(spec, batch=3) == 3 * (1 + 2) * 6 * 6 * 4
    assert cache_footprint_bytes(make_spec([plain_block()])) == 0


def test_stream_step_macs_equal_shift_free_network():
    rng = np.random.default_rng(45)
    spec = random_network_spec(rng, frames=4, uni_only=True, force_shift=True)
    w = init_weights(spec, seed=6)
    frame = Tensor(rng.uniform(
        -1, 1, size=(1, spec.in_channels, spec.height, spec.width)
    ).astype(np.float32), ("N", "C", "H", "W"))
    state = stream_init(spec)
    with count_macs() as counter:
        stream_step(frame, spec, w, state)
    assert counter.total == count_network(spec).macs_per_frame


# --- long streams ---


@pytest.mark.parametrize("window", [None, 16])
def test_long_stream_matches_offline_in_constant_memory(window):
    # 10^4 frames: no drift in the logits, the running consensus or the
    # state size however long the stream runs
    rng = np.random.default_rng(49)
    t = 10_000
    spec = make_spec([uni_block(), plain_block(), uni_block(n_fwd=2)], t=t)
    w = init_weights(spec, seed=12)
    clip = rng.uniform(-1, 1, size=(1, t, 1, 6, 6)).astype(np.float32)
    offline = forward_offline_array(clip, spec, w)
    state = stream_init(spec, window=window)
    # a full window holds one float64 logit row per frame beside running_sum
    full = state_nbytes(state) + (window or 0) * state.running_sum.nbytes
    logits, sizes = [], set()
    for i in range(t):
        out, consensus, state = stream_step(Tensor(clip[:, i], FRAME_AXES), spec, w, state)
        logits.append(out)
        if i + 1 >= (window or 0):
            sizes.add(state_nbytes(state))
    assert sizes == {full}
    assert np.max(np.abs(np.stack(logits, axis=1) - offline)) <= 1e-5
    if window is None:
        want = consensus_average(offline)
    else:
        want = offline[:, -window:].astype(np.float64).mean(axis=1).astype(np.float32)
    assert np.max(np.abs(consensus - want)) <= 1e-6


# --- windowed consensus ---


def test_windowed_consensus_uses_recent_frames_only():
    rng = np.random.default_rng(46)
    spec = make_spec([uni_block()], t=5)
    w = init_weights(spec, seed=7)
    clip = Tensor(rng.uniform(-1, 1, size=(1, 5, 1, 6, 6)).astype(np.float32), ACTIVATION_AXES)
    for window in (1, 2):
        state = stream_init(spec, window=window)
        logits, consensus, _ = run_stream(clip, spec, w, state)
        want = logits[:, -window:].astype(np.float64).mean(axis=1).astype(np.float32)
        assert np.max(np.abs(consensus - want)) <= 1e-6
    with pytest.raises(InvalidSpec):
        stream_init(spec, window=0)


def test_windowed_consensus_recovers_after_huge_logit():
    # zero head weights make each step's logits equal head.b, set per step;
    # once the 1e17 frame leaves the window the consensus must read 1.0
    spec = make_spec([uni_block()])
    w = init_weights(spec, seed=9)
    w["head.w"][:] = 0.0
    frame = Tensor(np.ones((1, 1, 6, 6), dtype=np.float32), ("N", "C", "H", "W"))
    state = stream_init(spec, window=2)
    seen = []
    for value in [1e17] + [1.0] * 6:
        w["head.b"][:] = value
        _, consensus, state = stream_step(frame, spec, w, state)
        seen.append(consensus)
    np.testing.assert_array_equal(seen[1], np.full((1, 2), 5e16, dtype=np.float32))
    for consensus in seen[2:]:
        np.testing.assert_array_equal(consensus, np.ones((1, 2), dtype=np.float32))


def test_converted_bidirectional_circular_stream_matches_uni_offline():
    # uni_network_spec drops n_bwd and circular padding; streaming the
    # converted spec gives its offline logits, and stepping with the
    # original bi-directional spec is refused by the shift
    rng = np.random.default_rng(47)
    bi = BlockSpec(conv3(4, 4), conv3(4, 4), placement="residual",
                   shift=ShiftSpec(2, 1, padding="circular"))
    spec = make_spec([bi, plain_block(), bi], t=5)
    w = init_weights(spec, seed=10)
    clip = Tensor(rng.uniform(-1, 1, size=(2, 5, 1, 6, 6)).astype(np.float32), ACTIVATION_AXES)
    with pytest.warns(UserWarning, match="circular"):
        uni = uni_network_spec(spec)
    state = stream_init(uni, batch=2)
    with pytest.raises(InvalidSpec):
        stream_step(Tensor(clip.data[:, 0], FRAME_AXES), spec, w, state)
    assert state.frames_seen == 0
    online, consensus, _ = run_stream(clip, uni, w, state)
    offline = forward_offline(clip, uni, w).data
    assert np.max(np.abs(online - offline)) <= 1e-5
    assert np.max(np.abs(consensus - consensus_average(offline))) <= 1e-5


# --- error paths ---


@pytest.mark.parametrize("window", [None, 2])
def test_failed_step_leaves_state_unchanged(window):
    # block 1 of the bad spec wants a 2-channel cache; block 0 has already
    # shifted when block 1 raises, and its cache must not keep the frame
    rng = np.random.default_rng(48)
    spec = make_spec([uni_block(), uni_block()])
    bad = make_spec([uni_block(), uni_block(n_fwd=2)])
    w = init_weights(spec, seed=11)
    frames = [Tensor(rng.uniform(-1, 1, size=(1, 1, 6, 6)).astype(np.float32), FRAME_AXES)
              for _ in range(2)]
    state = stream_init(spec, window=window)
    stream_step(frames[0], spec, w, state)
    slabs = [cache.slab.copy() for cache in state.caches]
    running, recent = state.running_sum.copy(), [k.copy() for k in state.recent]
    with pytest.raises(CacheMismatch):
        stream_step(frames[1], bad, w, state)
    for cache, slab in zip(state.caches, slabs):
        np.testing.assert_array_equal(cache.slab, slab)
    assert state.frames_seen == 1
    np.testing.assert_array_equal(state.running_sum, running)
    assert len(state.recent) == len(recent)
    for kept, want in zip(state.recent, recent):
        np.testing.assert_array_equal(kept, want)
    # the stream carries on as if the failed step never happened
    after, cons_after, _ = stream_step(frames[1], spec, w, state)
    clean = stream_init(spec, window=window)
    stream_step(frames[0], spec, w, clean)
    want, cons_want, _ = stream_step(frames[1], spec, w, clean)
    np.testing.assert_array_equal(after, want)
    np.testing.assert_array_equal(cons_after, cons_want)


def test_stream_step_shape_and_cache_errors():
    spec = make_spec([uni_block()])
    w = init_weights(spec, seed=8)
    state = stream_init(spec)
    bad_c = Tensor(np.zeros((1, 2, 6, 6), dtype=np.float32), ("N", "C", "H", "W"))
    with pytest.raises(InvalidShape):
        stream_step(bad_c, spec, w, state)
    bad_n = Tensor(np.zeros((2, 1, 6, 6), dtype=np.float32), ("N", "C", "H", "W"))
    with pytest.raises(CacheMismatch):
        stream_step(bad_n, spec, w, state)
    hollow = stream_init(make_spec([plain_block()]))
    frame = Tensor(np.zeros((1, 1, 6, 6), dtype=np.float32), ("N", "C", "H", "W"))
    with pytest.raises(CacheMismatch):
        stream_step(frame, spec, w, hollow)
