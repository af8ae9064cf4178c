import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tsmkit.errors import CacheMismatch, InvalidSpec
from tsmkit.shift import (
    ShiftCache,
    ShiftSpec,
    bytes_moved,
    fraction_to_count,
    shift_adjoint,
    shift_inplace,
    shift_offline,
    shift_offline_naive,
    shift_online_step,
    spec_from_total_fraction,
)
from tsmkit.tensor import (
    FRAME_AXES,
    Tensor,
    activation,
    reverse_time,
)

from helpers import random_activation, random_frame, random_shape


@st.composite
def clip_and_spec(draw, paddings=("zero", "circular")):
    n = draw(st.integers(1, 2))
    t = draw(st.integers(1, 8))
    c = draw(st.integers(1, 16))
    h = draw(st.integers(1, 4))
    w = draw(st.integers(1, 4))
    data = draw(arrays(np.float32, (n, t, c, h, w), elements=st.floats(-8, 8, width=32)))
    nf = draw(st.integers(0, c))
    nb = draw(st.integers(0, c - nf))
    spec = ShiftSpec(nf, nb, padding=draw(st.sampled_from(paddings)))
    return activation(data), spec


def ramp_clip():
    # x[c][t] = 10c + t, C=4, T=3, N=H=W=1
    data = np.zeros((1, 3, 4, 1, 1), dtype=np.float32)
    for c in range(4):
        for t in range(3):
            data[0, t, c, 0, 0] = 10 * c + t
    return activation(data)


def channel_series(x, c):
    return x.data[0, :, c, 0, 0].tolist()


def test_shift_spec_validation():
    with pytest.raises(InvalidSpec):
        ShiftSpec(-1, 0)
    with pytest.raises(InvalidSpec):
        ShiftSpec(1, 1, mode="uni")
    with pytest.raises(InvalidSpec):
        ShiftSpec(1, 0, padding="circular", mode="uni")
    with pytest.raises(InvalidSpec):
        ShiftSpec(1, 0, padding="reflect")
    with pytest.raises(InvalidSpec):
        ShiftSpec(1, 0, mode="offline")
    spec = ShiftSpec(2, 2)
    with pytest.raises(InvalidSpec):
        spec.check_channels(3)


def test_fraction_resolution():
    assert fraction_to_count(64, "1/8") == 8
    assert fraction_to_count(7, "1/8") == 0
    assert fraction_to_count(9, "1/3") == 3
    full = spec_from_total_fraction(64, 1)
    assert (full.n_fwd, full.n_bwd) == (32, 32)
    assert spec_from_total_fraction(64, "1/8") == ShiftSpec(4, 4)


def test_shift_values_match_worked_example():
    out = shift_offline(ramp_clip(), ShiftSpec(1, 1))
    assert channel_series(out, 0) == [0.0, 0.0, 1.0]
    assert channel_series(out, 1) == [11.0, 12.0, 0.0]
    assert channel_series(out, 2) == [20.0, 21.0, 22.0]
    assert channel_series(out, 3) == [30.0, 31.0, 32.0]


def test_shift_identity_is_copy_free():
    x = ramp_clip()
    out = shift_offline(x, ShiftSpec(0, 0))
    assert out is x


def test_shift_does_not_modify_input():
    x = ramp_clip()
    before = x.data.copy()
    shift_offline(x, ShiftSpec(2, 1))
    np.testing.assert_array_equal(x.data, before)


def test_shift_rejects_oversized_groups():
    x = ramp_clip()
    with pytest.raises(InvalidSpec):
        shift_offline(x, ShiftSpec(3, 2))


def test_naive_circular_two_frames():
    data = np.zeros((1, 2, 1, 1, 1), dtype=np.float32)
    data[0, 0, 0], data[0, 1, 0] = 5.0, 9.0
    out = shift_offline_naive(activation(data), ShiftSpec(1, 0, padding="circular"))
    assert channel_series(out, 0) == [9.0, 5.0]


def test_naive_zero_input():
    x = activation(np.zeros((1, 4, 6, 2, 2), dtype=np.float32))
    out = shift_offline_naive(x, ShiftSpec(2, 2))
    assert not out.data.any()


def test_oracle_equivalence_fixed_case():
    rng = np.random.default_rng(11)
    x = random_activation(rng, n=1, t=4, c=8, h=2, w=2)
    spec = ShiftSpec(2, 2)
    np.testing.assert_array_equal(
        shift_offline(x, spec).data, shift_offline_naive(x, spec).data
    )


@settings(max_examples=80, deadline=None)
@given(clip_and_spec())
def test_oracle_equivalence_property(pair):
    x, spec = pair
    np.testing.assert_array_equal(
        shift_offline(x, spec).data, shift_offline_naive(x, spec).data
    )


@settings(max_examples=60, deadline=None)
@given(clip_and_spec())
def test_inplace_matches_offline(pair):
    x, spec = pair
    want = shift_offline(x, spec).data.copy()
    shift_inplace(x, spec)
    np.testing.assert_array_equal(x.data, want)


@settings(max_examples=40, deadline=None)
@given(clip_and_spec(paddings=("zero",)), st.sampled_from([-1.0, 0.0, 1.0]),
       st.sampled_from([-1.0, 0.0, 1.0]))
def test_shift_linearity_exact_coeffs(pair, a, b):
    x, spec = pair
    rng = np.random.default_rng(4)
    y = random_activation(rng, *x.extents)
    a32, b32 = np.float32(a), np.float32(b)
    combo = activation(a32 * x.data + b32 * y.data)
    lhs = shift_offline(combo, spec).data
    rhs = a32 * shift_offline(x, spec).data + b32 * shift_offline(y, spec).data
    np.testing.assert_array_equal(lhs, rhs)


def test_shift_linearity_general_coeffs():
    rng = np.random.default_rng(5)
    x = random_activation(rng, n=2, t=5, c=8, h=3, w=3)
    y = random_activation(rng, n=2, t=5, c=8, h=3, w=3)
    spec = ShiftSpec(2, 3)
    a, b = np.float32(0.73), np.float32(-1.91)
    lhs = shift_offline(activation(a * x.data + b * y.data), spec).data
    rhs = a * shift_offline(x, spec).data + b * shift_offline(y, spec).data
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_adjoint_of_identity_is_identity():
    x = ramp_clip()
    assert shift_adjoint(x, ShiftSpec(0, 0)) is x


def test_adjoint_single_forward_channel():
    # one fwd channel, T=3: gradient moves one step earlier; t=0's falls off
    g = activation(np.arange(3, dtype=np.float32).reshape(1, 3, 1, 1, 1) + 1)
    out = shift_adjoint(g, ShiftSpec(1, 0))
    assert channel_series(out, 0) == [2.0, 3.0, 0.0]


@settings(max_examples=80, deadline=None)
@given(clip_and_spec())
def test_adjoint_inner_product_identity(pair):
    x, spec = pair
    rng = np.random.default_rng(9)
    y = random_activation(rng, *x.extents)
    f64 = np.float64
    lhs = float(np.vdot(shift_offline(x, spec).data.astype(f64), y.data.astype(f64)))
    rhs = float(np.vdot(x.data.astype(f64), shift_adjoint(y, spec).data.astype(f64)))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@settings(max_examples=60, deadline=None)
@given(clip_and_spec(paddings=("zero",)))
def test_time_reversal_symmetry(pair):
    # reverse . shift . reverse == direction-swapped shift (zero padding)
    x, spec = pair
    lhs = reverse_time(shift_offline(reverse_time(x), spec))
    rhs = shift_adjoint(x, spec)
    np.testing.assert_array_equal(lhs.data, rhs.data)


@settings(max_examples=60, deadline=None)
@given(clip_and_spec(paddings=("circular",)))
def test_circular_preserves_value_multisets(pair):
    x, spec = pair
    out = shift_offline(x, spec)
    for n in range(x.extents[0]):
        for c in range(x.extents[2]):
            np.testing.assert_array_equal(
                np.sort(out.data[n, :, c], axis=None),
                np.sort(x.data[n, :, c], axis=None),
            )


@settings(max_examples=60, deadline=None)
@given(clip_and_spec())
def test_shift_only_moves_bit_patterns(pair):
    # pure data movement: every output word is an input word or literal zero
    x, spec = pair
    out = shift_offline(x, spec)
    seen = set(x.data.view(np.uint32).ravel().tolist())
    seen.add(0)
    assert set(out.data.view(np.uint32).ravel().tolist()) <= seen


def test_online_first_frame_reads_zeros():
    rng = np.random.default_rng(21)
    f = random_activation(rng, n=1, t=1, c=4, h=2, w=2)
    frame = Tensor(f.data[:, 0], FRAME_AXES)
    spec = ShiftSpec(2, 0, mode="uni")
    cache = ShiftCache.for_stream(1, 2, 2, 2)
    out, cache = shift_online_step(frame, spec, cache)
    assert not out.data[:, :2].any()
    np.testing.assert_array_equal(out.data[:, 2:], frame.data[:, 2:])
    np.testing.assert_array_equal(cache.slab, frame.data[:, :2])


def test_online_second_frame_reads_first():
    rng = np.random.default_rng(22)
    x = random_activation(rng, n=1, t=2, c=2, h=2, w=2)
    f1, f2 = Tensor(x.data[:, 0], FRAME_AXES), Tensor(x.data[:, 1], FRAME_AXES)
    spec = ShiftSpec(1, 0, mode="uni")
    cache = ShiftCache.for_stream(1, 1, 2, 2)
    _, cache = shift_online_step(f1, spec, cache)
    out2, _ = shift_online_step(f2, spec, cache)
    np.testing.assert_array_equal(out2.data[:, 0], f1.data[:, 0])


def test_online_stream_equals_offline():
    rng = np.random.default_rng(23)
    x = random_activation(rng, n=2, t=5, c=8, h=3, w=3)
    spec = ShiftSpec(3, 0, mode="uni")
    cache = ShiftCache.for_stream(2, 3, 3, 3)
    outs = []
    for t in range(5):
        out, cache = shift_online_step(Tensor(x.data[:, t], FRAME_AXES), spec, cache)
        outs.append(out.data)
    offline = shift_offline(x, spec)
    np.testing.assert_array_equal(np.stack(outs, axis=1), offline.data)


def test_online_rejects_bidirectional_and_mismatch():
    f = random_frame(np.random.default_rng(0))
    cache = ShiftCache.for_stream(1, 1, 3, 3)
    with pytest.raises(InvalidSpec):
        shift_online_step(f, ShiftSpec(1, 1), cache)
    bad_cache = ShiftCache.for_stream(1, 1, 5, 5)
    with pytest.raises(CacheMismatch):
        shift_online_step(f, ShiftSpec(1, 0, mode="uni"), bad_cache)
    thin = random_frame(np.random.default_rng(0), c=2)
    wide_cache = ShiftCache.for_stream(1, 4, 3, 3)
    with pytest.raises(CacheMismatch):
        shift_online_step(thin, ShiftSpec(4, 0, mode="uni"), wide_cache)


def test_cache_reset_zeroes_slab():
    cache = ShiftCache.for_stream(1, 2, 2, 2)
    cache.slab[:] = 3.0
    cache.reset()
    assert not cache.slab.any()


def test_bytes_moved_values():
    assert bytes_moved(ShiftSpec(0, 0), (1, 4, 3, 2, 2)) == 0
    assert bytes_moved(ShiftSpec(8, 8), (1, 64, 8, 56, 56)) == 2 * 16 * 1 * 8 * 56 * 56 * 4
    assert bytes_moved(ShiftSpec(8, 8), (1, 64, 8, 56, 56)) == 3_211_264
    # full shift moves the whole activation twice (read + write)
    full = bytes_moved(ShiftSpec(2, 2), (1, 4, 3, 2, 2))
    assert full == 2 * 4 * (1 * 4 * 3 * 2 * 2)
    with pytest.raises(InvalidSpec):
        bytes_moved(ShiftSpec(3, 2), (1, 4, 3, 2, 2))
    with pytest.raises(InvalidSpec):
        bytes_moved(ShiftSpec(1, 0), (1, 4, 0, 2, 2))


def test_bytes_moved_linear_in_moved_channels():
    shape = (1, 32, 4, 5, 5)
    base = bytes_moved(ShiftSpec(1, 0), shape)
    for nf in range(0, 16):
        for nb in range(0, 16):
            assert bytes_moved(ShiftSpec(nf, nb), shape) == (nf + nb) * base


def test_random_oracle_sweep():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n, t, c, h, w = random_shape(rng)
        x = random_activation(rng, n, t, c, h, w)
        nf = int(rng.integers(0, c + 1))
        nb = int(rng.integers(0, c - nf + 1))
        pad = "circular" if rng.integers(2) else "zero"
        spec = ShiftSpec(nf, nb, padding=pad)
        np.testing.assert_array_equal(
            shift_offline(x, spec).data, shift_offline_naive(x, spec).data
        )
