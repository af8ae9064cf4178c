import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmkit.errors import FormatError, InvalidShape, InvalidSpec
from tsmkit.net import (
    BlockSpec,
    NetworkSpec,
    block_forward_array,
    check_weights,
    consensus_average,
    count_network,
    forward_offline,
    init_weights,
    load_spec,
    load_weights,
    save_spec,
    save_weights,
    weight_shapes,
    with_placements_none,
    with_zero_shifts,
)
from tsmkit.ops import Conv2dParams, ConvSpec, conv2d_forward, relu_forward
from tsmkit.shift import ShiftSpec, shift_offline
from tsmkit.tensor import Tensor, activation

from helpers import random_network_spec


def conv3(c_in, c_out, **kw):
    return ConvSpec(c_in, c_out, 3, pad=1, **kw)


def simple_block(placement="none", shift=None, c=4):
    return BlockSpec(conv3(c, c), conv3(c, c), placement=placement, shift=shift)


def tiny_spec(blocks, c_in=1, hw=6, t=4, classes=2):
    return NetworkSpec(
        in_channels=c_in, height=hw, width=hw, frames=t,
        stem=conv3(c_in, 4), blocks=tuple(blocks), num_classes=classes,
    )


# --- spec validation ---


def test_block_spec_validation():
    with pytest.raises(InvalidSpec):
        simple_block(placement="trunk")
    with pytest.raises(InvalidSpec):
        BlockSpec(conv3(4, 8), conv3(4, 8))  # chain mismatch
    with pytest.raises(InvalidSpec):
        simple_block(placement="residual")  # no shift
    with pytest.raises(InvalidSpec):
        simple_block(placement="inplace", shift=ShiftSpec(3, 3))  # > 4 channels
    with pytest.raises(InvalidSpec):
        BlockSpec(conv3(4, 4), conv3(4, 4), placement="residual",
                  shift=ShiftSpec(1), downsample=ConvSpec(4, 4, 3))  # not 1x1
    with pytest.raises(InvalidSpec):
        BlockSpec(conv3(4, 4), conv3(4, 4), placement="residual",
                  shift=ShiftSpec(1), downsample=ConvSpec(8, 4, 1))


def test_network_spec_validation():
    with pytest.raises(InvalidSpec):
        tiny_spec([], classes=1)
    with pytest.raises(InvalidSpec):
        NetworkSpec(in_channels=3, height=6, width=6, frames=4,
                    stem=conv3(1, 4), blocks=(), num_classes=2)
    with pytest.raises(InvalidSpec):
        tiny_spec([simple_block(c=8)])  # block expects 8 channels, stem gives 4
    with pytest.raises(InvalidSpec):
        # residual across a channel change without downsample
        tiny_spec([BlockSpec(conv3(4, 8), conv3(8, 8),
                             placement="residual", shift=ShiftSpec(1))])
    spec = tiny_spec([BlockSpec(conv3(4, 8), conv3(8, 8), placement="residual",
                                shift=ShiftSpec(1), downsample=ConvSpec(4, 8, 1))])
    assert spec.stage_shapes() == [(4, 6, 6), (8, 6, 6)]


def test_stage_shapes_with_stride():
    spec = tiny_spec([
        BlockSpec(ConvSpec(4, 8, 3, stride=2, pad=1), conv3(8, 8),
                  placement="residual", shift=ShiftSpec(1),
                  downsample=ConvSpec(4, 8, 1, stride=2)),
    ], hw=8)
    assert spec.stage_shapes() == [(4, 8, 8), (8, 4, 4)]
    assert spec.head_spec().in_features == 8


# --- block forward semantics ---


def rand_store(spec, seed=0):
    return init_weights(spec, seed=seed)


def block_store(rng, b, name="block0"):
    """Weights for a lone block, uniform random."""
    store = {}
    for conv, key in ((b.conv1, ".conv1"), (b.conv2, ".conv2"),
                      (b.downsample, ".down")):
        if conv is None:
            continue
        store[name + key + ".w"] = rng.uniform(
            -0.5, 0.5, size=(conv.out_ch, conv.in_ch, conv.kernel, conv.kernel)
        ).astype(np.float32)
        store[name + key + ".b"] = rng.uniform(
            -0.5, 0.5, size=(conv.out_ch,)).astype(np.float32)
    return store


def hand_block(x, b, store, name="block0"):
    """shift -> conv -> relu -> conv -> relu -> add, composed by hand."""
    def conv_frames(clip, cspec, key):
        p = Conv2dParams(store[name + key + ".w"], store[name + key + ".b"],
                         cspec.stride, cspec.pad)
        n, t = clip.shape[:2]
        flat = clip.reshape((n * t,) + clip.shape[2:])
        out = conv2d_forward(flat, p)
        return out.reshape((n, t) + out.shape[1:])

    branch_in = shift_offline(x, b.shift).data if b.placement != "none" else x.data
    h = relu_forward(conv_frames(branch_in, b.conv1, ".conv1"))
    y = relu_forward(conv_frames(h, b.conv2, ".conv2"))
    if b.placement == "residual":
        skip = (conv_frames(x.data, b.downsample, ".down")
                if b.downsample is not None else x.data)
        y = skip + y
    return y


@pytest.mark.parametrize("placement", ["none", "inplace", "residual"])
def test_block_forward_matches_hand_composition(placement):
    rng = np.random.default_rng(20)
    shift = ShiftSpec(1, 1) if placement != "none" else None
    b = simple_block(placement=placement, shift=shift, c=4)
    store = block_store(rng, b)
    x = activation(rng.uniform(-1, 1, size=(2, 4, 4, 5, 5)).astype(np.float32))
    got = block_forward_array(x.data, b, store, "block0")
    np.testing.assert_array_equal(got, hand_block(x, b, store))


def test_block_identity_shift_collapses_to_plain_residual():
    rng = np.random.default_rng(21)
    b_zero = simple_block(placement="residual", shift=ShiftSpec(0, 0), c=4)
    store = block_store(rng, b_zero)
    x = activation(rng.uniform(-1, 1, size=(1, 4, 4, 5, 5)).astype(np.float32))
    got = block_forward_array(x.data, b_zero, store, "block0")
    # same thing assembled without any shift in the path
    b_plain = simple_block(placement="none", c=4)
    branch = block_forward_array(x.data, b_plain, store, "block0")
    np.testing.assert_array_equal(got, x.data + branch)


def test_block_zero_branch_preserves_input():
    b = simple_block(placement="residual", shift=ShiftSpec(1, 1), c=4)
    store = {}
    for key in ("block0.conv1", "block0.conv2"):
        store[key + ".w"] = np.zeros((4, 4, 3, 3), dtype=np.float32)
        store[key + ".b"] = np.zeros(4, dtype=np.float32)
    rng = np.random.default_rng(22)
    x = activation(rng.uniform(-1, 1, size=(1, 3, 4, 5, 5)).astype(np.float32))
    y = block_forward_array(x.data, b, store, "block0")
    np.testing.assert_array_equal(y, x.data)


def test_block_shape_mismatch_raises():
    rng = np.random.default_rng(23)
    b = simple_block(c=4)
    store = block_store(rng, b)
    x = activation(np.zeros((1, 2, 8, 5, 5), dtype=np.float32))
    with pytest.raises(InvalidShape):
        block_forward_array(x.data, b, store, "block0")


# --- full network forward ---


def test_forward_single_frame_zero_padding_finite():
    rng = np.random.default_rng(24)
    spec = tiny_spec([simple_block(placement="residual", shift=ShiftSpec(1, 1))], t=1)
    w = rand_store(spec)
    clip = activation(rng.uniform(-1, 1, size=(2, 1, 1, 6, 6)).astype(np.float32))
    out = forward_offline(clip, spec, w)
    assert out.extents == (2, 1, 2)
    assert np.isfinite(out.data).all()
    np.testing.assert_array_equal(out.data, forward_offline(clip, spec, w).data)


def test_forward_shape_mismatch():
    spec = tiny_spec([simple_block()])
    w = rand_store(spec)
    clip = activation(np.zeros((1, 3, 1, 6, 6), dtype=np.float32))  # T=3, spec wants 4
    with pytest.raises(InvalidShape):
        forward_offline(clip, spec, w)


def test_shift_free_frames_are_independent():
    rng = np.random.default_rng(25)
    spec = tiny_spec([simple_block(), simple_block()])
    w = rand_store(spec)
    base = rng.uniform(-1, 1, size=(1, 4, 1, 6, 6)).astype(np.float32)
    ref = forward_offline(activation(base), spec, w).data
    poked = base.copy()
    poked[0, 2] += 0.5
    out = forward_offline(activation(poked), spec, w).data
    for t in (0, 1, 3):
        np.testing.assert_array_equal(out[0, t], ref[0, t])
    assert np.any(out[0, 2] != ref[0, 2])


def test_temporal_receptive_field_grows_with_shift_layers():
    rng = np.random.default_rng(26)
    shifted = simple_block(placement="residual", shift=ShiftSpec(1, 1))
    for k in (1, 2):
        blocks = [shifted] * k + [simple_block()]
        spec = tiny_spec(blocks, t=6)
        w = rand_store(spec, seed=k)
        base = rng.uniform(-1, 1, size=(1, 6, 1, 6, 6)).astype(np.float32)
        ref = forward_offline(activation(base), spec, w).data
        poked = base.copy()
        poked[0, 0] += 0.5
        out = forward_offline(activation(poked), spec, w).data
        assert np.any(out[0, 1] != ref[0, 1]), "one step away must react"
        # beyond k steps of +-1 shift, frame 0 cannot reach
        for t in range(k + 1, 6):
            np.testing.assert_array_equal(out[0, t], ref[0, t])


def test_degenerate_shifts_match_shift_free_network():
    rng = np.random.default_rng(27)
    for trial in range(5):
        spec = random_network_spec(rng, force_shift=True)
        w = rand_store(spec, seed=trial)
        clip = activation(rng.uniform(
            -1, 1, size=(1, spec.frames, spec.in_channels,
                         spec.height, spec.width)).astype(np.float32))
        zeroed = with_zero_shifts(spec)
        a = forward_offline(clip, spec, w).data
        b = forward_offline(clip, zeroed, w).data
        if any(blk.shift is not None and
               blk.shift.n_fwd + blk.shift.n_bwd > 0 and blk.placement != "none"
               for blk in spec.blocks):
            assert np.any(a != b), "real shifts must change something"
        # the zero-shift run is the plain 2D network: frame-permutation
        # of the input permutes the logits identically
        perm = rng.permutation(spec.frames)
        permuted = activation(clip.data[:, perm])
        np.testing.assert_array_equal(
            forward_offline(permuted, zeroed, w).data, b[:, perm])


# --- consensus ---


def test_consensus_examples():
    one = np.array([[[3.0, 7.0]]], dtype=np.float32)
    np.testing.assert_array_equal(consensus_average(one), [[3.0, 7.0]])
    two = np.array([[[1.0, 3.0], [3.0, 1.0]]], dtype=np.float32)
    np.testing.assert_array_equal(consensus_average(two), [[2.0, 2.0]])
    with pytest.raises(InvalidShape):
        consensus_average(np.zeros((2, 4), dtype=np.float32))


def test_consensus_tensor_in_tensor_out():
    logits = Tensor(np.ones((2, 3, 4), dtype=np.float32), ("N", "T", "C"))
    out = consensus_average(logits)
    assert isinstance(out, Tensor) and out.labels == ("N", "C")
    np.testing.assert_array_equal(out.data, np.ones((2, 4), dtype=np.float32))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7), st.integers(1, 3), st.integers(1, 4),
    st.integers(0, 2 ** 32 - 1),
)
def test_consensus_is_permutation_invariant_bitwise(t, n, k, seed):
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-5, 5, size=(n, t, k)).astype(np.float32)
    perm = rng.permutation(t)
    a = consensus_average(logits)
    b = consensus_average(logits[:, perm])
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.float32


def test_consensus_matches_plain_mean():
    rng = np.random.default_rng(28)
    logits = rng.uniform(-5, 5, size=(2, 9, 3)).astype(np.float32)
    got = consensus_average(logits)
    np.testing.assert_allclose(got, logits.astype(np.float64).mean(axis=1),
                               rtol=0, atol=1e-6)


# --- weight store ---


def test_init_weights_deterministic_and_bounded():
    spec = tiny_spec([simple_block(placement="inplace", shift=ShiftSpec(1))])
    a = init_weights(spec, seed=7)
    b = init_weights(spec, seed=7)
    c = init_weights(spec, seed=8)
    assert set(a) == set(weight_shapes(spec))
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
        assert a[name].dtype == np.float32
    assert any(np.any(a[n] != c[n]) for n in a)
    bound = np.sqrt(1.0 / (4 * 9))  # block conv fan-in
    assert np.max(np.abs(a["block0.conv1.w"])) <= bound


def test_check_weights_errors():
    spec = tiny_spec([simple_block()])
    w = init_weights(spec)
    check_weights(spec, w)
    missing = dict(w)
    del missing["block0.conv2.b"]
    with pytest.raises(InvalidSpec):
        check_weights(spec, missing)
    wrong = dict(w)
    wrong["stem.w"] = wrong["stem.w"][:, :, :2, :2]
    with pytest.raises(InvalidSpec):
        check_weights(spec, wrong)
    extra = dict(w)
    extra["stray"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(InvalidSpec):
        check_weights(spec, extra)


# --- weight file round-trip and corruption ---


def test_weights_round_trip(tmp_path):
    spec = tiny_spec([simple_block(placement="residual", shift=ShiftSpec(1, 1))])
    w = init_weights(spec, seed=3)
    path = tmp_path / "w.tsmw"
    save_weights(w, path)
    back = load_weights(path)
    assert set(back) == set(w)
    for name in w:
        np.testing.assert_array_equal(back[name], w[name])
        assert back[name].dtype == np.float32


def test_weights_save_is_byte_stable(tmp_path):
    w = {"b": np.ones((2, 3), dtype=np.float32), "a": np.zeros(4, dtype=np.float32)}
    p1, p2 = tmp_path / "1.tsmw", tmp_path / "2.tsmw"
    save_weights(w, p1)
    save_weights({"a": w["a"], "b": w["b"]}, p2)  # different insertion order
    assert p1.read_bytes() == p2.read_bytes()


def corrupt(raw: bytes, how: str) -> bytes:
    if how == "magic":
        return b"XSMW" + raw[4:]
    if how == "version":
        return raw[:4] + b"\x09" + raw[5:]
    if how == "truncated":
        return raw[:-3]
    if how == "trailing":
        return raw + b"\x00\x00"
    raise AssertionError(how)


@pytest.mark.parametrize("how,offset", [
    ("magic", 0), ("version", 4), ("truncated", None), ("trailing", None),
])
def test_weights_corruption(tmp_path, how, offset):
    w = {"head.w": np.ones((2, 5), dtype=np.float32)}
    path = tmp_path / "w.tsmw"
    save_weights(w, path)
    bad = tmp_path / f"bad_{how}.tsmw"
    bad.write_bytes(corrupt(path.read_bytes(), how))
    with pytest.raises(FormatError) as exc:
        load_weights(bad)
    assert str(bad) in str(exc.value)
    if offset is not None:
        assert exc.value.offset == offset


def test_weights_duplicate_and_zero_extent(tmp_path):
    import struct
    name = b"x"
    entry = struct.pack("<H", 1) + name + struct.pack("<B", 1) + struct.pack("<Q", 1)
    entry += struct.pack("<f", 2.0)
    blob = struct.pack("<4sBI", b"TSMW", 1, 2) + entry + entry
    dup = tmp_path / "dup.tsmw"
    dup.write_bytes(blob)
    with pytest.raises(FormatError):
        load_weights(dup)
    zero = struct.pack("<4sBI", b"TSMW", 1, 1)
    zero += struct.pack("<H", 1) + name + struct.pack("<B", 1) + struct.pack("<Q", 0)
    zpath = tmp_path / "zero.tsmw"
    zpath.write_bytes(zero)
    with pytest.raises(FormatError):
        load_weights(zpath)


def test_weights_empty_store_round_trips(tmp_path):
    path = tmp_path / "empty.tsmw"
    save_weights({}, path)
    assert load_weights(path) == {}


# --- spec JSON ---


def full_spec():
    return tiny_spec([
        BlockSpec(conv3(4, 4), conv3(4, 4), placement="residual",
                  shift=ShiftSpec(1, 1, padding="circular")),
        BlockSpec(ConvSpec(4, 8, 3, stride=2, pad=1), conv3(8, 8),
                  placement="inplace", shift=ShiftSpec(1, 0, mode="uni")),
    ], hw=8)


def test_spec_round_trip(tmp_path):
    spec = full_spec()
    path = tmp_path / "net.json"
    save_spec(spec, path)
    assert load_spec(path) == spec


def test_spec_defaults(tmp_path):
    obj = {
        "input": {"c": 1, "h": 6, "w": 6, "t": 4},
        "stem": {"in": 1, "out": 4, "k": 3},
        "blocks": [{
            "conv1": {"in": 4, "out": 4, "k": 3},
            "conv2": {"in": 4, "out": 4, "k": 3},
            "placement": "inplace",
            "shift": {"n_fwd": 1},
        }],
        "head": {"classes": 2},
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(obj))
    spec = load_spec(path)
    assert spec.stem.stride == 1 and spec.stem.pad == 1  # pad defaults to k//2
    s = spec.blocks[0].shift
    assert (s.n_bwd, s.padding, s.mode) == (0, "zero", "bi")


@pytest.mark.parametrize("mutate", [
    lambda o: o.__setitem__("extra", 1),
    lambda o: o["input"].__setitem__("fps", 30),
    lambda o: o["stem"].__setitem__("dilation", 2),
    lambda o: o["blocks"][0].__setitem__("norm", "batch"),
    lambda o: o["blocks"][0]["shift"].__setitem__("step", 2),
    lambda o: o["head"].__setitem__("bias", True),
    lambda o: o.pop("stem"),
    lambda o: o["input"].pop("t"),
    lambda o: o["blocks"][0].pop("shift"),
    lambda o: o["input"].__setitem__("c", True),
    lambda o: o["input"].__setitem__("c", "one"),
    lambda o: o.__setitem__("blocks", {"0": {}}),
])
def test_spec_bad_documents_rejected(tmp_path, mutate):
    import copy
    from tsmkit.net import spec_to_json
    obj = copy.deepcopy(spec_to_json(full_spec()))
    mutate(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InvalidSpec):
        load_spec(path)


def test_spec_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"input": {"c": 1,,}')
    with pytest.raises(FormatError) as exc:
        load_spec(path)
    assert str(exc.value.path) == str(path)
    assert exc.value.offset is not None


@pytest.mark.parametrize("raw, offset", [
    (b'{"input": \xff}', 10),               # not UTF-8
    (b'{"input": ' + b"9" * 5000 + b"}", None),  # past int's digit limit
    (b"[" * 100_000, None),                   # nested past the recursion limit
], ids=["non-utf8", "long-int", "deep"])
def test_spec_unreadable_text(tmp_path, raw, offset):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as exc:
        load_spec(path)
    assert exc.value.path == str(path)
    assert exc.value.offset == offset


# --- cost accounting ---


def test_count_network_placement_invariance():
    spec = full_spec()
    base = count_network(spec)
    assert base == count_network(with_placements_none(spec))
    assert base == count_network(with_zero_shifts(spec))


def test_count_network_values():
    spec = tiny_spec([], classes=3)  # stem 1->4 3x3 on 6x6, head 4->3
    cost = count_network(spec)
    assert cost.macs_per_frame == 4 * 1 * 9 * 36 + 3 * 4
    assert cost.params == (4 * 9 + 4) + (3 * 4 + 3)


def test_count_network_block_additivity():
    one = tiny_spec([simple_block()])
    two = tiny_spec([simple_block(), simple_block()])
    zero = tiny_spec([])
    c0, c1, c2 = (count_network(s) for s in (zero, one, two))
    assert c2.macs_per_frame - c1.macs_per_frame == c1.macs_per_frame - c0.macs_per_frame
    assert c2.params - c1.params == c1.params - c0.params


def test_count_network_counts_downsample():
    plain = tiny_spec([simple_block(placement="residual", shift=ShiftSpec(1))])
    down = tiny_spec([dataclasses.replace(
        simple_block(placement="residual", shift=ShiftSpec(1)),
        downsample=ConvSpec(4, 4, 1))])
    assert count_network(down).params == count_network(plain).params + (4 * 4 + 4)
