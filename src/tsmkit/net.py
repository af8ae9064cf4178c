"""Network assembly: temporal-shift blocks, the forward and backward walks, serialization.

A network is a stem convolution, a list of two-conv blocks with an optional
per-block temporal shift, global average pooling per frame, and one linear
head. Activations travel as (N, T, C, H, W); every convolution runs
frame-wise by folding (N, T) into one batch axis. Weights live in a flat
name-to-array store so specs stay pure shape descriptions.

forward_walk is the one layer order: offline clips and live streams run it
with different shifts, and with a record list it keeps what backward_walk
needs to run the same order in reverse (block_backward_array mirrors
block_forward_array; a shift's backward is the adjoint shift).
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidShape, InvalidSpec
from .ops import (
    Conv2dParams,
    ConvSpec,
    LinearParams,
    LinearSpec,
    _conv_forward_cols,
    _conv_param_grads,
    conv2d_backward,
    global_avg_pool_backward,
    global_avg_pool_forward,
    linear_backward,
    linear_forward,
    macs_of,
    params_of,
    relu_backward,
    relu_forward,
)
from .shift import MODE_BI, PAD_ZERO, ShiftSpec, _shift_array
from .tensor import Tensor, _Reader, _require_axes

PLACEMENT_NONE = "none"
PLACEMENT_INPLACE = "inplace"
PLACEMENT_RESIDUAL = "residual"
PLACEMENTS = (PLACEMENT_NONE, PLACEMENT_INPLACE, PLACEMENT_RESIDUAL)

MAGIC_WEIGHTS = b"TSMW"
WEIGHTS_VERSION = 1


@dataclass(frozen=True)
class BlockSpec:
    """Two stacked convolutions with an optional shift in front.

    placement selects where the block output comes from:
      none:     y = F(x)
      inplace:  y = F(shift(x))
      residual: y = skip(x) + F(shift(x))
    with F = relu(conv2(relu(conv1(.)))) applied to each frame and skip
    either identity or the 1x1 downsample conv on the unshifted input.
    """

    conv1: ConvSpec
    conv2: ConvSpec
    placement: str = PLACEMENT_NONE
    shift: ShiftSpec | None = None
    downsample: ConvSpec | None = None

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise InvalidSpec(f"unknown placement {self.placement!r}")
        if self.conv1.out_ch != self.conv2.in_ch:
            raise InvalidSpec(
                f"conv1 out {self.conv1.out_ch} != conv2 in {self.conv2.in_ch}"
            )
        if self.placement != PLACEMENT_NONE:
            if self.shift is None:
                raise InvalidSpec(f"placement {self.placement!r} requires a shift")
            self.shift.check_channels(self.conv1.in_ch)
        if self.downsample is not None:
            if self.downsample.kernel != 1:
                raise InvalidSpec("downsample must be a 1x1 conv")
            if self.downsample.in_ch != self.conv1.in_ch:
                raise InvalidSpec(
                    f"downsample in {self.downsample.in_ch} != block in {self.conv1.in_ch}"
                )
            if self.downsample.out_ch != self.conv2.out_ch:
                raise InvalidSpec(
                    f"downsample out {self.downsample.out_ch} != block out {self.conv2.out_ch}"
                )


@dataclass(frozen=True)
class NetworkSpec:
    in_channels: int
    height: int
    width: int
    frames: int
    stem: ConvSpec
    blocks: tuple[BlockSpec, ...]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if min(self.in_channels, self.height, self.width, self.frames) < 1:
            raise InvalidSpec("input extents must be >= 1")
        if self.num_classes < 2:
            raise InvalidSpec(f"need >= 2 classes, got {self.num_classes}")
        if self.stem.in_ch != self.in_channels:
            raise InvalidSpec(
                f"stem expects {self.stem.in_ch} channels, input has {self.in_channels}"
            )
        self.stage_shapes()  # raises InvalidSpec if stages do not compose

    def stage_shapes(self) -> list[tuple[int, int, int]]:
        """(C, H, W) after the stem and after each block, in order."""
        c, h, w = self.stem.out_ch, *self.stem.out_hw(self.height, self.width)
        if h < 1 or w < 1:
            raise InvalidSpec(f"stem output {h}x{w} is empty")
        shapes = [(c, h, w)]
        for i, b in enumerate(self.blocks):
            if b.conv1.in_ch != c:
                raise InvalidSpec(f"block {i} expects {b.conv1.in_ch} channels, got {c}")
            h1, w1 = b.conv1.out_hw(h, w)
            h2, w2 = b.conv2.out_hw(h1, w1)
            if min(h1, w1, h2, w2) < 1:
                raise InvalidSpec(f"block {i} output is empty")
            if b.placement == PLACEMENT_RESIDUAL:
                if b.downsample is not None:
                    if b.downsample.out_hw(h, w) != (h2, w2):
                        raise InvalidSpec(f"block {i} downsample does not match branch")
                elif (b.conv2.out_ch, h2, w2) != (c, h, w):
                    raise InvalidSpec(
                        f"block {i} residual needs matching shapes or a downsample"
                    )
            c, h, w = b.conv2.out_ch, h2, w2
            shapes.append((c, h, w))
        return shapes

    def head_spec(self) -> LinearSpec:
        return LinearSpec(self.stage_shapes()[-1][0], self.num_classes)


@dataclass(frozen=True)
class NetworkCost:
    macs_per_frame: int
    params: int


def with_zero_shifts(spec: NetworkSpec) -> NetworkSpec:
    """Same network with every shift degenerated to the identity.

    bench_network's TSN control: skip paths and downsamples stay, and a
    zero-channel shift is copy-free, so it costs what TSN-with-skip costs.
    """
    blocks = tuple(
        b if b.shift is None
        else dataclasses.replace(
            b, shift=dataclasses.replace(b.shift, n_fwd=0, n_bwd=0)
        )
        for b in spec.blocks
    )
    return dataclasses.replace(spec, blocks=blocks)


def with_placements_none(spec: NetworkSpec) -> NetworkSpec:
    """The TSN control: every block demoted to plain 2D, y = F(x).

    This drops the shift and also the skip path: a residual block loses its
    identity add or its 1x1 downsample conv, so the control runs fewer MACs
    than the TSM network whenever a block declares a downsample.
    """
    blocks = tuple(
        dataclasses.replace(b, placement=PLACEMENT_NONE, shift=None)
        for b in spec.blocks
    )
    return dataclasses.replace(spec, blocks=blocks)


# --- weight store ---


def _conv_layers(spec: NetworkSpec):
    """(weight name, ConvSpec, input (C, H, W)) for every conv, in network order."""
    yield "stem", spec.stem, (spec.in_channels, spec.height, spec.width)
    for i, (b, (c, h, w)) in enumerate(zip(spec.blocks, spec.stage_shapes())):
        yield f"block{i}.conv1", b.conv1, (c, h, w)
        yield f"block{i}.conv2", b.conv2, (b.conv1.out_ch, *b.conv1.out_hw(h, w))
        if b.downsample is not None:
            yield f"block{i}.down", b.downsample, (c, h, w)


def _shift_sites(spec: NetworkSpec):
    """(block index, ShiftSpec, input (C, H, W)) for every block that shifts."""
    for i, (b, shape) in enumerate(zip(spec.blocks, spec.stage_shapes())):
        if b.placement != PLACEMENT_NONE:
            yield i, b.shift, shape


def weight_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    """Expected store entries, in network order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for name, c, _ in _conv_layers(spec):
        shapes[name + ".w"] = (c.out_ch, c.in_ch, c.kernel, c.kernel)
        shapes[name + ".b"] = (c.out_ch,)
    head = spec.head_spec()
    shapes["head.w"] = (head.out_features, head.in_features)
    shapes["head.b"] = (head.out_features,)
    return shapes


def init_weights(spec: NetworkSpec, seed: int = 0) -> dict[str, np.ndarray]:
    """Uniform +-sqrt(1/fan_in) for weights and biases, seeded.

    A bias uses the fan-in of its weight (conv: in_ch * k * k, linear:
    in_features), the usual torch-style convention.
    """
    rng = np.random.default_rng(seed)
    shapes = weight_shapes(spec)
    store = {}
    for name, shape in shapes.items():
        w_shape = shapes[name[:-2] + ".w"] if name.endswith(".b") else shape
        fan_in = w_shape[1] * w_shape[2] * w_shape[3] if len(w_shape) == 4 else w_shape[1]
        bound = float(np.sqrt(1.0 / fan_in))
        store[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return store


def check_weights(spec: NetworkSpec, store: dict) -> None:
    """Every descriptor must have a matching entry; no strays tolerated."""
    expected = weight_shapes(spec)
    for name, shape in expected.items():
        if name not in store:
            raise InvalidSpec(f"missing weight {name!r}")
        got = tuple(np.asarray(store[name]).shape)
        if got != shape:
            raise InvalidSpec(f"weight {name!r} has shape {got}, expected {shape}")
    for name in store:
        if name not in expected:
            raise InvalidSpec(f"unexpected weight {name!r}")


def _conv_params(c: ConvSpec, store: dict, name: str) -> Conv2dParams:
    return Conv2dParams(store[name + ".w"], store[name + ".b"], c.stride, c.pad)


# --- forward ---


def _frames(a: np.ndarray) -> np.ndarray:
    """Fold (N, T, ...) into one frame batch (N*T, ...)."""
    return a.reshape((a.shape[0] * a.shape[1],) + a.shape[2:])


def _unfold(a: np.ndarray, n: int, t: int) -> np.ndarray:
    return a.reshape((n, t) + a.shape[1:])


def block_forward_array(
    a: np.ndarray, b: BlockSpec, store: dict, name: str, cache: list | None = None,
    shift=_shift_array,
) -> np.ndarray:
    """One block on an (N, T, C, H, W) array; shift(a, b.shift) moves the branch input."""
    n, t = a.shape[:2]
    shifted = a if b.placement == PLACEMENT_NONE else shift(a, b.shift)
    xs = _frames(shifted)
    z1, cols1 = _conv_forward_cols(xs, _conv_params(b.conv1, store, name + ".conv1"))
    if cache is None:
        cols1 = None  # free conv1's columns before conv2 builds its own
    r1 = relu_forward(z1)
    z2, cols2 = _conv_forward_cols(r1, _conv_params(b.conv2, store, name + ".conv2"))
    y = relu_forward(z2)
    cols_d = None
    if b.placement == PLACEMENT_RESIDUAL:
        xf = _frames(a)
        if b.downsample is not None:
            skip, cols_d = _conv_forward_cols(
                xf, _conv_params(b.downsample, store, name + ".down"))
        else:
            skip = xf
        y = skip + y
    if cache is not None:
        cache.append(
            {"kind": "block", "name": name, "spec": b, "x": a,
             "xs": xs, "z1": z1, "r1": r1, "z2": z2,
             "cols1": cols1, "cols2": cols2, "cols_down": cols_d}
        )
    return _unfold(y, n, t)


def forward_walk(a: np.ndarray, spec: NetworkSpec, store: dict, shift,
                 cache: list | None = None) -> np.ndarray:
    """(N, T, C, H, W) -> (N, T, num_classes): stem, blocks, pool, head.

    The one forward pass of the network. Offline clips and live streams
    differ only in ``shift(activation, shift_spec)``: the whole-clip
    _shift_array, or (T = 1) a swap against each block's one-frame cache.
    With ``cache`` given, every layer's inputs are recorded for
    backward_walk.
    """
    n, t = a.shape[:2]
    xf = _frames(a)
    zs, cols_s = _conv_forward_cols(xf, _conv_params(spec.stem, store, "stem"))
    cur = _unfold(relu_forward(zs), n, t)
    if cache is not None:
        cache.append({"kind": "stem", "x": xf, "z": zs, "cols": cols_s})
    del zs, cols_s  # the blocks run without the stem's columns unless cached
    for i, b in enumerate(spec.blocks):
        cur = block_forward_array(cur, b, store, f"block{i}", cache, shift)
    feat = _frames(cur)
    pooled = global_avg_pool_forward(feat)
    head = LinearParams(store["head.w"], store["head.b"])
    logits = linear_forward(pooled, head)
    if cache is not None:
        cache.append({"kind": "head", "pool_in": feat.shape, "pooled": pooled})
    return _unfold(logits, n, t)


def forward_offline_array(
    a: np.ndarray, spec: NetworkSpec, store: dict, cache: list | None = None
) -> np.ndarray:
    """(N, T, C, H, W) clip -> (N, T, num_classes) per-frame logits."""
    if a.ndim != 5:
        raise InvalidShape(f"clip must be 5-d, got shape {a.shape}")
    n, t, c, h, w = a.shape
    if (c, h, w) != (spec.in_channels, spec.height, spec.width) or t != spec.frames:
        raise InvalidShape(
            f"clip shape {a.shape} does not match network input "
            f"(T={spec.frames}, C={spec.in_channels}, "
            f"H={spec.height}, W={spec.width})"
        )
    return forward_walk(a, spec, store, _shift_array, cache)


# --- backward ---


def block_backward_array(g: np.ndarray, record: dict, store: dict,
                         grads: dict) -> np.ndarray:
    """d(loss)/d(block input) from d(loss)/d(block output), both (N, T, C, H, W).

    record is the block's entry from forward_walk's cache; the block's
    weight gradients are stored into grads under its weight names.
    """
    b, name = record["spec"], record["name"]
    n, t = g.shape[:2]
    gf = _frames(g)
    d_z2 = relu_backward(record["z2"], gf)
    d_r1, grads[name + ".conv2.w"], grads[name + ".conv2.b"] = conv2d_backward(
        record["r1"], _conv_params(b.conv2, store, name + ".conv2"), d_z2,
        cols=record["cols2"])
    d_z1 = relu_backward(record["z1"], d_r1)
    d_xs, grads[name + ".conv1.w"], grads[name + ".conv1.b"] = conv2d_backward(
        record["xs"], _conv_params(b.conv1, store, name + ".conv1"), d_z1,
        cols=record["cols1"])
    d_in = _unfold(d_xs, n, t)
    if b.placement != PLACEMENT_NONE:
        d_in = _shift_array(d_in, b.shift, -1)
    if b.placement == PLACEMENT_RESIDUAL:
        d_skip = gf
        if b.downsample is not None:
            d_skip, grads[name + ".down.w"], grads[name + ".down.b"] = conv2d_backward(
                _frames(record["x"]), _conv_params(b.downsample, store, name + ".down"),
                gf, cols=record["cols_down"])
        d_in = d_in + _unfold(d_skip, n, t)
    return d_in


def backward_walk(grad_logits: np.ndarray, store: dict,
                  cache: list) -> dict[str, np.ndarray]:
    """Gradients of every weight given d(loss)/d(per-frame logits).

    forward_walk in reverse over the cache it recorded on the same batch:
    head, pool, blocks last to first, stem. The records carry each block's
    spec, so no NetworkSpec is needed. The network input needs no gradient,
    so the stem yields only its weight and bias gradients.
    """
    n, t = grad_logits.shape[:2]
    grads: dict[str, np.ndarray] = {}
    stem, *blocks, head = cache
    gx, grads["head.w"], grads["head.b"] = linear_backward(
        head["pooled"], LinearParams(store["head.w"], store["head.b"]),
        _frames(grad_logits))
    g = _unfold(global_avg_pool_backward(head["pool_in"], gx), n, t)
    for record in reversed(blocks):
        g = block_backward_array(g, record, store, grads)
    d_zs = relu_backward(stem["z"], _frames(g))
    grads["stem.w"], grads["stem.b"] = _conv_param_grads(
        stem["cols"], d_zs, store["stem.w"].shape)
    return grads


def forward_offline(clip: Tensor, spec: NetworkSpec, store: dict) -> Tensor:
    """Run the whole network over a clip; logits per frame, no consensus."""
    _require_axes(clip, ("N", "T", "C", "H", "W"), "clip")
    check_weights(spec, store)
    logits = forward_offline_array(clip.data, spec, store)
    return Tensor(logits, ("N", "T", "C"))


def consensus_average(logits: np.ndarray) -> np.ndarray:
    """Mean of (N, T, K) per-frame logits over T, exactly invariant to frame order.

    Each (clip, class) lane is summed in float64 over value-sorted frames,
    so any permutation of the T axis yields bit-identical output.
    """
    a = np.asarray(logits)
    if a.ndim != 3:
        raise InvalidShape(f"logits must be (N, T, K), got shape {a.shape}")
    ordered = np.sort(a.astype(np.float64), axis=1)
    mean = ordered.sum(axis=1) / a.shape[1]
    return mean.astype(a.dtype if a.dtype == np.float64 else np.float32)


# --- cost accounting ---


def count_network(spec: NetworkSpec) -> NetworkCost:
    """Per-frame MACs and parameter count over the declared structure.

    Shift layers contribute zero to both; a downsample conv is counted
    whenever declared, independent of placement, so toggling placements
    never changes the totals.
    """
    head = spec.head_spec()
    layers = [(c, shape) for _, c, shape in _conv_layers(spec)]
    layers.append((head, (head.in_features,)))
    return NetworkCost(macs_per_frame=sum(macs_of(layer, shape) for layer, shape in layers),
                       params=sum(params_of(layer) for layer, _ in layers))


# --- weight file format ---


def save_weights(store: dict, path) -> None:
    """Entries sorted by name for byte-stable output."""
    names = sorted(store)
    parts = [struct.pack("<4sBI", MAGIC_WEIGHTS, WEIGHTS_VERSION, len(names))]
    for name in names:
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(store[name], dtype=np.float32)
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.astype("<f4", copy=False).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_weights(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf, path)
    magic = r.take(4, "magic")
    if magic != MAGIC_WEIGHTS:
        raise FormatError(f"bad magic {bytes(magic)!r}", path=path, offset=0)
    (version,) = r.unpack("<B", "version")
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported version {version}", path=path, offset=4)
    (count,) = r.unpack("<I", "entry count")
    store: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H", "name length")
        name_off = r.pos
        try:
            name = str(r.take(name_len, "name"), "utf-8")
        except UnicodeDecodeError:
            raise FormatError("name is not UTF-8", path=path, offset=name_off) from None
        if name in store:
            raise FormatError(f"duplicate entry {name!r}", path=path, offset=name_off)
        (rank,) = r.unpack("<B", "rank")
        if rank < 1:
            raise FormatError(f"zero rank for {name!r}", path=path, offset=r.pos - 1)
        extents_off = r.pos
        extents = r.unpack(f"<{rank}Q", "extents")
        if any(e < 1 for e in extents):
            raise FormatError(
                f"zero extent for {name!r}", path=path, offset=extents_off
            )
        payload = r.take(4 * math.prod(extents), f"payload of {name!r}")
        store[name] = np.frombuffer(payload, dtype="<f4").reshape(extents).copy()
    if r.pos != len(buf):
        raise FormatError(
            f"{len(buf) - r.pos} trailing bytes", path=path, offset=r.pos
        )
    return store


# --- spec file format (JSON) ---


def _check_keys(d: dict, required: tuple, optional: tuple, what: str) -> None:
    if not isinstance(d, dict):
        raise InvalidSpec(f"{what} must be an object, got {type(d).__name__}")
    for k in d:
        if k not in required and k not in optional:
            raise InvalidSpec(f"unknown key {k!r} in {what}")
    for k in required:
        if k not in d:
            raise InvalidSpec(f"missing key {k!r} in {what}")


def _int_field(d: dict, key: str, what: str, default=None) -> int:
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidSpec(f"{what}.{key} must be an integer, got {v!r}")
    return v


def _parse_conv(d: dict, what: str) -> ConvSpec:
    _check_keys(d, ("in", "out", "k"), ("stride", "pad"), what)
    k = _int_field(d, "k", what)
    return ConvSpec(
        in_ch=_int_field(d, "in", what),
        out_ch=_int_field(d, "out", what),
        kernel=k,
        stride=_int_field(d, "stride", what, 1),
        pad=_int_field(d, "pad", what, k // 2 if isinstance(k, int) else 0),
    )


def _parse_shift(d: dict, what: str) -> ShiftSpec:
    _check_keys(d, ("n_fwd",), ("n_bwd", "padding", "mode"), what)
    for key in ("padding", "mode"):
        if key in d and not isinstance(d[key], str):
            raise InvalidSpec(f"{what}.{key} must be a string")
    return ShiftSpec(
        n_fwd=_int_field(d, "n_fwd", what),
        n_bwd=_int_field(d, "n_bwd", what, 0),
        padding=d.get("padding", PAD_ZERO),
        mode=d.get("mode", MODE_BI),
    )


def _parse_block(d: dict, what: str) -> BlockSpec:
    _check_keys(d, ("conv1", "conv2", "placement"), ("shift", "downsample"), what)
    placement = d["placement"]
    if not isinstance(placement, str):
        raise InvalidSpec(f"{what}.placement must be a string")
    shift = _parse_shift(d["shift"], what + ".shift") if "shift" in d else None
    down = _parse_conv(d["downsample"], what + ".downsample") if "downsample" in d else None
    return BlockSpec(
        conv1=_parse_conv(d["conv1"], what + ".conv1"),
        conv2=_parse_conv(d["conv2"], what + ".conv2"),
        placement=placement,
        shift=shift,
        downsample=down,
    )


def parse_spec(obj) -> NetworkSpec:
    _check_keys(obj, ("input", "stem", "blocks", "head"), (), "spec")
    inp = obj["input"]
    _check_keys(inp, ("c", "h", "w", "t"), (), "input")
    head = obj["head"]
    _check_keys(head, ("classes",), (), "head")
    if not isinstance(obj["blocks"], list):
        raise InvalidSpec("blocks must be a list")
    blocks = tuple(
        _parse_block(b, f"blocks[{i}]") for i, b in enumerate(obj["blocks"])
    )
    return NetworkSpec(
        in_channels=_int_field(inp, "c", "input"),
        height=_int_field(inp, "h", "input"),
        width=_int_field(inp, "w", "input"),
        frames=_int_field(inp, "t", "input"),
        stem=_parse_conv(obj["stem"], "stem"),
        blocks=blocks,
        num_classes=_int_field(head, "classes", "head"),
    )


def _load_json(path):
    """The JSON value in a UTF-8 file; FormatError names the path and offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError("not UTF-8 text", path=path, offset=e.start) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not valid JSON: {e.msg}", path=path, offset=e.pos) from None
    except (ValueError, RecursionError) as e:  # an over-long integer, too deep nesting
        raise FormatError(f"not readable as JSON: {e}", path=path) from None


def load_spec(path) -> NetworkSpec:
    return parse_spec(_load_json(path))


def _conv_json(c: ConvSpec) -> dict:
    return {"in": c.in_ch, "out": c.out_ch, "k": c.kernel,
            "stride": c.stride, "pad": c.pad}


def spec_to_json(spec: NetworkSpec) -> dict:
    blocks = []
    for b in spec.blocks:
        entry = {
            "conv1": _conv_json(b.conv1),
            "conv2": _conv_json(b.conv2),
            "placement": b.placement,
        }
        if b.shift is not None:
            entry["shift"] = {
                "n_fwd": b.shift.n_fwd, "n_bwd": b.shift.n_bwd,
                "padding": b.shift.padding, "mode": b.shift.mode,
            }
        if b.downsample is not None:
            entry["downsample"] = _conv_json(b.downsample)
        blocks.append(entry)
    return {
        "input": {"c": spec.in_channels, "h": spec.height,
                  "w": spec.width, "t": spec.frames},
        "stem": _conv_json(spec.stem),
        "blocks": blocks,
        "head": {"classes": spec.num_classes},
    }


def save_spec(spec: NetworkSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json(spec), fh, indent=2)
        fh.write("\n")
