"""Dense float32 tensors with named axes, and the numeric utilities built on them.

Activations are stored frames-major, axes (N, T, C, H, W): the C*H*W block of
one frame is contiguous, so moving a channel group between adjacent frames is
a single slab copy and the streaming engine can consume frames directly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidShape

AXIS_CODES = {"N": 0, "T": 1, "C": 2, "H": 3, "W": 4}
_CODE_AXES = {v: k for k, v in AXIS_CODES.items()}

ACTIVATION_AXES = ("N", "T", "C", "H", "W")
FRAME_AXES = ("N", "C", "H", "W")


@dataclass(eq=False)
class Tensor:
    """Row-major contiguous float32 array tagged with one axis label per dim.

    Treated as immutable after construction except by the explicitly
    in-place operations (which say so in their names).
    """

    data: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float32))
        labels = tuple(self.labels)
        if arr.ndim == 0 or any(e < 1 for e in arr.shape):
            raise InvalidShape(f"every extent must be >= 1, got {arr.shape}")
        if len(labels) != arr.ndim:
            raise InvalidShape(
                f"{arr.ndim} axes but {len(labels)} labels {labels!r}"
            )
        for lab in labels:
            if lab not in AXIS_CODES:
                raise InvalidShape(f"unknown axis label {lab!r}")
        if len(set(labels)) != len(labels):
            raise InvalidShape(f"duplicate axis labels {labels!r}")
        self.data = arr
        self.labels = labels

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidShape(f"tensor {self.labels!r} has no axis {label!r}") from None


def _require_axes(x: Tensor, axes: tuple[str, ...], what: str) -> None:
    if x.labels != axes:
        raise InvalidShape(f"{what} requires axes {axes}, got {x.labels}")


def zeros(extents, labels) -> Tensor:
    extents = tuple(int(e) for e in extents)
    if not extents or any(e < 1 for e in extents):
        raise InvalidShape(f"every extent must be >= 1, got {extents}")
    return Tensor(np.zeros(extents, dtype=np.float32), tuple(labels))


def activation(data) -> Tensor:
    """Wrap an (N, T, C, H, W) array as an Activation tensor."""
    return Tensor(data, ACTIVATION_AXES)


def frame_tensor(data) -> Tensor:
    """Wrap an (N, C, H, W) array as a single-time-step FrameTensor."""
    return Tensor(data, FRAME_AXES)


def frame_at(x: Tensor, t: int) -> Tensor:
    """Copy frame ``t`` across the whole batch as an (N, C, H, W) tensor."""
    _require_axes(x, ACTIVATION_AXES, "frame_at")
    if not (0 <= t < x.extents[1]):
        raise IndexError(f"t={t} out of range for T={x.extents[1]}")
    return Tensor(x.data[:, t].copy(), FRAME_AXES)


def stack_frames(frames) -> Tensor:
    """Stack (N, C, H, W) frames along a new time axis into an Activation."""
    frames = list(frames)
    if not frames:
        raise InvalidShape("stack_frames needs at least one frame")
    for f in frames:
        _require_axes(f, FRAME_AXES, "stack_frames")
        if f.extents != frames[0].extents:
            raise InvalidShape(
                f"frame shape {f.extents} != {frames[0].extents}"
            )
    return Tensor(np.stack([f.data for f in frames], axis=1), ACTIVATION_AXES)


def reverse_time(x: Tensor) -> Tensor:
    """out[n, t] = x[n, T-1-t]; an involution, bit-exact."""
    _require_axes(x, ACTIVATION_AXES, "reverse_time")
    return Tensor(np.ascontiguousarray(x.data[:, ::-1]), ACTIVATION_AXES)


def _as_f64(x: Tensor) -> np.ndarray:
    return x.data.astype(np.float64, copy=False)


def dot(x: Tensor, y: Tensor) -> float:
    """Inner product accumulated in 64-bit."""
    if x.extents != y.extents:
        raise InvalidShape(f"dot extents differ: {x.extents} vs {y.extents}")
    return float(np.dot(_as_f64(x).ravel(), _as_f64(y).ravel()))


def max_abs_diff(x: Tensor, y: Tensor) -> float:
    if x.extents != y.extents:
        raise InvalidShape(
            f"max_abs_diff extents differ: {x.extents} vs {y.extents}"
        )
    return float(np.max(np.abs(_as_f64(x) - _as_f64(y))))


# Binary tensor file format ("TSMT"):
#   magic "TSMT" | version u8 = 1 | axis count u8 | one axis-code byte per
#   axis (N=0 T=1 C=2 H=3 W=4) | extents u64 LE each | payload f32 LE
#   row-major. The payload length must match the extents exactly.

MAGIC_TENSOR = b"TSMT"
TENSOR_VERSION = 1


def save_tensor(x: Tensor, path) -> None:
    """Write ``x`` to ``path`` in the TSMT binary format."""
    ndim = len(x.extents)
    header = bytearray()
    header += MAGIC_TENSOR
    header.append(TENSOR_VERSION)
    header.append(ndim)
    header += bytes(AXIS_CODES[lab] for lab in x.labels)
    header += struct.pack(f"<{ndim}Q", *x.extents)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(x.data, dtype="<f4").tobytes())


def load_tensor(path) -> Tensor:
    """Read a TSMT file; raises FormatError naming the offending byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MAGIC_TENSOR:
        raise FormatError("bad magic, expected b'TSMT'", path=path, offset=0)
    if len(blob) < 5:
        raise FormatError("truncated before version byte", path=path, offset=4)
    if blob[4] != TENSOR_VERSION:
        raise FormatError(f"unsupported version {blob[4]}", path=path, offset=4)
    if len(blob) < 6:
        raise FormatError("truncated before axis count", path=path, offset=5)
    ndim = blob[5]
    if ndim < 1:
        raise FormatError("axis count must be >= 1", path=path, offset=5)
    off = 6
    labels = []
    for i in range(ndim):
        if off >= len(blob):
            raise FormatError("truncated inside axis labels", path=path, offset=off)
        code = blob[off]
        if code not in _CODE_AXES:
            raise FormatError(f"unknown axis code {code}", path=path, offset=off)
        labels.append(_CODE_AXES[code])
        off += 1
    if len(set(labels)) != ndim:
        raise FormatError(f"duplicate axis labels {labels}", path=path, offset=6)
    if off + 8 * ndim > len(blob):
        raise FormatError("truncated inside extents", path=path, offset=off)
    extents = struct.unpack_from(f"<{ndim}Q", blob, off)
    off += 8 * ndim
    if any(e < 1 for e in extents):
        raise FormatError(f"zero extent in {extents}", path=path, offset=off - 8 * ndim)
    count = 1
    for e in extents:
        count *= e
    want = 4 * count
    have = len(blob) - off
    if have < want:
        raise FormatError(
            f"payload truncated: need {want} bytes, have {have}", path=path, offset=off
        )
    if have > want:
        raise FormatError(
            f"{have - want} trailing bytes after payload", path=path, offset=off + want
        )
    data = np.frombuffer(blob, dtype="<f4", count=count, offset=off)
    return Tensor(data.reshape(extents).copy(), tuple(labels))
