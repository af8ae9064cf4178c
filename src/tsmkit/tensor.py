"""Dense float32 tensors with named axes, and their binary file format.

Activations are stored frames-major, axes (N, T, C, H, W): the C*H*W block of
one frame is contiguous, so moving a channel group between adjacent frames is
a single slab copy and the streaming engine can consume frames directly.
"""

from __future__ import annotations

import math
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


def _require_axes(x: Tensor, axes: tuple[str, ...], what: str) -> None:
    if x.labels != axes:
        raise InvalidShape(f"{what} requires axes {axes}, got {x.labels}")


def reverse_time(x: Tensor) -> Tensor:
    """out[n, t] = x[n, T-1-t]; an involution, bit-exact."""
    _require_axes(x, ACTIVATION_AXES, "reverse_time")
    return Tensor(np.ascontiguousarray(x.data[:, ::-1]), ACTIVATION_AXES)


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


class _Reader:
    """Cursor over a byte blob; failures carry the path and byte offset."""

    def __init__(self, buf: bytes, path):
        self.buf = memoryview(buf)  # slices copy nothing: a payload is copied once
        self.path = path
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.buf):
            raise FormatError(f"truncated {what}", path=self.path, offset=self.pos)
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_tensor(path) -> Tensor:
    """Read a TSMT file; raises FormatError naming the offending byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(4, "magic") != MAGIC_TENSOR:
        raise FormatError("bad magic, expected b'TSMT'", path=path, offset=0)
    (version,) = r.unpack("<B", "version")
    if version != TENSOR_VERSION:
        raise FormatError(f"unsupported version {version}", path=path, offset=4)
    (ndim,) = r.unpack("<B", "axis count")
    if ndim < 1:
        raise FormatError("axis count must be >= 1", path=path, offset=5)
    labels = []
    for _ in range(ndim):
        (code,) = r.take(1, "axis labels")
        if code not in _CODE_AXES:
            raise FormatError(f"unknown axis code {code}", path=path, offset=r.pos - 1)
        labels.append(_CODE_AXES[code])
    if len(set(labels)) != ndim:
        raise FormatError(f"duplicate axis labels {labels}", path=path, offset=6)
    extents_off = r.pos
    extents = r.unpack(f"<{ndim}Q", "extents")
    if any(e < 1 for e in extents):
        raise FormatError(f"zero extent in {extents}", path=path, offset=extents_off)
    payload = r.take(4 * math.prod(extents), "payload")
    if r.pos != len(blob):
        raise FormatError(
            f"{len(blob) - r.pos} trailing bytes after payload", path=path, offset=r.pos
        )
    data = np.frombuffer(payload, dtype="<f4")
    return Tensor(data.reshape(extents).copy(), tuple(labels))
