"""Byte-level mutations of valid files: every loader returns or raises TsmError.

A flipped, dropped or inserted byte in a .tsmt, .tsmw or spec file is input
from outside the program; the loaders must turn it into a value or a
TsmError (FormatError, InvalidSpec, ...), never another exception.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tsmkit.errors import TsmError
from tsmkit.net import (
    BlockSpec,
    NetworkSpec,
    init_weights,
    load_spec,
    load_weights,
    save_spec,
    save_weights,
)
from tsmkit.ops import ConvSpec
from tsmkit.shift import ShiftSpec
from tsmkit.tensor import ACTIVATION_AXES, Tensor, load_tensor, save_tensor

SPEC = NetworkSpec(
    in_channels=1, height=4, width=4, frames=2, stem=ConvSpec(1, 4, 3, pad=1),
    blocks=(BlockSpec(ConvSpec(4, 6, 3, pad=1), ConvSpec(6, 6, 3, pad=1),
                      placement="residual", shift=ShiftSpec(1, 1, padding="circular"),
                      downsample=ConvSpec(4, 6, 1)),),
    num_classes=3,
)


@st.composite
def mutations(draw):
    """1-3 edits, each (kind, relative position, byte)."""
    return draw(st.lists(
        st.tuples(st.sampled_from(["flip", "truncate", "insert"]),
                  st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
        min_size=1, max_size=3))


def mutate(raw: bytes, edits) -> bytes:
    buf = bytearray(raw)
    for kind, where, value in edits:
        at = int(where * (len(buf) + 1))
        if kind == "flip" and at < len(buf):
            buf[at] ^= value or 0x80  # XOR with 0 would leave the byte as it was
        elif kind == "truncate":
            del buf[at:]
        elif kind == "insert":
            buf[at:at] = bytes([value])
    return bytes(buf)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    save_tensor(Tensor(rng.standard_normal((1, 2, 3, 2, 2)), ACTIVATION_AXES),
                root / "x.tsmt")
    save_weights(init_weights(SPEC, seed=0), root / "w.tsmw")
    save_spec(SPEC, root / "spec.json")
    return root


@pytest.mark.parametrize("name, load", [
    ("x.tsmt", load_tensor), ("w.tsmw", load_weights), ("spec.json", load_spec),
])
def test_mutated_file_loads_or_raises_tsm_error(valid_files, name, load):
    raw = (valid_files / name).read_bytes()
    bad = valid_files / ("bad_" + name)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutations())
    def check(edits):
        bad.write_bytes(mutate(raw, edits))
        try:
            load(bad)
        except TsmError:
            pass

    check()
