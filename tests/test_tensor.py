import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tsmkit.errors import FormatError, InvalidShape
from tsmkit.tensor import (
    ACTIVATION_AXES,
    Tensor,
    activation,
    load_tensor,
    reverse_time,
    save_tensor,
)

from helpers import random_activation


def small_activations(t_max=6):
    shape = st.tuples(
        st.integers(1, 2), st.integers(1, t_max), st.integers(1, 8),
        st.integers(1, 3), st.integers(1, 3),
    )
    return shape.flatmap(
        lambda s: arrays(np.float32, s, elements=st.floats(-8, 8, width=32))
    ).map(activation)


def test_tensor_invariants():
    with pytest.raises(InvalidShape):
        Tensor(np.zeros((2, 2), dtype=np.float32), ("N",))
    with pytest.raises(InvalidShape):
        Tensor(np.zeros((2, 2), dtype=np.float32), ("N", "Q"))
    with pytest.raises(InvalidShape):
        Tensor(np.zeros((2, 2), dtype=np.float32), ("N", "N"))
    with pytest.raises(InvalidShape):
        Tensor(np.zeros((1, 0), dtype=np.float32), ("N", "C"))
    t = Tensor(np.zeros((2, 3), dtype=np.float64), ("N", "C"))
    assert t.data.dtype == np.float32
    assert t.extents == (2, 3)


@settings(max_examples=40, deadline=None)
@given(small_activations())
def test_reverse_time_involution(x):
    np.testing.assert_array_equal(reverse_time(reverse_time(x)).data, x.data)


def test_reverse_time_values():
    x = activation(np.arange(3, dtype=np.float32).reshape(1, 3, 1, 1, 1))
    r = reverse_time(x)
    assert r.data.ravel().tolist() == [2.0, 1.0, 0.0]
    single = activation(np.full((1, 1, 2, 1, 1), 7, dtype=np.float32))
    np.testing.assert_array_equal(reverse_time(single).data, single.data)


def test_tensor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    x = random_activation(rng, n=2, t=3, c=5, h=2, w=4)
    p = tmp_path / "clip.tsmt"
    save_tensor(x, p)
    y = load_tensor(p)
    assert y.labels == x.labels
    np.testing.assert_array_equal(y.data, x.data)


def test_tensor_file_header_layout(tmp_path):
    x = Tensor(np.zeros((1, 2), dtype=np.float32), ("N", "C"))
    p = tmp_path / "t.tsmt"
    save_tensor(x, p)
    blob = p.read_bytes()
    assert blob[:4] == b"TSMT"
    assert blob[4] == 1
    assert blob[5] == 2
    assert blob[6] == 0 and blob[7] == 2  # N, C axis codes
    assert int.from_bytes(blob[8:16], "little") == 1
    assert int.from_bytes(blob[16:24], "little") == 2
    assert len(blob) == 24 + 8


@pytest.mark.parametrize(
    "mutate, offset",
    [
        (lambda b: b"XSMT" + b[4:], 0),              # bad magic
        (lambda b: b[:4] + b"\x02" + b[5:], 4),      # bad version
        (lambda b: b[:6] + b"\x09" + b[7:], 6),      # unknown axis code
        (lambda b: b[:-3], None),                    # truncated payload
        (lambda b: b + b"\x00\x00", None),           # trailing bytes
        (lambda b: b[:5], 5),                        # no axis count
    ],
)
def test_tensor_file_corruption(tmp_path, mutate, offset):
    x = Tensor(np.zeros((1, 2, 3, 2, 2), dtype=np.float32), ACTIVATION_AXES)
    p = tmp_path / "t.tsmt"
    save_tensor(x, p)
    broken = tmp_path / "broken.tsmt"
    broken.write_bytes(mutate(p.read_bytes()))
    with pytest.raises(FormatError) as exc:
        load_tensor(broken)
    assert str(broken) in str(exc.value)
    assert exc.value.offset is not None
    if offset is not None:
        assert exc.value.offset == offset
