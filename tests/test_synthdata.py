"""Moving-square dataset: geometry, pairing, and value contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmkit.errors import InvalidSpec
from tsmkit.synthdata import (
    LABEL_LEFT,
    LABEL_RIGHT,
    SQUARE,
    gen_dataset,
    make_clip,
    pixel_values,
    stack_dataset,
)
from tsmkit.tensor import reverse_time


def test_pixel_values_closed_form():
    lo, hi = pixel_values(16, 16)
    p = 4 / 256
    sigma = np.sqrt(p * (1 - p))
    assert lo == pytest.approx(-p / sigma)
    assert hi == pytest.approx((1 - p) / sigma)
    # standardization: p*hi + (1-p)*lo = 0 and the spread is 1/sigma
    assert p * hi + (1 - p) * lo == pytest.approx(0, abs=1e-12)
    assert hi - lo == pytest.approx(1 / sigma)


def test_make_clip_square_walks():
    c = make_clip(4, 8, 12, start_row=3, start_col=2, label=LABEL_RIGHT)
    lo, hi = pixel_values(8, 12)
    data = c.clip.data[0, :, 0]
    for t in range(4):
        frame = data[t]
        rows, cols = np.nonzero(frame > 0)
        assert rows.min() == 3 and rows.max() == 3 + SQUARE - 1
        assert cols.min() == 2 + t and cols.max() == 2 + t + SQUARE - 1
        assert np.count_nonzero(frame > 0) == SQUARE * SQUARE
        assert frame.max() == np.float32(hi)
        assert frame.min() == np.float32(lo)


def test_make_clip_leftward_walks_left():
    c = make_clip(3, 8, 12, start_row=0, start_col=6, label=LABEL_LEFT)
    data = c.clip.data[0, :, 0]
    for t in range(3):
        cols = np.nonzero(data[t] > 0)[1]
        assert cols.min() == 6 - t


def test_every_frame_standardized():
    c = make_clip(6, 10, 16, start_row=4, start_col=3, label=LABEL_RIGHT)
    frames = c.clip.data[0, :, 0].astype(np.float64)
    means = frames.mean(axis=(1, 2))
    stds = frames.std(axis=(1, 2))
    assert np.abs(means).max() < 1e-6
    assert np.abs(stds - 1).max() < 1e-5


def test_make_clip_rejects_escape():
    with pytest.raises(InvalidSpec):
        make_clip(8, 16, 8, start_row=0, start_col=2, label=LABEL_RIGHT)
    with pytest.raises(InvalidSpec):
        make_clip(4, 8, 8, start_row=0, start_col=1, label=LABEL_LEFT)
    with pytest.raises(InvalidSpec):
        make_clip(4, 8, 8, start_row=7, start_col=0, label=LABEL_RIGHT)


def test_make_clip_rejects_bad_label():
    with pytest.raises(InvalidSpec):
        make_clip(4, 8, 8, 0, 0, label=2)


@pytest.mark.parametrize("t,h,w", [(1, 16, 16), (8, 9, 16), (8, 16, 9)])
def test_geometry_rejected(t, h, w):
    with pytest.raises(InvalidSpec):
        gen_dataset(0, 4, t, h, w)


@pytest.mark.parametrize("count", [0, 3, -2])
def test_bad_count_rejected(count):
    with pytest.raises(InvalidSpec):
        gen_dataset(0, count, 8, 16, 16)


def test_dataset_balanced():
    clips = gen_dataset(3, 100, 8, 16, 16)
    labels = [c.label for c in clips]
    assert len(clips) == 100
    assert labels.count(LABEL_LEFT) == 50
    assert labels.count(LABEL_RIGHT) == 50


def test_dataset_deterministic():
    a = gen_dataset(7, 40, 8, 16, 16)
    b = gen_dataset(7, 40, 8, 16, 16)
    for ca, cb in zip(a, b):
        assert ca.label == cb.label
        assert ca.start_row == cb.start_row and ca.start_col == cb.start_col
        np.testing.assert_array_equal(ca.clip.data, cb.clip.data)
    c = gen_dataset(8, 40, 8, 16, 16)
    assert any(
        x.label != y.label or not np.array_equal(x.clip.data, y.clip.data)
        for x, y in zip(a, c)
    )


def test_pairs_adjacent_and_exact_reversals():
    clips = gen_dataset(0, 60, 8, 16, 16)
    for i in range(0, 60, 2):
        a, b = clips[i], clips[i + 1]
        assert {a.label, b.label} == {LABEL_LEFT, LABEL_RIGHT}
        np.testing.assert_array_equal(
            reverse_time(a.clip).data, b.clip.data
        )


def test_per_frame_marginals_identical():
    # the multiset of individual frames is the same for both classes, so
    # no single-frame statistic can separate them
    clips = gen_dataset(5, 30, 4, 8, 8)
    by_label = {LABEL_LEFT: [], LABEL_RIGHT: []}
    for c in clips:
        for t in range(4):
            by_label[c.label].append(c.clip.data[0, t].tobytes())
    assert sorted(by_label[LABEL_LEFT]) == sorted(by_label[LABEL_RIGHT])


def test_stack_dataset():
    clips = gen_dataset(1, 12, 4, 8, 8)
    data, labels = stack_dataset(clips)
    assert data.shape == (12, 4, 1, 8, 8)
    assert data.dtype == np.float32
    assert labels.shape == (12,)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(data[3], clips[3].clip.data[0])
    assert labels[5] == clips[5].label


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    t=st.integers(2, 6),
    extra=st.integers(0, 6),
    pairs=st.integers(1, 8),
)
def test_dataset_properties_hold_everywhere(seed, t, extra, pairs):
    h = SQUARE + t + extra
    w = SQUARE + t + extra
    clips = gen_dataset(seed, 2 * pairs, t, h, w)
    assert len(clips) == 2 * pairs
    for i in range(0, len(clips), 2):
        a, b = clips[i], clips[i + 1]
        assert a.label + b.label == LABEL_LEFT + LABEL_RIGHT
        np.testing.assert_array_equal(reverse_time(a.clip).data, b.clip.data)
        # start positions describe frame 0 of each member
        for c in (a, b):
            frame0 = c.clip.data[0, 0, 0]
            rows, cols = np.nonzero(frame0 > 0)
            assert rows.min() == c.start_row
            assert cols.min() == c.start_col
