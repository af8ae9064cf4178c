"""Synthetic temporal-order task: which way is the square moving?

Each clip shows a bright 2x2 square sliding one pixel per frame, left or
right. Clips come in reversal pairs: every rightward clip is the exact
time-reversal of a leftward clip in the same dataset, so any single frame
carries zero information about direction and a frame-order-invariant
model can do no better than chance.

Two details matter for learnability and are part of the data contract:

* Pixel values are standardized in closed form. Every frame contains
  exactly SQUARE**2 bright pixels, so the per-frame mean and variance are
  the same known constants for all clips; the two pixel values are chosen
  to give each frame zero mean and unit variance. Raw 0/1 frames leave the
  direction signal orders of magnitude below the DC term and SGD stalls.
* Reversal pairs stay adjacent in the returned list. A trainer that keeps
  adjacent pairs in the same minibatch gets the direction-free gradient
  components of the two members to cancel (same frames, opposite labels),
  which is what makes the tiny direction signal trainable at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .tensor import ACTIVATION_AXES, Tensor, reverse_time

LABEL_LEFT = 0
LABEL_RIGHT = 1
SQUARE = 2  # square side in pixels


@dataclass
class SyntheticClip:
    clip: Tensor  # (1, T, 1, H, W)
    label: int
    start_row: int
    start_col: int


def pixel_values(h: int, w: int) -> tuple[float, float]:
    """(background, square) pixel values that standardize every frame.

    A frame holds SQUARE**2 ones on zeros, so its mean is
    p = SQUARE**2 / (h * w) and its variance p * (1 - p) exactly; shifting
    by -p and dividing by the standard deviation gives zero mean and unit
    variance per frame.
    """
    p = SQUARE * SQUARE / (h * w)
    sigma = float(np.sqrt(p * (1.0 - p)))
    return -p / sigma, (1.0 - p) / sigma


def make_clip(t: int, h: int, w: int, start_row: int, start_col: int,
              label: int) -> SyntheticClip:
    """One clip with the square at (start_row, start_col) in frame 0."""
    if label not in (LABEL_LEFT, LABEL_RIGHT):
        raise InvalidSpec(f"label must be 0 or 1, got {label}")
    step = 1 if label == LABEL_RIGHT else -1
    lo, hi = pixel_values(h, w)
    data = np.full((1, t, 1, h, w), lo, dtype=np.float32)
    for frame in range(t):
        col = start_col + step * frame
        if not (0 <= start_row <= h - SQUARE and 0 <= col <= w - SQUARE):
            raise InvalidSpec(
                f"square leaves the frame at t={frame} "
                f"(row {start_row}, col {col}, {h}x{w})"
            )
        data[0, frame, 0, start_row:start_row + SQUARE, col:col + SQUARE] = hi
    return SyntheticClip(clip=Tensor(data, ACTIVATION_AXES), label=label,
                         start_row=start_row, start_col=start_col)


def check_geometry(t: int, h: int, w: int) -> None:
    if t < 2:
        raise InvalidSpec(f"need at least 2 frames to show motion, got {t}")
    if h < SQUARE + t or w < SQUARE + t:
        raise InvalidSpec(
            f"{h}x{w} frames cannot hold a {SQUARE}px square moving {t} steps"
        )


def gen_dataset(seed: int, count: int, t: int, h: int, w: int) -> list[SyntheticClip]:
    """count clips, half leftward, half rightward, deterministic in seed.

    Built as reversal pairs: a rightward clip is generated, then its exact
    time-reversal is added as the paired leftward clip. Pairs are shuffled
    as units and stay adjacent in the result (member order random within
    each pair), so pair-aware batching downstream can rely on positions
    (2i, 2i + 1) holding a reversal pair.
    """
    check_geometry(t, h, w)
    if count < 2 or count % 2 != 0:
        raise InvalidSpec(f"count must be even and positive, got {count}")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[SyntheticClip, SyntheticClip]] = []
    for _ in range(count // 2):
        row = int(rng.integers(0, h - SQUARE + 1))
        col = int(rng.integers(0, w - SQUARE - t + 2))
        right = make_clip(t, h, w, row, col, LABEL_RIGHT)
        left = SyntheticClip(
            clip=reverse_time(right.clip),
            label=LABEL_LEFT,
            start_row=row,
            start_col=col + t - 1,  # frame 0 of the reversal
        )
        pairs.append((right, left))
    clips: list[SyntheticClip] = []
    for j in rng.permutation(len(pairs)):
        a, b = pairs[j]
        if rng.integers(0, 2):
            a, b = b, a
        clips.extend((a, b))
    return clips


def stack_dataset(clips: list[SyntheticClip]):
    """(M, T, 1, H, W) array plus (M,) labels, for batched passes."""
    data = np.concatenate([c.clip.data for c in clips], axis=0)
    labels = np.array([c.label for c in clips], dtype=np.int64)
    return data, labels
