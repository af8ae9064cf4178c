"""Workload inputs and networks, all derived from the benchmark seed.

The program only ever receives what is built here: datasets, clips, stream
frames, specs and seeded weights. Every input of one run comes from a single
``--seed`` through numpy's SeedSequence, so the same seed gives the same
inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from tsmkit.net import BlockSpec, NetworkSpec, init_weights, with_placements_none
from tsmkit.ops import ConvSpec
from tsmkit.shift import ShiftSpec
from tsmkit.stream import uni_network_spec
from tsmkit.synthdata import gen_dataset, stack_dataset
from tsmkit.train import TrainConfig, toy_network_spec

TRAIN_CLIPS = 512
TEST_CLIPS = 256
TRAIN_EPOCHS = 2          # two epochs, so "last epoch below first" can be checked
BATCH = 16
OFFLINE_DISTINCT_CLIPS = 2
STREAM_CLIPS = 256        # 256 moving-square clips of 8 frames: 2048 distinct frames
STREAM_WINDOW = 8
FRAMES = 8
TOY_HW = 16


def resnet_stage_spec() -> NetworkSpec:
    """ResNet-stage-sized TSM net: 3x56x56 -> 64 ch, two residual shift blocks.

    Each block shifts 1/8 of its input channels each way. The second block
    halves the resolution with stride 2 and widens to 128 channels, so its
    skip path is a 1x1 stride-2 downsample conv.
    """
    block1 = BlockSpec(
        conv1=ConvSpec(64, 64, 3, pad=1),
        conv2=ConvSpec(64, 64, 3, pad=1),
        placement="residual",
        shift=ShiftSpec(8, 8),
    )
    block2 = BlockSpec(
        conv1=ConvSpec(64, 128, 3, stride=2, pad=1),
        conv2=ConvSpec(128, 128, 3, pad=1),
        placement="residual",
        shift=ShiftSpec(8, 8),
        downsample=ConvSpec(64, 128, 1, stride=2, pad=0),
    )
    return NetworkSpec(in_channels=3, height=56, width=56, frames=FRAMES,
                       stem=ConvSpec(3, 64, 3, pad=1), blocks=(block1, block2),
                       num_classes=10)


def resnet_stage_macs_per_frame(skip_path: bool = True) -> int:
    """Closed-form multiply-accumulates of one 56x56 frame through the net.

    Written out from the layer sizes, independently of the program's own
    cost accounting: a KxK conv costs C_out * C_in * K * K per output pixel.
    skip_path=False leaves out the 1x1 downsample, which a block with
    placement "none" (the TSN control) does not run.
    """
    stem = 64 * 3 * 9 * 56 * 56
    block1 = 2 * (64 * 64 * 9 * 56 * 56)
    block2 = 128 * 64 * 9 * 28 * 28 + 128 * 128 * 9 * 28 * 28
    down = 128 * 64 * 28 * 28
    head = 10 * 128
    return stem + block1 + block2 + (down if skip_path else 0) + head


@dataclass
class Inputs:
    toy: NetworkSpec
    train_data: list
    test_data: list
    train_cfg: TrainConfig
    resnet: NetworkSpec
    resnet_tsn: NetworkSpec
    resnet_weights: dict
    clips: np.ndarray           # (OFFLINE_DISTINCT_CLIPS, 1, T, 3, 56, 56)
    stream_spec: NetworkSpec
    stream_weights: dict
    stream_frames: np.ndarray   # (F, 1, 1, 16, 16), one batch-1 frame each
    generated_clips: int        # moving-square clips made by synthdata
    gen_seconds: float          # time spent in synthdata making them


def _child_seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def build(seed: int, clock) -> Inputs:
    s = _child_seeds(seed, 7)
    toy = toy_network_spec()

    t0 = clock()
    train_data = gen_dataset(s[0], TRAIN_CLIPS, FRAMES, TOY_HW, TOY_HW)
    test_data = gen_dataset(s[1], TEST_CLIPS, FRAMES, TOY_HW, TOY_HW)
    stream_clips = gen_dataset(s[2], STREAM_CLIPS, FRAMES, TOY_HW, TOY_HW)
    gen_seconds = clock() - t0

    stacked, _ = stack_dataset(stream_clips)
    stream_frames = np.ascontiguousarray(
        stacked.reshape(STREAM_CLIPS * FRAMES, 1, 1, TOY_HW, TOY_HW))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # n_bwd dropped: intended
        stream_spec = uni_network_spec(toy)

    resnet = resnet_stage_spec()
    clips = np.random.default_rng(s[3]).standard_normal(
        (OFFLINE_DISTINCT_CLIPS, 1, FRAMES, 3, 56, 56)).astype(np.float32)
    return Inputs(
        toy=toy,
        train_data=train_data,
        test_data=test_data,
        train_cfg=TrainConfig(batch_size=BATCH, epochs=TRAIN_EPOCHS,
                              seed=s[4] % 2**31, train_count=TRAIN_CLIPS,
                              test_count=TEST_CLIPS),
        resnet=resnet,
        resnet_tsn=with_placements_none(resnet),
        resnet_weights=init_weights(resnet, seed=s[5]),
        clips=clips,
        stream_spec=stream_spec,
        stream_weights=init_weights(stream_spec, seed=s[6]),
        stream_frames=stream_frames,
        generated_clips=TRAIN_CLIPS + TEST_CLIPS + STREAM_CLIPS,
        gen_seconds=gen_seconds,
    )
