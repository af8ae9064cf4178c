"""Set-up of one run: inputs, file round trips and warm-up.

Everything here counts towards setup_s. The specs, weights, clips and
stream frames are written and read back through the program's own formats,
and the timed phases then use what was read back.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tsmkit.net import (forward_offline_array, init_weights, load_spec, load_weights,
                        save_spec, save_weights, with_placements_none)
from tsmkit.stream import stream_init, stream_step
from tsmkit.synthdata import stack_dataset
from tsmkit.tensor import ACTIVATION_AXES, FRAME_AXES, Tensor, load_tensor, save_tensor
from tsmkit.train import batch_loss_and_grads, evaluate

from . import inputs
from .checks import Tally

WARMUP_STREAM_STEPS = 16


@dataclass
class Prepared:
    inp: inputs.Inputs
    frames: list             # stream frames as program Tensors, batch 1 each
    roundtrip_s: float


def _roundtrip(inp: inputs.Inputs, tmp: Path, tally: Tally) -> None:
    """Save and reload specs, weights, clips and frames; keep what was read."""
    for attr in ("toy", "resnet", "stream_spec"):
        spec = getattr(inp, attr)
        path = tmp / f"{attr}.json"
        save_spec(spec, path)
        loaded = load_spec(path)
        tally.record(loaded == spec, f"spec round trip {attr}")
        setattr(inp, attr, loaded)
    for attr in ("resnet_weights", "stream_weights"):
        store = getattr(inp, attr)
        path = tmp / f"{attr}.tsmw"
        save_weights(store, path)
        loaded = load_weights(path)
        tally.record(loaded.keys() == store.keys() and all(
            np.array_equal(loaded[k], store[k]) for k in store), f"weights round trip {attr}")
        setattr(inp, attr, loaded)
    for attr in ("clips", "stream_frames"):
        arr = getattr(inp, attr)
        flat = arr.reshape((-1,) + arr.shape[-4:])  # (N, T, C, H, W)
        path = tmp / f"{attr}.tsmt"
        save_tensor(Tensor(flat, ACTIVATION_AXES), path)
        loaded = load_tensor(path).data.reshape(arr.shape)
        tally.record(np.array_equal(loaded, arr), f"tensor round trip {attr}")
        setattr(inp, attr, loaded)
    inp.resnet_tsn = with_placements_none(inp.resnet)


def _warm_up(p: Prepared) -> None:
    inp = p.inp
    clips, labels = stack_dataset(inp.train_data[:inputs.BATCH])
    batch_loss_and_grads(clips, labels, inp.toy, init_weights(inp.toy, seed=0))
    evaluate(inp.toy, init_weights(inp.toy, seed=0), inp.test_data[:inputs.BATCH])
    forward_offline_array(inp.clips[0], inp.resnet, inp.resnet_weights)
    forward_offline_array(inp.clips[0], inp.resnet_tsn, inp.resnet_weights)
    state = stream_init(inp.stream_spec, batch=1, window=inputs.STREAM_WINDOW)
    for frame in p.frames[:WARMUP_STREAM_STEPS]:
        stream_step(frame, inp.stream_spec, inp.stream_weights, state)


def prepare(seed: int, scratch_dir: Path, tally: Tally) -> Prepared:
    inp = inputs.build(seed, time.perf_counter)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        _roundtrip(inp, Path(tmp), tally)
    roundtrip_s = time.perf_counter() - t0
    frames = [Tensor(f, FRAME_AXES) for f in inp.stream_frames]
    p = Prepared(inp=inp, frames=frames, roundtrip_s=roundtrip_s)
    _warm_up(p)
    return p
