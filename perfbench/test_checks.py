"""The benchmark's checks must catch wrong answers.

Each test feeds a check the program's output for a deliberately wrong
setting (a perturbed weight, a spec whose shift is dropped, a stream whose
cache is reset mid-way) and asserts that the check reports a failed
operation; the same check on the right answer passes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import warnings

import numpy as np

from tsmkit.net import forward_offline_array, init_weights, with_zero_shifts
from tsmkit.stream import (cache_footprint_bytes, state_nbytes, stream_init, stream_step,
                           uni_network_spec)
from tsmkit.synthdata import gen_dataset, stack_dataset
from tsmkit.tensor import FRAME_AXES, Tensor
from tsmkit.train import batch_loss_and_grads, toy_network_spec

from perfbench import checks

SPEC = toy_network_spec()
WINDOW = 4


def _clips(n=4, seed=0):
    return stack_dataset(gen_dataset(seed, n, 8, 16, 16))


def _failures(verdicts) -> int:
    tally = checks.Tally()
    for ok in verdicts:
        tally.record(bool(ok), "checked operation")
    return tally.failed


def test_offline_check_catches_perturbed_weight():
    weights = init_weights(SPEC, seed=1)
    clip = _clips(2)[0][:1]
    bad = {k: v.copy() for k, v in weights.items()}
    bad["block1.conv1.w"][0, 0, 1, 1] += 0.05
    right = forward_offline_array(clip, SPEC, weights)
    wrong = forward_offline_array(clip, SPEC, bad)
    assert _failures([checks.offline_matches_reference(right, clip, SPEC, weights)]) == 0
    assert _failures([checks.offline_matches_reference(wrong, clip, SPEC, weights)]) == 1


def test_offline_check_catches_dropped_shift():
    weights = init_weights(SPEC, seed=2)
    clip = _clips(2)[0][:1]
    wrong = forward_offline_array(clip, with_zero_shifts(SPEC), weights)
    assert _failures([checks.offline_matches_reference(wrong, clip, SPEC, weights)]) == 1


def test_gradient_check_catches_perturbed_weight_and_dropped_shift():
    clips, labels = _clips(4)
    clips = clips.astype(np.float64)
    weights = {k: v.astype(np.float64) for k, v in init_weights(SPEC, seed=3).items()}
    _, _, right = batch_loss_and_grads(clips, labels, SPEC, weights)
    assert all(checks.gradient_verdicts(right, clips, labels, SPEC, weights, seed=0).values())

    bad = {k: v.copy() for k, v in weights.items()}
    bad["stem.w"][0, 0, 0, 0] += 0.2
    _, _, wrong = batch_loss_and_grads(clips, labels, SPEC, bad)
    assert _failures(checks.gradient_verdicts(wrong, clips, labels, SPEC, weights, 0).values()) > 0

    _, _, unshifted = batch_loss_and_grads(clips, labels, with_zero_shifts(SPEC), weights)
    assert _failures(checks.gradient_verdicts(unshifted, clips, labels, SPEC, weights,
                                              0).values()) > 0


def _stream(spec, weights, frames, reset_at=None):
    state = stream_init(spec, batch=1, window=WINDOW)
    logits, consensus, nbytes = [], [], []
    for t, frame in enumerate(frames):
        if t == reset_at:
            for cache in state.caches:
                cache.reset()
        z, c, state = stream_step(Tensor(frame, FRAME_AXES), spec, weights, state)
        logits.append(z[0])
        consensus.append(c[0])
        nbytes.append(state_nbytes(state))
    return np.array(logits), np.array(consensus), np.array(nbytes)


def test_stream_check_catches_cache_reset_midway_and_dropped_shift():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        spec = uni_network_spec(SPEC)
    weights = init_weights(spec, seed=4)
    clips, _ = _clips(4)
    frames = clips.reshape(-1, 1, 1, 16, 16)[:24]
    footprint = cache_footprint_bytes(spec, batch=1)

    def failures(outputs):
        return _failures(checks.stream_step_verdicts(*outputs, frames, spec, weights,
                                                     WINDOW, footprint))

    assert failures(_stream(spec, weights, frames)) == 0
    assert failures(_stream(spec, weights, frames, reset_at=12)) > 0
    assert failures(_stream(with_zero_shifts(spec), weights, frames)) > 0


def test_counts_and_training_properties():
    assert checks.macs_match(80, 72, 8, 10, 9)
    assert not checks.macs_match(88, 72, 8, 10, 9)       # the shift cost MACs
    assert checks.history_ok([0.70, 0.69])
    assert not checks.history_ok([0.69, 0.70])           # loss went up
    assert not checks.history_ok([float("inf"), 0.69])   # non-finite step loss
    assert not checks.history_ok([0.70, 0.69], first_round_losses=[0.70, 0.68])
    assert checks.control_ok(0.5)
    assert not checks.control_ok(0.53)
