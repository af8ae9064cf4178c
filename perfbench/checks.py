"""Correctness checks on the program's outputs.

Each check compares what the program returned against a computation made
apart from it (the float64 reference in reference.py, central differences,
closed-form counts) or against a property of the method. Checks take the
program's outputs as plain arguments, so a test can hand them a wrong answer
and see the failure counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import reference

OFFLINE_REL_TOL = 1e-4
STREAM_ABS_TOL = 1e-5
GRAD_REL_TOL = 1e-4
REPEAT_REL_TOL = 1e-5      # same input twice: outputs may differ by rounding only
FD_STEP = 1e-6
FD_SHRINKS = 4
FD_COORDS_PER_TENSOR = 3


@dataclass
class Tally:
    """Operations attempted, and those that raised or returned a wrong answer."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self._note(f"wrong: {what}")
        return ok

    def raised(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(f"raised: {what}: {type(exc).__name__}: {exc}")

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return math.inf
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-12))


def same_output(got, first) -> bool:
    """A repeated operation on the same input gave the same answer."""
    return rel_err(got, first) <= REPEAT_REL_TOL


# --- offline-clip ---

def offline_matches_reference(logits, clip, spec, weights) -> bool:
    """Program logits of one clip against the float64 tap-by-tap reference."""
    want = reference.forward(clip, spec, weights)
    return rel_err(logits, want) <= OFFLINE_REL_TOL


def macs_match(macs_tsm: int, macs_tsn: int, frames: int, per_frame: int,
               per_frame_tsn: int) -> bool:
    """Shifting costs no MACs: the TSM net counts T x the closed-form frame
    cost, which has no term for the shift; the TSN control counts T x its
    own closed form."""
    return macs_tsm == frames * per_frame and macs_tsn == frames * per_frame_tsn


# --- stream-toy ---

def stream_step_verdicts(logits, consensus, state_bytes, prefix_frames, spec,
                         weights, window: int, footprint: int) -> np.ndarray:
    """One verdict per stream step.

    logits and consensus are (steps, K) as the program returned them,
    state_bytes its state_nbytes after each step, prefix_frames the first
    (P, 1, C, H, W) frames it was fed. A step is right when
      - within the first P steps, its logits match the float64
        reference run causally (forward shift only) over the same frames;
      - its consensus is the float64 mean of the last ``window`` logits
        (reference logits inside the prefix, the program's own after it);
      - the state holds the shift caches plus the consensus buffers: a
        float64 running sum and one float64 logit row per frame kept.
    """
    logits = np.asarray(logits, dtype=np.float64)
    steps, k = logits.shape
    prefix = min(len(prefix_frames), steps)
    ok = np.ones(steps, dtype=bool)

    ref = reference.forward(
        np.asarray(prefix_frames[:prefix]).reshape((1, prefix) + prefix_frames.shape[2:]),
        spec, weights, causal=True)[0]
    ok[:prefix] &= np.abs(logits[:prefix] - ref).max(axis=1) <= STREAM_ABS_TOL

    trusted = logits.copy()
    trusted[:prefix] = ref
    csum = np.concatenate([np.zeros((1, k)), np.cumsum(trusted, axis=0)])
    idx = np.arange(steps)
    lo = np.maximum(idx + 1 - window, 0)
    want = (csum[idx + 1] - csum[lo]) / (idx + 1 - lo)[:, None]
    ok &= np.abs(np.asarray(consensus, dtype=np.float64) - want).max(axis=1) <= STREAM_ABS_TOL

    row = k * 8  # one float64 logit row, batch 1
    kept = np.minimum(idx + 1, window)
    ok &= np.asarray(state_bytes) == footprint + row + kept * row
    return ok


# --- train-toy ---

def history_ok(losses, first_round_losses=None) -> bool:
    """Every epoch's mean loss is finite, the last is below the first, and a
    repeated round (same seed, same data) retraces the first round's losses."""
    losses = [float(v) for v in losses]
    if not all(math.isfinite(v) for v in losses) or not losses[-1] < losses[0]:
        return False
    if first_round_losses is not None:
        return rel_err(losses, first_round_losses) <= REPEAT_REL_TOL
    return True


def control_ok(accuracy: float) -> bool:
    """A frame-order-blind net scores exactly chance on reversal pairs."""
    return accuracy == 0.5


def central_difference(loss, weights: dict, name: str, index: int) -> float:
    """d loss / d weights[name].flat[index] by central differences.

    A step whose two sides put some relu input on opposite sides of zero
    straddles a kink, where the difference quotient is not the derivative;
    the step then shrinks until both sides share every relu's sign.
    """
    step = FD_STEP
    for _ in range(FD_SHRINKS):
        sides = []
        for sign in (1, -1):
            bumped = dict(weights)
            arr = weights[name].copy()
            arr.flat[index] += sign * step
            bumped[name] = arr
            signs: list = []
            sides.append((loss(bumped, signs), signs))
        (up, up_signs), (down, down_signs) = sides
        if all(np.array_equal(a, b) for a, b in zip(up_signs, down_signs)):
            break
        step /= 10
    return (up - down) / (2 * step)


def gradient_verdicts(grads, clips, labels, spec, weights, seed: int) -> dict:
    """Program gradients against central differences of the reference loss.

    weights and grads are float64; a few coordinates of every tensor are
    sampled. Returns {tensor name: ok}.
    """
    rng = np.random.default_rng(seed)

    def loss(w, signs):
        return reference.clip_loss(clips, labels, spec, w, relu_signs=signs)

    out = {}
    for name in sorted(weights):
        size = weights[name].size
        picks = rng.choice(size, size=min(FD_COORDS_PER_TENSOR, size), replace=False)
        fd = np.array([central_difference(loss, weights, name, i) for i in picks])
        got = np.asarray(grads.get(name, np.full(weights[name].shape, np.nan)),
                         dtype=np.float64).reshape(-1)
        # relative to the tensor's largest gradient, so a sampled coordinate
        # whose gradient is ~0 is judged against the tensor's scale
        scale = max(float(np.abs(got).max()), 1e-8)
        err = float(np.abs(got[picks] - fd).max()) / scale
        out[name] = bool(np.all(np.isfinite(got))) and err <= GRAD_REL_TOL
    return out
