"""Plain SGD on softmax cross-entropy of consensus logits.

A minibatch runs the network's forward walk with a record list and then
net.backward_walk, the same layer order in reverse (shift layers through
the adjoint shift). Consensus spreads its gradient uniformly over frames.
Training the toy task demonstrates what consensus alone cannot learn:
frame order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, TrainingDiverged
from .net import (
    NetworkSpec,
    PLACEMENT_RESIDUAL,
    BlockSpec,
    backward_walk,
    check_weights,
    consensus_average,
    forward_offline_array,
    init_weights,
)
from .ops import ConvSpec, softmax_cross_entropy
from .shift import ShiftSpec
from .synthdata import SyntheticClip, stack_dataset

# clips per forward pass in evaluate; bounds its peak memory
EVAL_CHUNK = 256


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    batch_size: int = 16
    epochs: int = 30
    seed: int = 0
    train_count: int = 512
    test_count: int = 256

    def __post_init__(self):
        lr = self.learning_rate
        if (isinstance(lr, bool) or not isinstance(lr, numbers.Real)
                or not math.isfinite(lr) or lr < 0):
            raise InvalidSpec(f"learning rate must be a finite number >= 0, got {lr!r}")
        for name in ("batch_size", "epochs", "seed", "train_count", "test_count"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise InvalidSpec(f"{name} must be an integer, got {v!r}")
        if min(self.batch_size, self.epochs, self.train_count, self.test_count) < 1:
            raise InvalidSpec(f"config values must be positive: {self}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float | None


def toy_network_spec(t: int = 8, h: int = 16, w: int = 16) -> NetworkSpec:
    """Smallest network exercising residual shift placement.

    3x3 stem to 8 channels, two residual blocks shifting one channel each
    way (an eighth of the channels per direction), pool, 2-class head.
    """
    block = BlockSpec(
        conv1=ConvSpec(8, 8, 3, pad=1),
        conv2=ConvSpec(8, 8, 3, pad=1),
        placement=PLACEMENT_RESIDUAL,
        shift=ShiftSpec(1, 1),
    )
    return NetworkSpec(in_channels=1, height=h, width=w, frames=t,
                       stem=ConvSpec(1, 8, 3, pad=1), blocks=(block, block),
                       num_classes=2)


def batch_loss_and_grads(clips: np.ndarray, labels: np.ndarray,
                         spec: NetworkSpec, store: dict):
    """(loss, correct count, weight gradients) for one minibatch."""
    t = clips.shape[1]
    cache: list = []
    logits = forward_offline_array(clips, spec, store, cache)
    consensus = consensus_average(logits)
    loss, d_cons = softmax_cross_entropy(consensus, labels)
    correct = int(np.sum(np.argmax(consensus, axis=1) == labels))
    # consensus is a mean over frames: gradient spreads uniformly as 1/T
    d_logits = np.broadcast_to(
        (d_cons / t)[:, None, :], logits.shape).astype(logits.dtype)
    grads = backward_walk(d_logits, store, cache)
    return loss, correct, grads


def _pair_shuffle(rng: np.random.Generator, n: int) -> np.ndarray:
    """Permutation of range(n) that keeps index pairs (2i, 2i+1) adjacent."""
    if n % 2:
        return rng.permutation(n)
    pair_order = rng.permutation(n // 2)
    return np.stack([2 * pair_order, 2 * pair_order + 1], axis=1).reshape(-1)


def train(spec: NetworkSpec, cfg: TrainConfig, data: list[SyntheticClip],
          test_data: list[SyntheticClip] | None = None):
    """SGD over minibatches; returns (weights, per-epoch stats).

    Deterministic given (seed, config, data): weight init and the epoch
    shuffles both derive from cfg.seed. A non-finite loss aborts with
    TrainingDiverged rather than returning poisoned weights.

    Shuffling moves adjacent index pairs (2i, 2i + 1) as units. Datasets
    built from reversal pairs keep both members in one minibatch, where
    their direction-free gradient components cancel (shared frames,
    opposite labels) instead of drowning the temporal signal; for data
    without that structure it is merely a coarser shuffle.
    """
    if spec.num_classes != 2:
        raise InvalidSpec(f"the direction task has 2 classes, spec has {spec.num_classes}")
    store = init_weights(spec, seed=cfg.seed)
    clips, labels = stack_dataset(data)
    rng = np.random.default_rng(cfg.seed)
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        order = _pair_shuffle(rng, len(labels))
        total_loss = 0.0
        total_correct = 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            loss, correct, grads = batch_loss_and_grads(
                clips[idx], labels[idx], spec, store)
            if not math.isfinite(loss):
                raise TrainingDiverged(f"loss went non-finite ({loss}) in epoch {epoch}")
            total_loss += loss * len(idx)
            total_correct += correct
            for name, grad in grads.items():
                store[name] -= cfg.learning_rate * grad
        test_acc = evaluate(spec, store, test_data) if test_data else None
        history.append(EpochStats(
            epoch=epoch,
            train_loss=total_loss / len(labels),
            train_acc=total_correct / len(labels),
            test_acc=test_acc,
        ))
    return store, history


def evaluate(spec: NetworkSpec, store: dict, data: list[SyntheticClip]) -> float:
    """Fraction of clips whose consensus argmax hits the label."""
    check_weights(spec, store)
    clips, labels = stack_dataset(data)
    correct = 0
    for lo in range(0, len(labels), EVAL_CHUNK):
        logits = forward_offline_array(clips[lo:lo + EVAL_CHUNK], spec, store)
        pred = np.argmax(consensus_average(logits), axis=1)
        correct += int(np.sum(pred == labels[lo:lo + EVAL_CHUNK]))
    return correct / len(labels)


def metrics_to_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,train_loss,train_acc,test_acc"]
    for row in history:
        test = "" if row.test_acc is None else f"{row.test_acc:.6g}"
        lines.append(f"{row.epoch},{row.train_loss:.6g},{row.train_acc:.6g},{test}")
    return "\n".join(lines) + "\n"
