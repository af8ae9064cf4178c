"""Plain SGD on softmax cross-entropy of consensus logits.

The backward pass is written out by hand, mirroring the forward cache:
consensus distributes gradient uniformly over frames, shift layers
backpropagate through the adjoint shift (the direction-swapped shift), and
everything else is the standard conv/relu/pool/linear chain. Training the
toy task demonstrates what consensus alone cannot learn: frame order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, TrainingDiverged
from .net import (
    NetworkSpec,
    PLACEMENT_NONE,
    PLACEMENT_RESIDUAL,
    BlockSpec,
    _conv_params,
    _frames,
    _unfold,
    check_weights,
    consensus_average,
    forward_offline_array,
    init_weights,
)
from .ops import (
    ConvSpec,
    LinearParams,
    conv2d_backward,
    global_avg_pool_backward,
    linear_backward,
    relu_backward,
    softmax_cross_entropy,
)
from .shift import ShiftSpec, _shift_array
from .synthdata import SyntheticClip, stack_dataset


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    batch_size: int = 16
    epochs: int = 30
    seed: int = 0
    train_count: int = 512
    test_count: int = 256

    def __post_init__(self):
        if self.learning_rate < 0:
            raise InvalidSpec(f"learning rate must be >= 0, got {self.learning_rate}")
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


def network_backward(grad_logits: np.ndarray, spec: NetworkSpec, store: dict,
                     cache: list) -> dict[str, np.ndarray]:
    """Gradients of every weight given d(loss)/d(per-frame logits).

    cache is the list recorded by forward_offline_array on the same batch.
    """
    n, t = grad_logits.shape[:2]
    grads: dict[str, np.ndarray] = {}
    head = cache[-1]
    assert head["kind"] == "head"
    g_flat = _frames(grad_logits)
    gx, grads["head.w"], grads["head.b"] = linear_backward(
        head["pooled"], LinearParams(store["head.w"], store["head.b"]), g_flat)
    g = global_avg_pool_backward(head["pool_in"], gx)

    for entry in reversed(cache[1:-1]):
        assert entry["kind"] == "block"
        b: BlockSpec = entry["spec"]
        name = entry["name"]
        d_z2 = relu_backward(entry["z2"], g)
        d_r1, gw2, gb2 = conv2d_backward(
            entry["r1"], _conv_params(b.conv2, store, name + ".conv2"), d_z2,
            cols=entry["cols2"])
        grads[name + ".conv2.w"], grads[name + ".conv2.b"] = gw2, gb2
        d_z1 = relu_backward(entry["z1"], d_r1)
        d_xs, gw1, gb1 = conv2d_backward(
            entry["xs"], _conv_params(b.conv1, store, name + ".conv1"), d_z1,
            cols=entry["cols1"])
        grads[name + ".conv1.w"], grads[name + ".conv1.b"] = gw1, gb1
        d_in = _unfold(d_xs, n, t)
        if b.placement != PLACEMENT_NONE:
            d_in = _shift_array(d_in, b.shift, -1)
        if b.placement == PLACEMENT_RESIDUAL:
            d_skip = g
            if b.downsample is not None:
                d_skip, gwd, gbd = conv2d_backward(
                    _frames(entry["x"]),
                    _conv_params(b.downsample, store, name + ".down"), g,
                    cols=entry["cols_down"])
                grads[name + ".down.w"], grads[name + ".down.b"] = gwd, gbd
            d_in = d_in + _unfold(d_skip, n, t)
        g = _frames(d_in)

    stem = cache[0]
    assert stem["kind"] == "stem"
    d_zs = relu_backward(stem["z"], g)
    _, grads["stem.w"], grads["stem.b"] = conv2d_backward(
        stem["x"], _conv_params(spec.stem, store, "stem"), d_zs,
        cols=stem["cols"])
    return grads


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
    grads = network_backward(d_logits, spec, store, cache)
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


def evaluate(spec: NetworkSpec, store: dict, data: list[SyntheticClip],
             chunk: int = 256) -> float:
    """Fraction of clips whose consensus argmax hits the label."""
    check_weights(spec, store)
    clips, labels = stack_dataset(data)
    correct = 0
    for lo in range(0, len(labels), chunk):
        logits = forward_offline_array(clips[lo:lo + chunk], spec, store)
        pred = np.argmax(consensus_average(logits), axis=1)
        correct += int(np.sum(pred == labels[lo:lo + chunk]))
    return correct / len(labels)


def metrics_to_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,train_loss,train_acc,test_acc"]
    for row in history:
        test = "" if row.test_acc is None else f"{row.test_acc:.6g}"
        lines.append(f"{row.epoch},{row.train_loss:.6g},{row.train_acc:.6g},{test}")
    return "\n".join(lines) + "\n"
