"""Trainer mechanics on miniature configs; the long demo lives in acceptance."""

import math
import types

import numpy as np
import pytest

from tsmkit.errors import InvalidSpec, TrainingDiverged
from tsmkit.net import (
    BlockSpec,
    NetworkSpec,
    consensus_average,
    forward_offline_array,
    init_weights,
    with_placements_none,
)
from tsmkit.ops import ConvSpec
from tsmkit.shift import ShiftSpec
from tsmkit.synthdata import gen_dataset, stack_dataset
from tsmkit.train import (
    TrainConfig,
    _pair_shuffle,
    batch_loss_and_grads,
    evaluate,
    metrics_to_csv,
    toy_network_spec,
    train,
)

from helpers import central_diff_grad


def tiny_spec(frames=4, hw=8, with_down=False):
    down = ConvSpec(4, 4, 1, pad=0) if with_down else None
    block = BlockSpec(ConvSpec(4, 4, 3, pad=1), ConvSpec(4, 4, 3, pad=1),
                      placement="residual", shift=ShiftSpec(1, 1),
                      downsample=down)
    return NetworkSpec(in_channels=1, height=hw, width=hw, frames=frames,
                       stem=ConvSpec(1, 4, 3, pad=1), blocks=(block,),
                       num_classes=2)


def tiny_config(**kw):
    base = dict(learning_rate=0.05, batch_size=8, epochs=2, seed=0,
                train_count=16, test_count=16)
    base.update(kw)
    return TrainConfig(**base)


# --- shuffle ---


def test_pair_shuffle_keeps_pairs_adjacent():
    rng = np.random.default_rng(0)
    order = _pair_shuffle(rng, 20)
    assert sorted(order.tolist()) == list(range(20))
    for i in range(0, 20, 2):
        assert order[i + 1] == order[i] + 1
        assert order[i] % 2 == 0


def test_pair_shuffle_odd_falls_back():
    rng = np.random.default_rng(0)
    order = _pair_shuffle(rng, 7)
    assert sorted(order.tolist()) == list(range(7))


# --- training loop invariants ---


def test_zero_lr_is_fixed_point():
    spec = tiny_spec()
    cfg = tiny_config(learning_rate=0.0, epochs=3)
    data = gen_dataset(0, cfg.train_count, 4, 8, 8)
    store, history = train(spec, cfg, data)
    init = init_weights(spec, seed=cfg.seed)
    assert store.keys() == init.keys()
    for name in store:
        np.testing.assert_array_equal(store[name], init[name])
    # with weights frozen at init the loss sits at ln 2: tiny logits,
    # balanced labels
    for stats in history:
        assert abs(stats.train_loss - math.log(2)) < 0.05


def test_history_shape_and_test_metric():
    spec = tiny_spec()
    cfg = tiny_config(epochs=3)
    data = gen_dataset(0, cfg.train_count, 4, 8, 8)
    test = gen_dataset(1, cfg.test_count, 4, 8, 8)
    _, hist = train(spec, cfg, data)
    assert [s.epoch for s in hist] == [0, 1, 2]
    assert all(s.test_acc is None for s in hist)
    assert all(0.0 <= s.train_acc <= 1.0 for s in hist)
    _, hist2 = train(spec, cfg, data, test_data=test)
    assert all(s.test_acc is not None for s in hist2)


def test_train_deterministic():
    spec = tiny_spec()
    cfg = tiny_config()
    data = gen_dataset(2, cfg.train_count, 4, 8, 8)
    store_a, hist_a = train(spec, cfg, data)
    store_b, hist_b = train(spec, cfg, data)
    for name in store_a:
        np.testing.assert_array_equal(store_a[name], store_b[name])
    assert hist_a == hist_b


def test_train_rejects_wrong_class_count():
    spec = tiny_spec()
    bad = NetworkSpec(in_channels=spec.in_channels, height=spec.height,
                      width=spec.width, frames=spec.frames, stem=spec.stem,
                      blocks=spec.blocks, num_classes=3)
    with pytest.raises(InvalidSpec):
        train(bad, tiny_config(), gen_dataset(0, 16, 4, 8, 8))


def test_divergence_detected():
    spec = tiny_spec()
    cfg = tiny_config(learning_rate=1e18, epochs=4)
    data = gen_dataset(0, cfg.train_count, 4, 8, 8)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        train(spec, cfg, data)


# --- gradients of the full model ---


def test_full_model_gradients_match_finite_differences():
    # float64 shadow of the whole network, h small enough to stay on one
    # side of every relu kink
    spec = tiny_spec(with_down=False)
    down_spec = tiny_spec(with_down=True)
    for sp, seed in ((spec, 0), (down_spec, 1)):
        store = {k: v.astype(np.float64)
                 for k, v in init_weights(sp, seed=seed).items()}
        data = gen_dataset(seed, 4, 4, 8, 8)
        clips, labels = stack_dataset(data)
        clips = clips.astype(np.float64)
        _, _, grads = batch_loss_and_grads(clips, labels, sp, store)

        for name in store:
            def loss_of(arr, _name=name):
                probe = dict(store)
                probe[_name] = arr
                loss, _, _ = batch_loss_and_grads(clips, labels, sp, probe)
                return loss

            fd = central_diff_grad(loss_of, store[name], h=1e-6)
            scale = max(np.abs(fd).max(), np.abs(grads[name]).max(), 1e-8)
            err = np.abs(fd - grads[name]).max() / scale
            assert err < 1e-4, f"{name}: rel err {err:.3g}"


# --- evaluation and the order-invariance ceiling ---


def test_shift_free_network_scores_exactly_half_on_paired_data():
    # paired test data: both members share the multiset of frames, a
    # frame-order-invariant model gives them the same argmax, labels
    # disagree, so exactly one of each pair is right
    spec = with_placements_none(toy_network_spec())
    store = init_weights(spec, seed=9)
    data = gen_dataset(4, 200, 8, 16, 16)
    assert evaluate(spec, store, data) == 0.5


def test_untrained_tsm_network_near_chance():
    spec = toy_network_spec()
    store = init_weights(spec, seed=9)
    data = gen_dataset(4, 200, 8, 16, 16)
    assert 0.25 <= evaluate(spec, store, data) <= 0.75


def test_consensus_ceiling_bit_exact_for_shift_free():
    spec = with_placements_none(toy_network_spec())
    store = init_weights(spec, seed=3)
    clips = gen_dataset(6, 8, 8, 16, 16)
    for c in clips:
        fwd = consensus_average(forward_offline_array(c.clip.data, spec, store))
        rev = consensus_average(
            forward_offline_array(c.clip.data[:, ::-1].copy(), spec, store))
        np.testing.assert_array_equal(fwd, rev)


def test_shift_network_breaks_the_ceiling():
    spec = toy_network_spec()
    store = init_weights(spec, seed=3)
    clips = gen_dataset(6, 8, 8, 16, 16)
    diffs = []
    for c in clips:
        fwd = consensus_average(forward_offline_array(c.clip.data, spec, store))
        rev = consensus_average(
            forward_offline_array(c.clip.data[:, ::-1].copy(), spec, store))
        diffs.append(np.abs(fwd - rev).max())
    assert max(diffs) > 0


# --- metrics serialization ---


def test_metrics_to_csv():
    spec = tiny_spec()
    cfg = tiny_config(epochs=2)
    data = gen_dataset(0, cfg.train_count, 4, 8, 8)
    test = gen_dataset(1, cfg.test_count, 4, 8, 8)
    _, hist = train(spec, cfg, data, test_data=test)
    text = metrics_to_csv(hist)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_acc,test_acc"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(hist[0].train_loss)

    _, hist_no_test = train(spec, cfg, data)
    rows = metrics_to_csv(hist_no_test).strip().split("\n")[1:]
    assert all(r.endswith(",") for r in rows)


def test_config_validation():
    with pytest.raises(InvalidSpec):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(InvalidSpec):
        TrainConfig(batch_size=0)
    with pytest.raises(InvalidSpec):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidSpec):
        TrainConfig(seed=-1)
    for bad in ({"epochs": "3"}, {"batch_size": True}, {"train_count": 8.0},
                {"seed": None}, {"learning_rate": math.inf},
                {"learning_rate": math.nan}, {"learning_rate": "0.1"},
                {"learning_rate": True}):
        with pytest.raises(InvalidSpec):
            TrainConfig(**bad)


def test_train_module_is_not_shadowed():
    # the package root re-exports no function named train, so the
    # submodule attribute stays the module
    import tsmkit.train as m
    assert isinstance(m, types.ModuleType)
    assert m.EVAL_CHUNK >= 1
