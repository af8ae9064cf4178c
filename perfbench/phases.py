"""The timed activities, with tracing off, and the schedule that interleaves them.

A run measures four activities: training (one train() call of a fixed
number of epochs), evaluation (one evaluate() call on the test set), offline
clips (one clip through the TSM net and through the TSN net, in alternating
order) and streaming (a chunk of consecutive stream steps). Each call to an
activity's unit runs one whole round of it. The schedule interleaves the
units so that every activity's samples spread over the whole run and see
the same machine conditions: it always runs the activity that is furthest
behind its target. Only program calls are timed; the bookkeeping for the
checks happens outside the timed interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from tsmkit.net import forward_offline_array
from tsmkit.stream import state_nbytes, stream_init, stream_step
from tsmkit.train import evaluate, train

from . import inputs
from .checks import Tally, history_ok, same_output

STREAM_CHUNK = 1024  # steps per stream unit


@dataclass
class Activity:
    """Runs ``unit(i)`` until ``target`` units are done and, with a budget,
    until ``budget_s`` seconds were spent as well."""

    name: str
    unit: object
    target: int = 1
    budget_s: float | None = None
    done: int = 0
    spent_s: float = 0.0

    def progress(self) -> float:
        units = self.done / self.target
        if self.budget_s is None:
            return units
        return min(units, self.spent_s / self.budget_s)


def run_interleaved(activities) -> None:
    """Always run a unit of the activity furthest behind, until all are done."""
    while True:
        pending = [a for a in activities if a.progress() < 1.0]
        if not pending:
            return
        a = min(pending, key=Activity.progress)
        t0 = time.perf_counter()
        a.unit(a.done)
        a.spent_s += time.perf_counter() - t0
        a.done += 1


@dataclass
class TrainResult:
    train_s: list = field(default_factory=list)
    train_clips: int = 0
    eval_s: list = field(default_factory=list)
    eval_clips: int = 0
    store: dict | None = None
    first_losses: list | None = None
    first_accuracy: float | None = None


def train_units(p, tally: Tally):
    """(train unit, evaluate unit, result); evaluate uses the latest trained weights."""
    inp = p.inp
    res = TrainResult()

    def train_unit(r: int) -> None:
        try:
            t0 = time.perf_counter()
            store, history = train(inp.toy, inp.train_cfg, inp.train_data)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a failed round is counted, the run goes on
            tally.raised(f"train round {r}", exc)
            return
        res.train_s.append(dt)
        res.train_clips += inp.train_cfg.epochs * len(inp.train_data)
        losses = [h.train_loss for h in history]
        tally.record(history_ok(losses, res.first_losses), f"train round {r}: losses {losses}")
        res.first_losses = res.first_losses or losses
        res.store = store

    def eval_unit(r: int) -> None:
        try:
            t0 = time.perf_counter()
            acc = evaluate(inp.toy, res.store, inp.test_data)
            dt = time.perf_counter() - t0
        except Exception as exc:
            tally.raised(f"evaluate {r}", exc)
            return
        res.eval_s.append(dt)
        res.eval_clips += len(inp.test_data)
        if res.first_accuracy is None:
            res.first_accuracy = acc
        tally.record(0.0 <= acc <= 1.0 and acc == res.first_accuracy,
                     f"evaluate {r} gave {acc}, first gave {res.first_accuracy}")

    return train_unit, eval_unit, res


@dataclass
class OfflineResult:
    tsm_ns: list = field(default_factory=list)
    tsn_ns: list = field(default_factory=list)
    first: dict = field(default_factory=dict)   # (variant, clip index) -> logits


def offline_unit(p, tally: Tally):
    inp = p.inp
    res = OfflineResult()
    variants = (("tsm", inp.resnet, res.tsm_ns), ("tsn", inp.resnet_tsn, res.tsn_ns))

    def unit(r: int) -> None:
        i = r % len(inp.clips)
        clip = inp.clips[i]
        for name, spec, samples in (variants if r % 2 == 0 else variants[::-1]):
            try:
                t0 = time.perf_counter_ns()
                logits = forward_offline_array(clip, spec, inp.resnet_weights)
                dt = time.perf_counter_ns() - t0
            except Exception as exc:
                tally.raised(f"offline {name} clip {i}", exc)
                continue
            samples.append(dt)
            key = (name, i)
            if key in res.first:
                tally.record(same_output(logits, res.first[key]),
                             f"offline {name} clip {i} differs from its first run")
            else:
                res.first[key] = logits
                tally.record(bool(np.all(np.isfinite(logits))), f"offline {name} clip {i} finite")

    return unit, res


@dataclass
class StreamResult:
    step_ns: list = field(default_factory=list)
    logits: list = field(default_factory=list)
    consensus: list = field(default_factory=list)
    state_bytes: list = field(default_factory=list)
    raised: list = field(default_factory=list)   # per step: did the call raise


def stream_unit(p, tally: Tally):
    """One long stream, STREAM_CHUNK consecutive steps per unit."""
    inp = p.inp
    res = StreamResult()
    state = stream_init(inp.stream_spec, batch=1, window=inputs.STREAM_WINDOW)
    nan_row = np.full(inp.stream_spec.num_classes, np.nan)

    def unit(r: int) -> None:
        nonlocal state
        for step in range(r * STREAM_CHUNK, (r + 1) * STREAM_CHUNK):
            frame = p.frames[step % len(p.frames)]
            try:
                t0 = time.perf_counter_ns()
                logits, consensus, state = stream_step(frame, inp.stream_spec,
                                                       inp.stream_weights, state)
                dt = time.perf_counter_ns() - t0
            except Exception as exc:
                tally.raised(f"stream step {step}", exc)
                res.logits.append(nan_row)
                res.consensus.append(nan_row)
                res.state_bytes.append(-1)
                res.raised.append(True)
                continue
            res.step_ns.append(dt)
            res.logits.append(logits[0])
            res.consensus.append(consensus[0])
            res.state_bytes.append(state_nbytes(state))
            res.raised.append(False)

    return unit, res
