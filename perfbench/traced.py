"""The traced run: spans around every call into the program, and layer replay.

Spans are recorded from the benchmark's own code, never from inside the
program. Where a module's work is hidden inside one program call (the convs
inside forward_offline_array, the layers inside stream_step, the backward
pass inside batch_loss_and_grads), the unit is run twice: once as the program
call, timed whole, and once replayed layer by layer through the public
functions of tsmkit.ops, tsmkit.shift and tsmkit.net, each layer in its own
span. The replay's output must reproduce the program's. The program's time
outside the replayed layers is its glue.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from tsmkit.net import consensus_average, forward_offline_array, init_weights
from tsmkit.ops import (Conv2dParams, LinearParams, conv2d_backward, conv2d_forward,
                        global_avg_pool_backward, global_avg_pool_forward, linear_backward,
                        linear_forward, relu_backward, relu_forward, softmax_cross_entropy)
from tsmkit.shift import ShiftCache, shift_adjoint, shift_offline, shift_online_step
from tsmkit.stream import stream_init, stream_step
from tsmkit.synthdata import stack_dataset
from tsmkit.tensor import ACTIVATION_AXES, FRAME_AXES, Tensor
from tsmkit.train import batch_loss_and_grads

from . import inputs
from .checks import Tally, rel_err

REPLAY_REL_TOL = 1e-5

CONV_FWD = "ops.conv2d_forward"
CONV_BWD = "ops.conv2d_backward"
SHIFT_FWD = "shift.shift_offline"
SHIFT_ADJ = "shift.shift_adjoint"
SHIFT_ONLINE = "shift.shift_online_step"
CONSENSUS = "net.consensus_average"
ELEMENTWISE = ("ops.relu_forward", "ops.relu_backward", "ops.global_avg_pool_forward",
               "ops.global_avg_pool_backward", "ops.linear_forward", "ops.linear_backward",
               "ops.softmax_cross_entropy")
LAYERS = (CONV_FWD, CONV_BWD, SHIFT_FWD, SHIFT_ADJ, SHIFT_ONLINE, CONSENSUS,
          "net.forward_offline_array") + ELEMENTWISE


class Tracer:
    """Spans kept in memory as [name, start ns, end ns, parent index or -1]."""

    def __init__(self):
        self.spans: list = []
        self._open = [-1]

    def __call__(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        rec = [self.name, 0, 0, t._open[-1]]
        t.spans.append(rec)
        t._open.append(self.index)
        rec[1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t._open.pop()
        return False


def per_root(spans: list, root_name: str) -> list[dict]:
    """For each root span named root_name, in order: its duration under
    "total", and per span name the summed duration and count ("#name") of
    the spans below it."""
    root_of = [0] * len(spans)
    out: dict[int, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        root = i if parent < 0 else root_of[parent]
        root_of[i] = root
        if parent < 0:
            if name == root_name:
                out[i] = {"total": end - start}
        elif root in out:
            d = out[root]
            d[name] = d.get(name, 0) + (end - start)
            d["#" + name] = d.get("#" + name, 0) + 1
    return list(out.values())


def layer_ns(d: dict, names=LAYERS) -> int:
    return sum(d.get(n, 0) for n in names)


def _conv_params(spec, store) -> dict:
    params = {"stem": Conv2dParams(store["stem.w"], store["stem.b"],
                                   spec.stem.stride, spec.stem.pad)}
    for i, b in enumerate(spec.blocks):
        for part, c in (("conv1", b.conv1), ("conv2", b.conv2), ("down", b.downsample)):
            if c is not None:
                name = f"block{i}.{part}"
                params[name] = Conv2dParams(store[name + ".w"], store[name + ".b"],
                                            c.stride, c.pad)
    return params


# --- offline clip ---

def _replay_stem(tr: Tracer, x: np.ndarray, params) -> np.ndarray:
    with tr(CONV_FWD):
        z = conv2d_forward(x, params["stem"])
    with tr("ops.relu_forward"):
        return relu_forward(z)


def _replay_block_rest(tr: Tracer, cur, branch, b, params, name: str) -> np.ndarray:
    """A block after its shift: two conv + relu on the branch, plus the skip path."""
    y = branch
    for conv in ("conv1", "conv2"):
        with tr(CONV_FWD):
            y = conv2d_forward(y, params[f"{name}.{conv}"])
        with tr("ops.relu_forward"):
            y = relu_forward(y)
    if b.placement == "residual":
        skip = cur
        if b.downsample is not None:
            with tr(CONV_FWD):
                skip = conv2d_forward(cur, params[name + ".down"])
        y = skip + y
    return y


def _replay_head(tr: Tracer, cur: np.ndarray, head: LinearParams) -> np.ndarray:
    with tr("ops.global_avg_pool_forward"):
        pooled = global_avg_pool_forward(cur)
    with tr("ops.linear_forward"):
        return linear_forward(pooled, head)


def replay_offline(tr: Tracer, clip: np.ndarray, spec, store, params) -> np.ndarray:
    n, t = clip.shape[:2]
    cur = _replay_stem(tr, clip.reshape((n * t,) + clip.shape[2:]), params)
    for i, b in enumerate(spec.blocks):
        with tr(f"net.block{i}"):
            branch = cur
            if b.placement != "none":
                act = Tensor(cur.reshape((n, t) + cur.shape[1:]), ACTIVATION_AXES)
                with tr(SHIFT_FWD):
                    shifted = shift_offline(act, b.shift)
                branch = shifted.data.reshape(cur.shape)
            cur = _replay_block_rest(tr, cur, branch, b, params, f"block{i}")
    logits = _replay_head(tr, cur, LinearParams(store["head.w"], store["head.b"]))
    return logits.reshape(n, t, -1)


def offline_traced_unit(p, tr: Tracer, tally: Tally):
    """One traced TSM/TSN pair: each clip as a program call, then replayed."""
    inp = p.inp
    params = _conv_params(inp.resnet, inp.resnet_weights)
    variants = (("tsm", inp.resnet), ("tsn", inp.resnet_tsn))

    def unit(r: int) -> None:
        i = r % len(inp.clips)
        clip = inp.clips[i]
        for name, spec in (variants if r % 2 == 0 else variants[::-1]):
            try:
                with tr(f"program.offline.{name}"):
                    logits = forward_offline_array(clip, spec, inp.resnet_weights)
                with tr(f"replay.offline.{name}"):
                    again = replay_offline(tr, clip, spec, inp.resnet_weights, params)
            except Exception as exc:
                tally.raised(f"traced offline {name} clip {i}", exc)
                continue
            tally.record(rel_err(again, logits) <= REPLAY_REL_TOL,
                         f"offline {name} replay differs from the program")

    return unit


# --- stream step ---

class StreamReplay:
    """Layer-by-layer stream step with its own shift caches and window."""

    def __init__(self, spec, store, window: int):
        self.spec = spec
        self.params = _conv_params(spec, store)
        self.head = LinearParams(store["head.w"], store["head.b"])
        shapes = spec.stage_shapes()
        self.caches = {i: ShiftCache.for_stream(1, b.shift.n_fwd, shapes[i][1], shapes[i][2])
                       for i, b in enumerate(spec.blocks) if b.placement != "none"}
        self.recent = deque(maxlen=window)

    def step(self, tr: Tracer, frame: np.ndarray):
        cur = _replay_stem(tr, frame, self.params)
        for i, b in enumerate(self.spec.blocks):
            branch = cur
            if b.placement != "none":
                ft = Tensor(cur, FRAME_AXES)
                with tr(SHIFT_ONLINE):
                    shifted, _ = shift_online_step(ft, b.shift, self.caches[i])
                branch = shifted.data
            cur = _replay_block_rest(tr, cur, branch, b, self.params, f"block{i}")
        logits = _replay_head(tr, cur, self.head)
        self.recent.append(logits)
        window = np.stack(self.recent, axis=1)
        with tr(CONSENSUS):
            consensus = consensus_average(window)
        return logits, consensus


TRACED_STREAM_CHUNK = 64


def stream_traced_unit(p, tr: Tracer, tally: Tally):
    """TRACED_STREAM_CHUNK traced steps of one stream; returns (unit, state holder)."""
    inp = p.inp
    holder = {"state": stream_init(inp.stream_spec, batch=1, window=inputs.STREAM_WINDOW)}
    replay = StreamReplay(inp.stream_spec, inp.stream_weights, inputs.STREAM_WINDOW)

    def unit(r: int) -> None:
        for step in range(r * TRACED_STREAM_CHUNK, (r + 1) * TRACED_STREAM_CHUNK):
            frame = p.frames[step % len(p.frames)]
            try:
                with tr("program.stream"):
                    logits, consensus, holder["state"] = stream_step(
                        frame, inp.stream_spec, inp.stream_weights, holder["state"])
                with tr("replay.stream"):
                    again, again_cons = replay.step(tr, frame.data)
            except Exception as exc:
                tally.raised(f"traced stream step {step}", exc)
                continue
            tally.record(rel_err(again, logits) <= REPLAY_REL_TOL
                         and rel_err(again_cons, consensus) <= REPLAY_REL_TOL,
                         f"stream step {step} replay differs from the program")

    return unit, holder


# --- training minibatch ---

def replay_backward(tr: Tracer, d_logits, spec, store, params, cache) -> dict:
    """Weight gradients from the cache forward_offline_array recorded."""
    n, t = d_logits.shape[:2]
    grads = {}
    head = cache[-1]
    with tr("ops.linear_backward"):
        gx, grads["head.w"], grads["head.b"] = linear_backward(
            head["pooled"], LinearParams(store["head.w"], store["head.b"]),
            d_logits.reshape(n * t, -1))
    with tr("ops.global_avg_pool_backward"):
        g = global_avg_pool_backward(head["pool_in"], gx)
    for entry in reversed(cache[1:-1]):
        b, name = entry["spec"], entry["name"]
        with tr("ops.relu_backward"):
            d = relu_backward(entry["z2"], g)
        with tr(CONV_BWD):
            d, grads[name + ".conv2.w"], grads[name + ".conv2.b"] = conv2d_backward(
                entry["r1"], params[name + ".conv2"], d, cols=entry["cols2"])
        with tr("ops.relu_backward"):
            d = relu_backward(entry["z1"], d)
        with tr(CONV_BWD):
            d, grads[name + ".conv1.w"], grads[name + ".conv1.b"] = conv2d_backward(
                entry["xs"], params[name + ".conv1"], d, cols=entry["cols1"])
        d_in = d.reshape((n, t) + d.shape[1:])
        if b.placement != "none":
            act = Tensor(d_in, ACTIVATION_AXES)
            with tr(SHIFT_ADJ):
                d_in = shift_adjoint(act, b.shift).data
        if b.placement == "residual":
            skip = g
            if b.downsample is not None:
                x = entry["x"]
                with tr(CONV_BWD):
                    skip, grads[name + ".down.w"], grads[name + ".down.b"] = conv2d_backward(
                        x.reshape((n * t,) + x.shape[2:]), params[name + ".down"], g,
                        cols=entry["cols_down"])
            d_in = d_in + skip.reshape(d_in.shape)
        g = d_in.reshape((n * t,) + d_in.shape[2:])
    stem = cache[0]
    with tr("ops.relu_backward"):
        d = relu_backward(stem["z"], g)
    with tr(CONV_BWD):
        _, grads["stem.w"], grads["stem.b"] = conv2d_backward(
            stem["x"], params["stem"], d, cols=stem["cols"])
    return grads


def cached_bytes(cache: list) -> int:
    """Bytes of the distinct arrays a forward pass keeps for backward."""
    owners = {}
    for entry in cache:
        for value in entry.values():
            if isinstance(value, np.ndarray):
                base = value
                while base.base is not None:
                    base = base.base
                owners[id(base)] = base.nbytes
    return sum(owners.values())


def train_traced_unit(p, tr: Tracer, tally: Tally):
    """One traced SGD minibatch, in data order; returns (unit, result holder).

    The program's batch_loss_and_grads is timed whole; then the same
    minibatch is run as forward_offline_array with its backward cache, the
    loss, the backward pass replayed layer by layer, and the SGD update.
    """
    inp = p.inp
    spec, cfg = inp.toy, inp.train_cfg
    clips, labels = stack_dataset(inp.train_data)
    holder = {"store": init_weights(spec, seed=cfg.seed), "kept": 0}
    store = holder["store"]
    params = _conv_params(spec, store)  # the update below works in place
    batches = len(labels) // cfg.batch_size

    def unit(r: int) -> None:
        lo = (r % batches) * cfg.batch_size
        x, y = clips[lo:lo + cfg.batch_size], labels[lo:lo + cfg.batch_size]
        try:
            with tr("program.train"):
                loss, _, grads = batch_loss_and_grads(x, y, spec, store)
            with tr("replay.train"):
                with tr("train.forward"):
                    cache: list = []
                    with tr("net.forward_offline_array"):
                        logits = forward_offline_array(x, spec, store, cache)
                with tr("train.loss"):
                    with tr(CONSENSUS):
                        consensus = consensus_average(logits)
                    with tr("ops.softmax_cross_entropy"):
                        loss_again, d_cons = softmax_cross_entropy(consensus, y)
                    d_logits = np.broadcast_to(
                        (d_cons / logits.shape[1])[:, None, :], logits.shape).astype(logits.dtype)
                with tr("train.backward"):
                    again = replay_backward(tr, d_logits, spec, store, params, cache)
                with tr("train.update"):
                    for name, grad in again.items():
                        store[name] -= cfg.learning_rate * grad
        except Exception as exc:
            tally.raised(f"traced train batch {r}", exc)
            return
        holder["kept"] = cached_bytes(cache)
        tally.record(np.isfinite(loss) and rel_err(loss_again, loss) <= REPLAY_REL_TOL
                     and grads.keys() == again.keys()
                     and all(rel_err(again[k], grads[k]) <= REPLAY_REL_TOL for k in grads),
                     f"train batch {r} replay differs from the program")

    return unit, holder
