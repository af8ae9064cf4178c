"""Metrics from the samples and spans of one run, the ceilings, and the environment."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from tsmkit.shift import bytes_moved

from .traced import (CONSENSUS, CONV_BWD, CONV_FWD, ELEMENTWISE, LAYERS, SHIFT_ADJ,
                     SHIFT_FWD, SHIFT_ONLINE, layer_ns, per_root)

CEILING_REPS = 5


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(train, offline, stream, peak_mb: float) -> dict:
    steps_us = np.asarray(stream.step_ns) / 1e3
    return {
        "peak_rss_mb": metric(peak_mb, "MiB"),
        "train_clips_per_s": metric(train.train_clips / sum(train.train_s), "clips/s"),
        "eval_clips_per_s": metric(train.eval_clips / len(train.eval_s)
                                   / statistics.median(train.eval_s), "clips/s"),
        "offline_tsm_clip_ms_p50": metric(statistics.median(offline.tsm_ns) / 1e6, "ms"),
        "offline_tsn_clip_ms_p50": metric(statistics.median(offline.tsn_ns) / 1e6, "ms"),
        "stream_step_us_p50": metric(np.percentile(steps_us, 50), "us"),
        "stream_step_us_p95": metric(np.percentile(steps_us, 95), "us"),
    }


def stream_tail(stream) -> dict:
    """Stream percentiles past p95, for the result file only: on a shared
    machine they swing too much from run to run to serve as a bound."""
    steps_us = np.asarray(stream.step_ns) / 1e3
    return {f"stream_step_us_p{q}": float(np.percentile(steps_us, q)) for q in (99, 99.9)}


# --- per layer ---

def _conv_shapes(spec, batch_frames: int):
    """(M, K, N) of each conv's im2col GEMM over batch_frames frames."""
    c, h, w = spec.in_channels, spec.height, spec.width
    convs = [(spec.stem, (c, h, w))]
    stages = spec.stage_shapes()
    for i, b in enumerate(spec.blocks):
        c, h, w = stages[i]
        h1, w1 = b.conv1.out_hw(h, w)
        convs += [(b.conv1, (c, h, w)), (b.conv2, (b.conv1.out_ch, h1, w1))]
        if b.downsample is not None:
            convs.append((b.downsample, (c, h, w)))
    out = []
    for conv, (c, h, w) in convs:
        ho, wo = conv.out_hw(h, w)
        out.append((batch_frames * ho * wo, c * conv.kernel ** 2, conv.out_ch))
    return out


def conv_macs(spec, batch_frames: int) -> int:
    return sum(m * k * n for m, k, n in _conv_shapes(spec, batch_frames))


def _median_ns(fn, reps: int = CEILING_REPS) -> float:
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def gemm_ceiling_gmacs(spec, rng) -> float:
    """One np.matmul at each conv's im2col shape, over one clip."""
    macs = ns = 0
    for m, k, n in _conv_shapes(spec, spec.frames):
        a = rng.standard_normal((m, k), dtype=np.float32)
        b = rng.standard_normal((k, n), dtype=np.float32)
        macs += m * k * n
        ns += _median_ns(lambda: a @ b)
    return macs / ns


def shift_traffic(spec) -> tuple[int, int, list]:
    """(bytes_moved() summed over blocks, bytes the offline path copies, input shapes).

    The offline path (shift_offline) copies the whole activation and then
    moves the shifted groups: a read and a write of every element, plus what
    bytes_moved() counts for the groups.
    """
    moved = copied = 0
    shapes = []
    stages = spec.stage_shapes()
    for i, b in enumerate(spec.blocks):
        if b.placement == "none":
            continue
        c, h, w = stages[i]
        shape = (1, spec.frames, c, h, w)
        shapes.append(shape)
        m = bytes_moved(b.shift, (1, c, spec.frames, h, w))
        moved += m
        copied += 2 * 4 * int(np.prod(shape)) + m
    return moved, copied, shapes


def memcpy_ceiling_gbps(shapes) -> float:
    nbytes = ns = 0
    for shape in shapes:
        src = np.ones(shape, dtype=np.float32)
        dst = np.empty_like(src)
        nbytes += 2 * src.nbytes
        ns += _median_ns(lambda: np.copyto(dst, src), reps=20)
    return nbytes / ns


def _med(values) -> float:
    return statistics.median(values) if values else float("nan")


def per_layer(spans, p, train_kept: int, state_bytes: int, macs_clip: int) -> dict:
    inp = p.inp
    tsm = per_root(spans, "replay.offline.tsm")
    prog_tsm = [d["total"] for d in per_root(spans, "program.offline.tsm")]
    prog_tsn = [d["total"] for d in per_root(spans, "program.offline.tsn")]
    train = per_root(spans, "replay.train")
    stream = per_root(spans, "replay.stream")
    prog_stream = [d["total"] for d in per_root(spans, "program.stream")]

    conv_fwd = _med([d[CONV_FWD] for d in tsm])
    shift_fwd = _med([d[SHIFT_FWD] for d in tsm])
    conv_bwd = _med([d[CONV_BWD] for d in train])
    moved, copied, shapes = shift_traffic(inp.resnet)
    train_frames = inp.train_cfg.batch_size * inp.toy.frames
    net_layers = [n for n in LAYERS if n != CONSENSUS]
    rng = np.random.default_rng(0)
    m = {
        "ops.conv_fwd_ms": metric(conv_fwd / 1e6, "ms"),
        "ops.conv_fwd_gmacs": metric(conv_macs(inp.resnet, inp.resnet.frames) / conv_fwd, "GMAC/s"),
        "ops.conv_bwd_ms": metric(conv_bwd / 1e6, "ms"),
        "ops.conv_bwd_gmacs": metric(2 * conv_macs(inp.toy, train_frames) / conv_bwd, "GMAC/s"),
        "ops.elementwise_ms": metric(_med([layer_ns(d, ELEMENTWISE) for d in train]) / 1e6, "ms"),
        "ops.conv_call_us": metric(_med([d[CONV_FWD] / d["#" + CONV_FWD] for d in stream]) / 1e3, "us"),
        "ops.macs": metric(macs_clip, "count"),
        "ops.gemm_ceiling_gmacs": metric(gemm_ceiling_gmacs(inp.resnet, rng), "GMAC/s"),
        "shift.fwd_ms": metric(shift_fwd / 1e6, "ms"),
        "shift.share_of_block": metric(
            _med([d[SHIFT_FWD] / (d["net.block0"] + d["net.block1"]) for d in tsm]), "ratio"),
        "shift.bytes_moved": metric(moved, "B"),
        "shift.bytes_copied": metric(copied, "B"),
        "shift.gbps": metric(copied / shift_fwd, "GB/s"),
        "shift.memcpy_ceiling_gbps": metric(memcpy_ceiling_gbps(shapes), "GB/s"),
        "shift.adjoint_ms": metric(_med([d[SHIFT_ADJ] for d in train]) / 1e6, "ms"),
        "shift.online_step_us": metric(_med([d[SHIFT_ONLINE] for d in stream]) / 1e3, "us"),
        "net.forward_ms": metric(_med(prog_tsm) / 1e6, "ms"),
        "net.glue_ms": metric(_med([p_ - layer_ns(d) for p_, d in zip(prog_tsm, tsm)]) / 1e6, "ms"),
        "net.tsm_minus_tsn_ms": metric((_med(prog_tsm) - _med(prog_tsn)) / 1e6, "ms"),
        "stream.step_glue_us": metric(
            _med([p_ - layer_ns(d, net_layers) for p_, d in zip(prog_stream, stream)]) / 1e3, "us"),
        "stream.consensus_us": metric(_med([d[CONSENSUS] for d in stream]) / 1e3, "us"),
        "stream.state_bytes": metric(state_bytes, "B"),
        "train.forward_ms": metric(_med([d["train.forward"] for d in train]) / 1e6, "ms"),
        "train.backward_ms": metric(_med([d["train.backward"] for d in train]) / 1e6, "ms"),
        "train.update_ms": metric(_med([d["train.update"] for d in train]) / 1e6, "ms"),
        "train.cached_bytes": metric(train_kept, "B"),
        "synthdata.gen_clips_per_s": metric(inp.generated_clips / inp.gen_seconds, "clips/s"),
        "tensor.roundtrip_ms": metric(p.roundtrip_s * 1e3, "ms"),
        "trace.offline_clip_ms": metric(_med([d["total"] for d in tsm]) / 1e6, "ms"),
        "trace.train_batch_ms": metric(_med([d["total"] for d in train]) / 1e6, "ms"),
        "trace.stream_step_us": metric(_med([d["total"] for d in stream]) / 1e3, "us"),
    }
    return m


def trace_summary(spans) -> dict:
    """Per replayed unit: median total, layer time and glue, in ns."""
    out = {}
    for root in ("replay.offline.tsm", "replay.offline.tsn", "replay.train", "replay.stream"):
        rows = per_root(spans, root)
        if rows:
            layers = [layer_ns(d) for d in rows]
            totals = [d["total"] for d in rows]
            out[root] = {"units": len(rows), "total_ns": _med(totals), "layers_ns": _med(layers),
                         "glue_ns": _med([t - l for t, l in zip(totals, layers)])}
    return out


# --- environment ---

def _openblas_threads():
    """Thread count OpenBLAS reports, asked through numpy's bundled library."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _openblas_threads()
    except OSError:
        threads = None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }
