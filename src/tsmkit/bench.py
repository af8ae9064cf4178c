"""Micro-benchmarks for the data-movement cost of shifting.

Shifting multiplies nothing, so its entire runtime cost is memory traffic.
bench_shift times the in-place shift over one pre-allocated buffer at a
range of shifted-channel fractions against the fraction-0 pass of the same
buffer; bench_network times whole forward passes with shifts enabled
versus moving no channel. Medians over many reps of a monotonic clock,
never means.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidSpec
from .net import (NetworkSpec, _shift_sites, forward_offline_array, init_weights,
                  with_zero_shifts)
from .shift import ShiftSpec, bytes_moved, shift_inplace, spec_from_total_fraction
from .tensor import Tensor, ACTIVATION_AXES

CSV_HEADER = ("label,n,c,t,h,w,n_fwd,n_bwd,bytes_moved,"
              "median_ns,p10_ns,p90_ns,reps,baseline_ns,overhead_pct")

MIN_REPS = 20

_sink = 0.0  # consumed results, so the timed work cannot be elided


@dataclass
class BenchRow:
    label: str
    n: int
    c: int
    t: int
    h: int
    w: int
    n_fwd: int
    n_bwd: int
    bytes_moved: int
    median_ns: int
    p10_ns: int
    p90_ns: int
    reps: int
    baseline_ns: int
    overhead_pct: float


@dataclass
class CostReport:
    rows: list[BenchRow]


def _measure_ns(runners, reps: int, warmup: int) -> list[tuple[int, int, int]]:
    """(median, p10, p90) per runner, reps interleaved round-robin.

    Interleaving exposes every configuration to the same clock drift and
    scheduler noise, so medians stay comparable across configurations.
    """
    global _sink
    for fn in runners:
        for _ in range(warmup):
            _sink += fn()
    samples = np.empty((len(runners), reps), dtype=np.int64)
    for i in range(reps):
        for j, fn in enumerate(runners):
            t0 = time.perf_counter_ns()
            out = fn()
            samples[j, i] = time.perf_counter_ns() - t0
            _sink += out
    stats = []
    for j in range(len(runners)):
        p10, med, p90 = np.percentile(samples[j], [10.0, 50.0, 90.0])
        stats.append((int(round(med)), int(round(p10)), int(round(p90))))
    return stats


def _check_reps(reps: int) -> None:
    if reps < MIN_REPS:
        raise InvalidSpec(f"need at least {MIN_REPS} reps, got {reps}")


def _timed_rows(cases, shape, reps: int, warmup: int) -> list[BenchRow]:
    """One BenchRow per (label, runner, n_fwd, n_bwd, bytes_moved) case.

    The runners are timed round-robin by _measure_ns; the first one is the
    baseline every row's overhead is measured against. ``shape`` is the
    (N, C, T, H, W) every row reports.
    """
    stats = _measure_ns([case[1] for case in cases], reps, warmup)
    base = stats[0][0]
    return [
        BenchRow(label, *shape, n_fwd, n_bwd, moved, med, p10, p90, reps,
                 base, 100.0 * (med - base) / max(base, 1))
        for (label, _, n_fwd, n_bwd, moved), (med, p10, p90) in zip(cases, stats)
    ]


def bench_shift(shape, fractions, reps: int = 50, warmup: int = 3,
                seed: int = 0) -> CostReport:
    """Time the in-place shift on one (N,C,T,H,W) buffer per fraction.

    Each fraction is the total shifted proportion of channels, split
    evenly between directions. The baseline is the fraction-0 pass over
    the same buffer, always measured first; it is reported only if 0 is
    among the requested fractions, its overhead then exactly zero.
    """
    _check_reps(reps)
    if len(shape) != 5 or min(shape) < 1:
        raise InvalidSpec(f"shape must be 5 positive extents (N,C,T,H,W), got {shape}")
    n, c, t, h, w = shape = tuple(int(v) for v in shape)
    asked = {Fraction(f) for f in fractions}
    ordered = sorted(asked | {Fraction(0)})

    rng = np.random.default_rng(seed)
    buf = Tensor(rng.standard_normal((n, t, c, h, w)).astype(np.float32),
                 ACTIVATION_AXES)

    def runner(spec: ShiftSpec):
        def run() -> float:
            shift_inplace(buf, spec)
            return float(buf.data[0, 0, 0, 0, 0])
        return run

    specs = [spec_from_total_fraction(c, f) for f in ordered]
    rows = _timed_rows(
        [(str(f), runner(s), s.n_fwd, s.n_bwd, bytes_moved(s, shape))
         for f, s in zip(ordered, specs)],
        shape, reps, warmup)
    return CostReport(rows=[r for f, r in zip(ordered, rows) if f in asked])


def bench_network(spec: NetworkSpec, reps: int = MIN_REPS, warmup: int = 3,
                  seed: int = 0) -> CostReport:
    """Forward passes with shifts enabled vs every shift moving no channel.

    Same weights both ways. The baseline is net.with_zero_shifts, the TSN
    control: the same network, skip paths and downsamples included, with
    the shift taken out, so the overhead is the shift's alone.
    """
    _check_reps(reps)
    store = init_weights(spec, seed=seed)
    rng = np.random.default_rng(seed)
    clip = rng.standard_normal(
        (1, spec.frames, spec.in_channels, spec.height, spec.width)
    ).astype(np.float32)

    def runner(net: NetworkSpec):
        def run() -> float:
            out = forward_offline_array(clip, net, store)
            return float(out[0, 0, 0])
        return run

    sites = list(_shift_sites(spec))
    moved = sum(bytes_moved(s, (1, c, spec.frames, h, w)) for _, s, (c, h, w) in sites)
    n_fwd = sum(s.n_fwd for _, s, _ in sites)
    n_bwd = sum(s.n_bwd for _, s, _ in sites)
    return CostReport(rows=_timed_rows(
        [("plain", runner(with_zero_shifts(spec)), 0, 0, 0),
         ("tsm", runner(spec), n_fwd, n_bwd, moved)],
        (1, spec.in_channels, spec.frames, spec.height, spec.width), reps, warmup))


def rows_to_csv(report: CostReport) -> str:
    """CSV text with the pinned header, LF line endings."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in report.rows:
        writer.writerow(astuple(r)[:-1] + (f"{r.overhead_pct:.6g}",))
    return out.getvalue()


def write_csv(report: CostReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(report))
