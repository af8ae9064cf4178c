"""Micro-benchmarks for the data-movement cost of shifting.

Shifting multiplies nothing, so its entire runtime cost is memory traffic.
bench_shift times the in-place shift over one pre-allocated buffer at a
range of shifted-channel fractions against the fraction-0 pass of the same
buffer; bench_network times whole forward passes with shifts enabled
versus disabled. Medians over many reps of a monotonic clock, never means.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidSpec
from .net import NetworkSpec, forward_offline_array, init_weights, with_placements_none
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


def bench_shift(shape, fractions, reps: int = 50, warmup: int = 3,
                seed: int = 0) -> CostReport:
    """Time the in-place shift on one (N,C,T,H,W) buffer per fraction.

    Each fraction is the total shifted proportion of channels, split
    evenly between directions. The baseline is the measured fraction-0
    pass over the same buffer; if 0 is among the requested fractions its
    row reuses that measurement, making its overhead exactly zero.
    """
    _check_reps(reps)
    if len(shape) != 5 or min(shape) < 1:
        raise InvalidSpec(f"shape must be 5 positive extents (N,C,T,H,W), got {shape}")
    n, c, t, h, w = (int(v) for v in shape)
    fractions = [Fraction(f) for f in fractions]
    specs = {f: spec_from_total_fraction(c, f) for f in fractions}

    rng = np.random.default_rng(seed)
    buf = Tensor(rng.standard_normal((n, t, c, h, w)).astype(np.float32),
                 ACTIVATION_AXES)

    def runner(spec: ShiftSpec):
        def run() -> float:
            shift_inplace(buf, spec)
            return float(buf.data[0, 0, 0, 0, 0])
        return run

    ordered = sorted(set(fractions))
    timed = [f for f in ordered if f != 0]
    stats = _measure_ns(
        [runner(ShiftSpec(0, 0))] + [runner(specs[f]) for f in timed],
        reps, warmup)
    base_med, base_p10, base_p90 = stats[0]
    by_fraction = dict(zip(timed, stats[1:]))
    baseline = max(base_med, 1)

    rows = []
    for f in ordered:
        spec = specs[f]
        if f == 0:
            med, p10, p90 = base_med, base_p10, base_p90
        else:
            med, p10, p90 = by_fraction[f]
        rows.append(BenchRow(
            label=str(f), n=n, c=c, t=t, h=h, w=w,
            n_fwd=spec.n_fwd, n_bwd=spec.n_bwd,
            bytes_moved=bytes_moved(spec, (n, c, t, h, w)),
            median_ns=med, p10_ns=p10, p90_ns=p90, reps=reps,
            baseline_ns=base_med,
            overhead_pct=100.0 * (med - base_med) / baseline,
        ))
    return CostReport(rows=rows)


def bench_network(spec: NetworkSpec, reps: int = MIN_REPS, warmup: int = 3,
                  seed: int = 0) -> CostReport:
    """Forward passes with shifts enabled vs all placements disabled.

    Same weights both ways; the disabled pass (net.with_placements_none,
    the TSN control) is the baseline. That control drops the skip path and
    its 1x1 downsample along with the shift, so on residual networks the
    measured overhead includes the residual adds and the downsample convs,
    not the shift alone.
    """
    _check_reps(reps)
    store = init_weights(spec, seed=seed)
    plain = with_placements_none(spec)
    rng = np.random.default_rng(seed)
    clip = rng.standard_normal(
        (1, spec.frames, spec.in_channels, spec.height, spec.width)
    ).astype(np.float32)

    def runner(net: NetworkSpec):
        def run() -> float:
            out = forward_offline_array(clip, net, store)
            return float(out[0, 0, 0])
        return run

    (base_med, base_p10, base_p90), (med, p10, p90) = _measure_ns(
        [runner(plain), runner(spec)], reps, warmup)
    baseline = max(base_med, 1)

    shapes = spec.stage_shapes()
    moved = n_fwd = n_bwd = 0
    for i, b in enumerate(spec.blocks):
        if b.placement == "none" or b.shift is None:
            continue
        c, h, w = shapes[i]
        moved += bytes_moved(b.shift, (1, c, spec.frames, h, w))
        n_fwd += b.shift.n_fwd
        n_bwd += b.shift.n_bwd

    common = dict(n=1, c=spec.in_channels, t=spec.frames,
                  h=spec.height, w=spec.width, reps=reps,
                  baseline_ns=base_med)
    return CostReport(rows=[
        BenchRow(label="plain", n_fwd=0, n_bwd=0, bytes_moved=0,
                 median_ns=base_med, p10_ns=base_p10, p90_ns=base_p90,
                 overhead_pct=0.0, **common),
        BenchRow(label="tsm", n_fwd=n_fwd, n_bwd=n_bwd, bytes_moved=moved,
                 median_ns=med, p10_ns=p10, p90_ns=p90,
                 overhead_pct=100.0 * (med - base_med) / baseline, **common),
    ])


def rows_to_csv(report: CostReport) -> str:
    """CSV text with the pinned header, LF line endings."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in report.rows:
        writer.writerow([
            r.label, r.n, r.c, r.t, r.h, r.w, r.n_fwd, r.n_bwd,
            r.bytes_moved, r.median_ns, r.p10_ns, r.p90_ns, r.reps,
            r.baseline_ns, f"{r.overhead_pct:.6g}",
        ])
    return out.getvalue()


def write_csv(report: CostReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(report))
