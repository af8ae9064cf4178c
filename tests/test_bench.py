import csv
import dataclasses
import io
from fractions import Fraction

import numpy as np
import pytest

from tsmkit.bench import (
    CSV_HEADER,
    bench_network,
    bench_shift,
    rows_to_csv,
    write_csv,
)
from tsmkit.errors import InvalidSpec
from tsmkit.net import BlockSpec, NetworkSpec, forward_offline_array, init_weights
from tsmkit.ops import ConvSpec, count_macs
from tsmkit.shift import ShiftSpec, _shift_array, bytes_moved, spec_from_total_fraction

SMALL = (1, 8, 4, 6, 6)
FRACTIONS = ("0", "1/4", "1")


def small_report():
    return bench_shift(SMALL, FRACTIONS, reps=20, warmup=1)


def test_bench_shift_rejects_bad_inputs():
    with pytest.raises(InvalidSpec):
        bench_shift(SMALL, FRACTIONS, reps=19)
    with pytest.raises(InvalidSpec):
        bench_shift((1, 8, 4, 6), FRACTIONS, reps=20)
    with pytest.raises(InvalidSpec):
        bench_shift(SMALL, ("3/2",), reps=20)  # resolves past the channel count
    with pytest.raises(InvalidSpec):
        bench_shift(SMALL, ("-1/4",), reps=20)


def test_bench_shift_rows():
    report = small_report()
    assert [r.label for r in report.rows] == ["0", "1/4", "1"]
    for r in report.rows:
        assert (r.n, r.c, r.t, r.h, r.w) == SMALL
        assert r.reps == 20
        spec = spec_from_total_fraction(r.c, Fraction(r.label))
        assert (r.n_fwd, r.n_bwd) == (spec.n_fwd, spec.n_bwd)
        assert r.bytes_moved == bytes_moved(spec, SMALL)
        assert r.median_ns > 0 and r.p10_ns <= r.median_ns <= r.p90_ns
    zero = report.rows[0]
    assert zero.overhead_pct == 0.0
    assert zero.median_ns == zero.baseline_ns


def test_bench_shift_full_fraction_costs_more_than_none():
    # full shift moves every channel; the fraction-0 pass moves nothing,
    # so the ordering is far outside timer noise
    report = bench_shift((1, 32, 8, 32, 32), ("0", "1"), reps=30, warmup=3)
    by_label = {r.label: r for r in report.rows}
    assert by_label["1"].overhead_pct > by_label["0"].overhead_pct


def test_csv_format():
    report = small_report()
    text = rows_to_csv(report)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[-1] == ""  # trailing LF
    assert "\r" not in text
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(report.rows)
    for row, r in zip(parsed, report.rows):
        assert row["label"] == r.label
        assert int(row["bytes_moved"]) == r.bytes_moved
        assert int(row["median_ns"]) == r.median_ns
        assert float(row["overhead_pct"]) == pytest.approx(r.overhead_pct, rel=1e-5, abs=1e-5)


def test_write_csv_is_utf8_lf(tmp_path):
    path = tmp_path / "report.csv"
    write_csv(small_report(), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").split("\n")[0] == CSV_HEADER


def bench_spec(with_shift=True, hw=12):
    shift = ShiftSpec(1, 1) if with_shift else None
    placement = "residual" if with_shift else "none"
    block = BlockSpec(ConvSpec(8, 8, 3, pad=1), ConvSpec(8, 8, 3, pad=1),
                      placement=placement, shift=shift)
    return NetworkSpec(in_channels=1, height=hw, width=hw, frames=4,
                       stem=ConvSpec(1, 8, 3, pad=1), blocks=(block, block),
                       num_classes=2)


def test_bench_network_rows():
    spec = bench_spec()
    report = bench_network(spec, reps=20, warmup=1)
    plain, tsm = report.rows
    assert (plain.label, tsm.label) == ("plain", "tsm")
    assert plain.overhead_pct == 0.0
    assert plain.bytes_moved == 0 and plain.n_fwd == 0
    # two blocks, each shifting 1+1 of 8 channels at 12x12, T=4
    assert tsm.n_fwd == 2 and tsm.n_bwd == 2
    assert tsm.bytes_moved == 2 * bytes_moved(ShiftSpec(1, 1), (1, 8, 4, 12, 12))
    with pytest.raises(InvalidSpec):
        bench_network(spec, reps=5)


def test_bench_network_control_keeps_skip_path():
    # the control is the same network with zero-channel shifts, so it runs
    # the residual adds and the 1x1 downsample too: both sides of every
    # warmup and timed pass cost the TSM clip's MACs
    down = BlockSpec(ConvSpec(8, 6, 3, pad=1), ConvSpec(6, 6, 3, pad=1),
                     placement="residual", shift=ShiftSpec(1, 1),
                     downsample=ConvSpec(8, 6, 1))
    spec = bench_spec()
    spec = dataclasses.replace(spec, blocks=(spec.blocks[0], down))
    clip = np.zeros((1, spec.frames, spec.in_channels, spec.height, spec.width),
                    dtype=np.float32)
    with count_macs() as one:
        forward_offline_array(clip, spec, init_weights(spec))
    with count_macs() as bench:
        bench_network(spec, reps=20, warmup=1)
    assert bench.total == 2 * 21 * one.total


def test_zero_channel_shift_array_is_copy_free():
    a = np.ones((1, 3, 4, 2, 2), dtype=np.float32)
    assert _shift_array(a, ShiftSpec(0, 0)) is a
    assert _shift_array(a, ShiftSpec(0, 0), -1) is a


def test_bench_network_self_comparison_near_zero():
    # a pass takes about 1 ms; on a shared 2-core host the medians of 400
    # interleaved passes still drifted apart by up to 2.2 points, while
    # 2000 kept scheduler jitter under the 2-point noise budget
    report = bench_network(bench_spec(with_shift=False, hw=32), reps=2000, warmup=5)
    plain, tsm = report.rows
    assert tsm.bytes_moved == 0
    assert abs(tsm.overhead_pct) <= 2.0
