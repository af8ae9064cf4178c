"""Command-line surface over the engine.

Exit codes: 0 success, 1 runtime error (bad files, stream faults,
divergence), 2 usage errors, 3 self-check property failure. Shapes given
on the command line read N,C,T,H,W; storage stays frames-major.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bench import bench_network, bench_shift, rows_to_csv, write_csv
from .errors import FormatError, InvalidSpec, TsmError
from .net import (
    _load_json,
    consensus_average,
    forward_offline,
    load_spec,
    load_weights,
    save_weights,
)
from .shift import (
    ShiftSpec,
    _shift_array,
    shift_adjoint,
    shift_offline,
    shift_offline_naive,
)
from .stream import stream_init, stream_step
from .synthdata import gen_dataset
from .tensor import (
    ACTIVATION_AXES,
    Tensor,
    load_tensor,
    reverse_time,
    save_tensor,
)
from .train import TrainConfig, evaluate, metrics_to_csv, toy_network_spec, train


class _UsageError(Exception):
    pass


def _positive(value: int, flag: str) -> int:
    if value < 1:
        raise _UsageError(f"{flag} must be >= 1, got {value}")
    return value


def _parse_shape(text: str):
    parts = text.lower().split("x")
    if len(parts) != 5 or not all(p.isdigit() for p in parts):
        raise _UsageError(f"--shape must look like 1x64x8x56x56, got {text!r}")
    shape = tuple(int(p) for p in parts)
    if min(shape) < 1:
        raise _UsageError(f"--shape extents must be positive, got {text!r}")
    return shape


def _parse_fractions(text: str):
    out = []
    for item in text.split(","):
        try:
            out.append(Fraction(item.strip()))
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"bad fraction {item.strip()!r} in --fractions")
    if not out:
        raise _UsageError("--fractions is empty")
    return out


# --- shift-check ---


def _random_case(rng: np.random.Generator):
    n = int(rng.integers(1, 3))
    t = int(rng.integers(1, 7))
    c = int(rng.integers(1, 9))
    h = int(rng.integers(1, 7))
    w = int(rng.integers(1, 7))
    x = rng.standard_normal((n, t, c, h, w)).astype(np.float32)
    mode = "uni" if rng.integers(0, 2) else "bi"
    padding = "circular" if mode == "bi" and rng.integers(0, 2) else "zero"
    n_fwd = int(rng.integers(0, c + 1))
    n_bwd = 0 if mode == "uni" else int(rng.integers(0, c - n_fwd + 1))
    spec = ShiftSpec(n_fwd=n_fwd, n_bwd=n_bwd, padding=padding, mode=mode)
    return Tensor(x, ACTIVATION_AXES), spec


def cmd_shift_check(args) -> int:
    cases = _positive(args.cases, "--cases")
    rng = np.random.default_rng(args.seed)
    failures = 0

    def report(name: str, bad: int) -> None:
        nonlocal failures
        failures += bad
        state = "PASS" if bad == 0 else f"FAIL ({bad}/{cases} cases)"
        print(f"{state}  {name}")

    bad = 0
    for _ in range(cases):
        x, spec = _random_case(rng)
        if not np.array_equal(shift_offline(x, spec).data,
                              shift_offline_naive(x, spec).data):
            bad += 1
    report("vectorized shift matches per-element reference, bit-exact", bad)

    bad = 0
    for _ in range(cases):
        x, spec = _random_case(rng)
        a = x.data.astype(np.float64)
        b = rng.standard_normal(a.shape)
        lhs = float(np.vdot(_shift_array(a, spec), b))
        rhs = float(np.vdot(a, _shift_array(b, spec, -1)))
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
            bad += 1
    report("adjoint identity <Sx, y> == <x, S*y> within 1e-10", bad)

    bad = 0
    for _ in range(cases):
        x, spec = _random_case(rng)
        zero = ShiftSpec(n_fwd=0, n_bwd=0, padding=spec.padding, mode=spec.mode)
        if shift_offline(x, zero).data is not x.data:
            bad += 1
    report("zero-channel shift returns its input unchanged", bad)

    bad = 0
    for _ in range(cases):
        x, spec = _random_case(rng)
        if spec.padding != "zero":
            spec = ShiftSpec(spec.n_fwd, spec.n_bwd, "zero", spec.mode)
        # with zero padding the direction-swapped shift is the adjoint
        via_reversal = reverse_time(shift_offline(reverse_time(x), spec))
        if not np.array_equal(via_reversal.data, shift_adjoint(x, spec).data):
            bad += 1
    report("time reversal conjugates the shift into its direction swap", bad)

    return 3 if failures else 0


# --- inference ---


def _write_outputs(out_dir: str, logits: Tensor, consensus: Tensor) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_tensor(logits, out / "logits.tsmt")
    save_tensor(consensus, out / "consensus.tsmt")


def _print_consensus(consensus: np.ndarray) -> None:
    for i, row in enumerate(consensus):
        cls = int(np.argmax(row))
        values = " ".join(f"{v:.6g}" for v in row)
        print(f"clip {i}: class {cls}  consensus [{values}]")


def _require_finite(what: str, a: np.ndarray, path) -> None:
    """Refuse NaN / Inf read from a file; the engine itself does not check."""
    if not np.isfinite(a).all():
        raise FormatError(f"{what} holds NaN or Inf", path=path)


def _load_finite_weights(path: str) -> dict:
    store = load_weights(path)
    for name, w in store.items():
        _require_finite(f"weight {name!r}", w, path)
    return store


def cmd_infer_offline(args) -> int:
    spec = load_spec(args.spec)
    store = _load_finite_weights(args.weights)
    clip = load_tensor(args.clip)
    _require_finite("clip", clip.data, args.clip)
    logits = forward_offline(clip, spec, store)
    consensus = consensus_average(logits)
    _write_outputs(args.out, logits, consensus)
    _print_consensus(consensus.data)
    return 0


def _frame_paths(frames_dir: str) -> list[Path]:
    root = Path(frames_dir)
    found = sorted(root.glob("frame_*.tsmt"))
    if not found:
        raise FormatError("no frame_*.tsmt files", path=root)
    for i, path in enumerate(found):
        expected = f"frame_{i:05d}.tsmt"
        if path.name != expected:
            raise FormatError(
                f"frame files must be contiguous from frame_00000.tsmt, "
                f"expected {expected} but found {path.name}",
                path=root,
            )
    return found


def cmd_infer_online(args) -> int:
    spec = load_spec(args.spec)
    store = _load_finite_weights(args.weights)
    paths = _frame_paths(args.frames_dir)
    per_frame = []
    step_ns = []
    state = None
    consensus = None
    for path in paths:
        frame = load_tensor(path)
        _require_finite("frame", frame.data, path)
        if state is None:
            state = stream_init(spec, batch=frame.data.shape[0])
        t0 = time.perf_counter_ns()
        logits, consensus, state = stream_step(frame, spec, store, state)
        step_ns.append(time.perf_counter_ns() - t0)
        per_frame.append(logits)
    stacked = Tensor(np.stack(per_frame, axis=1), ("N", "T", "C"))
    _write_outputs(args.out, stacked, Tensor(consensus, ("N", "C")))
    print(f"{len(paths)} frames, median step {np.median(step_ns) / 1e6:.3f} ms")
    _print_consensus(consensus)
    return 0


# --- benchmarks ---


def _emit_report(report, csv_path: str | None) -> None:
    if csv_path:
        write_csv(report, csv_path)
        print(f"wrote {csv_path}")
    else:
        print(rows_to_csv(report), end="")


def cmd_bench_shift(args) -> int:
    shape = _parse_shape(args.shape)
    fractions = _parse_fractions(args.fractions)
    _positive(args.reps, "--reps")
    report = bench_shift(shape, fractions, reps=args.reps, seed=args.seed)
    _emit_report(report, args.csv)
    return 0


def cmd_bench_net(args) -> int:
    _positive(args.reps, "--reps")
    spec = load_spec(args.spec)
    report = bench_network(spec, reps=args.reps, seed=args.seed)
    _emit_report(report, args.csv)
    return 0


# --- data and training ---


def cmd_gen_data(args) -> int:
    count = _positive(args.count, "--count")
    if count % 2:
        raise _UsageError(f"--count must be even (reversal pairs), got {count}")
    clips = gen_dataset(args.seed, count, 8, 16, 16)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["index,label,start_row,start_col"]
    for i, clip in enumerate(clips):
        save_tensor(clip.clip, out / f"clip_{i:05d}.tsmt")
        lines.append(f"{i},{clip.label},{clip.start_row},{clip.start_col}")
    (out / "labels.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {count} clips and labels.csv to {out}")
    return 0


def _load_config(path: str | None) -> TrainConfig:
    if path is None:
        return TrainConfig()
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise FormatError("config must be a JSON object", path=path)
    allowed = set(TrainConfig.__dataclass_fields__)
    unknown = set(raw) - allowed
    if unknown:
        raise InvalidSpec(f"unknown config keys {sorted(unknown)}")
    return TrainConfig(**raw)


def cmd_train_toy(args) -> int:
    cfg = _load_config(args.config)
    spec = toy_network_spec()
    data = gen_dataset(cfg.seed, cfg.train_count, 8, 16, 16)
    test = gen_dataset(cfg.seed + 500, cfg.test_count, 8, 16, 16)
    store, history = train(spec, cfg, data, test_data=test)
    acc = evaluate(spec, store, test)
    if args.out_weights:
        save_weights(store, args.out_weights)
        print(f"wrote {args.out_weights}")
    if args.metrics_csv:
        Path(args.metrics_csv).write_text(metrics_to_csv(history), encoding="utf-8")
        print(f"wrote {args.metrics_csv}")
    print(f"final test accuracy {acc:.3f} over {cfg.test_count} clips")
    return 0


# --- wiring ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsmkit",
        description="temporal-shift inference engine and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shift-check", help="run the shift self-check suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.set_defaults(func=cmd_shift_check)

    p = sub.add_parser("infer-offline", help="classify a stored clip")
    p.add_argument("--spec", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--out", required=True,
                   help="directory for logits.tsmt and consensus.tsmt")
    p.set_defaults(func=cmd_infer_offline)

    p = sub.add_parser("infer-online", help="stream frame files through the net")
    p.add_argument("--spec", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--frames-dir", required=True,
                   help="directory of frame_00000.tsmt, frame_00001.tsmt, ...")
    p.add_argument("--out", required=True,
                   help="directory for logits.tsmt and consensus.tsmt")
    p.set_defaults(func=cmd_infer_online)

    p = sub.add_parser("bench-shift", help="data-movement cost of the shift")
    p.add_argument("--shape", default="1x64x8x56x56", help="N,C,T,H,W extents")
    p.add_argument("--fractions", default="0,1/8,1/4,1/2,1",
                   help="comma-separated total shifted channel fractions")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bench_shift)

    p = sub.add_parser("bench-net", help="whole-network latency with and without shifts")
    p.add_argument("--spec", required=True)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bench_net)

    p = sub.add_parser("gen-data", help="write moving-square clips as tensor files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-toy", help="train the temporal-order demo network")
    p.add_argument("--config", default=None,
                   help="JSON with TrainConfig fields; defaults used if omitted")
    p.add_argument("--out-weights", default=None)
    p.add_argument("--metrics-csv", default=None)
    p.set_defaults(func=cmd_train_toy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (TsmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
