"""One run of one workload, in a process of its own.

Started by run.py as ``python3 -m perfbench.worker`` with BLAS pinned to one
thread through the environment, which has to happen before numpy is first
imported. Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import tsmkit
from tsmkit.net import forward_offline_array, init_weights, with_placements_none
from tsmkit.ops import count_macs
from tsmkit.stream import cache_footprint_bytes, state_nbytes
from tsmkit.synthdata import stack_dataset
from tsmkit.train import batch_loss_and_grads, evaluate

from . import checks, inputs, report
from .phases import Activity, offline_unit, run_interleaved, stream_unit, train_units
from .prepare import prepare
from .traced import Tracer, offline_traced_unit, stream_traced_unit, train_traced_unit

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"

WORKLOADS = {"train-toy": "train", "offline-clip": "offline", "stream-toy": "stream"}
# Every run measures every activity, so that it can print every end-to-end
# metric. Each activity runs this many units; its workload's own activity
# also runs for at least --seconds (a training unit is one train() call of two epochs,
# an evaluation unit one evaluate() of the test set, an offline unit one
# TSM and one TSN clip, a stream unit STREAM_CHUNK steps of the one stream).
TARGETS = {"train": 2, "eval": 3, "offline": 6, "stream": 4}
TRACED_TARGETS = {"train": 8, "offline": 3, "stream": 4}
STREAM_PREFIX = 64
FD_CLIPS = 4   # two reversal pairs: the finite-difference minibatch


def offline_checks(p, tally, first) -> int:
    """The first clip's logits against the reference; MAC counts. Returns TSM MACs.

    first maps (variant, clip index) to the logits of that clip's first run;
    the later runs of each clip were compared with those.
    """
    inp = p.inp
    for name, spec in (("tsm", inp.resnet), ("tsn", inp.resnet_tsn)):
        logits = first.get((name, 0))
        if logits is None:
            logits = forward_offline_array(inp.clips[0], spec, inp.resnet_weights)
        tally.record(checks.offline_matches_reference(logits, inp.clips[0], spec,
                                                      inp.resnet_weights),
                     f"offline {name} clip 0 against the reference")
    counted = []
    for spec in (inp.resnet, inp.resnet_tsn):
        with count_macs() as counter:
            forward_offline_array(inp.clips[0], spec, inp.resnet_weights)
        counted.append(counter.total)
    tally.record(checks.macs_match(*counted, inp.resnet.frames,
                                   inputs.resnet_stage_macs_per_frame(),
                                   inputs.resnet_stage_macs_per_frame(skip_path=False)),
                 f"MAC counts (TSM, TSN) {counted}")
    return counted[0]


def stream_checks(p, tally, res) -> None:
    inp = p.inp
    verdicts = checks.stream_step_verdicts(
        np.asarray(res.logits), np.asarray(res.consensus), np.asarray(res.state_bytes),
        inp.stream_frames[:STREAM_PREFIX], inp.stream_spec, inp.stream_weights,
        inputs.STREAM_WINDOW, cache_footprint_bytes(inp.stream_spec, batch=1))
    for step, (ok, raised) in enumerate(zip(verdicts, res.raised)):
        if not raised:
            tally.record(bool(ok), f"stream step {step}")


def train_checks(p, tally, store) -> None:
    inp = p.inp
    spec = inp.toy
    clips, labels = stack_dataset(inp.train_data[:FD_CLIPS])
    clips = clips.astype(np.float64)
    weights = {k: v.astype(np.float64) for k, v in init_weights(spec, inp.train_cfg.seed).items()}
    _, _, grads = batch_loss_and_grads(clips, labels, spec, weights)
    for name, ok in checks.gradient_verdicts(grads, clips, labels, spec, weights,
                                             seed=inp.train_cfg.seed).items():
        tally.record(ok, f"gradient of {name} against central differences")
    if store is not None:
        acc = evaluate(with_placements_none(spec), store, inp.test_data)
        tally.record(checks.control_ok(acc), f"placements-none control scored {acc}")


def _activities(units: dict, home: str, seconds: float, targets: dict) -> list:
    return [Activity(name, unit, target=targets[name], budget_s=seconds if name == home else None)
            for name, unit in units.items()]


def untraced(p, workload, seconds, tally, info) -> dict:
    """End-to-end metrics; info receives the time spent per activity and
    the stream's far tail."""
    train_unit, eval_unit, train_res = train_units(p, tally)
    off_unit, off_res = offline_unit(p, tally)
    str_unit, str_res = stream_unit(p, tally)
    acts = _activities({"train": train_unit, "eval": eval_unit, "offline": off_unit,
                        "stream": str_unit}, WORKLOADS[workload], seconds, TARGETS)
    run_interleaved(acts)
    peak = report.peak_rss_mb()
    spent = {a.name: a.spent_s for a in acts}
    t0 = time.perf_counter()
    offline_checks(p, tally, off_res.first)
    stream_checks(p, tally, str_res)
    train_checks(p, tally, train_res.store)
    spent["checks"] = time.perf_counter() - t0
    info.update(spent_s=spent, stream_tail_us=report.stream_tail(str_res))
    return report.end_to_end(train_res, off_res, str_res, peak)


def traced(p, workload, seconds, tally, spans_path) -> tuple[dict, dict]:
    tr = Tracer()
    train_unit, train_res = train_traced_unit(p, tr, tally)
    str_unit, str_res = stream_traced_unit(p, tr, tally)
    run_interleaved(_activities({"train": train_unit,
                                 "offline": offline_traced_unit(p, tr, tally),
                                 "stream": str_unit}, WORKLOADS[workload], seconds,
                                TRACED_TARGETS))
    macs = offline_checks(p, tally, {})
    train_checks(p, tally, train_res["store"])
    with open(spans_path, "w") as fh:
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    metrics = report.per_layer(tr.spans, p, train_res["kept"],
                               state_nbytes(str_res["state"]), macs)
    return metrics, report.trace_summary(tr.spans)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    args = ap.parse_args(argv)

    if Path(tsmkit.__file__).resolve().parent != ROOT / "src" / "tsmkit":
        print(f"tsmkit imported from {tsmkit.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tally = checks.Tally()
    p = prepare(args.seed, OUT_DIR, tally)
    result = {"setup_s": time.monotonic() - args.t0}
    # what set-up built lives to the end; keep the collector from rescanning it
    gc.collect()
    gc.freeze()
    if not args.setup_only:
        if args.trace:
            spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
            result["metrics"], result["trace"] = traced(p, args.workload, args.seconds, tally, spans)
        else:
            result["info"] = {}
            result["metrics"] = untraced(p, args.workload, args.seconds, tally, result["info"])
        result["env"] = report.environment()
    bad = [k for k, v in result.get("metrics", {}).items() if not math.isfinite(v["value"])]
    if bad:
        tally.record(False, f"metrics not finite: {bad}")
    result.update(correct=tally.correct, attempted=tally.attempted, failed=tally.failed,
                  notes=tally.notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
