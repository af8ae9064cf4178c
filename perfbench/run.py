"""tsmkit benchmark: one workload per call, every metric as the last output line.

    python3 perfbench/run.py --workload offline-clip --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The program is imported from ./src. Each
workload runs in a fresh Python process with OpenBLAS and OpenMP pinned to
one thread, set before numpy is imported. With --trace 0 the output holds
the end-to-end metrics; with --trace 1 the per-layer metrics of the traced
run. Full results, the environment and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("train-toy", "offline-clip", "stream-toy")
SETUPS = 3          # set-ups per untraced run; setup_s is their median
TIME_LIMIT_S = 170  # all processes of one run together


def worker_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          timeout=max(deadline - t0, 1.0), text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in 1..120")
    if not (ROOT / "src" / "tsmkit" / "__init__.py").is_file():
        print(f"no tsmkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        main_run = run_worker(args, False, deadline)
        setups = [main_run]
        if not args.trace:
            setups += [run_worker(args, True, deadline) for _ in range(SETUPS - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = dict(main_run["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups),
                              "unit": "s"}
    result = {
        "correct": all(s["correct"] for s in setups),
        "attempted": sum(s["attempted"] for s in setups),
        "failed": sum(s["failed"] for s in setups),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = dict(main_run, setup_s_all=[s["setup_s"] for s in setups], result=result)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for note in main_run.get("notes", []):
        print(f"note: {note}", file=sys.stderr)
    for name, m in sorted(metrics.items()):
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
