"""The qspecht benchmark.

Usage:
  python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (or, without --workload, all four in turn) as one client
in a closed loop against the source tree next to this directory, checks
every output, and prints each metric by name with its unit and sample
count.  The last line of each workload's output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced replay with
--trace 1.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import measure
import replay
import workloads as wl

# End-to-end metrics written to the result line; failed_frac is printed only,
# since the line's `failed` and `attempted` carry it and it is 0 when correct.
RESULT_METRICS = ("wall_s", "items_per_s", "cpu_s", "peak_rss_mb", "setup_s")
REPLAY_BUDGET_S = 60.0


def source_root() -> Path:
    """The checkout root: the parent of this directory, which must hold the
    qspecht sources."""
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "qspecht" / "cli.py").is_file():
        raise SystemExit(f"error: no qspecht sources under {root / 'src'}")
    return root


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop.  Load from other tenants of
    the host slows it without showing in the load average."""
    times = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return round(1000 * statistics.median(times), 3)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "ref_loop_ms": reference_loop_ms(),
    }


def run_trace(client: measure.Client, workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced in-process replays, each in a fresh
    process, until the next pair would overrun ``seconds``.  Returns the
    per-layer metrics (medians over traced replays) and the last spans."""
    argv = [sys.executable, str(client.root / "perfbench" / "replay.py"), workload, str(seed)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        for flag, into in (("0", plain), ("1", traced)):
            result = measure.run_child(argv + [flag], client.env, REPLAY_BUDGET_S)
            try:
                report = json.loads(result.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                client.tally.attempted += 1
                client.tally.fail(f"replay {workload} trace={flag}", f"exit code {result.exit_code}")
                continue
            client.tally.attempted += report["attempted"]
            for error in report["errors"]:
                client.tally.fail(f"replay trace={flag}", error)
            into.append(report)
        elapsed = time.perf_counter() - start
        if not (plain and traced) or elapsed * (1 + 1 / len(traced)) > seconds:
            break
    if not (plain and traced):
        return {"metrics": {}, "spans": []}
    per_replay = [replay.layer_metrics(r) for r in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_replay), unit, len(traced))
        for name, (_, unit) in per_replay[0].items()
    }
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    metrics["trace.overhead_s"] = (overhead, "s", min(len(plain), len(traced)))
    return {"metrics": metrics, "spans": traced[-1]["spans"]}


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> bool:
    charges = wl.pick_charges(seed)
    tally = measure.Tally()
    client = measure.Client(root, wl.load_golden(), tally)
    before = environment()
    print(f"workload {workload}  seed {seed}  charges "
          + "  ".join(f"level-{k}={wl.charge_text(c)}" for k, c in charges.items()))
    print(f"before: {json.dumps(before)}")
    if trace:
        traced = run_trace(client, workload, seed, seconds)
        metrics = traced["metrics"]
    else:
        metrics = measure.measure(client, workload, wl.invocations(workload, charges), seconds)
    after = environment()
    print(f"after: {json.dumps(after)}")
    for name, (value, unit, samples) in metrics.items():
        note = f"  ({wl.ITEM_UNITS[workload]})" if name == "items_per_s" else ""
        print(f"{name:28s} {value:14.6g} {unit:6s} n={samples}{note}")
    if trace:
        print(f"{'failed_frac':28s} {tally.failed_frac:14.6g} ratio  n={tally.attempted}")

    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "before": before, "after": after, "errors": tally.errors,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    if trace:
        record["spans"] = traced["spans"]
    suffix = "-trace" if trace else ""
    (out_dir / f"{workload}-seed{seed}{suffix}.json").write_text(json.dumps(record) + "\n")

    correct = tally.failed == 0 and bool(metrics)
    shown = list(metrics) if trace else RESULT_METRICS
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in shown},
    }), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = source_root()
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    results = [run_workload(root, w, args.seed, args.seconds, bool(args.trace)) for w in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
