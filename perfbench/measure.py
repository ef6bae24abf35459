"""Closed-loop measurement: one client runs one child process at a time and
starts the next only after the previous one has exited.

Each child is timed from spawn to exit, and its CPU time and peak RSS come
from `os.wait4`, which reports that one child's rusage.  `RUSAGE_CHILDREN`
would not do: its `ru_maxrss` is the maximum over every child reaped so
far, so it leaks from one workload into the next.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

# An invocation that runs longer than this is killed and counted as failed.
# The slowest invocation takes about 6 s on a 2-core machine.
INVOCATION_BUDGET_S = 30.0
PROBES_PER_PASS = 3


@dataclass
class ChildResult:
    stdout: bytes
    stderr: bytes
    exit_code: int
    started: float
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool


def run_child(argv: list[str], env: dict[str, str], budget_s: float) -> ChildResult:
    """Run ``argv`` to completion, collecting its output and its own rusage.
    A child still running after ``budget_s`` is killed."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    chunks: dict[int, list[bytes]] = {out_r: [], err_r: []}
    timed_out = False
    try:
        started = time.perf_counter()
        pid = os.posix_spawn(
            argv[0],
            argv,
            env,
            file_actions=[(os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, err_w, 2)],
        )
        os.close(out_w)
        os.close(err_w)
        out_w = err_w = -1
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = started + budget_s - time.perf_counter()
                if remaining <= 0 and not timed_out:
                    os.kill(pid, signal.SIGKILL)
                    timed_out = True
                for key, _ in sel.select(None if timed_out else remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(pid, 0)
        ended = time.perf_counter()
    finally:
        for fd in (out_r, out_w, err_r, err_w):
            if fd >= 0:
                os.close(fd)
    return ChildResult(
        stdout=b"".join(chunks[out_r]),
        stderr=b"".join(chunks[err_r]),
        exit_code=os.waitstatus_to_exitcode(status),
        started=started,
        wall_s=ended - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        timed_out=timed_out,
    )


@dataclass
class Tally:
    """Invocations attempted and failed, with the reason for each failure.
    Nothing is dropped: every invocation counts in `attempted`."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, key: str, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{key}: {reason}")
        print(f"FAILED {key}: {reason}", file=sys.stderr)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Checked:
    result: ChildResult
    items: int
    ok: bool


class Client:
    """Runs invocations against the source tree under ``root`` and checks
    each output against the golden table."""

    def __init__(self, root: Path, golden: dict[str, dict], tally: Tally):
        self.root = root
        self.golden = golden
        self.tally = tally
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def argv(self, inv: wl.Invocation) -> list[str]:
        if inv.library:
            return [sys.executable, str(self.root / "perfbench" / "session.py"), *inv.argv]
        return [sys.executable, "-m", "qspecht", *inv.argv]

    def run(self, inv: wl.Invocation) -> Checked:
        self.tally.attempted += 1
        result = run_child(self.argv(inv), self.env, INVOCATION_BUDGET_S)
        items, reason = check(inv, result.stdout, result.exit_code, self.golden)
        if result.timed_out:
            reason = f"over the {INVOCATION_BUDGET_S:.0f} s budget"
        if reason:
            stderr = result.stderr.decode(errors="replace").strip().splitlines()
            self.tally.fail(inv.key, reason + (f" ({stderr[-1]})" if stderr else ""))
        return Checked(result, items if not reason else 0, not reason)


def check(inv: wl.Invocation, stdout: bytes, exit_code: int, golden: dict[str, dict]) -> tuple[int, str]:
    """(items, failure reason or "") for one invocation's output."""
    if exit_code != 0:
        return 0, f"exit code {exit_code}"
    try:
        digest, items = wl.read_output(inv, stdout)
    except (wl.OutputError, ValueError, KeyError, IndexError) as exc:
        return 0, f"unreadable output: {exc!r}"
    if inv.library and not inv.argv:
        return 0, ""
    expected = golden.get(inv.key)
    if expected is None:
        return 0, "no golden digest recorded"
    if digest != expected["sha256"]:
        return 0, "output digest differs from the golden one"
    if items != expected["items"]:
        return 0, f"{items} items, golden has {expected['items']}"
    return items, ""


def setup_time(probe: wl.Invocation, checked: Checked) -> float:
    """Spawn to exit of the trivial CLI probe; for the library session, spawn
    to the end of `import qspecht`."""
    if probe.library:
        return json.loads(checked.result.stdout)["import_end"] - checked.result.started
    return checked.result.wall_s


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    items: int
    maxrss_kb: int


def measure(client: Client, workload: str, invs: list[wl.Invocation], seconds: float) -> dict:
    """Whole passes of the workload, each after a few set-up probes, until the
    next pass would overrun ``seconds``.  Spreading the probes over the run
    makes the set-up median see the same machine as the passes do.  Returns
    each metric with its sample count."""
    probe = wl.setup_probe(workload)
    client.run(probe)  # warm-up: writes the bytecode caches
    setups = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        for _ in range(PROBES_PER_PASS):
            checked = client.run(probe)
            if checked.ok:
                setups.append(setup_time(probe, checked))
        runs = [client.run(inv) for inv in invs]
        passes.append(
            Pass(
                wall_s=sum(c.result.wall_s for c in runs),
                cpu_s=sum(c.result.cpu_s for c in runs),
                items=sum(c.items for c in runs),
                maxrss_kb=max(c.result.maxrss_kb for c in runs),
            )
        )
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    n = len(passes)
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s", n),
        "items_per_s": (statistics.median(p.items / p.wall_s for p in passes), "1/s", n),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s", n),
        "peak_rss_mb": (max(p.maxrss_kb for p in passes) / 1024, "MB", n),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s", len(setups)),
        "failed_frac": (client.tally.failed_frac, "ratio", client.tally.attempted),
    }
