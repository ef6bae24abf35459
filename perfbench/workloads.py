"""The four benchmark workloads, their seed classes, golden outputs and oracles.

A workload is a list of invocations.  The seed picks each level-k multicharge
from a class of charges that do the same amount of work: the residue flip
(0,) <-> (1,) and (0,1) <-> (1,0) at levels 1 and 2, and the permutations of
(0,0,1) at level 3.  `golden.json` holds, for every invocation of every
charge in its class, the sha256 of the output recorded at the commit that added the benchmark
and its item count; `test_perfbench.py` checks that each class has one item
count, so `items_per_s` compares like with like across seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

CHARGE_CLASSES: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((0,), (1,)),
    2: ((0, 1), (1, 0)),
    3: ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
}

WORKLOADS = ("sweep", "llt", "canonical-basis", "crystal")

# What one item is, per workload; items_per_s counts these.
ITEM_UNITS = {
    "sweep": "shapes checked",
    "llt": "matrix columns solved",
    "canonical-basis": "basis columns",
    "crystal": "multipartitions listed",
}

LIBRARY_D = 21


@dataclass(frozen=True)
class Invocation:
    """One unit of client work: a CLI argv, or the library session's call
    `decomposition_matrix(d, charge)` (marked by ``library=True``)."""

    argv: tuple[str, ...]
    library: bool = False

    @property
    def key(self) -> str:
        return ("library " if self.library else "") + " ".join(self.argv)


def charge_text(charge: tuple[int, ...]) -> str:
    return ",".join(map(str, charge))


def _cli(*argv: str) -> Invocation:
    return Invocation(tuple(argv))


def invocations(workload: str, charges: dict[int, tuple[int, ...]]) -> list[Invocation]:
    """The invocations of one pass of ``workload`` under the chosen charges."""
    c = {level: charge_text(charge) for level, charge in charges.items()}
    if workload == "sweep":
        return [
            _cli("verify", "parity", "--d", "12", "--charge", "0"),
            _cli("verify", "parity", "--d", "9", "--charge", c[2]),
            _cli("verify", "parity", "--d", "7", "--charge", c[3]),
            _cli("verify", "row-degree", "--d", "20", "--charge", "0"),
        ]
    if workload == "llt":
        return [_cli("llt", "--d", "14", "--format", "json", "--charge", c[1])]
    if workload == "canonical-basis":
        return [Invocation((str(LIBRARY_D), c[1]), library=True)]
    if workload == "crystal":
        return [
            _cli("restricted", "--d", "36", "--charge", c[2]),
            _cli("restricted", "--d", "26", "--charge", c[3]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pick_charges(seed: int) -> dict[int, tuple[int, ...]]:
    """One charge per level, drawn from its class; the same seed gives the
    same charges."""
    rng = random.Random(seed)
    return {level: rng.choice(cls) for level, cls in sorted(CHARGE_CLASSES.items())}


def all_invocations(workload: str) -> list[Invocation]:
    """Every invocation ``workload`` can make, over all charges in its classes."""
    seen: dict[str, Invocation] = {}
    for charges in itertools.product(*CHARGE_CLASSES.values()):
        for inv in invocations(workload, dict(zip(CHARGE_CLASSES, charges))):
            seen.setdefault(inv.key, inv)
    return list(seen.values())


def setup_probe(workload: str) -> Invocation:
    """The trivial invocation timed as set-up: interpreter start, import and
    argument parsing; for the library session, start and import only."""
    if workload == "canonical-basis":
        return Invocation((), library=True)
    return _cli("qdim", "--lambda", "1")


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, dict]:
    return json.loads(path.read_text())


# Oracles that share no code with qspecht.


def partition_counts(n: int, distinct: bool = False) -> list[int]:
    """p(0..n), or the counts of partitions into distinct parts."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        span = range(n, part - 1, -1) if distinct else range(part, n + 1)
        for total in span:
            counts[total] += counts[total - part]
    return counts


def multipartition_count(d: int, level: int) -> int:
    """Number of level-tuples of partitions with sizes summing to d."""
    p = partition_counts(d)
    conv = [1] + [0] * d
    for _ in range(level):
        conv = [sum(conv[k] * p[n - k] for k in range(n + 1)) for n in range(d + 1)]
    return conv[d]


def restricted_partition_count(d: int) -> int:
    """2-restricted partitions of d are conjugate to partitions into distinct
    parts, so they are counted by the distinct-part recursion."""
    return partition_counts(d, distinct=True)[d]


class OutputError(Exception):
    """An invocation's output is malformed or fails an oracle."""


def read_output(inv: Invocation, stdout: bytes) -> tuple[str, int]:
    """The digest and item count of one invocation's output, the count
    checked against an oracle independent of qspecht where one exists.

    A CLI invocation is digested whole.  The library session prints a JSON
    report whose ``digest`` field is the sha256 of ``matrix.to_json()``.
    """
    if inv.library:
        report = json.loads(stdout)
        if not inv.argv:
            return "", 0
        columns = report["columns"]
        if columns != restricted_partition_count(int(inv.argv[0])):
            raise OutputError(f"{columns} columns, expected one per 2-restricted partition")
        return report["digest"], columns
    return digest(stdout), _cli_items(inv, stdout.decode())


def _cli_items(inv: Invocation, text: str) -> int:
    command = inv.argv[0]
    if command == "verify":
        d = int(inv.argv[inv.argv.index("--d") + 1])
        level = len(inv.argv[inv.argv.index("--charge") + 1].split(","))
        checked = int(_field(text, "checked"))
        if checked != multipartition_count(d, level):
            raise OutputError(f"checked {checked} shapes, expected {multipartition_count(d, level)}")
        if "result: ok" not in text.splitlines():
            raise OutputError("sweep did not report ok")
        return checked
    if command == "llt":
        d = int(inv.argv[inv.argv.index("--d") + 1])
        columns = len(json.loads(text)["matrix"]["cols"])
        if columns != restricted_partition_count(d):
            raise OutputError(f"{columns} columns, expected one per 2-restricted partition")
        return columns
    if command == "restricted":
        count = int(_field(text, "count"))
        if count != len(text.splitlines()) - 1:
            raise OutputError("restricted count does not match the lines listed")
        return count
    if command == "qdim":
        return 1
    raise OutputError(f"no item reader for {command!r}")


def _field(text: str, name: str) -> str:
    for line in text.splitlines():
        if line.startswith(name + ": "):
            return line[len(name) + 2 :]
    raise OutputError(f"output has no {name!r} line")


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()
