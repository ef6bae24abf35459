"""Tests of the benchmark itself: its correctness gate, its self-time
arithmetic, the restoration of traced attributes and its seed classes."""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import replay  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = [
    wl.Invocation(("verify", "parity", "--d", "5", "--charge", "0,1")),
    wl.Invocation(("llt", "--d", "6", "--format", "json", "--charge", "1")),
    wl.Invocation(("restricted", "--d", "6", "--charge", "0,1,0")),
    wl.Invocation(("6", "0"), library=True),
]


def golden_for(invs):
    """Golden entries for small invocations, recorded in a fresh process."""
    client = measure.Client(ROOT, {}, measure.Tally())
    golden = {}
    for inv in invs:
        result = measure.run_child(client.argv(inv), client.env, 30.0)
        assert result.exit_code == 0, result.stderr
        digest, items = wl.read_output(inv, result.stdout)
        golden[inv.key] = {"sha256": digest, "items": items}
    return golden


def test_corrupted_golden_digest_counts_as_failed():
    inv = SMALL[2]
    golden = golden_for([inv, wl.setup_probe("crystal")])
    clean = measure.Client(ROOT, golden, measure.Tally())
    metrics = measure.measure(clean, "crystal", [inv], seconds=0.0)
    assert metrics["failed_frac"][0] == 0

    corrupted = dict(golden, **{inv.key: dict(golden[inv.key], sha256="0" * 64)})
    client = measure.Client(ROOT, corrupted, measure.Tally())
    metrics = measure.measure(client, "crystal", [inv], seconds=0.0)
    assert metrics["failed_frac"][0] > 0
    assert client.tally.failed == 1
    assert "digest" in client.tally.errors[0]

    report = replay.replay([inv], corrupted, None)
    assert report["failed"] == 1


def test_wrong_exit_code_and_over_budget_count_as_failed(monkeypatch):
    inv = wl.Invocation(("restricted", "--d", "-1"))
    client = measure.Client(ROOT, {}, measure.Tally())
    assert not client.run(inv).ok
    monkeypatch.setattr(measure, "INVOCATION_BUDGET_S", 0.0)
    assert not client.run(wl.setup_probe("sweep")).ok
    assert client.tally.failed == client.tally.attempted == 2
    assert "budget" in client.tally.errors[1]


def test_self_times_on_a_nested_span_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["verify_specht_parity", 1.0, 4.0, 0],
        ["qdim_specht", 2.0, 3.0, 1],
        ["simple_qdims", 5.0, 9.0, 0],
        ["qdim_specht", 5.5, 6.0, 3],
        ["qdim_specht", 5.8, 7.0, 3],  # overlaps its sibling: covered once
        ["qdim_specht", 8.5, 9.5, 3],  # runs past its parent: clipped
    ]
    assert replay.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.2, 1.0])

    report = {"spans": spans, "counts": {"tableaux.count": 4}, "wall_s": 10.0, "extras": {
        "specht.memo_entries": 0, "specht.qdim_distinct": 2, "crystal.distinct_grown": 0,
        "cli.stdout_bytes": 0, "fock.consistency_errors": 0}}
    metrics = replay.layer_metrics(report)
    assert metrics["specht.qdim_s"][0] == pytest.approx(3.7)
    assert metrics["specht.qdim_calls"][0] == 4
    assert metrics["specht.qdim_distinct_ratio"][0] == pytest.approx(0.5)
    assert metrics["specht.sweep_self_s"][0] == pytest.approx(2.0)
    assert metrics["fock.solve_s"][0] == pytest.approx(2.0)
    assert metrics["cli.self_s"][0] == pytest.approx(3.0)
    assert metrics["share.specht"][0] == pytest.approx(100 * (2.0 + 3.7) / 10.0)


def test_traced_replay_restores_every_wrapped_attribute():
    import qspecht  # noqa: F401
    import qspecht.laurent

    def snapshot():
        owners = replay.qspecht_modules() + [qspecht.laurent.LaurentPoly]
        return {(id(o), name): value for o in owners for name, value in list(vars(o).items())}

    before = snapshot()
    tracer = replay.Tracer()
    report = replay.replay(SMALL, golden_for(SMALL), tracer)
    assert report["failed"] == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "session", "qdim_specht", "induct", "restricted_multipartitions"} <= names
    assert tracer.counts["laurent.mul_calls"] and tracer.counts["core.degree_calls"]
    assert tracer.counts["crystal.add_good_calls"]
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def charge_class(inv):
    """The invocation with its charge replaced by the charge's level."""
    args = list(inv.argv)
    at = 1 if inv.library else args.index("--charge") + 1
    args[at] = f"level-{len(args[at].split(','))}"
    return inv.library, tuple(args)


def test_each_seed_class_has_one_output_size():
    golden = wl.load_golden()
    for workload in wl.WORKLOADS:
        sizes = defaultdict(set)
        for inv in wl.all_invocations(workload):
            assert inv.key in golden, inv.key
            sizes[charge_class(inv)].add(golden[inv.key]["items"])
        assert sizes and all(len(s) == 1 for s in sizes.values()), (workload, sizes)
    drawn = {level: {wl.pick_charges(seed)[level] for seed in range(40)} for level in wl.CHARGE_CLASSES}
    assert drawn == {level: set(cls) for level, cls in wl.CHARGE_CLASSES.items()}
    assert wl.pick_charges(7) == wl.pick_charges(7)


def test_independent_oracles_agree_with_qspecht():
    from qspecht import is_2_restricted, multipartitions, partitions

    for d in range(8):
        for level in (1, 2, 3):
            assert wl.multipartition_count(d, level) == sum(1 for _ in multipartitions(d, level))
    for d in range(15):
        assert wl.restricted_partition_count(d) == sum(1 for p in partitions(d) if is_2_restricted(p))
    assert wl.multipartition_count(12, 1) == 77 and wl.restricted_partition_count(21) == 76


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    report = {"spans": [], "counts": {}, "wall_s": 1.0, "extras": defaultdict(int)}
    layer_names = set(replay.layer_metrics(report)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    import run

    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_METRICS)
