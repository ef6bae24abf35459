"""Record `golden.json`: the output digest and item count of every invocation
any seed can make, over every charge in each seed class.

Usage: python3 perfbench/record_golden.py

Run it only on a commit whose outputs are known to be right; the benchmark
fails any invocation whose output differs from what this records.
"""

import json

import measure
import workloads as wl
from run import source_root


def main() -> None:
    root = source_root()
    client = measure.Client(root, {}, measure.Tally())
    golden = {}
    for workload in wl.WORKLOADS:
        for inv in [wl.setup_probe(workload), *wl.all_invocations(workload)]:
            if inv.library and not inv.argv:
                continue
            result = measure.run_child(client.argv(inv), client.env, measure.INVOCATION_BUDGET_S)
            if result.exit_code != 0 or result.timed_out:
                raise SystemExit(f"{inv.key}: exit code {result.exit_code}")
            digest, items = wl.read_output(inv, result.stdout)
            golden[inv.key] = {"sha256": digest, "items": items}
            print(f"{result.wall_s:7.3f} s  {items:6d} items  {inv.key}")
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
