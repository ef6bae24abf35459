"""In-process replay of a workload, traced or not.

Usage: python3 perfbench/replay.py WORKLOAD SEED TRACE

One fresh process replays every invocation of one pass: `cli.main(argv)` for
a CLI invocation, and the library call for the library session.  Between
invocations the `qdim_specht` memo is cleared, as a fresh process would
have it.  With TRACE=1, wrappers sit on the public functions at every
qspecht module attribute bound to them and are restored afterwards.

Coarse boundaries record spans (name, start, end, parent) in memory: the CLI
command, the library session, and each call of the functions in `SPANNED`.
Hot calls (`LaurentPoly` arithmetic, `degree_contribution`, `add_good_node`)
are counted, not spanned.  The last line of stdout is one JSON report:
replay wall time, the correctness tally, and, when traced, the spans and
counters, from which `layer_metrics` derives the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable

import measure
import session
import workloads as wl

# Spanned functions, by defining module, and the layer their self time goes to.
SPANNED = {
    "specht": ("qdim_specht", "verify_specht_parity", "verify_row_degree_parity"),
    "fock": ("decomposition_matrix", "canonical_basis", "ladder_vector", "induct", "simple_qdims"),
    "crystal": ("restricted_multipartitions",),
}
LAYER_OF = {"cli.main": "cli", "session": "session"}
LAYER_OF.update((name, layer) for layer, names in SPANNED.items() for name in names)
SHARE_LAYERS = ("cli", "specht", "fock", "crystal")


class Tracer:
    """Spans and counters of one traced replay, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.qdim_args: set = set()
        self.grown: set = set()

    def spanned(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(
        self, name: str, fn: Callable, weight: Callable | None = None, after: Callable | None = None
    ) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if weight is not None:
                counts[name + ".weight"] += weight(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # Counters derived from results, run after the span has closed.

    def after_qdim(self, args, result) -> None:
        self.counts["tableaux.count"] += result.eval_at_one()
        self.qdim_args.add(args)

    def after_induct(self, args, result) -> None:
        self.counts["fock.induct_terms"] += len(result.support())

    def after_matrix(self, args, result) -> None:
        self.counts["fock.columns"] += len(result.cols)

    def after_add_good(self, args, result) -> None:
        if result is not None:
            self.counts["crystal.grown"] += 1
            self.grown.add((tuple(args[1]), result))


class Patches:
    """Module and class attributes replaced by wrappers, and their originals."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def wrap(self, original: object, wrapper: Callable, owners: Iterable[object]) -> None:
        """Replace every attribute of ``owners`` that is ``original``."""
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self.saved.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


def qspecht_modules() -> list[object]:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "qspecht"]


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Install the wrappers.  A function a later version drops is skipped,
    and its metrics read 0."""
    import qspecht.laurent

    modules = qspecht_modules()
    after = {
        "qdim_specht": tracer.after_qdim,
        "induct": tracer.after_induct,
        "decomposition_matrix": tracer.after_matrix,
    }
    for module_name, names in SPANNED.items():
        module = sys.modules[f"qspecht.{module_name}"]
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                patches.wrap(fn, tracer.spanned(name, fn, after.get(name)), modules)

    degree = getattr(sys.modules["qspecht.core"], "degree_contribution", None)
    if degree is not None:
        patches.wrap(degree, tracer.counted("core.degree_calls", degree), modules)
    add_good = getattr(sys.modules["qspecht.crystal"], "add_good_node", None)
    if add_good is not None:
        counted = tracer.counted("crystal.add_good_calls", add_good, after=tracer.after_add_good)
        patches.wrap(add_good, counted, modules)

    poly = qspecht.laurent.LaurentPoly

    def pairs(args) -> int:
        a, b = args
        return len(a.support()) * (len(b.support()) if isinstance(b, poly) else 1)

    patches.wrap(poly.__mul__, tracer.counted("laurent.mul_calls", poly.__mul__, pairs), [poly])
    patches.wrap(poly.__add__, tracer.counted("laurent.add_calls", poly.__add__), [poly])


def replay(invs: list[wl.Invocation], golden: dict[str, dict], tracer: Tracer | None) -> dict:
    """Run ``invs`` in this process; returns the report described above."""
    import qspecht.cli
    import qspecht.fock
    import qspecht.specht

    qdim = qspecht.specht.qdim_specht
    memoized = hasattr(qdim, "cache_info")
    tally = measure.Tally()
    patches = Patches()
    memo_entries = stdout_bytes = consistency_errors = 0

    def cli_main(argv):
        return qspecht.cli.main(list(argv))

    def library(d, charge):
        matrix = qspecht.fock.decomposition_matrix(d, charge)
        return json.dumps({"digest": session.matrix_digest(matrix), "columns": len(matrix.cols)})

    if tracer is not None:
        cli_main = tracer.spanned("cli.main", cli_main)
        library = tracer.spanned("session", library)
        instrument(tracer, patches)
    wall = 0.0
    try:
        for inv in invs:
            tally.attempted += 1
            out = io.StringIO()
            start = time.perf_counter()
            try:
                if inv.library:
                    charge = tuple(int(c) for c in inv.argv[1].split(","))
                    out.write(library(int(inv.argv[0]), charge))
                    code = 0
                else:
                    with contextlib.redirect_stdout(out):
                        code = cli_main(inv.argv)
            except qspecht.fock.InternalConsistencyError as exc:
                consistency_errors += 1
                tally.fail(inv.key, repr(exc))
                continue
            except (Exception, SystemExit) as exc:
                tally.fail(inv.key, repr(exc))
                continue
            finally:
                wall += time.perf_counter() - start
                if memoized:
                    memo_entries = max(memo_entries, qdim.cache_info().currsize)
                    qdim.cache_clear()
            data = out.getvalue().encode()
            if not inv.library:
                stdout_bytes += len(data)
            _, reason = measure.check(inv, data, code, golden)
            if reason:
                tally.fail(inv.key, reason)
    finally:
        patches.restore()
    report = {
        "wall_s": wall,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }
    if tracer is not None:
        report.update(
            spans=tracer.spans,
            counts=dict(tracer.counts),
            extras={
                "specht.memo_entries": memo_entries,
                "specht.qdim_distinct": len(tracer.qdim_args),
                "crystal.distinct_grown": len(tracer.grown),
                "cli.stdout_bytes": stdout_bytes,
                "fock.consistency_errors": consistency_errors,
            },
        )
    return report


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children are merged, so overlaps count once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(report: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced replay, each as (value, unit)."""
    spans, counts, extras = report["spans"], Counter(report["counts"]), report["extras"]
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    layers: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name = span[0]
        inclusive[name] += span[2] - span[1]
        own[name] += self_s
        calls[name] += 1
        layers[LAYER_OF[name]] += self_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = report["wall_s"]
    qdim_s = inclusive["qdim_specht"]
    metrics = {
        "tableaux.count": (counts["tableaux.count"], "count"),
        "tableaux.ns_per_tableau": (ratio(qdim_s * 1e9, counts["tableaux.count"]), "ns"),
        "specht.qdim_s": (qdim_s, "s"),
        "specht.qdim_calls": (calls["qdim_specht"], "count"),
        "specht.qdim_distinct_ratio": (ratio(extras["specht.qdim_distinct"], calls["qdim_specht"]), "ratio"),
        "specht.memo_entries": (extras["specht.memo_entries"], "count"),
        "specht.sweep_self_s": (own["verify_specht_parity"] + own["verify_row_degree_parity"], "s"),
        "fock.ladder_s": (inclusive["ladder_vector"], "s"),
        "fock.elim_s": (own["canonical_basis"], "s"),
        "fock.solve_s": (own["simple_qdims"], "s"),
        "fock.induct_calls": (calls["induct"], "count"),
        "fock.induct_terms": (counts["fock.induct_terms"], "count"),
        "fock.columns": (counts["fock.columns"], "count"),
        "fock.consistency_errors": (extras["fock.consistency_errors"], "count"),
        "laurent.mul_calls": (counts["laurent.mul_calls"], "count"),
        "laurent.mul_term_pairs": (counts["laurent.mul_calls.weight"], "count"),
        "laurent.add_calls": (counts["laurent.add_calls"], "count"),
        "core.degree_calls": (counts["core.degree_calls"], "count"),
        "crystal.closure_s": (inclusive["restricted_multipartitions"], "s"),
        "crystal.add_good_calls": (counts["crystal.add_good_calls"], "count"),
        "crystal.useful_ratio": (ratio(extras["crystal.distinct_grown"], counts["crystal.grown"]), "ratio"),
        "cli.self_s": (own["cli.main"], "s"),
        "cli.stdout_bytes": (extras["cli.stdout_bytes"], "B"),
    }
    for layer in SHARE_LAYERS:
        metrics[f"share.{layer}"] = (100.0 * ratio(layers[layer], wall), "%")
    return metrics


def main(argv: list[str]) -> None:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    invs = wl.invocations(workload, wl.pick_charges(seed))
    report = replay(invs, wl.load_golden(), Tracer() if trace else None)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
