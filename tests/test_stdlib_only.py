import ast
import json
import os
import subprocess
import sys
from pathlib import Path

# Imports every qspecht module except __main__, whose import runs the CLI,
# and prints the top-level names of the modules that this loaded.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import qspecht
for info in pkgutil.iter_modules(qspecht.__path__, "qspecht."):
    if info.name != "qspecht.__main__":
        importlib.import_module(info.name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


# Runs one CLI command with its output discarded, and prints the qspecht
# modules that were loaded, and the json, dataclasses and inspect modules if
# the command loaded any.
FOOTPRINT = """
import contextlib, io, sys
from qspecht.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
watched = ("qspecht", "json", "dataclasses", "inspect")
loaded = sorted(name for name in sys.modules if name.split(".")[0] in watched)
import json
print(json.dumps(loaded))
"""

# Binds the package's exports by a star import in a fresh process.
STAR = """
import json
import qspecht
names = {}
exec("from qspecht import *", names)
print(json.dumps([sorted(qspecht.__all__), sorted(set(names) - {"__builtins__"})]))
"""

# The names `qspecht` exported when its __init__ imported every module, less
# the node-list helpers that moved to the test oracles, `partition_parity`, the
# listing wrappers, `pin_via_truncation` and `ParityElem` that no command ran,
# and `UndeterminedEntryError`, which no public call let escape.
EXPORTS = [
    "AdjustmentEvidence", "FockVector", "GradedDecompositionMatrix",
    "InternalConsistencyError", "LaurentPoly", "Multicharge", "Multipartition", "Node", "ONE",
    "Partition", "Q", "StandardTableau", "SweepReport", "ZERO",
    "add_good_node", "adjusted_entry", "as_multicharge", "as_partition",
    "candidate_entries", "canonical_basis", "decomposition_matrix", "degree",
    "degree_contribution", "degree_parity", "evidence_report", "format_multipartition",
    "induct", "is_2_restricted", "multipartition_size", "multipartitions",
    "parse_multipartition", "parse_residues", "partitions",
    "published_evidence", "q_power", "qdim_hecke", "qdim_specht", "qdim_truncation",
    "residue_sequence", "restricted_multipartitions", "row_filled_tableau", "simple_qdims",
    "standard_tableaux_with_degrees",
    "verify_hecke_even", "verify_row_degree_parity", "verify_specht_parity",
]

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qspecht").glob("*.py"))


def probe(code: str, *args: str):
    """Run ``code`` in a fresh interpreter that imports qspecht from this
    checkout, and return the JSON it prints."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_module_imports_only_the_standard_library():
    loaded = set(probe(PROBE))
    assert "qspecht" in loaded
    assert loaded - {"qspecht"} <= set(sys.stdlib_module_names), loaded


def test_each_command_loads_only_the_modules_it_runs():
    loaded = probe(FOOTPRINT, "restricted", "--d", "6", "--charge", "0,1")
    assert loaded == ["qspecht", "qspecht.cli", "qspecht.core", "qspecht.crystal"]
    loaded = probe(FOOTPRINT, "qdim", "--lambda", "2,1|1", "--charge", "0,1")
    assert "qspecht.specht" in loaded and "json" not in loaded
    assert "qspecht.fock" not in loaded and "qspecht.adjustment" not in loaded
    # `dataclasses` with `inspect` cost 7-11 ms of a process's start, and the
    # sweeps read row-filled degrees without the tableau module
    unneeded = {"dataclasses", "inspect", "qspecht.tableaux"}
    assert not unneeded & set(loaded)
    for argv in (("verify", "parity", "--d", "4", "--charge", "0,1"), ("llt", "--d", "4")):
        loaded = probe(FOOTPRINT, *argv)
        assert "qspecht.specht" in loaded and not unneeded & set(loaded), argv


# Runs `decomposition_matrix(6)` as a library call and prints the modules that
# the call loaded.
LIBRARY = """
import json, sys
before = set(sys.modules)
import qspecht
qspecht.decomposition_matrix(6)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_a_library_decomposition_matrix_loads_only_its_modules():
    # `dataclasses` (with `inspect`) cost about 11 ms of a session's import
    loaded = probe(LIBRARY)
    ours = [name for name in loaded if name.split(".")[0] == "qspecht"]
    assert ours == ["qspecht", "qspecht.core", "qspecht.fock", "qspecht.laurent"]
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_the_package_exports_its_names_on_first_access():
    exported, bound = probe(STAR)
    assert exported == EXPORTS
    assert bound == EXPORTS


def test_only_core_holds_context_variables_and_no_module_reads_anothers_private_names():
    # every per-call memo is a core.CallMemo, and modules meet through public names
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        siblings = set()  # names bound by imports from the package
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [(a.name, a.asname or a.name) for a in node.names]
                ours = [bound for name, bound in imported if name.startswith("qspecht")]
            elif isinstance(node, ast.ImportFrom):
                imported = [(node.module, None)]
                ours = []
                if node.level or (node.module or "").startswith("qspecht"):
                    found += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
                    ours = [a.asname or a.name for a in node.names]
            else:
                continue
            if path.name != "core.py":
                found += [(path.name, name) for name, _ in imported if name == "contextvars"]
            siblings.update(ours)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                found.append((path.name, f"{node.value.id}.{node.attr}"))
    assert not found


def test_the_node_kernel_has_three_readers_and_the_node_lists_live_in_the_oracles():
    # `core.steps` is the one node kernel on tuple shapes: it serves the
    # tableau search and the graded-dimension pass (the Fock space reads bead
    # masks, the crystal folds the run rule into its component summaries),
    # and `degree_contribution` recounts its nodes for the literal prefix
    # recursion.  Each call passes the shape and the charge only, and no
    # second kernel `signatures` is defined
    readers = set()
    defined = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    defined.add(node.id)
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name == "steps":
                        readers.add((path.name, getattr(top, "name", "<module>")))
                        assert len(node.args) == 2 and not node.keywords, path.name
    assert readers == {
        ("core.py", "degree_contribution"),
        ("specht.py", "layer_counts"),
        ("tableaux.py", "_search"),
    }
    crystal = ast.parse((SOURCES[0].parent / "crystal.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(crystal)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"steps", "ADDABLE"}
    assert "signatures" not in defined
    assert not defined & {"addable_nodes", "removable_nodes", "contains_node", "residue_of"}
    # `core.partitions` filtered by `core.is_2_restricted` is the one lister
    # of the 2-restricted partitions
    assert not defined & {"_restricted_partitions", "_conjugate", "_distinct_parts"}


# The functions that check an argument, and the kernels that trust theirs.
VALIDATORS = {
    "as_multicharge", "as_partition", "check_charge", "check_component_count",
    "check_multipartition", "check_node", "check_residues", "check_shape", "check_size",
    "LaurentPoly",  # the checking constructor; `LaurentPoly.from_clean` adopts
}
KERNELS = {
    ("core.py", "steps"), ("core.py", "multipartition_parity"),
    ("specht.py", "layer_counts"), ("tableaux.py", "_search"),
    ("crystal.py", "_pending"), ("crystal.py", "_Interned.summary"),
    ("fock.py", "_moves"), ("fock.py", "_entry"),
}


def calls_by_function():
    """{(module file, function or Class.method): names it calls}, nested
    functions counted with the function that holds them."""
    found = {}
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            defs = [(top.name, top)] if isinstance(top, ast.FunctionDef) else []
            if isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{d.name}", d) for d in top.body if isinstance(d, ast.FunctionDef)]
            for name, fn in defs:
                found[path.name, name] = {
                    node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                }
    return found


def test_only_the_parsers_and_the_entry_points_validate_and_the_kernels_trust():
    calls = calls_by_function()
    validating = {where for where, names in calls.items() if names & VALIDATORS}
    assert validating == {
        # the CLI parsers
        ("cli.py", "_parse_charge"), ("cli.py", "_parse_shape"), ("cli.py", "_cmd_truncate"),
        ("core.py", "parse_multipartition"),
        # the validators built from the others
        ("core.py", "as_multicharge"), ("core.py", "check_multipartition"),
        ("core.py", "check_shape"),
        # exported entry points checking their own arguments, each before it
        # hands them to a kernel; `with_node_added` checks each placement
        # that `StandardTableau` walks
        ("core.py", "degree_contribution"), ("core.py", "degree_parity"),
        ("core.py", "partitions"), ("core.py", "multipartitions"), ("core.py", "with_node_added"),
        ("specht.py", "qdim_specht"), ("specht.py", "qdim_truncation"),
        ("specht.py", "qdim_hecke"), ("specht.py", "verify_specht_parity"),
        ("specht.py", "verify_row_degree_parity"), ("specht.py", "verify_hecke_even"),
        ("tableaux.py", "standard_tableaux_with_degrees"), ("tableaux.py", "residue_sequence"),
        ("tableaux.py", "degree"),
        ("crystal.py", "add_good_node"), ("crystal.py", "restricted_multipartitions"),
        ("fock.py", "FockVector.__init__"), ("fock.py", "FockVector.coefficient"),
        ("fock.py", "induct"), ("fock.py", "canonical_basis"), ("fock.py", "simple_qdims"),
        ("adjustment.py", "AdjustmentEvidence.__post_init__"),
        # an integer operand becomes a constant polynomial
        ("laurent.py", "LaurentPoly.__eq__"), ("laurent.py", "LaurentPoly.__add__"),
        ("laurent.py", "LaurentPoly.__sub__"), ("laurent.py", "LaurentPoly.__mul__"),
        ("laurent.py", "q_power"),
    }
    entry_points = {name.split(".")[0] for _, name in validating} & set(EXPORTS)
    assert KERNELS <= set(calls)
    for kernel in KERNELS:
        assert not calls[kernel] & (VALIDATORS | entry_points), kernel
    # inside the package a checked shape's parity comes from the kernel
    assert not any("degree_parity" in names for names in calls.values())
