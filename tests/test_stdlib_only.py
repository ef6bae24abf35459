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


def test_every_module_imports_only_the_standard_library():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "qspecht" in loaded
    assert loaded - {"qspecht"} <= set(sys.stdlib_module_names), loaded


def test_only_core_holds_context_variables_and_no_module_reads_anothers_private_names():
    # every per-call memo is a core.CallMemo, and modules meet through public names
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "qspecht").glob("*.py")):
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
