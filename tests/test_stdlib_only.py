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
