"""The package imports nothing outside the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the top-level modules that importing the package and its CLI newly loads;
# site may preload third-party .pth hooks, so only the difference counts
PROBE = """
import json, sys
before = set(sys.modules)
import qmm, qmm.cli
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_the_package_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout)
    assert "qmm" in loaded
    assert [name for name in loaded if name != "qmm" and name not in sys.stdlib_module_names] == []
