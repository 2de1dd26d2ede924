"""The package is its modules: `cmreg` binds no name of its own but
__version__, so `import cmreg.X as X` binds the module X, and importing one
module loads only the modules it imports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import cmreg
import cmreg.regularity as R

SRC = Path(cmreg.__file__).parent.parent

# each snapshot is the sorted cmreg entries of sys.modules after one import,
# fields first, so its snapshot is that of a fresh interpreter
_SNAPSHOTS = """
import json, sys
out = {}
for name in ("cmreg.fields", "cmreg.cli"):
    __import__(name)
    out[name] = sorted(m for m in sys.modules if m.split(".")[0] == "cmreg")
print(json.dumps(out))
"""


@lru_cache(maxsize=None)
def _loaded_after_import():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SNAPSHOTS], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_module_alias_binds_the_module():
    assert R.__name__ == "cmreg.regularity"
    assert callable(R.betti_oracle) and callable(R.regularity)


def test_fields_loads_only_the_package_and_itself():
    assert _loaded_after_import()["cmreg.fields"] == ["cmreg", "cmreg.fields"]


def test_cli_does_not_load_ci_ops():
    loaded = _loaded_after_import()["cmreg.cli"]
    assert "cmreg.cli" in loaded and "cmreg.ci_ops" not in loaded
