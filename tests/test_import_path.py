"""The import path: `import sharpmart` loads numpy and the standard library
only, and each scipy subpackage is loaded by the function that calls it.
G's primary table is built in numpy, so building it loads no scipy module.

Each check runs in a fresh interpreter, since this one has scipy loaded
by other test modules."""

import json
import os
import subprocess
import sys

import pytest


def _scipy_modules_after(code: str) -> list:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    probe = "\nprint(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code + probe],
                         capture_output=True, text=True, check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import sharpmart, sharpmart.cli",
    "from sharpmart import mc\n"
    "mc.random_subordinate_pair_check(3.0, mc.SimConfig(master_seed=1, n_samples=200), n_pairs=3)",
])
def test_no_scipy_module_is_loaded(code):
    assert _scipy_modules_after(code) == []


def test_build_g_rk_loads_no_scipy_module():
    assert _scipy_modules_after("from sharpmart.gfun import build_g_rk\nbuild_g_rk(3.0)") == []
