"""The import path: the library runs on numpy and the standard library, and
no call of it loads a scipy module (scipy is a test dependency only). G's
two tables, the Bessel oracle's I and K included, are built in numpy, and
K_p's Dirichlet beta is summed in standard-library `math`; every `verify`
suite, `figures` and `constants` is checked here.

Each check runs in a fresh interpreter, since this one has scipy loaded
by other test modules."""

import json
import os
import subprocess
import sys

import pytest

from sharpmart.verify import SUITES


def _scipy_modules_after(code: str) -> list:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    probe = "\nprint(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code + probe],
                         capture_output=True, text=True, check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


# a small n for each suite; ode and extremal take none, and their **_ drops it
_SMALL_N = {"w": 200, "u-weak": 50, "u-orth": 5, "ode": 1, "extremal": 1,
            "mc-weak-type": 20, "mc-strip": 2000, "harmonic": 2000}


@pytest.mark.parametrize("code", [
    "import sharpmart, sharpmart.cli",
    "from sharpmart import mc\n"
    "mc.random_subordinate_pair_check(3.0, mc.SimConfig(master_seed=1, n_samples=200), n_pairs=3)",
    *(f"from sharpmart.verify import run_suite\nrun_suite({name!r}, n={_SMALL_N[name]})"
      for name in SUITES),
    "from sharpmart.gfun import build_g_bessel\nbuild_g_bessel(3.0)",
    "import tempfile\nfrom sharpmart.cli import main\nwith tempfile.TemporaryDirectory() as d:\n"
    "    main(['figures', 'regions', '--out', d]), main(['figures', 'trajectories', '--out', d])",
    "from sharpmart.cli import main\nmain(['constants', '--p', '1.5'])",
])
def test_no_scipy_module_is_loaded(code):
    assert _scipy_modules_after(code) == []


def test_build_g_rk_loads_no_scipy_module():
    assert _scipy_modules_after("from sharpmart.gfun import build_g_rk\nbuild_g_rk(3.0)") == []
