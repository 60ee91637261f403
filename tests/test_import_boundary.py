"""Importing the package loads no scipy module; the few functions that need
scipy import it themselves, so a sweep does not pay for it.

Each check runs in a fresh interpreter, because the test process has long
since imported scipy through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import hef_lab
from hef_lab.models import create
from hef_lab.series import sample_size
from hef_lab.stats import compare_paired_runs, two_proportion_z

SRC = str(Path(hef_lab.__file__).resolve().parents[1])


def _run_fresh(code: str) -> object:
    """The JSON value that ``code`` prints as its last line, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=False
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_importing_the_package_loads_no_scipy() -> None:
    loaded = _run_fresh(
        "import json, sys\n"
        "import hef_lab, hef_lab.cli, hef_lab.config, hef_lab.protocol, hef_lab.series, hef_lab.models\n"
        f"print(json.dumps({SCIPY_LOADED}))"
    )
    assert loaded == [], f"importing hef_lab loaded {len(loaded)} scipy modules: {loaded}"


# normal-looking groups take Welch's t; the skewed pair takes Mann-Whitney
NORMAL_A = [10.1, 9.8, 10.4, 10.0, 9.7, 10.3, 10.2]
NORMAL_B = [11.0, 10.8, 11.3, 10.9, 11.1, 10.7, 11.2]
SKEWED_A = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0]
SKEWED_B = [2.0, 2.5, 2.0, 3.0, 2.0, 2.0, 2.0]
TRAIN = [50.0 + 10.0 * ((i * 7) % 12) / 12.0 + 0.5 * i for i in range(36)]
ORDER = {"p": 1, "d": 1, "q": 0}  # a point whose Nelder-Mead search converges on TRAIN


def test_each_function_that_needs_scipy_imports_it() -> None:
    fresh = _run_fresh(
        "import json, sys\n"
        "from hef_lab.models import create\n"
        "from hef_lab.series import sample_size\n"
        "from hef_lab.stats import compare_paired_runs, two_proportion_z\n"
        f"values = [repr(create('arima').fit({TRAIN}, {ORDER}).predict(6).tolist()),\n"
        "    sample_size(294),\n"
        f"    repr(compare_paired_runs({NORMAL_A}, {NORMAL_B})),\n"
        f"    repr(compare_paired_runs({SKEWED_A}, {SKEWED_B})),\n"
        "    repr(two_proportion_z(30, 60, 12, 60))]\n"
        f"print(json.dumps([values, {SCIPY_LOADED}]))"
    )
    values, loaded = fresh
    assert {"scipy.optimize", "scipy.special"} <= set(loaded)
    normal, skewed = compare_paired_runs(NORMAL_A, NORMAL_B), compare_paired_runs(SKEWED_A, SKEWED_B)
    assert (normal.test_name, skewed.test_name) == ("welch_t", "mann_whitney_u")
    assert values == [
        repr(create("arima").fit(TRAIN, ORDER).predict(6).tolist()),
        204,
        repr(normal),
        repr(skewed),
        repr(two_proportion_z(30, 60, 12, 60)),
    ]
