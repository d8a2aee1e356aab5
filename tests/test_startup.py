"""Start-up: what importing `ptrack` loads, each case in a fresh interpreter.

`ptrack` loads scipy's HiGHS binding and its assignment solver with
`core._scipy_extension`, without running `scipy.optimize`'s package init.
These tests check module sets and thread counts, not times, so they do not
depend on the machine's speed.
"""
from __future__ import annotations

import json
import os

import pytest
from helpers import run_python

# Writes a tiny scene to the working directory, runs the workloads' commands
# on it and prints the modules they imported beyond those loaded at start-up.
COMMANDS = """
import io, json, sys
from contextlib import redirect_stdout
from ptrack.cli import cli

loaded = set(sys.modules)
runs = [
    ["synth", "--preset", "crossing", "--out-gt", "gt.csv", "--out-tracks", "broken.csv"],
    ["learn-patterns", "--tracks", "gt.csv", "--out", "learned.txt"],
    ["track", "--tracks", "broken.csv", "--patterns", "learned.txt", "--out", "out.csv"],
    ["unsupervised", "--tracks", "broken.csv", "--out", "repaired.csv", "--patterns-out", "mined.txt",
     "--widths", "1.0", "--stop-patterns", "2"],
    ["eval", "--gt", "gt.csv", "--pred", "out.csv"],
]
with redirect_stdout(io.StringIO()):
    codes = [cli(argv) for argv in runs]
print(json.dumps({"codes": codes, "imported": sorted(set(sys.modules) - loaded)}))
"""


def run_json(code: str, cwd) -> dict:
    proc = run_python("-W", "error", "-c", code, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_import_nothing_after_start_up(tmp_path):
    # A module first imported inside a command (as `np.unique` imports
    # `numpy.ma`) would be timed as the command's work.
    assert run_json(COMMANDS, tmp_path) == {"codes": [0] * 5, "imported": []}


def test_start_up_loads_the_two_compiled_modules_and_not_scipy_optimize(tmp_path):
    names = ["scipy.optimize", "scipy.optimize._highspy._core", "scipy.optimize._lsap", "numpy.ma"]
    loaded = run_json(COMMANDS + f"""
import ptrack.fracopt
print(json.dumps({{
    "loaded": {{n: n in sys.modules for n in {names!r}}},
    "names": [
        sys.modules["scipy.optimize._lsap"].__name__,
        ptrack.fracopt._highs.__name__,
        ptrack.fracopt._highs.ObjSense.__module__,
    ],
}}))
""", tmp_path)
    assert loaded == {
        "loaded": {
            "scipy.optimize": False,
            "scipy.optimize._highspy._core": True,
            "scipy.optimize._lsap": True,
            "numpy.ma": True,
        },
        # The names an `import scipy.optimize` gives them.
        "names": ["scipy.optimize._lsap", "scipy.optimize._highspy._core", "scipy.optimize._highspy._core"],
    }


def test_scipy_optimize_imported_after_ptrack_reuses_its_modules(tmp_path):
    # Loading the pybind11 module a second time would fail on its
    # already-registered types; `scipy.optimize` must find ptrack's copy.
    result = run_json(COMMANDS + """
import importlib
import numpy as np
import scipy.optimize
import ptrack.fracopt, ptrack.metrics

lp = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
ip = scipy.optimize.milp(
    [-1.0, -1.0],
    constraints=scipy.optimize.LinearConstraint([[2.0, 2.0]], -np.inf, 3.0),
    integrality=[1, 1],
    bounds=scipy.optimize.Bounds(0, 1),
)
rows, cols = scipy.optimize.linear_sum_assignment([[4.0, 1.0], [2.0, 8.0]])
print(json.dumps({
    "linprog": [lp.status, lp.x.tolist()],
    "milp": [ip.status, ip.fun],
    "assignment": [rows.tolist(), cols.tolist()],
    "same_core": importlib.import_module("scipy.optimize._highspy._core") is ptrack.fracopt._highs,
    "same_lsap": (
        importlib.import_module("scipy.optimize._lsap").linear_sum_assignment
        is scipy.optimize.linear_sum_assignment
        is ptrack.metrics.linear_sum_assignment
    ),
    "codes": [cli(argv) for argv in runs[2:]],
}))
""", tmp_path)
    assert result == {
        "linprog": [0, [1.0, 0.0]],
        "milp": [0, -1.0],
        "assignment": [[0, 1], [1, 0]],
        "same_core": True,
        "same_lsap": True,
        "codes": [0, 0, 0],
    }


def test_ptrack_imported_after_scipy_optimize_reuses_its_modules(tmp_path):
    result = run_json("""
import json
import scipy.optimize
import ptrack.cli, ptrack.fracopt, ptrack.metrics

print(json.dumps({
    "same_core": scipy.optimize._highspy._core is ptrack.fracopt._highs,
    "same_lsap": scipy.optimize._lsap.linear_sum_assignment is ptrack.metrics.linear_sum_assignment,
}))
""", tmp_path)
    assert result == {"same_core": True, "same_lsap": True}


THREADS = """
import json, os
{setup}
import ptrack
print(json.dumps({{"threads": len(os.listdir("/proc/self/task")), "env": os.environ["OPENBLAS_NUM_THREADS"]}}))
"""

counts_threads = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")


@counts_threads
def test_import_starts_no_blas_worker_threads(tmp_path):
    # OpenBLAS's workers busy-wait on another core at every start; ptrack needs none.
    result = run_json(THREADS.format(setup='os.environ.pop("OPENBLAS_NUM_THREADS", None)'), tmp_path)
    assert result == {"threads": 1, "env": "1"}


@counts_threads
def test_import_keeps_a_blas_thread_count_set_by_the_user(tmp_path):
    result = run_json(THREADS.format(setup='os.environ["OPENBLAS_NUM_THREADS"] = "2"'), tmp_path)
    assert result["env"] == "2"
