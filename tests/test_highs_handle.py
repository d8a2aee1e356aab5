"""The private scipy modules ptrack loads, pinned.

`ptrack.fracopt` runs every solve on `scipy.optimize._highspy._core._Highs`,
and `ptrack.metrics` matches tracks with
`scipy.optimize._lsap.linear_sum_assignment`; neither module path is public
scipy API.  ptrack loads both straight from scipy's directory, without
`scipy.optimize`'s package init (`core._scipy_extension`).  A scipy release
that moves or renames one of them, or one of the methods used, must fail
here with a message naming that release, not inside a solve.  This module
imports nothing from `ptrack`, so it still runs when `ptrack` cannot be
imported.
"""
import importlib
from importlib.machinery import ExtensionFileLoader, PathFinder
from pathlib import Path

import pytest
import scipy

USED = (
    "passModel", "changeColsCost", "changeColsIntegrality", "changeColsBounds", "run",
    "getSolution", "getModelStatus", "setOptionValue", "addRow", "deleteRows", "modelStatusToString",
)


def test_the_private_highs_handle_has_every_method_used():
    try:
        core = importlib.import_module("scipy.optimize._highspy._core")
    except ImportError as err:
        pytest.fail(f"scipy {scipy.__version__} has no scipy.optimize._highspy._core: {err}")
    handle = getattr(core, "_Highs", None)
    assert handle is not None, f"scipy {scipy.__version__} has no scipy.optimize._highspy._core._Highs"
    missing = [name for name in USED if not hasattr(handle, name)]
    assert not missing, f"scipy {scipy.__version__}: _Highs lacks {missing}"
    for name in ("MatrixFormat", "ObjSense", "HighsModelStatus", "HighsVarType", "kHighsInf"):
        assert hasattr(core, name), f"scipy {scipy.__version__}: _highspy._core lacks {name}"


def test_the_private_assignment_solver_is_scipys_public_one():
    try:
        lsap = importlib.import_module("scipy.optimize._lsap")
    except ImportError as err:
        pytest.fail(f"scipy {scipy.__version__} has no scipy.optimize._lsap: {err}")
    solve = getattr(lsap, "linear_sum_assignment", None)
    assert solve is not None, f"scipy {scipy.__version__}: _lsap lacks linear_sum_assignment"
    public = importlib.import_module("scipy.optimize").linear_sum_assignment
    assert solve is public, f"scipy {scipy.__version__}: _lsap is not the public solver"
    rows, cols = solve([[4.0, 1.0], [2.0, 8.0]], maximize=True)
    assert (rows.tolist(), cols.tolist()) == ([0, 1], [0, 1])


@pytest.mark.parametrize("name", ["scipy.optimize._highspy._core", "scipy.optimize._lsap"])
def test_found_as_compiled_modules_in_scipys_own_directory(name):
    directory = Path(scipy.__file__).parent.joinpath(*name.split(".")[1:-1])
    spec = PathFinder.find_spec(name, [str(directory)])
    assert spec is not None, f"scipy {scipy.__version__} has no {name} in {directory}"
    assert isinstance(spec.loader, ExtensionFileLoader), f"scipy {scipy.__version__}: {name} is not compiled"
    assert Path(spec.origin).parent == directory
