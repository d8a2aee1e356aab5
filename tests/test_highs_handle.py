"""The private HiGHS binding the solver drives, pinned.

`ptrack.fracopt` runs every solve on `scipy.optimize._highspy._core._Highs`,
which is not public scipy API.  A scipy release that moves or renames it, or
one of the methods used, must fail here with a message naming that release,
not inside a solve.  This module imports nothing from `ptrack`, so it still
runs when `ptrack.fracopt` cannot be imported.
"""
import importlib

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
