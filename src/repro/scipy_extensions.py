"""scipy's compiled extensions, loaded without importing their packages.

``import scipy.linalg`` costs ~0.25 s and ``import scipy.optimize``
~0.5 s, most of it in modules a campaign never uses; calibration needs
one LAPACK routine and the near/far propagation fit one ``nnls`` call.
:func:`load_extension` loads the extension module alone.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

from repro.errors import CalibrationError


def load_extension(name: str) -> ModuleType:
    """The compiled scipy module ``name`` (e.g. ``"scipy.linalg._flapack"``).

    It is loaded from its directory in scipy's package under its own
    name and registered in ``sys.modules``, so a later import of its
    package reuses this module object.
    """
    module = sys.modules.get(name)
    if module is None:
        package = importlib.util.find_spec("scipy")
        subpackage, _extension = name.split(".")[1:]
        directory = os.path.join(package.submodule_search_locations[0], subpackage)
        finder = importlib.machinery.FileFinder(
            directory,
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(name)
        if spec is None:
            raise CalibrationError(f"scipy's {name} extension is missing from {directory}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module
