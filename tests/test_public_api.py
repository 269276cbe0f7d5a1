"""Meta-tests: public-API hygiene across the whole package.

These keep the library honest as it grows: every module documented,
every ``__all__`` name real, every public callable carrying a docstring.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

MODULES = [
    name
    for _finder, name, _is_package in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 20, f"{module_name} docstring is a stub"


@pytest.mark.parametrize(
    "module_name",
    [name for name in MODULES if name.endswith("__init__") or "." not in name.removeprefix("repro.")],
)
def test_package_all_names_exist(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def _public_functions():
    seen = set()
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue  # re-export
            key = f"{module_name}.{name}"
            if key not in seen:
                seen.add(key)
                yield key, obj


@pytest.mark.parametrize("qualified_name,obj", list(_public_functions()))
def test_public_callable_documented(qualified_name, obj):
    assert obj.__doc__, f"{qualified_name} lacks a docstring"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name)


def test_version_present():
    assert repro.__version__


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported by the commands that use it, not by the CLI."""
    source = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import repro.cli, repro.core.campaign, repro.core.study, "
        "repro.machines.calibrated\n"
        "print(sorted(name for name in sys.modules "
        "if name == 'scipy' or name.startswith('scipy.')))\n"
    )
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert result.stdout.strip() == "[]"
