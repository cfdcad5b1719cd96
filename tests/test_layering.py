"""Each module of ``cubal`` imports on its own, in a fresh interpreter.

``import cubal.<m>`` runs the package's ``__init__`` first, which imports the
modules in one fixed order.  So each module is also imported with the
package's ``__init__`` left out, and reports the ``cubal`` modules it pulled
in: a cycle that shows only when one module is imported first then fails
here.  The pasting language and its plan compiler, ``cubal.dsl``, sit below
the cube layer: they import none of ``shells``, ``thin`` and ``pastings``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubal

PACKAGE = Path(cubal.__file__).resolve().parent
# importing ``__main__`` runs the command line
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))
# the package as an empty namespace, so that importing a module runs only that
# module and what it imports itself
BARE = (
    "import sys, types; package = types.ModuleType('cubal'); "
    f"package.__path__ = [{str(PACKAGE)!r}]; sys.modules['cubal'] = package; "
    "import cubal.{m}; print(' '.join(sorted(n for n in sys.modules if n.startswith('cubal.'))))"
)


def _python(code: str) -> str:
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), inherited])))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_module_is_listed():
    assert {"dsl", "shells", "thin", "pastings", "core", "colimits"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    _python(f"import cubal.{module}")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_without_the_package_init(module):
    loaded = _python(BARE.format(m=module)).split()
    assert f"cubal.{module}" in loaded


def test_the_plan_compiler_sits_below_the_cube_layer():
    loaded = set(_python(BARE.format(m="dsl")).split())
    assert not loaded & {"cubal.shells", "cubal.thin", "cubal.pastings"}, sorted(loaded)
