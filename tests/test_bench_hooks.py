"""The benchmark's tracing hooks name functions that exist in cubal.

``perfbench/tracing.py`` wraps functions by (module, name) and two
``CubeIndex`` methods; a rename or deletion in ``src/`` would otherwise only
show when a traced benchmark run fails.  The file is read, never edited.
"""
import importlib
import importlib.util
from pathlib import Path

from cubal import shells

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_traced_functions_resolve():
    for mod_name, attr in _wrapped():
        module = importlib.import_module(f"cubal.{mod_name}")
        assert callable(getattr(module, attr, None)), f"cubal.{mod_name}.{attr}"
    for attr in ("random_cube", "cubes"):
        assert callable(getattr(shells.CubeIndex, attr, None)), f"CubeIndex.{attr}"
