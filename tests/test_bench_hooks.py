"""The benchmark's tracing hooks name functions that exist in cubal.

``perfbench/tracing.py`` wraps functions by (module, name) and two
``CubeIndex`` methods; a rename or deletion in ``src/`` would otherwise only
show when a traced benchmark run fails.  The cube harnesses must also reach
the cube layer through those names, or its counters read 0.  The file is
read, never edited.
"""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from cubal import models, shells

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for mod_name, attr in _tracing().WRAPPED:
        module = importlib.import_module(f"cubal.{mod_name}")
        assert callable(getattr(module, attr, None)), f"cubal.{mod_name}.{attr}"
    for attr in ("random_cube", "cubes"):
        assert callable(getattr(shells.CubeIndex, attr, None)), f"CubeIndex.{attr}"


@pytest.mark.parametrize(
    "harness, exhaustive, counted",
    [
        ("theorem25_harness", False, {"random_cube", "compose_cubes"}),
        ("theorem25_harness", True, {"cubes_enumerated", "compose_cubes"}),
        ("hcl_agreement", False, {"random_cube"}),
        ("hcl_agreement", True, {"cubes_enumerated"}),
    ],
)
def test_cube_harnesses_call_the_traced_names(harness, exhaustive, counted):
    # the harnesses reach the cube layer through the names the tracer wraps,
    # so its span and cube counters see every call
    model = models.parse_generator("box(z2)")
    originals = (shells.compose_cubes, shells.CubeIndex.random_cube, shells.CubeIndex.cubes)
    tracer = _tracing().Tracer()
    tracer.begin_job("batch", harness)
    with tracer.installed():
        rep = getattr(shells, harness)(model, exhaustive=exhaustive, samples=20)
    assert rep.ok
    spans = Counter(name for name, *_ in tracer.spans)
    got = {
        "random_cube": spans["shells.random_cube"],
        "compose_cubes": spans["shells.compose_cubes"],
        "cubes_enumerated": tracer.counts["batch"]["shells.cubes_enumerated"],
    }
    assert {name for name, n in got.items() if n} == counted, got
    if exhaustive:
        assert got["cubes_enumerated"] == 128
    if "compose_cubes" in counted:
        assert got["compose_cubes"] == 3 * (2048 if exhaustive else 20)
    assert (shells.compose_cubes, shells.CubeIndex.random_cube, shells.CubeIndex.cubes) == originals
