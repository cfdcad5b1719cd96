"""Morphisms: ``validate_morphism`` against its sorted-scan oracle, and chaining.

``validate_morphism`` scans each table in table order and sorts only the
failing keys; ``morphism_oracle.sorted_validate_morphism`` sorts every table
first.  Both must give the same report, failures in the same order, on maps
that pass and on maps that fail in every family.  The 13 single-entry
mutants of box(z2) come from ``perfbench/workloads.py``, read, never edited.
"""
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from cubal import models
from cubal.core import OPS
from cubal.errors import MalformedModel
from cubal.morphisms import DoubleMorphism, compose_morphisms, identity_morphism, validate_morphism
from morphism_oracle import sorted_validate_morphism
from test_colimits import empty_model
from test_replay_compiled import zero_monoid_box

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _mutants(zz2) -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: m for name, (m, _) in module.z2_mutants(zz2).items()}


def _between(source, target) -> DoubleMorphism:
    """The map that sends every cell of ``source`` to the cell of the same name."""
    return DoubleMorphism(source, target, *({x: x for x in cells} for cells in source.cells()))


def _redirected(model, dim: int, moves: dict) -> DoubleMorphism:
    """The identity of ``model`` with the cells of ``moves`` sent elsewhere in dimension ``dim``."""
    maps = [dict(m) for m in identity_morphism(model).maps()]
    maps[dim].update(moves)
    return DoubleMorphism(model, model, *maps)


def _maps() -> dict[str, DoubleMorphism]:
    zz2 = models.parse_generator("box(z2)")
    ind3 = models.parse_generator("box(indiscrete(3))")
    out = {}
    for name, mutant in _mutants(zz2).items():
        out[f"{name} into box(z2)"] = _between(mutant, zz2)
        out[f"box(z2) into {name}"] = _between(zz2, mutant)
    squares = sorted(ind3.squares)
    edges = sorted(ind3.edges)
    out["box(ind3), three squares redirected"] = _redirected(
        ind3, 2, {squares[5]: squares[40], squares[17]: squares[3], squares[80]: squares[0]}
    )
    out["box(ind3), an edge redirected"] = _redirected(ind3, 1, {edges[1]: edges[5]})
    out["box(ind3), two objects swapped"] = _redirected(ind3, 0, {"0": "1", "1": "0"})
    out["box(ind3), cells missing or off the target"] = _redirected(
        ind3, 2, {squares[7]: "nowhere", squares[2]: None}
    )
    out["box(ind3), identity"] = identity_morphism(ind3)
    out["zero-monoid box, identity"] = identity_morphism(zero_monoid_box())
    out["empty model, identity"] = identity_morphism(empty_model())
    return out


MAPS = _maps()


@pytest.mark.parametrize("name", sorted(MAPS))
def test_validate_morphism_matches_the_sorted_scan(name):
    f = MAPS[name]
    new, old = validate_morphism(f), sorted_validate_morphism(f)
    assert new.violations == old.violations
    assert list(new.checked_count.items()) == list(old.checked_count.items())
    assert new.to_text() == old.to_text()


def test_the_compared_maps_fail_in_every_family():
    failed = {fam for f in MAPS.values() for fam, _ in sorted_validate_morphism(f).violations}
    assert {"map-totality", "edge-endpoints", "square-faces"} | {op.family for op in OPS} == failed
    several = [n for n, f in MAPS.items() if len(sorted_validate_morphism(f).violations) > 2]
    assert "box(ind3), three squares redirected" in several


def test_compose_morphisms_refuses_maps_that_do_not_chain(zz2, box_ind2):
    with pytest.raises(MalformedModel, match="morphisms do not chain"):
        compose_morphisms(identity_morphism(zz2), identity_morphism(box_ind2))
    # an equal model, not the same object, chains
    twin = dataclasses.replace(zz2)
    assert twin is not zz2
    chained = compose_morphisms(identity_morphism(zz2), identity_morphism(twin))
    assert chained.maps() == identity_morphism(zz2).maps()
