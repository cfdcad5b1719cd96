"""The top rung of the model ladder: indiscrete(6).

pytest does not collect this file.  Run it from a checkout:

    PYTHONPATH=src python tests/ladder_top.py

It first prints the build time of ``square_model`` on indiscrete(n) for
n = 4, 5, 6.  Then it coequalises the cover {0123, 2345} at the default
budget, asserts a finite quotient of 6 objects, 36 edges and 1,296 squares that ``iso_check``
finds isomorphic to the global square model, and prints the wall time of
each phase and the engine's counters.  On box(indiscrete(6)) it then asserts
that the axiom suite passes with every family checked (interchange 6^9
times), that every square is thin, that sampled Theorem 2.5 (1,000 pairs
per direction, seed 0) passes and that sampled HCL agreement (1,000
cubes, seed 0) passes with both of its families checked, and prints the
time of each.  Last it asserts that both
models of ``test_colimits.py``'s ``iso_check`` witness pass the axiom suite
(D and E: Z2xZ2 acting on Z3 through its first or its second factor), which
tier-1 does not run on them for time, and prints the time of each.  Then it
coequalises two non-thin gluings at a point at the default budget and prints
the wall time and counters of each: shift(Z2) + box(Z2) must be finite with
1 object, 2 edges and 32 squares after 5,392 fresh elements, and shift(Z3) +
box(Z2) must run out of budget after 19,985.
"""
import time

from cubal import colimits, core, models, shells, thin
from test_coeq_oracle import glue_at_point
from test_colimits import xmod_model

AXIOM_FAMILIES = {
    "cancellation", "connection-boundary", "degeneracy-composition",
    "double-degeneracy", "edge-associativity", "edge-composability",
    "edge-composite-endpoints", "edge-identity", "edge-identity-endpoints",
    "edge-inverse", "interchange", "square-boundary", "square1-associativity",
    "square1-composability", "square1-composite-faces", "square1-identity",
    "square1-identity-faces", "square1-inverse", "square2-associativity",
    "square2-composability", "square2-composite-faces", "square2-identity",
    "square2-identity-faces", "square2-inverse", "transport",
}


def timed(phases: dict, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    phases[name] = time.perf_counter() - start
    return out


def report(phases: dict) -> None:
    for name, seconds in phases.items():
        print(f"{name:<12} {seconds:7.3f} s")
    print(f"{'total':<12} {sum(phases.values()):7.3f} s")


def square_models() -> None:
    phases: dict[str, float] = {}
    for n in (4, 5, 6):
        model = timed(phases, f"build n={n}", models.square_model, models.indiscrete_groupoid(n))
        assert len(model.squares) == n**4, len(model.squares)
    report(phases)
    print("square_model(indiscrete(n)), n = 4, 5, 6: n^4 squares each")


def van_kampen(cat) -> None:
    phases: dict[str, float] = {}
    cover = [list("0123"), list("2345")]
    a, b, full = timed(phases, "vk_sequence", colimits.vk_sequence, cat, cover)
    q = timed(phases, "coequalise", colimits.coequalise, a, b)
    assert q.status == "finite", q.status
    size = q.object.stats()
    assert (size["objects"], size["edges"], size["squares"]) == (6, 36, 1296), size
    iso = timed(phases, "iso_check", colimits.iso_check, q.object, full)
    assert iso is not None, "quotient not isomorphic to the global square model"
    report(phases)
    print(f"generators_added {q.generators_added}, stats {q.stats}")
    print("vK indiscrete(6) {0123,2345}: finite, 6/36/1296, isomorphic to the global model")


def box(cat) -> None:
    phases: dict[str, float] = {}
    model = models.square_model(cat)
    axioms = timed(phases, "validate", core.validate, model)
    assert axioms.ok, axioms.violations[:2]
    assert set(axioms.checked_count) == AXIOM_FAMILIES, sorted(axioms.checked_count)
    assert all(axioms.checked_count.values()), axioms.checked_count
    # one interchange check per 2x2 array (u, w; u', w'): 6^4 choices of u,
    # then 6 for each of the five corners that w, u' and w' add
    assert axioms.checked_count["interchange"] == 6**9, axioms.checked_count
    ts = timed(phases, "thin_set", thin.thin_set, model)
    assert ts.members == frozenset(model.squares), "a square of box(indiscrete(6)) is not thin"
    samples = 1000
    rep = timed(
        phases, "theorem25", shells.theorem25_harness,
        model, exhaustive=False, samples=samples, seed=0,
    )
    assert rep.ok, rep.violations[:2]
    checked = {f"closure-dir{d}": samples for d in (1, 2, 3)}
    assert dict(rep.checked_count) == checked, rep.checked_count
    hcl = timed(
        phases, "hcl", shells.hcl_agreement,
        model, exhaustive=False, samples=samples, seed=0,
    )
    assert hcl.ok, hcl.violations[:2]
    checked = {"hcl-agreement": samples, "shared-boundary-shell": samples}
    assert dict(hcl.checked_count) == checked, hcl.checked_count
    report(phases)
    print(f"box(indiscrete(6)): axiom suite ok, {sum(axioms.checked_count.values())} checks "
          f"in {len(AXIOM_FAMILIES)} families; all {len(ts.members)} squares thin; "
          f"theorem25 ok, {samples} pairs per direction; hcl ok, {samples} cubes")


def crossed_module_witness() -> None:
    phases: dict[str, float] = {}
    for name, factor in (("validate D", 0), ("validate E", 1)):
        model = xmod_model(factor)
        axioms = timed(phases, name, core.validate, model)
        assert axioms.ok, axioms.violations[:2]
        assert set(axioms.checked_count) == AXIOM_FAMILIES, sorted(axioms.checked_count)
    report(phases)
    print("iso_check witness: Z2xZ2 acting on Z3 through either factor, "
          f"{len(model.squares)} squares each, axiom suite ok")


def non_thin_gluing() -> None:
    phases: dict[str, float] = {}
    box_z2 = models.square_model(models.cyclic_group(2))
    expected = {2: ("finite", 5392, (1, 2, 32)), 3: ("budget_exceeded", 19985, None)}
    for k, (status, added, size) in expected.items():
        name = f"shift(Z{k}) + box(Z2)"
        a, b = glue_at_point(models.shift_model(models.cyclic_group(k)), box_z2)
        q = timed(phases, name, colimits.coequalise, a, b)
        got = None if q.object is None else tuple(q.object.stats().values())
        outcome = (q.status, q.generators_added, got)
        assert outcome == (status, added, size), outcome
        print(f"{name}: {q.status}, size {got}, "
              f"generators_added {q.generators_added}, stats {q.stats}")
    report(phases)


def main() -> None:
    square_models()
    cat = models.indiscrete_groupoid(6)
    van_kampen(cat)
    box(cat)
    crossed_module_witness()
    non_thin_gluing()


if __name__ == "__main__":
    main()
