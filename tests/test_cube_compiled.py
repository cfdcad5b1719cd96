"""The generated cube layer of ``cubal.shells`` against its interpreted form.

``CubeIndex`` walks and draws through functions generated per set of pinned
slots, ``compose_cubes`` through one generated function per direction, and
``_commutes``, ``_composites`` and ``_hcl_prime`` through one kernel each,
compiled from the array steps in ``dsl``'s positional mode.  ``cube_oracle``
keeps the interpreted versions they replaced.  Each pair must give the same
cube, the same verdict or the same exception (type and message), and the
draws must make the same ``rng.choice`` calls.  The 13 single-entry mutants
of box(z2) come from ``perfbench/workloads.py``, read and never edited, with
three more that drop a table entry, so that lookups miss as well as mislead.
"""
import ast
import dataclasses
import importlib.util
import itertools
from pathlib import Path
from random import Random

import pytest

from cube_oracle import (
    InterpretedCubeIndex,
    interpreted_commutes,
    interpreted_compose_cubes,
    interpreted_composites,
    interpreted_hcl_prime,
    written_even_array,
    written_hcl_prime_arrays,
    written_odd_array,
)
from test_colimits import xmod_model
from test_replay_compiled import zero_monoid_box
from test_shells import even_composite_array, hcl_prime_arrays, odd_composite_array

from cubal import dsl, models, shells
from cubal.shells import SLOTS, Cube3, CubeIndex

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

MODELS = {
    "box(z2)": lambda: models.parse_generator("box(z2)"),
    "shift(z2)": lambda: models.parse_generator("shift(z2)"),
    "klein shift": lambda: models.parse_generator("shift(prod(z2,z2))"),
    "zero-monoid box": zero_monoid_box,
    "xmod(0, factors=1)": lambda: xmod_model(0, factors=1),
}
# the pins the harnesses set: none, a minus face (theorem25, triple), two
# minus faces (triple's interchange); then two opposite faces, given out of
# SLOTS order, and all six
PIN_SETS = (
    (), ("f1m",), ("f2m",), ("f3m",), ("f1m", "f2m"), ("f1m", "f3m"), ("f2m", "f3m"),
    ("f1p", "f1m"), SLOTS,
)


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the outcome under test includes the exception
        return ("raise", type(exc).__name__, str(exc))


def _pins(model, slots, count, seed):
    """``count`` pins of ``slots`` read off drawn cubes, so that each can be met."""
    idx, rng = InterpretedCubeIndex(model), Random(seed)
    return [{s: getattr(idx.random_cube(rng), s) for s in slots} for _ in range(count)]


def _contradictory(model):
    """Pins that no cube meets: an unknown square, and f2m's top face unequal to f1m's."""
    sq = model.squares
    f1m = min(sq)
    f2m = next((s for s in sorted(sq) if sq[s].top != sq[f1m].top), None)
    pins = [{"f1m": "no such square"}, {"f3p": "no such square", "f1m": f1m}]
    return pins + ([{"f1m": f1m, "f2m": f2m}, {"f2m": f2m, "f1m": f1m}] if f2m else [])


@pytest.mark.parametrize("slots", PIN_SETS, ids=lambda s: "+".join(s) or "none")
def test_draws_match_the_interpreted_walk(model, slots):
    new, old = CubeIndex(model), InterpretedCubeIndex(model)
    rng_new, rng_old = Random(7), Random(7)
    for pin in _pins(model, slots, 40, 3) + _contradictory(model):
        for _ in range(3):
            assert new.random_cube(rng_new, fixed=pin) == old.random_cube(rng_old, fixed=pin), pin
    assert rng_new.getstate() == rng_old.getstate()


@pytest.mark.parametrize("slots", PIN_SETS, ids=lambda s: "+".join(s) or "none")
def test_enumeration_matches_the_interpreted_walk_in_order(model, slots):
    new, old = CubeIndex(model), InterpretedCubeIndex(model)
    pins = [{}] if not slots else _pins(model, slots, 5, 4)
    for pin in pins + _contradictory(model):
        assert list(new.cubes(fixed=pin)) == list(old.cubes(fixed=pin)), pin


def _mutants():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    zz2 = models.parse_generator("box(z2)")
    out = {name: m for name, (m, _) in module.z2_mutants(zz2).items()}
    for field, pick in (("compose1", min), ("compose2", max), ("gamma_plus", min)):
        table = dict(getattr(zz2, field))
        del table[pick(table)]
        out[f"{field}-drop"] = dataclasses.replace(zz2, **{field: table})
    return zz2, out


ZZ2, MUTANTS = _mutants()
ZZ2_CUBES = list(CubeIndex(ZZ2).cubes())


def _compose_outcomes(model) -> set[str]:
    """Every compose_cubes outcome kind on ``model``, each checked against the loop."""
    by_minus = {d: {} for d in (1, 2, 3)}
    for c in ZZ2_CUBES:
        for d in (1, 2, 3):
            by_minus[d].setdefault(c.face(d, "-"), []).append(c)
    kinds = set()
    for d in (0, 1, 2, 3, 4):
        for a in ZZ2_CUBES[::7]:
            composable = by_minus[d].get(a.face(d, "+"), []) if d in by_minus else []
            for b in composable[::3] + ZZ2_CUBES[::61]:
                got = _outcome(shells.compose_cubes, model, d, a, b)
                assert got == _outcome(interpreted_compose_cubes, model, d, a, b), (d, a, b)
                kinds.add(got[1] if got[0] == "raise" else "value")
    return kinds


def _composite_outcomes(model, cubes) -> set[str]:
    """Every composite outcome kind on ``model``, each checked against compose_array."""
    kinds = set()
    for c in cubes:
        want = _outcome(interpreted_composites, model, c)
        assert _outcome(shells._composites, model, c) == want, c
        assert _outcome(shells._commutes, model, c) == _outcome(interpreted_commutes, model, c), c
        assert _outcome(shells._hcl_prime, model, c) == _outcome(interpreted_hcl_prime, model, c), c
        kinds.add(want[1] if want[0] == "raise" else "value")
    return kinds


def test_compose_cubes_matches_the_interpreted_loop():
    assert len(MUTANTS) == 13 + 3
    assert _compose_outcomes(ZZ2) == {"value", "NotComposable", "ValueError"}
    a = ZZ2_CUBES[0]
    for d in ("1", [1], None):
        got = _outcome(shells.compose_cubes, ZZ2, d, a, a)
        assert got == _outcome(interpreted_compose_cubes, ZZ2, d, a, a) == (
            "raise", "ValueError", f"direction must be 1, 2 or 3, got {d}"
        )
    kinds = set().union(*map(_compose_outcomes, MUTANTS.values()))
    assert kinds == {"value", "NotComposable", "ValueError", "FaceCompositionUndefined", "MalformedModel"}


def test_composite_kernels_match_compose_array():
    # gamma_plus-drop misses a thin cell (KeyError); compose1-drop and
    # compose2-drop miss a composite (NotComposable)
    assert _composite_outcomes(ZZ2, ZZ2_CUBES) == {"value"}
    kinds = set().union(*(_composite_outcomes(m, ZZ2_CUBES) for m in MUTANTS.values()))
    assert kinds == {"value", "KeyError", "NotComposable"}


@pytest.mark.parametrize(
    "build, count",
    [(lambda: models.parse_generator("shift(z3)"), 729), (MODELS["xmod(0, factors=1)"], 93312)],
    ids=["shift(z3)", "xmod(0, factors=1)"],
)
def test_composite_kernels_match_compose_array_on_every_cube(build, count):
    model = build()
    cubes = list(CubeIndex(model).cubes())
    assert len(cubes) == count
    assert _composite_outcomes(model, cubes) == {"value"}


def test_a_cube_of_unknown_squares_is_rejected_before_the_kernels():
    # the kernels take a cube whose shape is checked; the checked entry
    # points refuse one that names a square the model lacks
    bad = Cube3("no such square", *ZZ2_CUBES[0][1:])
    for check in (shells.is_commutative, shells.hcl_prime_holds):
        assert _outcome(check, ZZ2, bad) == ("raise", "MalformedModel", f"not a 3-shell: {bad}")


def test_the_arrays_are_the_hand_written_ones():
    for model in (ZZ2, models.parse_generator("shift(z2)")):
        for c in CubeIndex(model).cubes():
            assert odd_composite_array(model, c) == written_odd_array(model, c)
            assert even_composite_array(model, c) == written_even_array(model, c)
            assert hcl_prime_arrays(model, c) == written_hcl_prime_arrays(model, c)


KERNELS = (
    ((shells.ODD_STEP, shells.EVEN_STEP), False),
    ((shells.ODD_STEP, shells.EVEN_STEP), True),
    (shells.HCL_PRIME_STEPS, True),
)


def _sources():
    yield from (shells._plan_source(tuple(s for s in SLOTS if s in pinned))[0]
                for n in range(7) for pinned in itertools.combinations(SLOTS, n))
    yield from (shells._compose_source(d) for d in (1, 2, 3))
    yield from (dsl._positional_source(steps, SLOTS, verdict) for steps, verdict in KERNELS)


def test_generated_sources_hold_no_square_name():
    # squares, indexes and tables reach the generated functions as
    # arguments; the only strings in a source are slot names and the
    # fixed parts of FaceCompositionUndefined's message
    allowed = set(SLOTS) | {" +1 ", " +2 ", " undefined"}
    names = set()
    for build in MODELS.values():
        m = build()
        names |= set(m.squares) | set(m.edges)
    sources = list(_sources())
    assert len(sources) == 64 + 3 + 3
    for source in sources:
        strings = {
            node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert strings <= allowed, strings - allowed
        assert not strings & names
