"""The plan-driven cube sampler against the sampler it replaced.

``cube_oracle.OracleCubeIndex`` draws ``f1m f1p f2m f2p f3m f3p`` in that
order and rejects a draw that misses a pin.  The current ``CubeIndex`` walks
outward from the pinned slots.  With no pin or only ``f1m`` pinned the two
must agree draw for draw; with other pins they must reach the same cubes.
"""
import itertools
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cube_oracle import OracleCubeIndex

from cubal import models
from cubal.core import SquareFaces
from cubal.shells import SLOTS, Cube3, CubeIndex, cube_ok

SPECS = ("box(z2)", "box(indiscrete(3))", "shift(prod(z2,z2))")
# every single pin, and the pin pairs triple_interchange_check uses
PIN_SETS = tuple((s,) for s in SLOTS) + (("f1m", "f2m"), ("f1m", "f3m"), ("f2m", "f3m"))


@pytest.fixture(scope="module", params=SPECS)
def model(request):
    return models.parse_generator(request.param)


def test_unpinned_enumeration_matches_oracle(model):
    assert list(CubeIndex(model).cubes()) == list(OracleCubeIndex(model).cubes())


def test_unpinned_and_f1m_pinned_draws_match_oracle(model):
    new, old = CubeIndex(model), OracleCubeIndex(model)
    rng_new, rng_old = Random(11), Random(11)
    for _ in range(300):
        a = new.random_cube(rng_new)
        assert a == old.random_cube(rng_old)
        pin = {"f1m": a.f1p}
        assert new.random_cube(rng_new, fixed=pin) == old.random_cube(rng_old, fixed=pin)
    assert rng_new.getstate() == rng_old.getstate()


@pytest.mark.parametrize("slots", PIN_SETS, ids="+".join)
def test_pinned_draws_are_cubes_that_hold_their_pin(model, slots):
    idx = CubeIndex(model)
    rng = Random(5)
    for _ in range(100):
        source = idx.random_cube(rng)
        pin = {s: getattr(source, s) for s in slots}
        c = idx.random_cube(rng, fixed=pin)
        assert c is not None, pin
        assert cube_ok(model, c)
        assert all(getattr(c, s) == v for s, v in pin.items())


@pytest.mark.parametrize("spec", ["box(z2)", "shift(z2)"])
def test_pinned_support_matches_brute_force_and_oracle(spec):
    model = models.parse_generator(spec)
    idx, old = CubeIndex(model), OracleCubeIndex(model)
    every = list(idx.cubes())
    rng = Random(2)
    checked = 0
    for slots in PIN_SETS:
        for values in itertools.product(idx.squares, repeat=len(slots)):
            pin = dict(zip(slots, values))
            want = {c for c in every if all(getattr(c, s) == v for s, v in pin.items())}
            assert set(idx.cubes(fixed=pin)) == want == set(old.cubes(fixed=pin)), pin
            if not want:
                assert idx.random_cube(rng, fixed=pin) is None
                continue
            drawn = {idx.random_cube(rng, fixed=pin) for _ in range(40 * len(want))}
            assert drawn == want, pin
            checked += 1
    assert checked > len(PIN_SETS)


def test_contradictory_pins_return_none_at_once():
    model = models.parse_generator("box(z2)")
    idx = CubeIndex(model)
    rng = Random(0)
    a = idx.random_cube(rng)
    # f2m's top face is f1m's top face; pin an f2m whose top differs
    f2m = next(s for s in idx.squares if model.squares[s].top != model.squares[a.f1m].top)
    state = rng.getstate()
    for pin in (
        {"f1m": a.f1m, "f2m": f2m},
        {"f2m": f2m, "f1m": a.f1m},
        {"f1m": "no such square"},
        {"f3p": "no such square", "f1m": a.f1m},
    ):
        assert idx.random_cube(rng, fixed=pin) is None, pin
        assert list(idx.cubes(fixed=pin)) == [], pin
    assert rng.getstate() == state


# Square tables with faces from two edge names and no laws, some squares
# sharing a boundary: unlike the generated models, no face of a square
# follows from the other three, so a constraint the plan forgot lets through
# squares that do not fit.
square_tables = st.lists(
    st.tuples(*[st.sampled_from("ab")] * 4).map(lambda f: SquareFaces(*f)),
    min_size=4,
    max_size=20,
).map(lambda faces: {f"s{i:02}": f for i, f in enumerate(faces)})


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(squares=square_tables, data=st.data())
def test_free_square_tables_match_oracle(squares, data):
    model = SimpleNamespace(squares=squares)
    new, old = CubeIndex(model), OracleCubeIndex(model)
    every = list(old.cubes())
    assert list(new.cubes()) == every
    slots = data.draw(st.sampled_from(PIN_SETS))
    pin = {s: data.draw(st.sampled_from(sorted(squares))) for s in slots}
    want = [c for c in every if all(getattr(c, s) == v for s, v in pin.items())]
    assert sorted(new.cubes(fixed=pin), key=Cube3.faces) == want
    rng = Random(len(every))
    for _ in range(5):
        c = new.random_cube(rng, fixed=pin)
        assert c is None and not want or c in want
    rng_new, rng_old = Random(3), Random(3)
    for fixed in (None, {"f1m": min(squares)}):
        for _ in range(5):
            assert new.random_cube(rng_new, fixed=fixed) == old.random_cube(rng_old, fixed=fixed)
    assert rng_new.getstate() == rng_old.getstate()
