"""Compiled plans and ``solve`` outcomes of a fixed corpus, against a recorded file.

``golden/pastings.json`` holds two maps.  ``plans``: for each corpus step and
each ``groupoid`` flag, the sha256 of the step's compiled plan, taken over its
terms, its sorted check pairs and its value (null where only ``solve`` can
resolve the step).  ``solve``: for each corpus case, the solved step as text
and the square it evaluates to, or the type and message of the error that
``solve`` or ``evaluate`` raises.  The corpus is the pinned chains, bound to
one cube pair per direction on box(z2) and on shift(prod(z2,z2)), the shipped
script, the steps of ``test_replay_compiled.DIVIDING``, the steps
``test_pastings`` expects to fail, and 2x2 arrays of box(indiscrete(2)) with
cells blanked, solved against their outer faces.  After an intended change,
re-record with ``PYTHONPATH=src python tests/test_pastings_golden.py`` and
review the diff.
"""
import dataclasses
import hashlib
import json
import random
import sys
from importlib import resources
from pathlib import Path

import pytest

from test_replay_compiled import DIVIDING

from cubal import dsl, models, pastings, shells
from cubal.core import SquareFaces
from cubal.models import square_key
from cubal.pastings import Env, derivation_env, evaluate, parse, parse_script, solve, to_text
from cubal.thin import thin_set

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "pastings.json"
SCRIPT = (resources.files("cubal.data") / "cancellation.script").read_text()


def _script_steps() -> list[str]:
    steps = []
    for item in parse_script(SCRIPT):
        steps += [item[2]] if item[0] == "let" else list(item[1])
    return steps


PLAN_STEPS = (
    [step for d in (1, 2, 3) for step in pastings.PINNED_STEPS[d]]
    + _script_steps()
    + [t.format(a="a", b="b", c="c") for t in DIVIDING]
)


def plan_hash(step: str, groupoid: bool):
    plan = dsl._chain((step,), groupoid)
    if plan is None:
        return None
    text = json.dumps([plan.terms, sorted(plan.checks), *plan.values])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def all_plans() -> dict:
    return {
        f"{groupoid}: {step}": plan_hash(step, groupoid)
        for step in PLAN_STEPS
        for groupoid in (False, True)
    }


def outcome(model, env, step: str, target=None, ts=None) -> list:
    try:
        solved = solve(model, env, parse(step), target=target, ts=ts)
        return ["solved", to_text(solved), evaluate(model, env, solved)]
    except Exception as exc:  # the outcome under test includes the exception
        return ["raise", type(exc).__name__, str(exc)]


def _widest_pairs(model):
    """Per direction, the composable pair with the most distinct faces, the
    first such in sorted cube order."""
    cubes = sorted(shells.CubeIndex(model).cubes())
    a = max(cubes, key=lambda c: len(set(c.faces())))
    out = []
    for d in (1, 2, 3):
        bs = [c for c in cubes if c.face(d, "-") == a.face(d, "+")]
        out.append((a, max(bs, key=lambda c: len(set(a.faces() + c.faces()))), d))
    return out


def _pinned_cases(cases: dict) -> None:
    for spec in ("box(z2)", "shift(prod(z2,z2))"):
        model = models.parse_generator(spec)
        ts = thin_set(model)
        for a, b, d in _widest_pairs(model):
            env = derivation_env(model, a, b, d)
            for i, step in enumerate(pastings.PINNED_STEPS[d]):
                cases[f"pinned {spec} +{d} step{i}"] = outcome(model, env, step, ts=ts)


def _script_cases(cases: dict, zz2) -> None:
    env = Env(zz2)
    ts = thin_set(zz2)
    for k, item in enumerate(parse_script(SCRIPT)):
        if item[0] == "let":
            _, name, rhs = item
            env.squares[name] = evaluate(zz2, env, solve(zz2, env, parse(rhs), ts=ts))
            continue
        for i, step in enumerate(item[1]):
            cases[f"script item{k} step{i}"] = outcome(zz2, env, step, ts=ts)


def _dividing_cases(cases: dict) -> None:
    for spec in ("box(z2)", "shift(z2)", "box(indiscrete(2))", "shift(prod(z2,z2))"):
        for kind in ("groupoid", "category"):
            model = dataclasses.replace(models.parse_generator(spec), kind=kind)
            env = Env(model)
            rng = random.Random(f"{spec}/{kind}")
            squares = sorted(model.squares)
            for i in range(40):
                step = rng.choice(DIVIDING).format(
                    a=rng.choice(squares), b=rng.choice(squares), c=rng.choice(squares)
                )
                cases[f"dividing {spec} {kind} {i}"] = outcome(model, env, step)


def _failing_cases(cases: dict, zz2) -> None:
    env = Env(zz2)
    ts = thin_set(zz2)
    sq = zz2.squares
    cube = shells.all_cubes(zz2)[0]
    wide = SquareFaces(
        top=zz2.edge_compose[(sq[cube.f1m].top, sq[cube.f1m].right)],
        bottom=zz2.edge_compose[(sq[cube.f3m].bottom, sq[cube.f2p].bottom)],
        left=sq[cube.f3m].left,
        right=sq[cube.f2p].right,
    )
    for name, step, target in (
        ("seam", f"[{square_key('1', '1', '0', '0')}; {square_key('0', '0', '0', '0')}]", None),
        ("refinement", f"[{square_key('1', '0', '1', '0')}, {square_key('1', '1', '1', '1')}]", None),
        ("unbound", "[mystery]", None),
        ("anonymous", f"[?, {cube.f1m}, ?; {cube.f3m}, {cube.f2p}, ?]", wide),
        ("non-commuting", "[?]", SquareFaces(top="0", bottom="0", left="1", right="0")),
        ("unconstrained", "[?]", None),
    ):
        cases[f"failing {name}"] = outcome(zz2, env, step, target=target, ts=ts)


def _knockout_cases(cases: dict) -> None:
    # 2x2 arrays of box(indiscrete(2)) with one or two cells blanked, solved
    # against the outer shell of the full array
    model = models.parse_generator("box(indiscrete(2))")
    env = Env(model)
    ts = thin_set(model)
    sq = model.squares
    rng = random.Random(7)
    squares = sorted(sq)
    made = 0
    while made < 40:
        a, b, c = (rng.choice(squares) for _ in range(3))
        ds = [s for s in squares if sq[s].top == sq[b].bottom and sq[s].left == sq[c].right]
        if sq[b].left != sq[a].right or sq[c].top != sq[a].bottom or not ds:
            continue
        cells = [a, b, c, rng.choice(ds)]
        target = sq[evaluate(model, env, parse("[{}, {}; {}, {}]".format(*cells)))]
        for k in rng.sample(range(4), 1 + made % 2):
            cells[k] = "?"
        step = "[{}, {}; {}, {}]".format(*cells)
        cases[f"knockout {made}"] = outcome(model, env, step, target=target, ts=ts)
        made += 1


def all_solves() -> dict:
    zz2 = models.parse_generator("box(z2)")
    cases: dict = {}
    _pinned_cases(cases)
    _script_cases(cases, zz2)
    _dividing_cases(cases)
    _failing_cases(cases, zz2)
    _knockout_cases(cases)
    return cases


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def test_every_plan_matches_golden(recorded):
    assert all_plans() == recorded["plans"]


def test_every_solve_outcome_matches_golden(recorded):
    got = all_solves()
    assert sorted(got) == sorted(recorded["solve"])
    for name, want in recorded["solve"].items():
        assert got[name] == want, name


if __name__ == "__main__":
    data = {"plans": all_plans(), "solve": all_solves()}
    GOLDEN_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_FILE.name}", file=sys.stderr)
