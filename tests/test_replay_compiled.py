"""Compiled derivation steps against solve-then-evaluate.

``replay`` evaluates a step without '?' by binding its compiled plan and
falls back to ``solve`` when a binding misses.  The oracle below is the path
it replaces: every step parsed, solved and evaluated, the report built the
way ``replay`` builds it.  Both must give the same report, or raise the same
exception with the same message.
"""
import dataclasses
import itertools
import random
from collections import Counter
from importlib import resources

import pytest

from cubal import models, pastings, shells
from cubal.core import EdgeEnds
from cubal.pastings import (
    Array,
    Env,
    Placed,
    Ref,
    derivation_env,
    evaluate,
    parse,
    replay,
    replay_pinned,
    run_script,
    solve,
)
from cubal.reports import Report


def _names(expr) -> list[str]:
    if isinstance(expr, Array):
        return [n for row in expr.rows for cell in row for n in _names(cell)]
    return [expr.name] if isinstance(expr, Ref) else []


class Oracle:
    """Solve-then-evaluate per step; a step's outcome is memoised on the
    squares its names are bound to, which is all it reads of a pinned env."""

    def __init__(self, model, ts=None):
        self.model = model
        self.ts = ts
        self.memo = {}

    def step(self, env, text):
        key = (text, tuple(env.squares.get(n) for n in _names(parse(text))))
        if key not in self.memo:
            try:
                m = self.model
                self.memo[key] = ("value", evaluate(m, env, solve(m, env, parse(text), ts=self.ts)))
            except Exception as exc:  # the outcome under test includes the exception
                self.memo[key] = ("raise", type(exc).__name__, str(exc))
        return self.memo[key]

    def replay(self, env, steps):
        values = []
        for text in steps:
            got = self.step(env, text)
            if got[0] == "raise":
                return got
            values.append(got[1])
        rep = Report()
        for i in range(len(values) - 1):
            rep.tick("step-equality")
            if values[i] != values[i + 1]:
                rep.fail("step-equality", f"step{i}", values[i], values[i + 1])
                rep.note(f"step {i} -> {i + 1}: {values[i]!r} != {values[i + 1]!r}")
        return outcome(rep)


def outcome(rep):
    return ("report", rep.ok, rep.checked_count, rep.violations, rep.notes)


def compiled(model, env, steps, ts=None):
    try:
        return outcome(replay(model, env, steps, ts=ts))
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc))


def composable_pairs(cubes):
    out = []
    for d in (1, 2, 3):
        by_minus = {}
        for c in cubes:
            by_minus.setdefault(c.face(d, "-"), []).append(c)
        out += [(a, b, d) for a in cubes for b in by_minus.get(a.face(d, "+"), ())]
    return out


def assert_agree(model, pairs, ts=None):
    oracle = Oracle(model, ts)
    failed = 0
    for a, b, d in pairs:
        env = derivation_env(model, a, b, d)
        steps = pastings.PINNED_STEPS[d]
        want = oracle.replay(env, steps)
        assert compiled(model, env, steps, ts) == want, (a, b, d)
        failed += want[0] != "report" or not want[1]
    return failed


def test_all_box_z2_pairs(zz2, zz2_thin):
    pairs = composable_pairs(list(shells.CubeIndex(zz2).cubes()))
    assert len(pairs) == 3 * 2048
    assert assert_agree(zz2, pairs, zz2_thin) == 0


def test_every_shift_z2_pair(shift2):
    # every cube, commutative or not: the non-commutative pairs fail replay
    cubes = list(shells.CubeIndex(shift2).cubes())
    pairs = composable_pairs(cubes)
    assert len(pairs) == 6144
    assert assert_agree(shift2, pairs) > 0


@pytest.fixture(scope="module")
def klein():
    return models.parse_generator("shift(prod(z2,z2))")


def sampled_pairs(model, n, seed):
    rng = random.Random(seed)
    index = shells.CubeIndex(model)
    out = []
    while len(out) < n:
        d = rng.choice((1, 2, 3))
        a = index.random_cube(rng)
        b = index.random_cube(rng, fixed={f"f{d}m": a.face(d, "+")})
        out.append((a, b, d))
    return out


def test_sampled_klein_pairs(klein):
    pairs = sampled_pairs(klein, 600, seed=11)
    failed = assert_agree(klein, pairs)
    assert 0 < failed < len(pairs)


@pytest.mark.parametrize("spec", ["box(z2)", "shift(prod(z2,z2))"])
def test_category_kind_turns_off_segment_division(spec):
    model = dataclasses.replace(models.parse_generator(spec), kind="category")
    assert not model.is_groupoid()
    assert_agree(model, sampled_pairs(model, 400, seed=5))


MUTABLE = (
    "edge_compose", "edge_inverse", "eps", "eps1", "eps2",
    "gamma_minus", "gamma_plus", "compose1", "compose2",
)


def test_seeded_box_z2_mutants(zz2):
    # one entry of one table the chains read redirected to another value of
    # its kind, or dropped; many of these make solve raise
    rng = random.Random(3)
    cubes = list(shells.CubeIndex(zz2).cubes())
    pairs = composable_pairs(cubes)
    pools = {"edges": sorted(zz2.edges), "squares": sorted(zz2.squares)}
    raised = 0
    for _ in range(60):
        table = rng.choice(MUTABLE)
        entries = dict(getattr(zz2, table))
        key = rng.choice(sorted(entries))
        pool = pools["edges" if table in ("edge_compose", "edge_inverse", "eps") else "squares"]
        if rng.random() < 0.2:
            del entries[key]
        else:
            entries[key] = rng.choice([v for v in pool if v != entries[key]])
        mutant = dataclasses.replace(zz2, **{table: entries})
        oracle = Oracle(mutant)
        for a, b, d in rng.sample(pairs, 20):
            try:
                env = derivation_env(mutant, a, b, d)
            except Exception:
                continue  # the cube composite itself is undefined
            want = oracle.replay(env, pastings.PINNED_STEPS[d])
            assert compiled(mutant, env, pastings.PINNED_STEPS[d]) == want, (table, key)
            raised += want[0] == "raise"
    assert raised > 0


def test_binding_rejected_where_solve_rejects(zz2):
    # an inferred '_' argument is read off a seam, so it is already a model
    # edge or object.  The plan's binding accepts exactly where solve does,
    # with the square that solve + evaluate gives
    u = next(s for s in sorted(zz2.squares) if zz2.squares[s].left == "1")
    env = Env.for_model(zz2)
    step = f"[G+(_), {u}]"
    want = Oracle(zz2).replay(env, [step])
    assert want[:2] == ("report", True)
    assert compiled(zz2, env, [step]) == want
    box2 = models.square_model(models.indiscrete_groupoid(2))
    for model, step, square in (
        (zero_monoid_box(), "[G+(_), qz|z|1|1]", "qz|z|1|1"),
        (box2, "[O(_), q0>1|0>1|0>0|1>1]", "q0>1|0>1|0>0|1>1"),
    ):
        env = Env.for_model(model)
        assert evaluate(model, env, solve(model, env, parse(step))) == square
        chain = [step, square]
        want = Oracle(model).replay(env, chain)
        assert want[:3] == ("report", True, {"step-equality": 1}), want
        assert compiled(model, env, chain) == want


def zero_monoid_box():
    """The square model of the monoid {1, z} with z absorbing: 1 z = z z, so
    two rows can compose although one seam between them does not match."""
    one = EdgeEnds("o", "o")
    absorbing = {(x, y): "1" if x == y == "1" else "z" for x in "1z" for y in "1z"}
    return models.square_model(
        models.FiniteCategory(
            objects=("o",), arrows={"1": one, "z": one}, compose=absorbing, identity={"o": "1"}
        )
    )


def test_binding_rejected_where_typecheck_rejects():
    # with the names 1 and z swapped in one degeneracy or connection table,
    # solve places the square of the argument it infers in the slot;
    # typecheck and evaluate take the placed square as it is.  So the plan's
    # binding, solve + evaluate, and the step written out with the placed
    # square all give one square, and typecheck never rejects a step solve
    # accepted
    model = zero_monoid_box()
    rng = random.Random(4)
    triples = list(itertools.product(sorted(model.squares), repeat=3))
    outcomes = set()
    for table in ("eps1", "eps2", "gamma_minus", "gamma_plus"):
        entries = dict(getattr(model, table))
        entries["1"], entries["z"] = entries["z"], entries["1"]
        mutant = dataclasses.replace(model, **{table: entries})
        oracle = Oracle(mutant)  # its memo reads no edge names
        env = Env.for_model(mutant)
        for template in (
            "[{op}(_), {u}; {v}, {w}]",
            "[{u}, {op}(_); {v}, {w}]",
            "[{u}, {v}; {op}(_), {w}]",
            "[{u}, {v}; {w}, {op}(_)]",
        ):
            for op in ("G+", "G-", "e1", "e2"):
                for u, v, w in rng.sample(triples, 20):
                    step = template.format(op=op, u=u, v=v, w=w)
                    want = oracle.replay(env, [step])
                    assert compiled(mutant, env, [step]) == want, (table, step)
                    got = oracle.step(env, step)
                    if got[0] == "raise":
                        # only the seam pass checks seams, and it names one
                        # cell's side ('r1c0:top'), never both cells ('r0c0|r1c0')
                        assert "|" not in got[2], (table, step, got)
                        outcomes.add(got[1])
                        continue
                    outcomes.add("ok")
                    (placed,) = [
                        cell
                        for row in solve(mutant, env, parse(step)).rows
                        for cell in row
                        if isinstance(cell, Placed)
                    ]
                    written = step.replace(f"{op}(_)", placed.square)
                    plan = pastings._plan(step, mutant.is_groupoid())
                    assert plan.bind(mutant, env) == got[1], (table, step)
                    assert evaluate(mutant, env, parse(written)) == got[1], (table, step)
    assert {"ok", "SeamMismatch"} <= outcomes


def test_hole_steps_go_through_solve(zz2, zz2_thin, monkeypatch):
    calls = []
    real = pastings.solve

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(pastings, "solve", counting)
    env = Env.for_model(zz2)
    text = "[O(o), e1(1), O(o); e2(1), ?, e2(1); O(o), e1(1), O(o)]"
    rep = replay(zz2, env, [text, "q1|1|1|1", "[q1|1|1|1]"], ts=zz2_thin)
    assert calls == [parse(text)]
    assert rep.ok and rep.checked_count == {"step-equality": 2}


def test_bound_steps_neither_rebuild_nor_walk_the_step(zz2, zz2_thin, monkeypatch):
    # a bound step goes from its plan straight to its square; only the
    # script's '?' step is rebuilt, and solve's propagation, which checks
    # every seam, fills it, so neither typecheck nor evaluate runs.  Per
    # direction the pair with the most distinct faces is replayed, so that
    # few seams are identities a plan with a wrong check could still pass.
    by_direction = {}
    for a, b, d in composable_pairs(list(shells.CubeIndex(zz2).cubes())):
        by_direction.setdefault(d, []).append((a, b, d))
    pairs = [max(ps, key=lambda p: len(set(p[0].faces() + p[1].faces()))) for ps in by_direction.values()]
    script = (resources.files("cubal.data") / "cancellation.script").read_text()
    for a, b, d in pairs:
        replay_pinned(zz2, a, b, d, ts=zz2_thin)  # compile the plans
    run_script(zz2, script)
    calls = Counter()
    for name in ("typecheck", "evaluate", "_fill"):
        def counting(*args, _real=getattr(pastings, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(pastings, name, counting)
    for a, b, d in pairs:
        rep = replay_pinned(zz2, a, b, d, ts=zz2_thin)
        assert rep.ok and rep.checked_count == {"step-equality": len(pastings.PINNED_STEPS[d]) - 1}
    assert calls == {}
    rep, _ = run_script(zz2, script)
    assert rep.ok
    assert calls["evaluate"] == 0 and calls["typecheck"] == 0 and calls["_fill"] > 0


# Steps whose '_' arguments only segment division or a double degeneracy's
# identity edge can resolve; the pinned chains reach neither.
DIVIDING = (
    "[{a}, [e2(_); {b}]]",
    "[[{a}, G+(_)]; {b}]",
    "[{c}, [G-(_); {a}], {b}]",
    "[O(_), {a}]",
    "[{a}; O(_)]",
)


def dividing_steps(model, rng, n):
    squares = sorted(model.squares)
    return [
        rng.choice(DIVIDING).format(a=rng.choice(squares), b=rng.choice(squares), c=rng.choice(squares))
        for _ in range(n)
    ]


def assert_steps_agree(model, steps):
    oracle = Oracle(model)
    env = Env.for_model(model)
    outcomes = set()
    for step in steps:
        want = oracle.replay(env, [step])
        assert compiled(model, env, [step]) == want, step
        outcomes.add(want[1] if want[0] == "raise" else "ok")
    return outcomes


@pytest.mark.parametrize("spec", ["box(z2)", "shift(z2)", "box(indiscrete(2))", "shift(prod(z2,z2))"])
@pytest.mark.parametrize("kind", ["groupoid", "category"])
def test_segment_division_and_double_degeneracy(spec, kind):
    model = dataclasses.replace(models.parse_generator(spec), kind=kind)
    outcomes = assert_steps_agree(model, dividing_steps(model, random.Random(spec), 300))
    assert "ok" in outcomes


def test_segment_division_on_edge_table_mutants(zz2):
    rng = random.Random(8)
    edges = sorted(zz2.edges)
    outcomes = set()
    for table in ("edge_inverse", "edge_compose", "eps"):
        for key in sorted(getattr(zz2, table)):
            entries = dict(getattr(zz2, table))
            entries[key] = next(e for e in edges if e != entries[key])
            mutant = dataclasses.replace(zz2, **{table: entries})
            outcomes |= assert_steps_agree(mutant, dividing_steps(mutant, rng, 60))
    assert {"ok", "SeamMismatch", "UnsolvableSlot"} <= outcomes
