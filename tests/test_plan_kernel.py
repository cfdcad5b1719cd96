"""The generated bind function of a compiled plan against the interpreted one.

``_chain`` compiles a chain's terms and checks into one generated Python
function; a step compiles as its chain of one.
``pasting_oracle.oracle_bind`` is the loop it replaced: one pass over the
terms, each dispatched on its kind, then the check pairs.  For every step of
``test_pastings_golden.PLAN_STEPS``, every pinned chain with its faces read
by name and by position, both ``groupoid`` flags and a set of environments
on each model, both must give the same squares, or both None, or raise the
same exception with the same message.  The models are box(z2), shift(z2),
the Klein shift, the zero-monoid box and the 13 single-entry box(z2)
mutants of the benchmark's verify workload.
"""
import dataclasses
import random
import re

import pytest

from pasting_oracle import oracle_bind
from test_cube_compiled import KERNELS
from test_bench_workloads import _workloads
from test_pastings_golden import PLAN_STEPS
from test_replay_compiled import _names, zero_monoid_box

from cubal import core, dsl, models, pastings, shells
from cubal.core import OPS, EdgeEnds, SquareFaces
from cubal.pastings import Env, derivation_env, parse


def kernel_bind(plan, model, env):
    return plan.bind(model, env, ())


def positional_bind(plan, model, env):
    """A chain compiled with ``FACE_NAMES`` as its slots, bound to the faces
    ``env`` names, as ``replay_pinned`` binds it."""
    return plan.bind(model, None, tuple(env.squares[n] for n in FACE_NAMES))


def outcome(bind, plan, model, env):
    try:
        return ("value", bind(plan, model, env))
    except Exception as exc:  # the outcome under test includes the exception
        return ("raise", type(exc).__name__, str(exc))


def kind(got):
    """What a binding gave: a square, None, or the name of its error."""
    return got[1] if got[0] == "raise" else "value" if got[1] is not None else "None"


STEP_NAMES = sorted({n for step in PLAN_STEPS for n in _names(parse(step))})
FACE_NAMES = pastings._FACE_NAMES
CHAINS = [tuple(pastings.PINNED_STEPS[d]) for d in (1, 2, 3)]


def environments(model, rng, pairs=6, draws=6):
    """Envs binding every name of the corpus: the pinned names of a few
    composable cube pairs (commutative or not) with the rest drawn, envs
    with every name drawn, and one with no binding at all."""
    squares = sorted(model.squares)
    index = shells.CubeIndex(model)

    def drawn():
        env = Env(model)
        env.squares.update({n: rng.choice(squares) for n in (*STEP_NAMES, *FACE_NAMES)})
        return env

    envs = [Env(model)]
    for _ in range(pairs):
        d = rng.choice((1, 2, 3))
        a = index.random_cube(rng)
        b = a and index.random_cube(rng, fixed={f"f{d}m": a.face(d, "+")})
        if b is None:
            continue
        try:
            pinned = derivation_env(model, a, b, d)
        except Exception:
            continue  # the cube composite itself is undefined on a mutant
        env = drawn()
        env.squares.update(pinned.squares)
        envs.append(env)
    return envs + [drawn() for _ in range(draws)]


def kernel_models():
    zz2 = models.square_model(models.cyclic_group(2))
    out = {
        "box(z2)": zz2,
        "shift(z2)": models.shift_model(models.cyclic_group(2)),
        "klein shift": models.parse_generator("shift(prod(z2,z2))"),
        "zero-monoid box": zero_monoid_box(),
    }
    for name, (mutant, _) in _workloads().z2_mutants(zz2).items():
        out[f"box(z2) {name}"] = mutant
    return out


MODELS = kernel_models()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_kernel_binds_as_the_interpreted_loop(name):
    model = MODELS[name]
    envs = environments(model, random.Random(name))
    seen = set()
    for step in PLAN_STEPS:
        for groupoid in (False, True):
            plan = dsl._chain((step,), groupoid)
            if plan is None:
                continue  # a '?' step: only solve resolves it
            for env in envs:
                want = outcome(oracle_bind, plan, model, env)
                assert outcome(kernel_bind, plan, model, env) == want, (step, groupoid, env.squares)
                seen.add(kind(want))
        for steps in CHAINS:
            plan, positional = dsl._chain(steps, groupoid), dsl._chain(steps, groupoid, FACE_NAMES)
            for env in envs:
                want = outcome(oracle_bind, plan, model, env)
                assert outcome(kernel_bind, plan, model, env) == want, (steps, groupoid, env.squares)
                if env.squares:  # every face named: the positional kernel reads them all
                    assert outcome(positional_bind, positional, model, env) == want, (steps, groupoid)
    assert "value" in seen, seen


def test_the_corpus_reaches_every_outcome_of_a_binding():
    # over all models: a square, a failed check, a missed lookup, an unbound name
    seen = set()
    for name, model in MODELS.items():
        envs = environments(model, random.Random(name), pairs=2, draws=2)
        for step in PLAN_STEPS:
            plan = dsl._chain((step,), model.is_groupoid())
            for env in envs if plan else ():
                got = outcome(oracle_bind, plan, model, env)
                seen.add(kind(got))
    assert seen == {"value", "None", "KeyError", "UnboundName"}, seen


# a word of the generated source: a local, a keyword, or a field name
SOURCE_WORDS = {
    "def", "bind", "model", "env", "c", "_", "squares", "return", "None", "if", "or", "C",
    "resolve_square", "resolve_edge", "resolve_object", "src",
    *(op.field for op in OPS),
    *(f"t_{op.field}" for op in OPS),
}


def assert_no_step_text(source, words=SOURCE_WORDS):
    assert not set("'\"\\#") & set(source), source
    for word in re.findall(r"[A-Za-z_]\w*", source):
        assert word in words or re.fullmatch(r"[vq]\d+", word), word


@pytest.mark.parametrize("groupoid", [False, True])
def test_generated_source_holds_no_name_from_the_step(groupoid):
    for step in PLAN_STEPS:
        plan = dsl._chain((step,), groupoid)
        if plan is None:
            continue
        source, consts = dsl._kernel_source(plan.terms, plan.checks, plan.values)
        assert_no_step_text(source)
        named = [a for k, a, _ in plan.terms if k in ("sq", "lit")]
        assert list(consts) == named


# the line of a chain kernel that reads its slots: locals, or '_' where unread
POSITIONAL_READ = re.compile(r"^    ((?:(?:v\d+|_), )+)= c$", re.M)


@pytest.mark.parametrize("groupoid", [False, True])
def test_chain_kernels_hold_no_name_from_the_steps(groupoid):
    # a face is read by position, any other name from C; neither is source text
    for steps in CHAINS:
        for slots in ((), FACE_NAMES):
            plan = dsl._chain(steps, groupoid, slots)
            assert len(plan.values) == len(steps)
            source, consts = dsl._kernel_source(plan.terms, plan.checks, plan.values, slots)
            assert_no_step_text(POSITIONAL_READ.sub("", source))
            reads = POSITIONAL_READ.findall(source)
            named = [a for k, a, _ in plan.terms if k in ("sq", "lit") and a not in slots]
            assert list(consts) == named
            if slots:
                assert consts == () and len(reads) == 1, source
                read = [w for w in reads[0].split(", ") if w.startswith("v")]
                assert sorted(read) == sorted(f"v{i}" for i, (k, _, _) in enumerate(plan.terms) if k == "sq")
            else:
                assert reads == [] and consts, source


# the further words of a positional kernel: its cube argument, the unread
# positions of that cube and its fallback
POSITIONAL_WORDS = {"kernel", "c", "_", "try", "except", "KeyError", "compose_array"}


def test_positional_kernels_hold_no_name_from_the_steps():
    for steps, verdict in KERNELS:
        source = dsl._positional_source(steps, shells.SLOTS, verdict)
        assert_no_step_text(source, SOURCE_WORDS | POSITIONAL_WORDS)


def relabel(model, f):
    """``model`` with every object, edge and square ``x`` named ``f(x)``."""
    cells = (model.objects, model.edges, model.squares)
    name = [{x: f(x) for x in dim} for dim in cells]
    tables = {}
    for op in OPS:
        args = (op.arg, op.arg) if op.binary else (op.arg,)
        tables[op.field] = {
            op.key(tuple(name[dim][x] for dim, x in zip(args, op.args(key)))): name[op.value][value]
            for key, value in getattr(model, op.field).items()
        }
    return dataclasses.replace(
        model,
        objects=tuple(name[core.OBJ][x] for x in model.objects),
        edges={name[core.EDG][e]: EdgeEnds(*(name[core.OBJ][x] for x in ends)) for e, ends in model.edges.items()},
        squares={name[core.SQR][s]: SquareFaces(*(name[core.EDG][e] for e in faces)) for s, faces in model.squares.items()},
        **tables,
    )


QUOTED = "'\"\\"


def quoted(x):
    return f"{x}{QUOTED}"


def test_names_with_quotes_reach_the_kernel_only_as_constants(zz2):
    # square, edge and object identifiers holding ', " and \ written into
    # steps: the kernel reads them from C, and binds as on the plain model
    seen = set()
    model = relabel(zz2, quoted)
    env, plain = Env(model), Env(zz2)
    ids = {*zz2.objects, *zz2.edges, *zz2.squares}
    for step in pastings.PINNED_STEPS[1][:1] + [
        "[G+(1), G-(1)]",
        "[G-(1), e1(1); e2(1), G-(1)]",
        "[O(o), e1(1), O(o); e2(1), q1|1|1|1, e2(1); O(o), e1(1), O(o)]",
        "[q1|1|0|0; q1|1|0|0]",
        "[q1|1|0|0; q0|0|1|1]",
    ]:
        text = re.sub(r"[^\s\[\](),;=?#]+", lambda m: quoted(m[0]) if m[0] in ids else m[0], step)
        for groupoid in (False, True):
            plan, plain_plan = dsl._chain((text,), groupoid), dsl._chain((step,), groupoid)
            source, consts = dsl._kernel_source(plan.terms, plan.checks, plan.values)
            assert_no_step_text(source)
            # the same function text as on the plain names: only C differs
            assert source == dsl._kernel_source(plain_plan.terms, plain_plan.checks, plain_plan.values)[0]
            want = outcome(oracle_bind, plan, model, env)
            assert outcome(kernel_bind, plan, model, env) == want, text
            on_plain = outcome(kernel_bind, plain_plan, zz2, plain)
            if kind(want) == "value":
                assert want[1] == list(map(quoted, on_plain[1])), text
            else:
                assert want[:2] == on_plain[:2], text
            seen.add(kind(want))
    assert seen == {"value", "KeyError", "UnboundName"}, seen
    # the pinned chains on the relabelled model pass as on box(z2)
    cubes = sorted(shells.CubeIndex(model).cubes())
    for d in (1, 2, 3):
        a = cubes[0]
        b = next(c for c in cubes if c.face(d, "-") == a.face(d, "+"))
        rep = pastings.replay_pinned(model, a, b, d)
        assert rep.ok and rep.checked_count == {"step-equality": len(pastings.PINNED_STEPS[d]) - 1}
