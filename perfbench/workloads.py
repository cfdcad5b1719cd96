"""The benchmark's workloads: inputs built from a seed, and jobs with known answers.

Load model: one caller sends jobs one after another (a closed loop with one
client).  A job is one public call into ``cubal`` that returns a verdict: a
``Report``, a ``QuotientResult`` or an exit code of ``cubal.cli.run``.  Every
job checks that verdict against an answer that comes from the paper or from
the square-model oracle (in ``box(C)`` a square *is* its boundary, so every
square is thin and every cube commutes), never from an earlier output of the
code under test.  A check family that was requested but ticked zero times is
a wrong verdict.

Why these workloads (later perf changes name their "moves" and "does not
move" pairs from this list):

``verify``
    The model ladder box(z2), box(prod(z2,z2)), box(indiscrete(3)) and
    box(indiscrete(4)) as ``.dgc`` text, each parsed, validated, thin-checked
    and run through the HCL and Theorem 2.5 harnesses; the 13 single-entry
    mutants of box(z2); the CLI on the shipped zz2.dgc.  ``core``, ``thin``,
    ``shells`` (rejection sampling in ``random_cube``) and ``modelio`` do
    nearly all the work; ``pastings`` and ``colimits`` do none.  The mutants
    put the validator's failing path next to its full passing path.  The
    harnesses sample with an explicit ``exhaustive=False`` above box(z2):
    under the library default box(prod(z2,z2)) sits at the 64-square cutoff
    and would run 3 x 4,194,304 pairs.

``replay``
    Seeded composable commutative cube pairs in all three directions from
    box(z2) and from the Klein shift model shift(prod(z2,z2)), each replayed
    through ``replay_pinned``, plus the shipped cancellation.script through
    ``run_script`` and the CLI.  ``pastings`` parse, solve and evaluate do
    nearly all the work; hundreds of same-sized jobs make the per-verdict
    percentiles meaningful; the 7-8 constant step strings repeat on every
    pair.  Klein squares are not determined by their boundary, so a shortcut
    that assumed they were shows up as wrong verdicts.  The script's ``let``
    bindings and ``?`` slot reach the thin-candidate search that the pinned
    chains never reach.

``glue``
    ``vk_harness`` on indiscrete(4) and indiscrete(5), the two-chart pushout
    route with its two ``iso_check`` calls, the shipped ``coeq`` demo through
    the CLI, and the interval-loop coequaliser that must exhaust the default
    budget.  The ``colimits`` engine and the iso search do most of the work.
    The diverging control spends its whole budget making fresh elements and
    never reaches extract or iso, so a change that speeds up finite answers
    at the cost of divergent ones shows.  The inputs are fixed; the seed is
    only recorded.
"""
from __future__ import annotations

import contextlib
import io
from dataclasses import replace
from pathlib import Path
from random import Random
from typing import Callable, NamedTuple

from cubal import cli, colimits, core, modelio, models, pastings, shells, thin
from cubal.morphisms import DoubleMorphism

DATA = Path(__file__).resolve().parent.parent / "src" / "cubal" / "data"


class WrongVerdict(Exception):
    """A job returned a verdict that differs from its known answer."""


class Job(NamedTuple):
    name: str
    run: Callable[[], dict]  # returns exact work counters; raises WrongVerdict


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongVerdict(message)


def expect_report(rep, families: dict[str, int | None], what: str) -> int:
    """The report passed and each requested family ticked (exactly n times when n is given)."""
    expect(rep.ok, f"{what}: unexpected failures {rep.violations[:2]}")
    for fam, n in families.items():
        got = rep.checked_count.get(fam, 0)
        expect(got > 0, f"{what}: requested family {fam} never ran")
        expect(n is None or got == n, f"{what}: {fam} checked {got} times, expected {n}")
    return sum(rep.checked_count.values())


def cli_job(name: str, argv: list[str], needles: tuple[str, ...]) -> Job:
    """``cubal.cli.run(argv)`` in-process with its output captured; it must exit 0."""

    def run() -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        text = out.getvalue()
        expect(code == 0, f"exit code {code}")
        for needle in needles:
            expect(needle in text, f"output lacks {needle!r}")
        return {"exit": code, "output_lines": text.count("\n")}

    return Job(name, run)


# -- verify ---------------------------------------------------------------------

# Every family of the axiom suite; each must tick on every valid model.
AXIOM_FAMILIES = (
    "cancellation", "connection-boundary", "degeneracy-composition",
    "double-degeneracy", "edge-associativity", "edge-composability",
    "edge-composite-endpoints", "edge-identity", "edge-identity-endpoints",
    "edge-inverse", "interchange", "square-boundary", "square1-associativity",
    "square1-composability", "square1-composite-faces", "square1-identity",
    "square1-identity-faces", "square1-inverse", "square2-associativity",
    "square2-composability", "square2-composite-faces", "square2-identity",
    "square2-identity-faces", "square2-inverse", "transport",
)
THIN_FAMILIES = (
    "T0-thin-boundary-commutes", "T1-unique-thin-filler", "T2-identities-thin",
    "T2-composition-closed", "T3-relative-homotopy-is-identity",
)
# (generator, exhaustive harnesses?)  box(z2) has 128 cubes and 2,048
# composable commutative pairs per direction.
LADDER = (
    ("box(z2)", True),
    ("box(prod(z2,z2))", False),
    ("box(indiscrete(3))", False),
    ("box(indiscrete(4))", False),
)
Z2_CUBES = 128
Z2_PAIRS_PER_DIRECTION = 2048
HCL_SAMPLES = 1000
THEOREM25_SAMPLES = 1000


def ladder_job(spec: str, text: str, exhaustive: bool, seed: int) -> Job:
    def run() -> dict:
        model = modelio.parse_model(text)
        counts = {"axiom_checks": expect_report(
            core.validate(model), dict.fromkeys(AXIOM_FAMILIES), "validate")}
        ts = thin.thin_set(model)
        expect(ts.members == frozenset(model.squares), "square model: every square is thin")
        counts["thin_checks"] = expect_report(
            thin.check_thin_axioms(model, ts), dict.fromkeys(THIN_FAMILIES), "T0-T3")
        cubes = Z2_CUBES if exhaustive else HCL_SAMPLES
        counts["hcl_checks"] = expect_report(
            shells.hcl_agreement(model, exhaustive=exhaustive, samples=HCL_SAMPLES, seed=seed),
            {"hcl-agreement": cubes, "shared-boundary-shell": cubes},
            "HCL",
        )
        pairs = Z2_PAIRS_PER_DIRECTION if exhaustive else THEOREM25_SAMPLES
        counts["closure_checks"] = expect_report(
            shells.theorem25_harness(
                model, exhaustive=exhaustive, samples=THEOREM25_SAMPLES, seed=seed),
            {f"closure-dir{d}": pairs for d in (1, 2, 3)},
            "Theorem 2.5",
        )
        return counts

    return Job(f"ladder {spec}", run)


def z2_mutants(zz2) -> dict[str, tuple]:
    """The 13 single-entry mutants of box(z2) and the family each must fail in."""
    K = models.square_key
    edits = [
        ("edge-compose-redirect", "edge_compose", ("1", "1"), "1", "edge-inverse"),
        ("edge-compose-drop", "edge_compose", ("0", "1"), None, "edge-composability"),
        ("compose1-redirect", "compose1", (K("1", "1", "0", "0"), K("1", "1", "0", "0")),
         K("1", "1", "1", "1"), "square1-associativity"),
        ("compose2-redirect", "compose2", (K("1", "0", "1", "0"), K("0", "0", "0", "0")),
         K("0", "1", "1", "0"), "interchange"),
        ("eps-redirect", "eps", "o", "1", "edge-identity"),
        ("eps1-redirect", "eps1", "1", K("0", "0", "0", "0"), "square1-identity-faces"),
        ("double-degeneracy-redirect", "eps1", "0", K("1", "1", "0", "0"), "double-degeneracy"),
        ("eps2-redirect", "eps2", "1", K("0", "0", "0", "0"), "square2-identity-faces"),
        ("gamma-minus-redirect", "gamma_minus", "1", K("0", "0", "0", "0"), "connection-boundary"),
        ("gamma-plus-redirect", "gamma_plus", "1", K("0", "1", "1", "0"), "cancellation"),
        ("edge-inverse-redirect", "edge_inverse", "1", "0", "edge-inverse"),
        ("inverse1-redirect", "inverse1", K("1", "0", "1", "0"), K("1", "0", "1", "0"), "square1-inverse"),
        ("inverse2-redirect", "inverse2", K("1", "0", "1", "0"), K("1", "0", "1", "0"), "square2-inverse"),
    ]
    out = {}
    for name, field, key, value, family in edits:
        table = dict(getattr(zz2, field))
        if value is None:
            del table[key]
        else:
            table[key] = value
        out[name] = (replace(zz2, **{field: table}), family)
    return out


def mutant_job(name: str, model, family: str) -> Job:
    def run() -> dict:
        rep = core.validate(model)
        failed = {fam for fam, _ in rep.violations}
        expect(not rep.ok and family in failed, f"mutant not caught in {family}: {sorted(failed)}")
        return {"violations": len(rep.violations), "checks": sum(rep.checked_count.values())}

    return Job(f"mutant {name}", run)


def setup_verify(seed: int) -> list[Job]:
    rng = Random(seed)
    jobs = []
    for spec, exhaustive in LADDER:
        text = modelio.write_model(models.parse_generator(spec), header=spec)
        jobs.append(ladder_job(spec, text, exhaustive, rng.randrange(2**31)))
    for name, (model, family) in z2_mutants(models.parse_generator("box(z2)")).items():
        jobs.append(mutant_job(name, model, family))
    zz2 = str(DATA / "zz2.dgc")
    cli_seed = str(rng.randrange(2**31))
    jobs += [
        cli_job("cli validate", ["validate", zz2], ("ok=yes",)),
        cli_job("cli thin", ["thin", zz2], ("ok=yes",) + tuple(f"PASS {f} " for f in THIN_FAMILIES)),
        cli_job("cli hcl", ["--seed", cli_seed, "hcl", zz2],
                (f"PASS hcl-agreement ({Z2_CUBES} checked)", "ok=yes")),
        cli_job("cli theorem25", ["--seed", cli_seed, "theorem25", zz2],
                tuple(f"PASS closure-dir{d} ({Z2_PAIRS_PER_DIRECTION} checked)" for d in (1, 2, 3))
                + ("ok=yes",)),
    ]
    return jobs


# -- replay ---------------------------------------------------------------------

PAIRS_PER_DIRECTION = 100


def klein_commutes(cube) -> bool:
    """Oracle for shift(prod(z2,z2)), squares named s<a>*<b>: the six faces sum to 0."""
    total = (0, 0)
    for face in cube.faces():
        a, b = face[1:].split("*")
        total = (total[0] ^ int(a), total[1] ^ int(b))
    return total == (0, 0)


# (generator, commutativity oracle, cubes, commutative cubes, composable pairs per direction)
REPLAY_MODELS = (
    ("box(z2)", lambda cube: True, 128, 128, 2048),
    ("shift(prod(z2,z2))", klein_commutes, 4096, 1024, 262144),
)


def pair_job(spec, model, ts, a, b, d, i) -> Job:
    steps = len(pastings.PINNED_STEPS[d]) - 1

    def run() -> dict:
        rep = pastings.replay_pinned(model, a, b, d, ts=ts)
        return {"steps": expect_report(rep, {"step-equality": steps}, "replay")}

    return Job(f"pair {spec} +{d} #{i}", run)


def script_shape(text: str) -> tuple[int, int]:
    """Chains and '=' steps of a script, counted from its text."""
    chains = steps = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("="):
            steps += 1
        elif line and not line.startswith("let "):
            chains += 1
    return chains, steps


def script_job(model, text: str, mode: str) -> Job:
    chains, steps = script_shape(text)

    def run() -> dict:
        rep, outputs = pastings.run_script(model, text, mode=mode)
        family = {"eval": "evaluated-chains", "replay": "step-equality"}[mode]
        n = expect_report(rep, {family: chains if mode == "eval" else steps}, f"script {mode}")
        expect(len(outputs) == chains, f"{len(outputs)} chains, expected {chains}")
        expect(all(len(set(v)) == 1 for v in outputs), "a chain's steps differ")
        return {"checks": n, "values": sum(len(v) for v in outputs)}

    return Job(f"script {mode}", run)


def setup_replay(seed: int) -> list[Job]:
    rng = Random(seed)
    jobs = []
    for spec, commutes, n_cubes, n_comm, n_pairs in REPLAY_MODELS:
        model = models.parse_generator(spec)
        cubes = list(shells.CubeIndex(model).cubes())
        comm = [c for c in cubes if commutes(c)]
        if (len(cubes), len(comm)) != (n_cubes, n_comm):
            raise RuntimeError(f"{spec}: {len(cubes)} cubes, {len(comm)} commutative")
        ts = thin.thin_set(model)
        for d in (1, 2, 3):
            by_minus: dict[str, list] = {}
            for c in comm:
                by_minus.setdefault(c.face(d, "-"), []).append(c)
            if sum(len(by_minus.get(a.face(d, "+"), ())) for a in comm) != n_pairs:
                raise RuntimeError(f"{spec}: composable pair count in direction {d}")
            for i in range(PAIRS_PER_DIRECTION):
                a = rng.choice(comm)
                b = rng.choice(by_minus[a.face(d, "+")])
                jobs.append(pair_job(spec, model, ts, a, b, d, i))
    rng.shuffle(jobs)
    script_path, zz2_path = DATA / "cancellation.script", DATA / "zz2.dgc"
    script = script_path.read_text(encoding="utf-8")
    zz2 = modelio.parse_model(zz2_path.read_text(encoding="utf-8"))
    jobs += [
        script_job(zz2, script, "eval"),
        script_job(zz2, script, "replay"),
        cli_job("cli eval", ["eval", str(zz2_path), str(script_path)], ("ok=yes",)),
        cli_job("cli replay", ["replay", str(zz2_path), str(script_path)], ("ok=yes",)),
    ]
    return jobs


# -- glue -----------------------------------------------------------------------

def size_of(model) -> tuple[int, int, int]:
    s = model.stats()
    return s["objects"], s["edges"], s["squares"]


def vk_job(n: int, cover: list[list[str]], cat, found: dict) -> Job:
    # van Kampen: the coequaliser is the global square model, n/n^2/n^4 cells.
    def run() -> dict:
        rep, result = colimits.vk_harness(cat, cover)
        checks = expect_report(
            rep, {"vk-coequaliser-finite": 1, "vk-coequaliser-iso": 1}, f"vK indiscrete({n})")
        expect(size_of(result.object) == (n, n * n, n**4), f"quotient size {size_of(result.object)}")
        found[n] = result.object
        return {"checks": checks, "generators_added": result.generators_added}

    return Job(f"vk indiscrete({n})", run)


def pushout_job(keep_u, keep_v, full, found: dict) -> Job:
    def run() -> dict:
        push, _, _ = colimits.pushout(keep_u, keep_v)
        expect(push.status == "finite", f"pushout status {push.status}")
        expect(size_of(push.object) == (4, 16, 256), f"pushout size {size_of(push.object)}")
        expect(colimits.iso_check(push.object, found[4]) is not None, "pushout not iso to vK quotient")
        expect(colimits.iso_check(push.object, full) is not None, "pushout not iso to global model")
        return {"generators_added": push.generators_added}

    return Job("pushout indiscrete(4)", run)


def diverging_job(a: DoubleMorphism, b: DoubleMorphism) -> Job:
    def run() -> dict:
        q = colimits.coequalise(a, b)
        expect(q.status == "budget_exceeded" and q.object is None, f"loop ended {q.status}")
        return {"generators_added": q.generators_added}

    return Job("interval loop", run)


def setup_glue(seed: int) -> list[Job]:
    found: dict = {}
    cat4 = models.indiscrete_groupoid(4)
    full = models.square_model(cat4)
    overlap, _ = models.full_sub_double(full, ["1", "2"])

    def keep(objs):
        target, _ = models.full_sub_double(full, objs)
        return DoubleMorphism(
            source=overlap,
            target=target,
            f0={o: o for o in overlap.objects},
            f1={e: e for e in overlap.edges},
            f2={s: s for s in overlap.squares},
        )

    K = models.square_key
    box2 = models.square_model(models.indiscrete_groupoid(2))
    point = models.square_model(models.trivial_category())

    def corner(o: str) -> DoubleMorphism:
        e = f"{o}>{o}"
        return DoubleMorphism(
            source=point, target=box2, f0={"o": o}, f1={"0": e}, f2={"q0|0|0|0": K(e, e, e, e)})

    demo = [str(DATA / f) for f in ("overlap.dgc", "charts.dgc", "glue_left.map", "glue_right.map")]
    return [
        vk_job(4, [["0", "1", "2"], ["1", "2", "3"]], cat4, found),
        vk_job(5, [["0", "1", "2"], ["2", "3", "4"]], models.indiscrete_groupoid(5), found),
        pushout_job(keep(["0", "1", "2"]), keep(["1", "2", "3"]), full, found),
        cli_job("cli coeq", ["coeq", *demo],
                ("status: finite", "result size: 4 objects, 16 edges, 256 squares", "ok=yes")),
        diverging_job(corner("0"), corner("1")),
    ]


SETUP = {"verify": setup_verify, "replay": setup_replay, "glue": setup_glue}
