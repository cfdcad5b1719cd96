"""The top rung of the model ladder: indiscrete(6).

pytest does not collect this file.  Run it from a checkout:

    PYTHONPATH=src python tests/ladder_top.py

It first prints the build time of ``square_model`` on indiscrete(n) for
n = 4, 5, 6.  Then it times the coequaliser engine's set-up alone on the
base of the cover {0123, 2345} (``coequalise`` sets up once more, so the
printed total counts set-up twice), coequalises that cover at the default
budget, asserts a finite quotient of 6 objects, 36 edges and 1,296 squares, asserts that
``iso_check`` finds it isomorphic to the global square model and that the
canonical comparison map (``vk_comparison``, which ``vk_harness`` decides
by) is an isomorphism, and prints the wall time of
each phase, the engine's counters and its rule calls: how often the rules
pass ran ``_run_assoc`` and ``_run_interchange``, counted with a wrapper.
On box(indiscrete(6)) it then asserts that the axiom suite passes with
every family checked (interchange 6^9 times), that every square is thin,
that sampled Theorem 2.5 (1,000 pairs per direction, seed 0) passes and that sampled HCL agreement (1,000
cubes, seed 0) passes with both of its families checked, and prints the
time of each.  Then it asserts that both
models of ``test_colimits.py``'s ``iso_check`` witness pass the axiom suite
(D and E: Z2xZ2 acting on Z3 through its first or its second factor), which
tier-1 does not run on them for time, and prints the time of each.  Then it
coequalises two non-thin gluings at a point at the default budget and prints
the wall time, counters and rule calls of each: shift(Z2) + box(Z2) must
be finite with 1 object, 2 edges and 32 squares after 5,392 fresh
elements, and shift(Z3) + box(Z2) must run out of budget after 19,985,
with no divergence certificate.  Then it times ``find_divergence`` and
``check_divergence`` on the interval loop and on two intervals glued at
both ends, and asserts a checked certificate with a closed path of one and
of two edges.  Last, it asserts that
``theorem25_harness`` with its default arguments samples box(z2 x z2)
(64 squares, but 4,194,304 composable commutative pairs per direction) and
passes with 60,000 cube draws and 330,000 ``rng.choice`` calls, and
prints its time and the calls per draw.  Then it asserts that exhaustive
HCL agreement on the 24-square crossed-module model ``xmod_model(0,
factors=1)`` passes over 93,312 cubes, 31,104 of them commutative, and
prints its time.
Finally it solves ``[?, ?; ?, ?]`` on the zero-monoid box against each of
its 16 targets, asserts 1 solved, 6 ``UnsolvableSlot`` and 9
``AmbiguousSlot``, and prints the wall time of the 16 (the aim is 0.5 s).
Then it draws 600 seeded composable commutative cube pairs (200 per
direction, seed 0) on the 192-square crossed-module model ``xmod_model(0)``,
asserts that ``replay_pinned`` passes on each, and prints the time of the
draw, the time to compile the three pinned chain kernels, and the wall time
per pair of ``replay_pinned`` over a first pass and a second.
"""
import itertools
import time
from collections import Counter
from random import Random

from cubal import colimits, core, dsl, models, pastings, shells, thin
from cubal.core import SquareFaces
from cubal.divergence import check_divergence, find_divergence
from cubal.errors import AmbiguousSlot, UnsolvableSlot
from test_coeq_oracle import glue_at_point
from test_divergence import _circle_legs
from test_golden import _interval_loop_pair, pushout_pair
from test_colimits import xmod_model
from test_replay_compiled import commutative_pairs, zero_monoid_box

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


def rule_calls(fn, *args):
    """``fn(*args)`` and its engine rule calls, as ``(_run_assoc calls,
    _run_interchange calls)``."""
    names = ("_run_assoc", "_run_interchange")
    real = {name: getattr(colimits._Engine, name) for name in names}
    counts = Counter()

    def counted(name):
        def run(engine, op, key):
            counts[name] += 1
            return real[name](engine, op, key)
        return run

    for name in names:
        setattr(colimits._Engine, name, counted(name))
    try:
        return fn(*args), tuple(counts[name] for name in names)
    finally:
        for name, method in real.items():
            setattr(colimits._Engine, name, method)


def print_rule_calls(calls: tuple[int, int]) -> None:
    print(f"rule calls: _run_assoc {calls[0]}, _run_interchange {calls[1]}")


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
    timed(phases, "engine setup", colimits._Engine, a.target, colimits.DEFAULT_BUDGET)
    q, calls = timed(phases, "coequalise", rule_calls, colimits.coequalise, a, b)
    assert q.status == "finite", q.status
    size = q.object.stats()
    assert (size["objects"], size["edges"], size["squares"]) == (6, 36, 1296), size
    iso = timed(phases, "iso_check", colimits.iso_check, q.object, full)
    assert iso is not None, "quotient not isomorphic to the global square model"
    fault = timed(phases, "canonical", colimits.vk_comparison, q, full)
    assert fault is None, fault
    report(phases)
    print(f"generators_added {q.generators_added}, stats {q.stats}")
    print_rule_calls(calls)
    print("vK indiscrete(6) {0123,2345}: finite, 6/36/1296, isomorphic to the global model, "
          "the canonical map an isomorphism")


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
        q, calls = timed(phases, name, rule_calls, colimits.coequalise, a, b)
        got = None if q.object is None else tuple(q.object.stats().values())
        outcome = (q.status, q.generators_added, got)
        assert outcome == (status, added, size), outcome
        # Z3 * Z2 has no nonzero map to Z: the engine, not a certificate, answers
        assert q.divergence is None, q.divergence
        print(f"{name}: {q.status}, size {got}, "
              f"generators_added {q.generators_added}, stats {q.stats}")
        print_rule_calls(calls)
    report(phases)


def divergence_certificates() -> None:
    phases: dict[str, float] = {}
    cases = {
        "interval loop": (_interval_loop_pair(), 1),
        "two-interval circle": (pushout_pair(*_circle_legs()), 2),
    }
    for name, ((a, b), length) in cases.items():
        divergence = timed(phases, f"find {name}", find_divergence, a, b)
        fault = timed(phases, f"check {name}", check_divergence, a, b, divergence)
        assert fault is None, fault
        assert len(divergence["path"]) == length and divergence["sum"] == 1, divergence
    for name, seconds in phases.items():  # well under a millisecond each
        print(f"{name:<26} {1e3 * seconds:7.3f} ms")
    print("divergence certificates: interval loop (closed path of 1 edge) and two-interval "
          "circle (2 edges), each with phi-sum 1, found and checked")


def theorem25_default() -> None:
    model = models.parse_generator("box(prod(z2,z2))")
    counts = {"choice": 0, "draws": 0}

    class CountingRandom(Random):
        def choice(self, seq):
            counts["choice"] += 1
            return super().choice(seq)

    draw = shells.CubeIndex.random_cube

    def counted_draw(self, rng, fixed=None):
        counts["draws"] += 1
        return draw(self, rng, fixed)

    phases: dict[str, float] = {}
    rep = timed(phases, "theorem25", shells.theorem25_harness, model)
    shells.Random, shells.CubeIndex.random_cube = CountingRandom, counted_draw
    try:
        counted = shells.theorem25_harness(model)
    finally:
        shells.Random, shells.CubeIndex.random_cube = Random, draw
    for r in (rep, counted):
        assert r.ok, r.violations[:2]
        assert r.notes == [
            f"dir {d}: sampled 10000 composable commutative pairs" for d in (1, 2, 3)
        ], r.notes
    # every cube commutes and every draw completes its first walk: 30,000
    # unpinned draws make 6 choices each, 30,000 pinned on one face make 5
    assert counts == {"choice": 330000, "draws": 60000}, counts
    report(phases)
    print(f"box(z2 x z2) theorem25 default: sampled, 10000 pairs per direction; "
          f"{counts['draws']} draws, {counts['choice'] / counts['draws']:.2f} "
          f"rng.choice calls per draw")


def crossed_module_hcl() -> None:
    model = xmod_model(0, factors=1)
    phases: dict[str, float] = {}
    rep = timed(phases, "hcl", shells.hcl_agreement, model, exhaustive=True)
    assert rep.ok, rep.violations[:2]
    assert rep.notes == ["cubes checked: 93312 (31104 commutative)"], rep.notes
    report(phases)
    print(f"xmod_model(0, factors=1), {len(model.squares)} squares: exhaustive hcl ok, "
          "93312 cubes, 31104 commutative")


def zero_monoid_search() -> None:
    model = zero_monoid_box()
    env = pastings.Env(model)
    ts = thin.thin_set(model)
    step = pastings.parse("[?, ?; ?, ?]")
    outcomes = Counter()

    def solve_all() -> None:
        for sides in itertools.product(sorted(model.edges), repeat=4):
            try:
                pastings.solve(model, env, step, target=SquareFaces(*sides), ts=ts)
                outcomes["solved"] += 1
            except (UnsolvableSlot, AmbiguousSlot) as exc:
                outcomes[type(exc).__name__] += 1

    phases: dict[str, float] = {}
    timed(phases, "16 targets", solve_all)
    assert outcomes == {"solved": 1, "UnsolvableSlot": 6, "AmbiguousSlot": 9}, outcomes
    report(phases)
    print("zero-monoid box [?, ?; ?, ?]: 1 solved, 6 unsolvable, 9 ambiguous")


def crossed_module_replay() -> None:
    model = xmod_model(0)
    phases: dict[str, float] = {}
    pairs = timed(phases, "draw pairs", commutative_pairs, model, 200, 0)

    def compile_chains() -> None:
        dsl._chain.cache_clear()  # compiled here even if an earlier row compiled them
        for steps in pastings.PINNED_STEPS.values():
            dsl._chain(tuple(steps), model.is_groupoid(), pastings._FACE_NAMES)

    timed(phases, "compile chains", compile_chains)

    def replay_all() -> None:
        for a, b, d in pairs:
            rep = pastings.replay_pinned(model, a, b, d)
            steps = len(pastings.PINNED_STEPS[d]) - 1
            assert rep.ok and rep.checked_count == {"step-equality": steps}, (a, b, d)

    passes = ("replay", "replay again")
    for name in passes:
        timed(phases, name, replay_all)
    report(phases)
    per_pair = ", ".join(f"{1e3 * phases[name] / len(pairs):.3f}" for name in passes)
    print(f"xmod_model(0), {len(model.squares)} squares: replay_pinned ok on {len(pairs)} pairs; "
          f"chain kernels compiled in {1e3 * phases['compile chains']:.1f} ms; "
          f"ms per pair, first and second pass: {per_pair}")


def main() -> None:
    square_models()
    cat = models.indiscrete_groupoid(6)
    van_kampen(cat)
    box(cat)
    crossed_module_witness()
    non_thin_gluing()
    divergence_certificates()
    theorem25_default()
    crossed_module_hcl()
    zero_monoid_search()
    crossed_module_replay()


if __name__ == "__main__":
    main()
