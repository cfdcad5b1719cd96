"""The coequaliser engine against the earlier engine kept in ``coeq_oracle.py``.

Each finite quotient must be isomorphic to the oracle's, and the two
projections must agree through that isomorphism; where the oracle answers
finite, ``find_divergence`` must find no certificate.  The engine may answer
where the oracle runs out of budget, but only with the quotient the oracle
reaches at a larger budget; it must never run out where the oracle answers.

``golden/coeq_corpus.json`` pins every non-cover builder pair of the seeded
test at budget 600, and shift(Z2) glued to box(indiscrete(2)) at the default
budget: status, ``generators_added``, stats and quotient size.  After an
intended change of trajectory, re-record with
``PYTHONPATH=src python tests/test_coeq_oracle.py`` and review the diff.
"""
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coeq_oracle
from cubal import colimits, models
from cubal.divergence import find_divergence
from cubal.morphisms import DoubleMorphism, validate_morphism
from test_golden import COEQ_PAIRS, pushout_pair


def oracle(a: DoubleMorphism, b: DoubleMorphism, budget: int) -> colimits.QuotientResult:
    try:
        return coeq_oracle.coequalise(a, b, budget=budget)
    except coeq_oracle._Budget:  # the oracle raises when the base alone is over budget
        return colimits.QuotientResult("budget_exceeded", None, None, 0)


def assert_agrees(a: DoubleMorphism, b: DoubleMorphism, budget: int) -> colimits.QuotientResult:
    new = colimits.coequalise(a, b, budget=budget)
    old = oracle(a, b, budget)
    if old.status == "finite":
        # the oracle has no certificate search: a finite quotient has no certificate
        assert find_divergence(a, b) is None, "a finite quotient was certified infinite"
    if new.status != "finite":
        assert old.status == "budget_exceeded", "the oracle answers where the engine ran out"
        return new
    if old.status != "finite":
        old = oracle(a, b, max(20 * budget, colimits.DEFAULT_BUDGET))
        assert old.status == "finite", "the engine answers where the oracle never does"
    iso = colimits.iso_check(new.object, old.object)
    assert iso is not None, "quotients are not isomorphic"
    for new_map, old_map, iso_map in zip(
        (new.projection.f0, new.projection.f1, new.projection.f2),
        (old.projection.f0, old.projection.f1, old.projection.f2),
        (iso.f0, iso.f1, iso.f2),
    ):
        assert {x: iso_map[y] for x, y in new_map.items()} == old_map
    return new


@pytest.mark.parametrize("name", sorted(COEQ_PAIRS))
def test_fingerprint_cases_agree_with_oracle(name):
    pair, budget = COEQ_PAIRS[name]
    assert_agrees(*pair(), budget)


@pytest.mark.parametrize(
    "n, cover",
    [(3, ["01", "12"]), (4, ["012", "123"]), (5, ["012", "234"])],
)
def test_van_kampen_ladder_agrees_with_oracle(n, cover):
    a, b, _ = colimits.vk_sequence(models.indiscrete_groupoid(n), [list(u) for u in cover])
    q = assert_agrees(a, b, colimits.DEFAULT_BUDGET)
    assert q.status == "finite"
    assert q.object.stats() == {"objects": n, "edges": n * n, "squares": n**4}


# -- seeded pairs ----------------------------------------------------------------

GROUPS = [
    models.cyclic_group(1),
    models.cyclic_group(2),
    models.cyclic_group(3),
    models.product(models.cyclic_group(2), models.cyclic_group(2)),
]


def point_into(target, obj: str, square: str) -> DoubleMorphism:
    """The trivial square model sent to ``obj``, its square to ``square``."""
    point = models.square_model(models.trivial_category())
    return DoubleMorphism(
        source=point,
        target=target,
        f0={"o": obj},
        f1={"0": target.eps[obj]},
        f2={"q0|0|0|0": square},
    )


def glue_at_point(left, right):
    """Two one-object models glued at their object: shift models give
    Eckmann-Hilton, two copies of box(z2) the infinite Z2*Z2."""
    f = point_into(left, left.objects[0], left.eps1[left.eps[left.objects[0]]])
    g = point_into(right, right.objects[0], right.eps1[right.eps[right.objects[0]]])
    return pushout_pair(f, g)


def test_non_thin_squares_over_several_edges_agree_with_oracle():
    # shift(Z2) glued to box(indiscrete(2)) at an object: the non-thin
    # square is carried along the edges, 32 squares over 4 edges
    a, b = glue_at_point(
        models.shift_model(models.cyclic_group(2)),
        models.square_model(models.indiscrete_groupoid(2)),
    )
    q = assert_agrees(a, b, 2000)
    assert q.status == "finite"
    assert q.object.stats() == {"objects": 2, "edges": 4, "squares": 32}


def power_map(n: int, k: int):
    """box(Zn) with the identity and x -> kx: the quotient is box(Z_gcd(n, k-1))."""
    box = models.square_model(models.cyclic_group(n))
    arrows = {str(i): str(i * k % n) for i in range(n)}
    power = models.induced_square_morphism({"o": "o"}, arrows, box, box)
    ident = {str(i): str(i) for i in range(n)}
    return models.induced_square_morphism({"o": "o"}, ident, box, box), power


def shift_square_pair(group, s: int, t: int):
    """Two maps shift(Z2) -> shift(G) sending the generator to elements of order 1 or 2."""
    source, target = models.shift_model(models.cyclic_group(2)), models.shift_model(group)
    gens = [x for x in sorted(target.squares) if target.compose1[(x, x)] == target.eps1["e"]]

    def to(x: str) -> DoubleMorphism:
        return DoubleMorphism(
            source=source,
            target=target,
            f0={"o": target.objects[0]},
            f1={"e": "e"},
            f2={"s0": target.eps1["e"], "s1": x},
        )

    return to(gens[s % len(gens)]), to(gens[t % len(gens)])


def cover_of(n: int, k: int, masks: list[int]) -> list[list[str]]:
    """A cover of indiscrete(n) by ``k`` charts: each object joins the charts its mask picks."""
    charts = [[] for _ in range(k)]
    for o in range(n):
        mask = masks[o] % 2**k or 1
        for i, chart in enumerate(charts):
            if mask >> i & 1:
                chart.append(str(o))
    return [c for c in charts if c]


pairs = st.one_of(
    st.builds(
        lambda n, k, masks: colimits.vk_sequence(
            models.indiscrete_groupoid(n), cover_of(n, k, masks)
        )[:2],
        st.integers(2, 3),
        st.integers(2, 3),
        st.lists(st.integers(0, 7), min_size=3, max_size=3),
    ),
    st.builds(
        lambda x, y: glue_at_point(models.shift_model(x), models.shift_model(y)),
        st.sampled_from(GROUPS),
        st.sampled_from(GROUPS),
    ),
    st.builds(
        lambda g: glue_at_point(models.square_model(g), models.square_model(g)),
        st.sampled_from(GROUPS[:3]),
    ),
    st.builds(power_map, st.integers(2, 6), st.integers(0, 5)),
    st.builds(
        shift_square_pair, st.sampled_from(GROUPS[1:]), st.integers(0, 3), st.integers(0, 3)
    ),
)


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=list(HealthCheck),
)
@given(pair=pairs, budget=st.sampled_from([150, 600, 2000]))
def test_seeded_pairs_agree_with_oracle(pair, budget):
    a, b = pair
    assert validate_morphism(a).ok and validate_morphism(b).ok
    assert_agrees(a, b, budget)


# -- the builder corpus, pinned ----------------------------------------------------

CORPUS_FILE = Path(__file__).resolve().parent / "golden" / "coeq_corpus.json"
GROUP_NAMES = ["z1", "z2", "z3", "z2xz2"]


def builder_corpus() -> dict:
    """Each non-cover builder pair over all its arguments at budget 600, and the
    two-edge gluing at the default budget: name -> (pair thunk, budget)."""
    cases = {}
    groups = list(zip(GROUP_NAMES, GROUPS))
    for x, gx in groups:
        for y, gy in groups:
            cases[f"shift({x})+shift({y})"] = (
                lambda gx=gx, gy=gy: glue_at_point(models.shift_model(gx), models.shift_model(gy))
            )
    for x, gx in groups[:3]:
        cases[f"box({x})+box({x})"] = (
            lambda gx=gx: glue_at_point(models.square_model(gx), models.square_model(gx))
        )
    for n in range(2, 7):
        for k in range(6):
            cases[f"power(z{n},{k})"] = lambda n=n, k=k: power_map(n, k)
    for x, gx in groups[1:]:
        for s in range(4):
            for t in range(4):
                cases[f"shift_square({x},{s},{t})"] = (
                    lambda gx=gx, s=s, t=t: shift_square_pair(gx, s, t)
                )
    out = {name: (pair, 600) for name, pair in cases.items()}
    out["shift(z2)+box(ind2)"] = (
        lambda: glue_at_point(
            models.shift_model(models.cyclic_group(2)),
            models.square_model(models.indiscrete_groupoid(2)),
        ),
        colimits.DEFAULT_BUDGET,
    )
    return out


def corpus_fingerprint(q: colimits.QuotientResult) -> dict:
    return {
        "status": q.status,
        "generators_added": q.generators_added,
        "stats": q.stats,
        "size": None if q.object is None else q.object.stats(),
    }


def run_corpus() -> dict:
    return {
        name: corpus_fingerprint(colimits.coequalise(*pair(), budget=budget))
        for name, (pair, budget) in sorted(builder_corpus().items())
    }


def test_builder_corpus_matches_golden():
    recorded = json.loads(CORPUS_FILE.read_text(encoding="utf-8"))
    assert len(recorded) == 98
    assert run_corpus() == recorded


if __name__ == "__main__":
    text = json.dumps(run_corpus(), indent=2, sort_keys=True) + "\n"
    CORPUS_FILE.write_text(text, encoding="utf-8")
    print(f"wrote {CORPUS_FILE.name}", file=sys.stderr)
