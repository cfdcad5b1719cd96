"""Divergence certificates: a homomorphism to Z proves a coequaliser infinite.

``find_divergence`` must certify the quotients whose edge groupoid maps onto
Z (the interval loop, two intervals glued at both ends), ``check_divergence``
must reject a tampered certificate, the gluings it cannot prove infinite
(Z2 * Z2) must still reach the engine, and no finite quotient may ever get a
certificate: the differential test runs the finder on every pair whose
status tier-1 records.
"""
import json
import time
from dataclasses import replace

import pytest

from cubal import colimits, models
from cubal.core import DoubleGC, EdgeEnds
from cubal.divergence import check_divergence, find_divergence
from cubal.morphisms import DoubleMorphism, validate_morphism
from test_coeq_oracle import CORPUS_FILE, builder_corpus, glue_at_point
from test_colimits import include_point, xmod_model
from test_golden import COEQ_FILE, COEQ_PAIRS, _interval_loop_pair, pushout_pair


def _box(n: int):
    return models.square_model(models.indiscrete_groupoid(n))


def _circle_legs():
    """The two ends of the interval, as maps from two points: their pushout
    glues two intervals at both ends, the circle covered by two arcs."""
    two_points, _ = colimits.coproduct([models.square_model(models.trivial_category())] * 2)
    box2 = _box(2)
    ends = DoubleMorphism(
        source=two_points,
        target=box2,
        f0={"0.o": "0", "1.o": "1"},
        f1={"0.0": "0>0", "1.0": "1>1"},
        f2={"0.q0|0|0|0": box2.eps1["0>0"], "1.q0|0|0|0": box2.eps1["1>1"]},
    )
    return ends, ends


def _shift_pair():
    """The interval sent onto 0>1 and onto 1>2 of indiscrete(3): all objects
    merge, and the seeded edges are not identities."""
    box2, box3 = _box(2), _box(3)
    a = models.induced_square_morphism(
        {"0": "0", "1": "1"}, {"0>0": "0>0", "0>1": "0>1", "1>0": "1>0", "1>1": "1>1"}, box2, box3
    )
    b = models.induced_square_morphism(
        {"0": "1", "1": "2"}, {"0>0": "1>1", "0>1": "1>2", "1>0": "2>1", "1>1": "2>2"}, box2, box3
    )
    return a, b


def test_interval_loop_is_certified_and_checked_in_under_10_ms():
    a, b = _interval_loop_pair()
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        divergence = find_divergence(a, b)
        fault = check_divergence(a, b, divergence)
        best = min(best, time.perf_counter() - start)
    assert fault is None
    assert divergence["path"] == [["0>1", 1]] and divergence["sum"] == 1
    assert best < 0.010, best


def test_two_intervals_glued_at_both_ends_is_a_circle():
    f, g = _circle_legs()
    result, leg_b, leg_c = colimits.pushout(f, g)
    assert (result.status, result.object, leg_b, leg_c) == ("budget_exceeded", None, None, None)
    assert result.generators_added == 0
    # one arc out, the other arc back: a closed path of two edges
    assert result.divergence["path"] == [["1.0>1", 1], ["0.0>1", -1]]
    assert result.divergence["sum"] == 1
    assert check_divergence(*pushout_pair(f, g), result.divergence) is None
    # JSON-safe: the certificate survives a round trip and still checks
    again = json.loads(json.dumps(result.divergence))
    assert again == result.divergence
    assert check_divergence(*pushout_pair(f, g), again) is None


def test_a_shift_along_the_interval_is_certified():
    a, b = _shift_pair()
    assert validate_morphism(a).ok and validate_morphism(b).ok
    divergence = find_divergence(a, b)
    assert divergence["phi"]["0>1"] == divergence["phi"]["1>2"] != 0
    assert check_divergence(a, b, divergence) is None


def _tampered(case: str):
    """A certificate with one fault, its pair, and the fault's message."""
    if case == "phi changed on one edge":
        a, b = _interval_loop_pair()
        divergence = find_divergence(a, b)
        divergence["phi"]["0>1"] = 2
        return a, b, divergence, "phi is not additive"
    if case == "seed pair broken":
        # additive (a coboundary of 0, 1, 3 on the objects) but unequal on
        # the seeded pair 0>1 ~ 1>2
        a, b = _shift_pair()
        divergence = find_divergence(a, b)
        height = {"0": 0, "1": 1, "2": 3}
        divergence["phi"] = {e: height[e[2]] - height[e[0]] for e in divergence["phi"]}
        return a, b, divergence, "phi differs on the seeded pair 0>1, 1>2"
    a, b = pushout_pair(*_circle_legs())
    divergence = find_divergence(a, b)
    divergence["path"].pop()
    return a, b, divergence, "the path is not closed"


@pytest.mark.parametrize("case", ["phi changed on one edge", "seed pair broken", "path opened"])
def test_a_tampered_certificate_is_rejected(case):
    a, b, divergence, fault = _tampered(case)
    got = check_divergence(a, b, divergence)
    assert got is not None and got.startswith(fault), got


def test_the_checker_rejects_a_coboundary_and_a_wrong_sum():
    a, b = pushout_pair(*_circle_legs())
    divergence = find_divergence(a, b)
    # h = 1 on the class of the 1 ends: zero on every closed path, and on no
    # spanning forest
    phi = {e: int(e[4] == "1") - int(e[2] == "1") for e in divergence["phi"]}
    coboundary = dict(divergence, phi=phi)
    assert check_divergence(a, b, coboundary).startswith("phi is not zero on a spanning forest")
    wrong_sum = dict(divergence, sum=2)
    assert check_divergence(a, b, wrong_sum).startswith("the path's phi-sum is 1")


def test_z2_free_product_gets_no_certificate_and_reaches_the_engine():
    # box(z2) + box(z2) at a point: Z2 * Z2 is infinite, but has no nonzero
    # map to Z, so the engine runs until its budget
    box_z2 = models.square_model(models.cyclic_group(2))
    a, b = glue_at_point(box_z2, box_z2)
    assert find_divergence(a, b) is None
    q = colimits.coequalise(a, b, budget=500)
    assert q.status == "budget_exceeded" and q.divergence is None
    assert q.stats["elements"] == 501 and q.generators_added > 0


def test_box_z2_and_the_crossed_module_at_a_point_get_no_certificate():
    box_z2 = models.square_model(models.cyclic_group(2))
    pair = pushout_pair(include_point(box_z2, "o"), include_point(xmod_model(0, factors=1), "o"))
    assert find_divergence(*pair) is None


# -- no finite quotient gets a certificate -----------------------------------------


def test_no_finite_fingerprint_case_is_certified():
    recorded = json.loads(COEQ_FILE.read_text(encoding="utf-8"))
    certified = set()
    for name, (pair, _) in COEQ_PAIRS.items():
        divergence = find_divergence(*pair())
        if divergence is not None:
            assert recorded[name]["status"] == "budget_exceeded", name
            certified.add(name)
    assert certified == {"interval_loop_default_budget"}


def test_no_corpus_pair_is_certified():
    # the 98 pinned builder pairs: finite quotients, and gluings of finite
    # groups (Z2 * Z2, Z3 * Z3, ...) with no map to Z
    recorded = json.loads(CORPUS_FILE.read_text(encoding="utf-8"))
    corpus = builder_corpus()
    assert len(corpus) == len(recorded) == 98
    assert any(fingerprint["status"] == "finite" for fingerprint in recorded.values())
    for name, (pair, _) in sorted(corpus.items()):
        assert find_divergence(*pair()) is None, name


@pytest.mark.parametrize("n, cover", [(3, ["01", "12"]), (4, ["012", "123"]), (5, ["012", "234"])])
def test_the_van_kampen_ladder_is_not_certified(n, cover):
    a, b, _ = colimits.vk_sequence(models.indiscrete_groupoid(n), [list(u) for u in cover])
    assert find_divergence(a, b) is None


def test_a_cover_whose_overlaps_form_a_circle_is_certified():
    # indiscrete(3) covered by the three edges of a triangle: the pairwise
    # overlaps are single objects, so the cover sequence glues three
    # intervals into a circle, and its quotient is not the global model
    a, b, _ = colimits.vk_sequence(models.indiscrete_groupoid(3), [["0", "1"], ["1", "2"], ["0", "2"]])
    divergence = find_divergence(a, b)
    assert divergence is not None and check_divergence(a, b, divergence) is None
    assert len(divergence["path"]) == 3


def _presentation(edges: dict, compose=None, eps=None, inverse=None):
    """A one-object edge table that skipped the axiom suite, and the pair of
    maps into it from the empty model: ``find_divergence`` reads its tables
    as a presentation."""
    base = DoubleGC(
        objects=("o",), edges={e: EdgeEnds("o", "o") for e in edges}, squares={},
        edge_compose=compose or {}, compose1={}, compose2={}, eps=eps or {}, eps1={}, eps2={},
        gamma_minus={}, gamma_plus={}, kind="groupoid", edge_inverse=inverse or {},
    )
    empty = replace(base, objects=(), edges={}, edge_compose={}, eps={}, edge_inverse={})
    a = DoubleMorphism(empty, base, {}, {}, {})
    return a, a


def test_no_edge_off_the_spanning_forest_gets_no_certificate():
    # the empty model: no edge is left once the forest is taken
    nothing = models.FiniteCategory(objects=(), arrows={}, compose={}, identity={})
    empty = models.square_model(nothing)
    a = DoubleMorphism(empty, empty, {}, {}, {})
    assert validate_morphism(a).ok
    assert find_divergence(a, a) is None


def test_back_substitution_rescales_a_pivot_that_does_not_divide():
    # y y = x with x before y: y is the pivot of 2 phi(y) - phi(x) = 0, and
    # phi(x) = 1 leaves phi(y) = 1/2, so the values are doubled
    a, b = _presentation(("i", "x", "y"), compose={("y", "y"): "x"}, eps={"o": "i"})
    divergence = find_divergence(a, b)
    assert divergence == {"path": [["x", 1]], "phi": {"i": 0, "x": 2, "y": 1}, "sum": 2}
    assert check_divergence(a, b, divergence) is None


def _broken(case: str):
    """A certificate broken one more way, its pair, and the checker's message."""
    if case == "identity":  # no composite of i with itself makes phi(i) = 0
        a, b = _presentation(("i", "x"), eps={"o": "i"})
        divergence = {"path": [["x", 1]], "phi": {"i": 1, "x": 1}, "sum": 1}
        return a, b, divergence, "phi is not zero on the identity i"
    if case == "inverse":  # no composite of x with y makes phi(y) = -phi(x)
        a, b = _presentation(("x", "y"), inverse={"x": "y", "y": "x"})
        divergence = {"path": [["x", 1]], "phi": {"x": 1, "y": 1}, "sum": 1}
        return a, b, divergence, "phi does not negate the inverse of x"
    a, b = pushout_pair(*_circle_legs())
    divergence = find_divergence(a, b)
    if case == "not an integer":
        divergence["phi"]["1.0>1"] = 1.0
        return a, b, divergence, "phi is not an integer on each edge"
    if case == "an edge missing":
        del divergence["phi"]["0.0>0"]
        return a, b, divergence, "phi is not an integer on each edge"
    if case == "empty path":
        return a, b, dict(divergence, path=[]), "the path is empty"
    for step in (["nosuch", 1], ["1.0>1", 2]):
        if case == f"step {step[0]} {step[1]}":
            fault = f"the path step {step[0]} {step[1]} is not an edge walked either way"
            return a, b, dict(divergence, path=[step]), fault
    # 1.0>1 ends at the class of the 1 ends; 0.0>1 starts at the 0 ends
    broken = dict(divergence, path=[["1.0>1", 1], ["0.0>1", 1]])
    return a, b, broken, "the path breaks before 0.0>1"


@pytest.mark.parametrize(
    "case",
    [
        "identity", "inverse", "not an integer", "an edge missing", "empty path",
        "step nosuch 1", "step 1.0>1 2", "broken",
    ],
)
def test_a_broken_certificate_is_rejected(case):
    a, b, divergence, fault = _broken(case)
    assert check_divergence(a, b, divergence) == fault
