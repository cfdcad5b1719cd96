"""Colimits: coproducts, coequalisers with saturation, pushouts, iso search."""
import dataclasses
import itertools
import json
from typing import Optional

import pytest

import coeq_oracle
from cubal import colimits, core, models
from cubal.core import DoubleGC
from cubal.colimits import (
    coequalise,
    coproduct,
    factor_through,
    iso_check,
    pushout,
    vk_harness,
    vk_sequence,
)
from cubal.divergence import check_divergence
from cubal.errors import InputMismatch, NotAGroupoid, NotCoequalised, WellDefinednessFailure
from cubal.models import (
    cyclic_group,
    disjoint_union,
    full_sub_double,
    indiscrete_groupoid,
    shift_model,
    square_model,
    trivial_category,
)
from cubal.morphisms import (
    DoubleMorphism,
    compose_morphisms,
    identity_morphism,
    validate_morphism,
)
from cubal.reports import Report
from glue_oracle import check_universal
from test_replay_compiled import zero_monoid_box


def include_point(target, obj):
    """The unique morphism out of the trivial square model onto an object."""
    triv = square_model(trivial_category())
    e = target.eps[obj]
    return DoubleMorphism(
        source=triv,
        target=target,
        f0={"o": obj},
        f1={"0": e},
        f2={"q0|0|0|0": target.eps1[e]},
    )


def empty_model() -> DoubleGC:
    tables = {op.field: {} for op in core.OPS}
    return DoubleGC(objects=(), edges={}, squares={}, kind="groupoid", **tables)


def test_validate_morphism_identity(zz2):
    assert validate_morphism(identity_morphism(zz2)).ok


def test_validate_morphism_induced_inclusion(box_ind2, box_ind3):
    arrow_map = {a: a for a in indiscrete_groupoid(2).arrows}
    f = models.induced_square_morphism(
        {"0": "0", "1": "1"}, arrow_map, box_ind2, box_ind3
    )
    assert validate_morphism(f).ok


def test_validate_morphism_object_image_off_the_target(zz2):
    idm = identity_morphism(zz2)
    bad = DoubleMorphism(source=zz2, target=zz2, f0={"o": "zzz"}, f1=idm.f1, f2=idm.f2)
    rep = validate_morphism(bad)
    assert rep.violations == [("map-totality", ("o",))]


def test_validate_morphism_broken_connection(zz2):
    f2 = {s: s for s in zz2.squares}
    f2[zz2.gamma_minus["1"]] = zz2.eps1["1"]
    bad = DoubleMorphism(
        source=zz2,
        target=zz2,
        f0={o: o for o in zz2.objects},
        f1={e: e for e in zz2.edges},
        f2=f2,
    )
    rep = validate_morphism(bad)
    assert not rep.ok
    assert any(fam == "connection-minus" for fam, _ in rep.violations)


def test_validate_morphism_of_categories_checks_no_inverse():
    rep = validate_morphism(identity_morphism(zero_monoid_box()))
    assert rep.ok
    inverse_families = {core.OP[comp.inv].family for comp in core.COMPS}
    assert not inverse_families & set(rep.checked_count)


def test_validate_morphism_edge_off_its_endpoints(box_ind2):
    idm = identity_morphism(box_ind2)
    bad = DoubleMorphism(box_ind2, box_ind2, idm.f0, {**idm.f1, "0>1": "1>0"}, idm.f2)
    rep = validate_morphism(bad)
    assert [w for fam, w in rep.violations if fam == "edge-endpoints"] == [("0>1",)]
    assert any(fam == "square-faces" for fam, _ in rep.violations)


def test_coproduct_counts_and_validation(zz2):
    z3 = square_model(cyclic_group(3))
    out, (i0, i1) = coproduct([zz2, z3])
    assert len(out.objects) == 2
    assert len(out.edges) == 5
    assert len(out.squares) == 8 + 27
    assert core.validate(out).ok
    assert validate_morphism(i0).ok and validate_morphism(i1).ok


def test_coproduct_single_is_isomorphic(zz2):
    out, _ = coproduct([zz2])
    assert iso_check(out, zz2) is not None


def test_coequalise_identity_pair(zz2):
    idm = identity_morphism(zz2)
    q = coequalise(idm, idm)
    assert q.status == "finite"
    assert q.generators_added == 0
    assert iso_check(q.object, zz2) is not None
    assert validate_morphism(q.projection).ok
    assert core.validate(q.object).ok


def test_coequalise_requires_groupoid():
    from dataclasses import replace

    m = square_model(cyclic_group(2))
    cat = replace(m, kind="category", edge_inverse={}, inverse1={}, inverse2={})
    idm = identity_morphism(cat)
    with pytest.raises(NotAGroupoid):
        coequalise(idm, idm)


def test_coequalise_mismatched_pair(zz2, box_ind2):
    with pytest.raises(InputMismatch):
        coequalise(identity_morphism(zz2), identity_morphism(box_ind2))


def test_indiscrete_cover_coequaliser(box_ind3):
    # two charts glued along their overlap rebuild the global model
    a, b, full = vk_sequence(indiscrete_groupoid(3), [["0", "1"], ["1", "2"]])
    assert validate_morphism(a).ok and validate_morphism(b).ok
    q = coequalise(a, b)
    assert q.status == "finite"
    assert core.validate(q.object).ok
    assert iso_check(q.object, full) is not None
    # projection equalises the pair
    pa = compose_morphisms(a, q.projection)
    pb = compose_morphisms(b, q.projection)
    assert pa.maps() == pb.maps()


def test_factor_through_projection_is_identity(box_ind3):
    a, b, _ = vk_sequence(indiscrete_groupoid(3), [["0", "1"], ["1", "2"]])
    q = coequalise(a, b)
    f = factor_through(q, q.projection)
    assert f.maps() == identity_morphism(q.object).maps()


def test_factor_through_canonical_cover_map():
    # f: charts -> global model, induced by dropping the chart tags
    cat = indiscrete_groupoid(3)
    a, b, full = vk_sequence(cat, [["0", "1"], ["1", "2"]])
    target = a.target
    f = DoubleMorphism(
        source=target,
        target=full,
        f0={o: o.split(".", 1)[1] for o in target.objects},
        f1={e: e.split(".", 1)[1] for e in target.edges},
        f2={s: s.split(".", 1)[1] for s in target.squares},
    )
    assert validate_morphism(f).ok
    q = coequalise(a, b)
    F = factor_through(q, f)
    assert compose_morphisms(q.projection, F).maps() == f.maps()
    rep = check_universal(q, f)
    assert rep.ok, rep.to_text()
    # F is in fact the isomorphism with the global model
    assert validate_morphism(F).ok
    assert len(set(F.f2.values())) == len(full.squares)


def test_factor_through_rejects_non_equalising(box_ind3):
    a, b, _ = vk_sequence(indiscrete_groupoid(3), [["0", "1"], ["1", "2"]])
    q = coequalise(a, b)
    # a morphism that distinguishes the two charts cannot factor
    target = a.target
    collapse = square_model(trivial_category())
    f0 = {o: "o" for o in target.objects}
    f1 = {e: "0" for e in target.edges}
    f2 = {s: "q0|0|0|0" for s in target.squares}
    good = DoubleMorphism(source=target, target=collapse, f0=f0, f1=f1, f2=f2)
    assert validate_morphism(good).ok
    assert factor_through(q, good) is not None
    bad_target, _ = coproduct([collapse, collapse])
    f0 = {o: ("0.o" if o.startswith("0.") else "1.o") for o in target.objects}
    f1 = {e: ("0.0" if e.startswith("0.") else "1.0") for e in target.edges}
    f2 = {
        s: ("0.q0|0|0|0" if s.startswith("0.") else "1.q0|0|0|0")
        for s in target.squares
    }
    bad = DoubleMorphism(source=target, target=bad_target, f0=f0, f1=f1, f2=f2)
    assert validate_morphism(bad).ok
    with pytest.raises(NotCoequalised):
        factor_through(q, bad)


def test_collapse_coequaliser(zz2):
    # identify the two edges of the 2-element group: everything collapses
    trivial_hom = models.induced_square_morphism(
        {"o": "o"}, {"0": "0", "1": "0"}, zz2, zz2
    )
    assert validate_morphism(trivial_hom).ok
    q = coequalise(identity_morphism(zz2), trivial_hom)
    assert q.status == "finite"
    assert iso_check(q.object, square_model(trivial_category())) is not None


def test_interval_loop_budget_exceeded():
    # identifying the endpoints of the interval creates a free loop: the
    # quotient edge group is the integers, saturation cannot terminate.  The
    # edge 0>1 is that loop, and phi(0>1) = 1 proves it: no saturation runs
    bx = square_model(indiscrete_groupoid(2))
    a = include_point(bx, "0")
    b = include_point(bx, "1")
    q = coequalise(a, b, budget=400)
    assert q.status == "budget_exceeded"
    assert q.object is None and q.projection is None
    assert q.generators_added == 0 and q.stats == {"elements": 0, "budget": 400, "rows": 0}
    assert q.divergence == {
        "path": [["0>1", 1]],
        "phi": {"0>0": 0, "0>1": 1, "1>0": -1, "1>1": 0},
        "sum": 1,
    }
    assert check_divergence(a, b, q.divergence) is None


def test_budget_bounds_stored_rows_on_the_interval_loop():
    # the budget counts elements; composites of thin squares are answered by
    # shell, not stored, so the rows stay in proportion to the elements.
    # The engine itself: ``coequalise`` answers this pair by its certificate
    bx = square_model(indiscrete_groupoid(2))
    q = colimits._run_engine(include_point(bx, "0"), include_point(bx, "1"), colimits.DEFAULT_BUDGET)
    assert q.status == "budget_exceeded"
    assert q.stats["elements"] == q.stats["budget"] + 1
    assert q.stats["rows"] <= 2 * q.stats["budget"]


def test_base_over_budget_is_budget_exceeded(zz2):
    q = coequalise(identity_morphism(zz2), identity_morphism(zz2), budget=5)
    assert q.status == "budget_exceeded" and q.generators_added == 0


def test_quotient_stats_are_json_safe(zz2):
    finite = coequalise(identity_morphism(zz2), identity_morphism(zz2))
    bx = square_model(indiscrete_groupoid(2))
    exceeded = coequalise(include_point(bx, "0"), include_point(bx, "1"), budget=400)
    assert (finite.status, exceeded.status) == ("finite", "budget_exceeded")
    for q in (finite, exceeded):
        assert json.loads(json.dumps(q.stats)) == q.stats
    assert finite.divergence is None
    assert json.loads(json.dumps(exceeded.divergence)) == exceeded.divergence


def test_pushout_of_two_z2_along_point_diverges(zz2):
    # frozen fixture: the glued edge group is the free product Z2 * Z2,
    # which is infinite, so no finite fixed point exists
    inc = include_point(zz2, "o")
    result, leg_b, leg_c = pushout(inc, inc, budget=500)
    assert result.status == "budget_exceeded"
    assert leg_b is None and leg_c is None
    # Z2 * Z2 has no nonzero map to Z: no certificate, the engine ran
    assert result.divergence is None and result.generators_added > 0


def test_pushout_over_empty_apex_is_coproduct(zz2):
    empty = empty_model()
    z3 = square_model(cyclic_group(3))
    f = DoubleMorphism(source=empty, target=zz2, f0={}, f1={}, f2={})
    g = DoubleMorphism(source=empty, target=z3, f0={}, f1={}, f2={})
    result, leg_b, leg_c = pushout(f, g)
    assert result.status == "finite"
    expected, _ = coproduct([zz2, z3])
    assert iso_check(result.object, expected) is not None
    assert validate_morphism(leg_b).ok and validate_morphism(leg_c).ok


def test_pushout_identity_legs_recover_apex(zz2):
    idm = identity_morphism(zz2)
    result, _, _ = pushout(idm, idm)
    assert result.status == "finite"
    assert iso_check(result.object, zz2) is not None


def test_pushout_route_agrees_with_cover_route():
    # two-set cover: the pushout of the two overlap inclusions matches the
    # coequaliser of the cover sequence
    cat = indiscrete_groupoid(3)
    full = square_model(cat)
    sub_u, _ = full_sub_double(full, ["0", "1"])
    sub_v, _ = full_sub_double(full, ["1", "2"])
    overlap, _ = full_sub_double(full, ["1"])
    f = DoubleMorphism(
        source=overlap,
        target=sub_u,
        f0={o: o for o in overlap.objects},
        f1={e: e for e in overlap.edges},
        f2={s: s for s in overlap.squares},
    )
    g = DoubleMorphism(
        source=overlap,
        target=sub_v,
        f0={o: o for o in overlap.objects},
        f1={e: e for e in overlap.edges},
        f2={s: s for s in overlap.squares},
    )
    result, leg_b, leg_c = pushout(f, g)
    assert result.status == "finite"
    assert iso_check(result.object, full) is not None
    a, b, _ = vk_sequence(cat, [["0", "1"], ["1", "2"]])
    q = coequalise(a, b)
    assert iso_check(result.object, q.object) is not None


def test_square_only_coequaliser_on_shift_models(shift2):
    # identify the two factor embeddings of the Klein four-group shift model:
    # no objects or edges merge, only the square dimension is quotiented
    k4 = shift_model(models.product(cyclic_group(2), cyclic_group(2)))
    a = DoubleMorphism(
        source=shift2,
        target=k4,
        f0={"o": "o*o"},
        f1={"e": "e"},
        f2={"s0": "s0*0", "s1": "s1*0"},
    )
    b = DoubleMorphism(
        source=shift2,
        target=k4,
        f0={"o": "o*o"},
        f1={"e": "e"},
        f2={"s0": "s0*0", "s1": "s0*1"},
    )
    assert validate_morphism(a).ok and validate_morphism(b).ok
    q = coequalise(a, b)
    assert q.status == "finite"
    assert len(q.object.squares) == 2
    assert core.validate(q.object).ok
    assert iso_check(q.object, shift2) is not None
    rep = check_universal(q, q.projection)
    assert rep.ok


def test_non_thin_root_made_thin(monkeypatch):
    # shift(Z2) with unit y: the non-thin sx is installed first (index 0), so
    # merging it with the thin sy leaves the root sx, which was not thin;
    # _make_thin files it and answers its stored rows by shell
    op = {(g, h): "y" if g == h else "x" for g in "xy" for h in "xy"}
    z2 = shift_model(models.group_as_groupoid(["x", "y"], op, "y"))
    collapse = DoubleMorphism(
        source=z2, target=z2, f0={"o": "o"}, f1={"e": "e"}, f2={"sx": "sy", "sy": "sy"}
    )
    assert validate_morphism(collapse).ok
    was_thin = []
    make_thin = colimits._Engine._make_thin

    def spy(engine, s):
        was_thin.append(s in engine.thin)
        make_thin(engine, s)

    monkeypatch.setattr(colimits._Engine, "_make_thin", spy)
    q = coequalise(identity_morphism(z2), collapse)
    assert was_thin.count(False) == 1
    assert (q.status, q.generators_added) == ("finite", 0)
    assert [len(cells) for cells in q.object.cells()] == [1, 1, 1]
    assert iso_check(q.object, shift_model(trivial_category())) is not None
    old = coeq_oracle.coequalise(identity_morphism(z2), collapse)
    assert iso_check(q.object, old.object) is not None


def test_rules_pass_skips_a_row_that_a_merge_answers_by_shell(shift2):
    # a merge applied after one row's instances can make both arguments of
    # a later row of the same pass thin: that row now reads by shell and
    # left the table, so its associativity and interchange instances are
    # skipped, as every instance of two thin squares holds by shell
    engine = colimits._Engine(shift2, colimits.DEFAULT_BUDGET)
    s0, s1 = (engine.b_index[core.SQR][s] for s in ("s0", "s1"))
    drain, run_assoc = engine.drain, engine._run_assoc
    stale = []

    def collapse_then_drain():
        engine.merge(core.SQR, s1, s0)  # a no-op after the first call
        drain()

    def spy(op, key):
        stale.append(engine._canon_key(key) not in engine.sig)
        run_assoc(op, key)

    engine.drain, engine._run_assoc = collapse_then_drain, spy
    engine.rules_pass(core.SQR)
    assert stale[0] is False and all(stale[1:]) and len(stale) > 1
    assert not engine.queue
    assert engine.thin == {s0} and not [k for k in engine.sig if k[0] in ("c1", "c2")]


def test_gluing_at_a_point_meets_thin_squares_over_uncomposed_edges(monkeypatch):
    # box(z2) and the crossed-module model glued at their object: a square
    # rules pass merges edges, and so makes edges composable that the next
    # round's edge pass has not composed yet.  Thin partners over them have
    # no composite shell yet, and interchange arrays over them lack a
    # composite; both are skipped until a later round has the composites
    missing, skipped = [], []
    thin_composite = colimits._Engine._thin_composite
    interchange = colimits._Engine._interchange

    def spy_thin(engine, comp, a, b):
        sa, sb = engine._filed(a), engine._filed(b)
        if sa and sb and sa[comp.hi] == sb[comp.lo]:
            missing.append(any(engine.sig.get(("ce", sa[m], sb[m])) is None for m in comp.mid))
        return thin_composite(engine, comp, a, b)

    def spy_interchange(engine, *squares):
        skipped.append(None in squares)
        interchange(engine, *squares)

    monkeypatch.setattr(colimits._Engine, "_thin_composite", spy_thin)
    monkeypatch.setattr(colimits._Engine, "_interchange", spy_interchange)
    box2 = square_model(cyclic_group(2))
    point_b, point_x = include_point(box2, "o"), include_point(xmod_model(0, factors=1), "o")
    result, _, _ = pushout(point_b, point_x, budget=400)
    assert result.status == "budget_exceeded" and result.divergence is None
    assert any(missing) and any(skipped)


def test_goc_of_thin_squares_without_a_composite_shell_makes_its_thin_filler():
    # once the two objects of box(z2) + box(z2) merge, 0.q0|0|1|1 over
    # 1.q0|0|1|1 composes, but no edge row composes 0.1 with 1.1 yet: goc
    # composes the edges and files a fresh thin square on the composite shell
    base, _ = coproduct([square_model(cyclic_group(2))] * 2)
    engine = colimits._Engine(base, colimits.DEFAULT_BUDGET)
    index = engine.b_index
    engine.merge(core.OBJ, index[core.OBJ]["0.o"], index[core.OBJ]["1.o"])
    engine.drain()
    a, b = (index[core.SQR][f"{i}.q0|0|1|1"] for i in "01")
    c1 = colimits._COMPS["c1"]
    assert engine._thin_composite(c1, a, b) is None
    squares = len(engine.parent[core.SQR])
    c = engine.goc("c1", a, b)
    assert c == squares and c in engine.thin and engine.origin[core.SQR][c] == ("c1", a, b)
    edge = {name: engine.find(core.EDG, i) for name, i in index[core.EDG].items()}
    unit = edge["0.0"]
    assert edge["1.0"] == unit  # the identities merged with the objects
    ones = engine.lookup(("ce", edge["0.1"], edge["1.1"]))
    assert engine._filed(c) == (unit, unit, ones, ones)
    assert engine.goc("c1", a, b) == c


def test_vk_disconnected_cover_of_connected_groupoid_is_a_fixture():
    # singleton charts of a connected groupoid lose the connecting arrows;
    # the coequaliser is the disjoint pair, the harness records the gap
    cat = models.product(cyclic_group(2), indiscrete_groupoid(2))
    rep, result = vk_harness(cat, [["o*0"], ["o*1"]])
    assert result.status == "finite"
    assert core.validate(result.object).ok
    assert not rep.ok
    assert any(fam == "vk-coequaliser-iso" for fam, _ in rep.violations)
    piece = square_model(cyclic_group(2))
    two_pieces, _ = coproduct([piece, piece])
    assert iso_check(result.object, two_pieces) is not None


def test_eckmann_hilton_gluing(shift2):
    # gluing two shift models at the object abelianises the free product:
    # the square dimension becomes the Klein four-group
    inc = include_point(shift2, "o")
    # the trivial square model maps onto the identity square of the shift model
    inc = DoubleMorphism(
        source=inc.source, target=shift2, f0={"o": "o"}, f1={"0": "e"}, f2={"q0|0|0|0": "s0"}
    )
    result, _, _ = pushout(inc, inc, budget=2000)
    assert result.status == "finite"
    assert core.validate(result.object).ok
    klein = shift_model(models.product(cyclic_group(2), cyclic_group(2)))
    assert iso_check(result.object, klein) is not None


def test_coequaliser_is_deterministic():
    cat = indiscrete_groupoid(3)
    runs = []
    for _ in range(2):
        a, b, _ = vk_sequence(cat, [["0", "1"], ["1", "2"]])
        q = coequalise(a, b)
        runs.append(q)
    assert runs[0].object == runs[1].object
    assert runs[0].projection.f2 == runs[1].projection.f2
    assert runs[0].generators_added == runs[1].generators_added


def test_projection_preserves_thinness():
    from cubal.thin import thin_set

    cat = indiscrete_groupoid(3)
    a, b, _ = vk_sequence(cat, [["0", "1"], ["1", "2"]])
    q = coequalise(a, b)
    ts_base = thin_set(a.target)
    ts_quot = thin_set(q.object)
    for s in sorted(a.target.squares):
        if s in ts_base:
            assert q.projection.f2[s] in ts_quot


def xmod_square(t: str, u: str, l: str, r: str, m) -> str:
    return f"q{t}|{u}|{l}|{r}|{m}"


def xmod_model(act_factor: int, factors: int = 2) -> DoubleGC:
    """γ(C) for P = Z2^factors acting on M = Z3 by inversion through one factor, ∂ = 0.

    The one-object crossed module C has trivial ∂, so a square is a commuting
    shell (t, u, l, r), l+u = t+r in P, carrying an m in M: with the default
    P = Z2×Z2, 64 shells and 192 squares; with P = Z2, 8 shells and 24
    squares (Brown and Spencer, Cahiers 17, 1976).  ``+1`` composes to
    m + l·n and ``+2`` to m + t·n; identities and connections carry m = 0;
    the inverses are (u, t, -l, -r; -((-l)·m)) and (-t, -u, r, l; -((-t)·m)).
    """
    P = list(itertools.product(range(2), repeat=factors))
    add = lambda p, q: tuple((x + y) % 2 for x, y in zip(p, q))
    neg = lambda p: p
    act = lambda p, m: -m % 3 if p[act_factor] else m
    edge = lambda p: "".join(map(str, p))
    sq = lambda t, u, l, r, m: xmod_square(edge(t), edge(u), edge(l), edge(r), m)
    zero = (0,) * factors
    shells = [(t, u, l, r) for t in P for u in P for l in P for r in P if add(l, u) == add(t, r)]
    squares, compose1, compose2, inverse1, inverse2 = {}, {}, {}, {}, {}
    for t, u, l, r in shells:
        for m in range(3):
            a = sq(t, u, l, r, m)
            squares[a] = core.SquareFaces(edge(t), edge(u), edge(l), edge(r))
            inverse1[a] = sq(u, t, neg(l), neg(r), -act(neg(l), m) % 3)
            inverse2[a] = sq(neg(t), neg(u), r, l, -act(neg(t), m) % 3)
            for t2, u2, l2, r2 in shells:
                for n in range(3):
                    b = sq(t2, u2, l2, r2, n)
                    if u == t2:
                        compose1[(a, b)] = sq(t, u2, add(l, l2), add(r, r2), (m + act(l, n)) % 3)
                    if r == l2:
                        compose2[(a, b)] = sq(add(t, t2), add(u, u2), l, r2, (m + act(t, n)) % 3)
    return DoubleGC(
        objects=("o",),
        edges={edge(p): core.EdgeEnds("o", "o") for p in P},
        squares=squares,
        edge_compose={(edge(p), edge(q)): edge(add(p, q)) for p in P for q in P},
        compose1=compose1,
        compose2=compose2,
        eps={"o": edge(zero)},
        eps1={edge(p): sq(p, p, zero, zero, 0) for p in P},
        eps2={edge(p): sq(zero, zero, p, p, 0) for p in P},
        gamma_minus={edge(p): sq(p, zero, p, zero, 0) for p in P},
        gamma_plus={edge(p): sq(zero, p, zero, p, 0) for p in P},
        kind="groupoid",
        edge_inverse={edge(p): edge(neg(p)) for p in P},
        inverse1=inverse1,
        inverse2=inverse2,
    )


def factor_swap(d: DoubleGC, e: DoubleGC) -> DoubleMorphism:
    """The map of ``xmod_model(0)`` onto ``xmod_model(1)`` that swaps P's factors."""
    swap = lambda x: x[::-1]
    return DoubleMorphism(
        source=d,
        target=e,
        f0={"o": "o"},
        f1={x: swap(x) for x in d.edges},
        f2={s: xmod_square(*map(swap, d.squares[s]), s[-1]) for s in d.squares},
    )


def test_iso_check_identity_and_counts(zz2):
    iso = iso_check(zz2, zz2)
    assert iso is not None and validate_morphism(iso).ok
    z3 = square_model(cyclic_group(3))
    assert iso_check(zz2, z3) is None  # 8 squares versus 27


def scan_iso_check(
    d: DoubleGC, e: DoubleGC, node_budget: int = 10**6
) -> Optional[DoubleMorphism]:
    """Differential oracle: ``iso_check`` as it was before its incremental checks.

    At every search node it rescans every composition-table entry whose three
    elements are assigned.  ``iso_check`` checks each entry once, when its
    last element is assigned, and must return the same map (or None) at every
    node budget on the pairs of ``_iso_pairs``.

    This is also the search from before the single search loop: for each
    object map it lifts only the first edge map the edge search finds, so it
    returns None on the crossed-module witness (``xmod_model(0)`` against
    ``xmod_model(1)``), which ``iso_check`` must find isomorphic.
    """
    if (
        len(d.objects) != len(e.objects)
        or len(d.edges) != len(e.edges)
        or len(d.squares) != len(e.squares)
        or d.kind != e.kind
    ):
        return None

    def obj_profile(m: DoubleGC, o: str) -> tuple:
        outs = sum(1 for x in m.edges.values() if x.src == o)
        ins = sum(1 for x in m.edges.values() if x.tgt == o)
        loops = sum(1 for x in m.edges.values() if x.src == o and x.tgt == o)
        return (outs, ins, loops)

    d_objs = sorted(d.objects)
    e_by_profile: dict[tuple, list[str]] = {}
    for o in sorted(e.objects):
        e_by_profile.setdefault(obj_profile(e, o), []).append(o)
    candidates = {o: e_by_profile.get(obj_profile(d, o), []) for o in d_objs}
    if any(not candidates[o] for o in d_objs):
        return None

    state = {"nodes": 0}
    d_idents = set(d.eps.values())
    e_idents = set(e.eps.values())
    d_edges = sorted(d.edges)
    e_edges_by_key: dict[tuple, list[str]] = {}
    for x in sorted(e.edges):
        ends = e.edges[x]
        e_edges_by_key.setdefault((ends.src, ends.tgt, x in e_idents), []).append(x)
    d_squares = sorted(d.squares)
    e_sq_by_faces: dict[tuple, list[str]] = {}
    for s in sorted(e.squares):
        e_sq_by_faces.setdefault(tuple(e.squares[s]), []).append(s)

    def solve(items: list[str], candidates, tables) -> Optional[dict[str, str]]:
        f: dict[str, str] = {}
        used: set[str] = set()

        def preserved() -> bool:
            for d_table, e_table in tables:
                for (x, y), z in d_table.items():
                    if x in f and y in f and z in f:
                        if e_table.get((f[x], f[y])) != f[z]:
                            return False
            return True

        def step(i: int) -> bool:
            if i == len(items):
                return True
            state["nodes"] += 1
            if state["nodes"] > node_budget:
                return False
            x = items[i]
            for cand in candidates(x):
                if cand in used:
                    continue
                f[x] = cand
                used.add(cand)
                if preserved() and step(i + 1):
                    return True
                used.discard(cand)
                del f[x]
            return False

        return f if step(0) else None

    def obj_step(i: int, f0: dict[str, str], used: set[str]):
        if state["nodes"] > node_budget:
            return None
        if i == len(d_objs):
            f1 = solve(
                d_edges,
                lambda x: e_edges_by_key.get(
                    (f0[d.edges[x].src], f0[d.edges[x].tgt], x in d_idents), ()
                ),
                [(d.edge_compose, e.edge_compose)],
            )
            if f1 is None:
                return None
            f2 = solve(
                d_squares,
                lambda s: e_sq_by_faces.get(tuple(f1[x] for x in d.squares[s]), ()),
                [(d.compose1, e.compose1), (d.compose2, e.compose2)],
            )
            if f2 is None:
                return None
            iso = DoubleMorphism(source=d, target=e, f0=dict(f0), f1=f1, f2=f2)
            return iso if validate_morphism(iso).ok else None
        state["nodes"] += 1
        o = d_objs[i]
        for cand in candidates[o]:
            if cand in used:
                continue
            f0[o] = cand
            used.add(cand)
            got = obj_step(i + 1, f0, used)
            if got is not None:
                return got
            used.discard(cand)
            del f0[o]
        return None

    return obj_step(0, {}, set())


def _iso_pairs():
    z2 = cyclic_group(2)
    box3 = square_model(indiscrete_groupoid(3))
    a, b, _ = vk_sequence(indiscrete_groupoid(3), [["0", "1"], ["1", "2"]])
    quotient = coequalise(a, b).object
    klein = square_model(models.product(z2, z2))
    return {
        "zz2": (square_model(z2), square_model(z2)),
        "klein-z4": (klein, square_model(cyclic_group(4))),
        "klein-klein": (klein, klein),
        "shift2": (shift_model(z2), shift_model(z2)),
        "box3-vk": (box3, quotient),
        "vk-box3": (quotient, box3),
    }


def test_iso_check_matches_full_scan(monkeypatch):
    for name, (d, e) in _iso_pairs().items():
        for budget in (1, 5, 50, 10**6):
            monkeypatch.setattr(colimits, "ISO_NODE_BUDGET", budget)
            got = iso_check(d, e)
            want = scan_iso_check(d, e, node_budget=budget)
            maps = [None if m is None else (m.f0, m.f1, m.f2) for m in (got, want)]
            assert maps[0] == maps[1], (name, budget)


def test_iso_check_has_no_recursion_limit():
    # 1,296 squares: a search with one Python frame per item hit the limit
    box6 = square_model(indiscrete_groupoid(6))
    assert iso_check(box6, box6) is not None


def test_iso_check_backtracks_past_edge_maps_that_do_not_lift():
    # The first edge map in search order fixes P's factors; it passes every
    # edge check but lifts to no square map, since only one factor acts.
    d, e = xmod_model(0), xmod_model(1)
    assert validate_morphism(factor_swap(d, e)).ok
    assert scan_iso_check(d, e) is None  # the search that stopped at that edge map
    iso = iso_check(d, e)
    assert iso is not None
    assert validate_morphism(iso).ok


def test_iso_check_backtracks_past_a_full_map_that_fails_validation(box_ind3, monkeypatch):
    # box(indiscrete(3)) has an automorphism for each permutation of its
    # objects; the first complete map is refused, so the search must go on
    # to another one
    refused = []

    def refuse_first(f):
        if refused:
            return validate_morphism(f)
        refused.append((f.f0, f.f1, f.f2))
        rep = Report()
        rep.fail("refused", "first complete map")
        return rep

    monkeypatch.setattr(colimits, "validate_morphism", refuse_first)
    iso = iso_check(box_ind3, box_ind3)
    assert len(refused) == 1
    assert iso is not None
    assert (iso.f0, iso.f1, iso.f2) != refused[0]
    assert validate_morphism(iso).ok


def test_iso_check_of_empty_models_is_the_empty_map():
    iso = iso_check(empty_model(), empty_model())
    assert iso is not None
    assert (iso.f0, iso.f1, iso.f2) == ({}, {}, {})


def test_iso_check_refuses_models_with_unequal_object_profiles():
    # 2 objects, 4 edges and 16 squares each, but box(indiscrete(2)) has one
    # loop at each object and box(Z2 + Z2) two
    d = square_model(indiscrete_groupoid(2))
    e = square_model(disjoint_union(cyclic_group(2), cyclic_group(2)))
    assert d.stats() == e.stats() and d.kind == e.kind
    assert iso_check(d, e) is None
    assert scan_iso_check(d, e) is None


def test_iso_check_refuses_a_model_missing_one_entry_both_ways(zz2):
    # every cell stays, so a map from d preserves each entry d has; only the
    # table sizes tell that its inverse would not
    compose1 = dict(zz2.compose1)
    del compose1[("q0|0|0|0", "q0|1|1|0")]
    d = dataclasses.replace(zz2, compose1=compose1)
    assert iso_check(d, zz2) is None
    assert iso_check(zz2, d) is None


def test_iso_check_distinguishes_klein_from_z4():
    k4 = square_model(models.product(cyclic_group(2), cyclic_group(2)))
    z4 = square_model(cyclic_group(4))
    assert len(k4.edges) == len(z4.edges)
    assert len(k4.squares) == len(z4.squares)
    assert iso_check(k4, z4) is None


def test_vk_disjoint_components():
    cat = disjoint_union(cyclic_group(2), cyclic_group(3))
    rep, result = vk_harness(cat, [["0.o"], ["1.o"]])
    assert rep.ok
    assert result.status == "finite"
    assert result.generators_added == 0
    assert iso_check(result.object, square_model(cat)) is not None


def test_vk_whole_cover_is_trivial(box_ind2):
    rep, result = vk_harness(indiscrete_groupoid(2), [["0", "1"]])
    assert rep.ok
    assert iso_check(result.object, box_ind2) is not None


def test_vk_cover_must_reach_every_object():
    with pytest.raises(InputMismatch, match=r"misses \['2'\]"):
        vk_harness(indiscrete_groupoid(3), [["0", "1"]])
    # an unknown object is named as such, not as a missed one
    with pytest.raises(InputMismatch, match=r"unknown objects \['9'\]$"):
        vk_harness(indiscrete_groupoid(3), [["0", "1"], ["1", "9"]])


def test_vk_sequence_refuses_an_empty_cover():
    with pytest.raises(InputMismatch, match="empty cover"):
        vk_sequence(indiscrete_groupoid(2), [])


def test_vk_harness_past_its_budget_compares_nothing():
    rep, result = vk_harness(indiscrete_groupoid(4), [["0", "1", "2"], ["1", "2", "3"]], budget=60)
    assert result.status == "budget_exceeded" and result.object is None
    assert rep.violations == [("vk-coequaliser-finite", ("budget_exceeded",))]
    assert rep.checked_count == {"vk-coequaliser-finite": 1}


# Every van Kampen case of tier-1: this file's (``cubal vk indiscrete(3)``
# is ind3 01,12), the vK pairs of ``test_golden.COEQ_PAIRS`` that are finite
# at the default budget, and a cover with no overlap; with the expected verdict.
VK_CASES = {
    "ind3 01,12": (lambda: indiscrete_groupoid(3), ["01", "12"], True),
    "ind4 012,123": (lambda: indiscrete_groupoid(4), ["012", "123"], True),
    "ind4 01,12,23": (lambda: indiscrete_groupoid(4), ["01", "12", "23"], True),
    "ind2 whole": (lambda: indiscrete_groupoid(2), ["01"], True),
    "z2+z3 components": (
        lambda: disjoint_union(cyclic_group(2), cyclic_group(3)), [["0.o"], ["1.o"]], True
    ),
    "z2 x ind2 disconnected": (
        lambda: models.product(cyclic_group(2), indiscrete_groupoid(2)), [["o*0"], ["o*1"]], False
    ),
    "ind2 no overlap": (lambda: indiscrete_groupoid(2), ["0", "1"], False),
}


@pytest.mark.parametrize("name", sorted(VK_CASES))
def test_vk_canonical_map_agrees_with_iso_check(name):
    make, cover, iso = VK_CASES[name]
    cat = make()
    rep, result = vk_harness(cat, cover)
    assert result.status == "finite"
    full = square_model(cat)
    canonical = colimits.vk_comparison(result, full)
    assert (canonical is None) == (iso_check(result.object, full) is not None) == iso
    assert rep.ok == iso
    assert rep.checked_count == {"vk-coequaliser-finite": 1, "vk-coequaliser-iso": 1}
    if not iso:
        assert rep.violations == [("vk-coequaliser-iso", (canonical,))]


def test_vk_comparison_names_what_fails():
    cat = indiscrete_groupoid(3)
    a, b, full = vk_sequence(cat, [["0", "1"], ["1", "2"]])
    q = coequalise(a, b)
    assert colimits.vk_comparison(q, full) is None

    def tampered(field: str, edit) -> DoubleGC:
        table = dict(getattr(full, field))
        edit(table)
        return dataclasses.replace(full, **{field: table})

    # a record of the quotient's fresh edges is not evaluable
    origin = q.engine.origin[core.EDG]
    fresh = origin[q.engine.roots(core.EDG)[-1]]
    assert fresh[0] == "ce"
    x, y = (origin[i][1].split(".", 1)[1] for i in fresh[1:])
    no_edge = tampered("edge_compose", lambda t: t.pop((x, y)))
    assert colimits.vk_comparison(q, no_edge).startswith("no induced map: record")
    # an entry of the global model is missing, or one too many
    unit = full.eps1[full.eps["0"]]
    no_unit = tampered("compose1", lambda t: t.pop((unit, unit)))
    witness = f"0.{unit} 0.{unit}"
    assert colimits.vk_comparison(q, no_unit) == (
        f"the induced map fails square-composition-1 at {witness}"
    )
    extra = tampered("compose1", lambda t: t.update({("x", "y"): unit}))
    assert colimits.vk_comparison(q, extra) == (
        "the quotient has 729 compose1 entries, the global model 730"
    )


def test_universal_property_batch(box_ind3):
    # several (a, b, f) triples with f equalising the pair
    cat = indiscrete_groupoid(3)
    a, b, full = vk_sequence(cat, [["0", "1"], ["1", "2"]])
    q = coequalise(a, b)
    target = a.target
    fs = [
        q.projection,
        DoubleMorphism(
            source=target,
            target=full,
            f0={o: o.split(".", 1)[1] for o in target.objects},
            f1={e: e.split(".", 1)[1] for e in target.edges},
            f2={s: s.split(".", 1)[1] for s in target.squares},
        ),
        DoubleMorphism(
            source=target,
            target=square_model(trivial_category()),
            f0={o: "o" for o in target.objects},
            f1={e: "0" for e in target.edges},
            f2={s: "q0|0|0|0" for s in target.squares},
        ),
    ]
    for f in fs:
        assert validate_morphism(f).ok
        rep = check_universal(q, f)
        assert rep.ok, rep.to_text()


def test_input_errors_name_the_mismatch(zz2, shift2):
    # the raises of coproduct, coequalise, factor_through and pushout on
    # inputs that do not fit together
    with pytest.raises(InputMismatch, match=r"^coproduct of an empty family$"):
        coproduct([])
    ident, other = identity_morphism(zz2), identity_morphism(shift2)
    _, (inj, _) = coproduct([zz2, zz2])
    with pytest.raises(InputMismatch, match=r"^parallel pair must share a source$"):
        coequalise(ident, other)
    with pytest.raises(InputMismatch, match=r"^parallel pair must share a target$"):
        coequalise(ident, inj)
    with pytest.raises(InputMismatch, match=r"^pushout needs a common source$"):
        pushout(ident, other)
    q = coequalise(ident, ident)
    with pytest.raises(InputMismatch, match=r"^morphism must start at the coequalised model$"):
        factor_through(q, other)


def test_factor_through_refuses_a_quotient_past_its_budget():
    bx = square_model(indiscrete_groupoid(2))
    q = coequalise(include_point(bx, "0"), include_point(bx, "1"), budget=400)
    assert q.status == "budget_exceeded"
    with pytest.raises(NotCoequalised, match=r"^cannot factor through a budget_exceeded quotient$"):
        factor_through(q, identity_morphism(bx))


def test_an_object_class_without_identity_edge_is_refused(zz2):
    ident = identity_morphism(dataclasses.replace(zz2, eps={}))
    with pytest.raises(WellDefinednessFailure, match=r"^object class without identity edge$"):
        coequalise(ident, ident)


def finished_engine(zz2):
    """The quotient of box(z2) by its identity pair, with its finished engine."""
    ident = identity_morphism(zz2)
    q = coequalise(ident, ident)
    return q, q.engine


def test_extract_refuses_two_values_for_one_entry(zz2):
    # join the two edge classes without their rows: e1 of the joined class
    # is stored twice, with two squares
    _, engine = finished_engine(zz2)
    edge = engine.b_index[core.EDG]
    engine.parent[core.EDG][edge["1"]] = edge["0"]
    with pytest.raises(WellDefinednessFailure, match=r"^\w+\[.*\] = \S+ and \S+$"):
        engine.extract()


def test_extract_refuses_a_thin_composite_without_filler(zz2):
    # with the edge composites gone, no composite shell of two thin squares
    # is known, so none has a filed thin square
    _, engine = finished_engine(zz2)
    for key in [key for key in engine.sig if key[0] == "ce"]:
        del engine.sig[key]
    with pytest.raises(WellDefinednessFailure, match=r"^c1: a shell without thin filler$"):
        engine.extract()


def test_factor_through_checks_every_member_of_a_class(zz2):
    # a class that joins two edges the identity tells apart
    q, engine = finished_engine(zz2)
    edge = engine.b_index[core.EDG]
    engine.parent[core.EDG][edge["1"]] = edge["0"]
    with pytest.raises(WellDefinednessFailure, match=r"^member \d+ of 0 maps to 1, class maps to 0$"):
        factor_through(q, identity_morphism(zz2))
