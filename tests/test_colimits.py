"""Colimits: coproducts, coequalisers with saturation, pushouts, iso search."""
import json

import pytest

from cubal import core, models
from cubal.colimits import (
    check_universal,
    coequalise,
    coproduct,
    factor_through,
    iso_check,
    pushout,
    vk_harness,
    vk_sequence,
)
from cubal.errors import InputMismatch, NotAGroupoid, NotCoequalised
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
    morphisms_equal,
    validate_morphism,
)


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


def test_validate_morphism_identity(zz2):
    assert validate_morphism(identity_morphism(zz2)).ok


def test_validate_morphism_induced_inclusion(box_ind2, box_ind3):
    arrow_map = {a: a for a in indiscrete_groupoid(2).arrows}
    f = models.induced_square_morphism(
        {"0": "0", "1": "1"}, arrow_map, box_ind2, box_ind3
    )
    assert validate_morphism(f).ok


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
    assert morphisms_equal(pa, pb)


def test_factor_through_projection_is_identity(box_ind3):
    a, b, _ = vk_sequence(indiscrete_groupoid(3), [["0", "1"], ["1", "2"]])
    q = coequalise(a, b)
    f = factor_through(q, q.projection)
    assert morphisms_equal(f, identity_morphism(q.object))


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
    assert morphisms_equal(compose_morphisms(q.projection, F), f)
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
    # quotient edge monoid is the integers, saturation cannot terminate
    bx = square_model(indiscrete_groupoid(2))
    a = include_point(bx, "0")
    b = include_point(bx, "1")
    q = coequalise(a, b, budget=400)
    assert q.status == "budget_exceeded"
    assert q.object is None and q.projection is None
    assert q.stats["elements"] > 400


def test_quotient_stats_are_json_safe(zz2):
    finite = coequalise(identity_morphism(zz2), identity_morphism(zz2))
    bx = square_model(indiscrete_groupoid(2))
    exceeded = coequalise(include_point(bx, "0"), include_point(bx, "1"), budget=400)
    assert (finite.status, exceeded.status) == ("finite", "budget_exceeded")
    for q in (finite, exceeded):
        assert json.loads(json.dumps(q.stats)) == q.stats


def test_pushout_of_two_z2_along_point_diverges(zz2):
    # frozen fixture: the glued edge group is the free product Z2 * Z2,
    # which is infinite, so no finite fixed point exists
    inc = include_point(zz2, "o")
    result, leg_b, leg_c = pushout(inc, inc, budget=500)
    assert result.status == "budget_exceeded"
    assert leg_b is None and leg_c is None


def test_pushout_over_empty_apex_is_coproduct(zz2):
    empty = core.DoubleGC(
        objects=(),
        edges={},
        squares={},
        edge_compose={},
        compose1={},
        compose2={},
        eps={},
        eps1={},
        eps2={},
        gamma_minus={},
        gamma_plus={},
        kind="groupoid",
    )
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


def test_iso_check_identity_and_counts(zz2):
    iso = iso_check(zz2, zz2)
    assert iso is not None and validate_morphism(iso).ok
    z3 = square_model(cyclic_group(3))
    assert iso_check(zz2, z3) is None  # 8 squares versus 27


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
    with pytest.raises(InputMismatch):
        vk_harness(indiscrete_groupoid(3), [["0", "1"]])


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
