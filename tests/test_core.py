"""Core axiom suite: mutate-and-check oracles plus frozen table expectations."""
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cubal import core, models
from cubal.core import DoubleGC, SquareFaces, compose_array
from cubal.errors import MalformedModel, NotComposable
from cubal.modelio import parse_model
from cubal.models import square_key
from cubal.morphisms import identity_morphism, validate_morphism
from test_replay_compiled import zero_monoid_box

ZZ2_FILE = Path(core.__file__).resolve().parent / "data" / "zz2.dgc"


def z2_square(t, b, l, r):
    """Independent quadruple oracle: commuting squares of Z2 are the even tuples."""
    assert (t + b + l + r) % 2 == 0
    return square_key(str(t), str(b), str(l), str(r))


def test_ops_cover_every_table_once():
    tables = [
        f.name
        for f in fields(DoubleGC)
        if f.name not in ("objects", "edges", "squares", "kind")
    ]
    assert sorted(op.field for op in core.OPS) == sorted(tables)
    assert len({op.tag for op in core.OPS}) == len(core.OPS)


def test_edge_square_faces_agree_with_the_built_tables(corpus, shift2):
    assert [op.tag for op in core.EDGE_SQUARES] == ["e1", "e2", "gm", "gp"]
    for name, model in {**corpus, "shift(z2)": shift2}.items():
        for a, (src, tgt) in model.edges.items():
            for op in core.EDGE_SQUARES:
                faces = core.edge_square_faces(op, a, model.eps[src], model.eps[tgt])
                square = model.table(op.tag)[a]
                assert model.squares[square] == faces, (name, op.tag, a)
                if name in corpus:
                    # a commuting square is its faces
                    assert square == square_key(*faces), (name, op.tag, a)


def test_morphism_families_are_pinned(zz2):
    families = {
        "eps": "identity-edge",
        "e1": "identity-square-1",
        "e2": "identity-square-2",
        "gm": "connection-minus",
        "gp": "connection-plus",
        "inv_e": "edge-inverse",
        "inv1": "square-inverse-1",
        "inv2": "square-inverse-2",
        "ce": "edge-composition",
        "c1": "square-composition-1",
        "c2": "square-composition-2",
    }
    assert {op.tag: op.family for op in core.OPS} == families
    rep = validate_morphism(identity_morphism(zz2))
    assert rep.ok and set(families.values()) <= set(rep.checked_count)


def test_validate_corpus_clean(corpus):
    for name, model in corpus.items():
        rep = core.validate(model)
        assert rep.ok, f"{name}: {rep.violations[:3]}"


def test_validate_covers_every_axiom_family(zz2):
    rep = core.validate(zz2)
    families = set(rep.checked_count)
    for must in (
        "interchange",
        "transport",
        "cancellation",
        "double-degeneracy",
        "degeneracy-composition",
        "connection-boundary",
        "square-boundary",
        "edge-associativity",
        "square1-associativity",
        "square2-associativity",
        "edge-inverse",
        "square1-inverse",
        "square2-inverse",
    ):
        assert must in families
        assert rep.checked_count[must] > 0


def test_trivial_model_validates():
    m = models.square_model(models.trivial_category())
    assert len(m.objects) == 1 and len(m.edges) == 1 and len(m.squares) == 1
    assert core.validate(m).ok


def empty_model():
    tables = {op.field: {} for op in core.OPS}
    return DoubleGC(objects=(), edges={}, squares={}, kind="groupoid", **tables)


def test_validate_empty_model():
    assert core.validate(empty_model()).ok


def test_unknown_kind_is_malformed():
    with pytest.raises(MalformedModel, match="^unknown kind 'bogus'$"):
        replace(empty_model(), kind="bogus")


def test_square_off_its_corners_fails_square_boundary(box_ind2):
    s = "q0>0|0>0|0>0|0>0"
    squares = dict(box_ind2.squares)
    squares[s] = squares[s]._replace(right="1>0")
    rep = core.validate(replace(box_ind2, squares=squares))
    assert [w for fam, w in rep.violations if fam == "square-boundary"] == [(s,)]


def test_recover_inverses_of_a_monoid_declared_groupoid():
    # the zero-monoid box has no inverse for z, so recovery finds the inverses
    # of the squares over 1 alone and the axiom suite names the rest
    model = zero_monoid_box()
    assert core.recover_inverses(model) is model
    recovered = core.recover_inverses(replace(model, kind="groupoid"))
    assert recovered.edge_inverse == {"1": "1"}
    assert len(recovered.squares) == 10
    assert len(recovered.inverse1) == len(recovered.inverse2) == 2
    violations = core.validate(recovered).violations
    assert ("edge-inverse", ("z",)) in violations
    assert {"square1-inverse", "square2-inverse"} <= {fam for fam, _ in violations}


def test_tampered_compose2_entry_is_caught(zz2):
    # mutate-and-check oracle: redirect one horizontal composition entry
    key = (z2_square(1, 0, 1, 0), z2_square(0, 0, 0, 0))
    bad_table = dict(zz2.compose2)
    assert bad_table[key] == z2_square(1, 0, 1, 0)
    bad_table[key] = z2_square(0, 1, 1, 0)
    tampered = replace(zz2, compose2=bad_table)
    rep = core.validate(tampered)
    assert not rep.ok
    witnesses = {w for _, ws in rep.violations for w in ws}
    assert key[0] in witnesses


def test_compose_cancellation_in_zz2(zz2):
    # first and second cancellation laws, expected values from the Z2 oracle
    gp1, gm1 = zz2.gamma_plus["1"], zz2.gamma_minus["1"]
    assert zz2.compose1[(gp1, gm1)] == z2_square(0, 0, 1, 1) == zz2.eps2["1"]
    assert zz2.compose2[(gp1, gm1)] == z2_square(1, 1, 0, 0) == zz2.eps1["1"]


def test_compose_identity_law(zz2):
    for s in sorted(zz2.squares):
        bottom = zz2.squares[s].bottom
        assert zz2.compose1[(s, zz2.eps1[bottom])] == s


def test_compose_rejects_non_meeting_pair(zz2):
    with pytest.raises(NotComposable):
        compose_array(zz2, [[z2_square(0, 1, 0, 1)], [z2_square(0, 1, 0, 1)]])


def test_invert_edge_self_inverse_in_z2(zz2):
    assert zz2.edge_inverse["1"] == "1"
    assert zz2.edge_inverse["0"] == "0"


def test_invert_square_matches_brute_force(zz2):
    # oracle: search the table for the +1 inverse, then compare with the entry
    for s in sorted(zz2.squares):
        top = zz2.squares[s].top
        found = [
            t
            for t in sorted(zz2.squares)
            if zz2.compose1.get((s, t)) == zz2.eps1[top]
        ]
        assert len(found) == 1
        assert zz2.inverse1[s] == found[0]
        # the (-l, b, -r, t) shape, trivial negation in Z2
        f = zz2.squares[s]
        assert zz2.squares[found[0]] == SquareFaces(f.bottom, f.top, f.left, f.right)


def test_invert_eps2_gives_eps2_of_inverse(zz2):
    # the +1 inverse of eps2(a) is eps2(-a): their stack is eps2 of the
    # identity edge; in direction 2 the square eps2(a) is its own inverse
    s = zz2.inverse1[zz2.eps2["1"]]
    assert s == zz2.eps2[zz2.edge_inverse["1"]]
    assert zz2.compose1[(zz2.eps2["1"], s)] == zz2.eps2["0"]
    assert zz2.inverse2[zz2.eps2["1"]] == zz2.eps2["1"]


def test_connection_boundaries(zz2):
    # the connection diagrams: gamma-(a) has a on top and left,
    # gamma+(a) has a on right and bottom, identities elsewhere
    gm = zz2.squares[zz2.gamma_minus["1"]]
    assert (gm.top, gm.left, gm.right, gm.bottom) == ("1", "1", "0", "0")
    gp = zz2.squares[zz2.gamma_plus["1"]]
    assert (gp.top, gp.left, gp.right, gp.bottom) == ("0", "0", "1", "1")


def test_connection_of_identity_is_double_degeneracy(zz2):
    dd = zz2.eps1[zz2.eps["o"]]
    assert zz2.gamma_minus["0"] == dd
    assert zz2.gamma_plus["0"] == dd


def test_transport_concrete_form_all_pairs(corpus):
    # the derived 2x2 shapes, asserted directly on the tables
    for model in corpus.values():
        for (a, b), ab in model.edge_compose.items():
            gm = compose_array(
                model,
                [
                    [model.gamma_minus[a], model.eps1[b]],
                    [model.eps2[b], model.gamma_minus[b]],
                ],
            )
            assert gm == model.gamma_minus[ab]
            gp = compose_array(
                model,
                [
                    [model.gamma_plus[a], model.eps2[a]],
                    [model.eps1[a], model.gamma_plus[b]],
                ],
            )
            assert gp == model.gamma_plus[ab]


def test_degenerate_coincidence(corpus):
    for model in corpus.values():
        for o in model.objects:
            e = model.eps[o]
            assert (
                model.eps1[e]
                == model.eps2[e]
                == model.gamma_minus[e]
                == model.gamma_plus[e]
            )


def test_malformed_model_raises(zz2):
    broken = replace(zz2, eps={"o": "no-such-edge"})
    with pytest.raises(MalformedModel):
        core.validate(broken)


# -- the min/max functional oracle --------------------------------------------
#
# Squares as functions of two variables built from formal paths: the negative
# connection sends (s,t) to a(max(s,t)), the positive one to a(min(s,t)), the
# two identity squares ignore one variable.  Blockwise evaluation of a 2x2
# array then *derives* which species sits in each slot of the transport laws:
# only one assignment reproduces the connection of the concatenation pointwise.

GRID = [Fraction(i, 8) for i in range(9)]


def path_a(t):
    return ("a", t)


def path_b(t):
    return ("b", t)


def concat(p, q):
    def out(t):
        if t < Fraction(1, 2):
            return p(2 * t)
        return q(2 * t - 1)

    return out


def sq_gm(p):
    return lambda s, t: p(max(s, t))


def sq_gp(p):
    return lambda s, t: p(min(s, t))


def sq_e1(p):
    return lambda s, t: p(t)


def sq_e2(p):
    return lambda s, t: p(s)


def block2x2(a11, a12, a21, a22):
    def out(s, t):
        if s < Fraction(1, 2):
            row, ss = (a11, a12), 2 * s
        else:
            row, ss = (a21, a22), 2 * s - 1
        if t < Fraction(1, 2):
            return row[0](ss, 2 * t)
        return row[1](ss, 2 * t - 1)

    return out


def squares_equal(f, g):
    return all(f(s, t) == g(s, t) for s in GRID for t in GRID)


def test_minmax_oracle_fixes_gamma_minus_transport():
    ab = concat(path_a, path_b)
    want = sq_gm(ab)
    good = block2x2(sq_gm(path_a), sq_e1(path_b), sq_e2(path_b), sq_gm(path_b))
    assert squares_equal(want, good)
    # competing assignments fail pointwise
    swapped_eps = block2x2(sq_gm(path_a), sq_e2(path_b), sq_e1(path_b), sq_gm(path_b))
    assert not squares_equal(want, swapped_eps)
    swapped_args = block2x2(sq_gm(path_b), sq_e1(path_a), sq_e2(path_a), sq_gm(path_a))
    assert not squares_equal(want, swapped_args)
    plus_layout = block2x2(sq_gp(path_a), sq_e2(path_a), sq_e1(path_a), sq_gp(path_b))
    assert not squares_equal(want, plus_layout)


def test_minmax_oracle_fixes_gamma_plus_transport():
    ab = concat(path_a, path_b)
    want = sq_gp(ab)
    good = block2x2(sq_gp(path_a), sq_e2(path_a), sq_e1(path_a), sq_gp(path_b))
    assert squares_equal(want, good)
    assert not squares_equal(
        want, block2x2(sq_gp(path_a), sq_e1(path_a), sq_e2(path_a), sq_gp(path_b))
    )
    assert not squares_equal(
        want, block2x2(sq_gp(path_b), sq_e2(path_b), sq_e1(path_b), sq_gp(path_a))
    )


def edge_signature(edge_fn):
    """Which formal atoms an edge path traverses, up to reparametrization."""
    samples = [edge_fn(t) for t in GRID]
    groups = []
    for atom, p in samples:
        if groups and groups[-1][0] == atom:
            groups[-1][1].add(p)
        else:
            groups.append((atom, {p}))
    return tuple(
        (atom, "run") if len(ps) > 1 else (atom, "pt", next(iter(ps)))
        for atom, ps in groups
    )


def test_minmax_oracle_fixes_cancellation_shape():
    # vertical stack gp over gm: boundary signatures match eps2(a), not eps1(a)
    def stack(s, t):
        if s < Fraction(1, 2):
            return sq_gp(path_a)(2 * s, t)
        return sq_gm(path_a)(2 * s - 1, t)

    left = edge_signature(lambda t: stack(t, Fraction(0)))
    right = edge_signature(lambda t: stack(t, Fraction(1)))
    top = edge_signature(lambda t: stack(Fraction(0), t))
    bottom = edge_signature(lambda t: stack(Fraction(1), t))

    e2_left = edge_signature(lambda t: sq_e2(path_a)(t, Fraction(0)))
    e2_top = edge_signature(lambda t: sq_e2(path_a)(Fraction(0), t))
    assert left == right == e2_left  # both sides run along a
    assert top == e2_top and bottom == edge_signature(
        lambda t: sq_e2(path_a)(Fraction(1), t)
    )
    # and not the eps1 shape, whose top runs along a
    e1_top = edge_signature(lambda t: sq_e1(path_a)(Fraction(0), t))
    assert top != e1_top
    # the opposite stacking order does not even meet: the seam endpoints differ
    gm_bottom = edge_signature(lambda t: sq_gm(path_a)(Fraction(1), t))
    gp_top = edge_signature(lambda t: sq_gp(path_a)(Fraction(0), t))
    assert gm_bottom != gp_top


# -- differential oracle: the full-scan checks -----------------------------------
#
# ``core`` lists composable pairs and associativity triples from face indexes.
# These are the scans it replaced, kept verbatim: every pair of cells is tested
# for composability and every (entry, cell) combination for associativity.  The
# cubical, interchange and connection checks are frozen copies of ``core``'s,
# with the helpers they call, so ``scan_validate`` runs no check of ``core``.
# The two must give the same violations, in the same order, and the same tick
# counts.


def scan_square_boundary_ok(model, s):
    f = model.squares[s]
    return (
        model.src(f.left) == model.src(f.top)
        and model.tgt(f.left) == model.src(f.bottom)
        and model.tgt(f.top) == model.src(f.right)
        and model.tgt(f.bottom) == model.tgt(f.right)
    )


def scan_compose(model, direction, a, b):
    got = (model.compose1 if direction == 1 else model.compose2).get((a, b))
    if got is None:
        raise NotComposable(direction, a, b)
    return got


def scan_compose_array(model, rows):
    out = None
    for row in rows:
        r = None
        for cell in row:
            r = cell if r is None else scan_compose(model, 2, r, cell)
        out = r if out is None else scan_compose(model, 1, out, r)
    return out


def scan_interchange(model, rep):
    # (u +2 w) +1 (u' +2 w') = (u +1 u') +2 (w +1 w') whenever both sides defined
    comp1, comp2 = model.compose1, model.compose2
    by_top = {}
    by_top_left = {}
    for s in sorted(model.squares):
        f = model.squares[s]
        by_top.setdefault(f.top, []).append(s)
        by_top_left.setdefault((f.top, f.left), []).append(s)
    for (u, w), uw in sorted(comp2.items()):
        fu, fw = model.squares[u], model.squares[w]
        for up in by_top.get(fu.bottom, ()):
            for wp in by_top_left.get((fw.bottom, model.squares[up].right), ()):
                rep.tick("interchange")
                upwp = comp2.get((up, wp))
                lhs = comp1.get((uw, upwp)) if upwp is not None else None
                uu = comp1.get((u, up))
                ww = comp1.get((w, wp))
                rhs = comp2.get((uu, ww)) if uu is not None and ww is not None else None
                if lhs is None or rhs is None or lhs != rhs:
                    rep.fail("interchange", u, w, up, wp)


def scan_cubical(model, rep):
    for s in sorted(model.squares):
        rep.tick("square-boundary")
        if not scan_square_boundary_ok(model, s):
            rep.fail("square-boundary", s)

    # identity maps compose across the other direction
    for (a, b), ab in sorted(model.edge_compose.items()):
        rep.tick("degeneracy-composition")
        e1a, e1b = model.eps1.get(a), model.eps1.get(b)
        e2a, e2b = model.eps2.get(a), model.eps2.get(b)
        ok = (
            e1a is not None
            and e1b is not None
            and model.compose2.get((e1a, e1b)) == model.eps1.get(ab)
            and e2a is not None
            and e2b is not None
            and model.compose1.get((e2a, e2b)) == model.eps2.get(ab)
        )
        if not ok:
            rep.fail("degeneracy-composition", a, b)

    for o in sorted(model.objects):
        rep.tick("double-degeneracy")
        e = model.eps.get(o)
        if e is None:
            rep.fail("double-degeneracy", o)
            continue
        vals = {
            model.eps1.get(e),
            model.eps2.get(e),
            model.gamma_minus.get(e),
            model.gamma_plus.get(e),
        }
        if len(vals) != 1 or None in vals:
            rep.fail("double-degeneracy", o)


def scan_connections(model, rep):
    for a in sorted(model.edges):
        e_src = model.eps.get(model.src(a))
        e_tgt = model.eps.get(model.tgt(a))
        rep.tick("connection-boundary")
        gm, gp = model.gamma_minus.get(a), model.gamma_plus.get(a)
        ok = (
            gm is not None
            and gp is not None
            and model.squares[gm] == SquareFaces(a, e_tgt, a, e_tgt)
            and model.squares[gp] == SquareFaces(e_src, a, e_src, a)
        )
        if not ok:
            rep.fail("connection-boundary", a)

    # transport: the connection of a composite is a 2x2 array of connections
    # and identities, block shapes fixed by the derivation oracle
    for (a, b), ab in sorted(model.edge_compose.items()):
        rep.tick("transport")
        try:
            gm = scan_compose_array(
                model,
                [
                    [model.gamma_minus[a], model.eps1[b]],
                    [model.eps2[b], model.gamma_minus[b]],
                ],
            )
            gp = scan_compose_array(
                model,
                [
                    [model.gamma_plus[a], model.eps2[a]],
                    [model.eps1[a], model.gamma_plus[b]],
                ],
            )
        except (NotComposable, KeyError):
            rep.fail("transport", a, b)
            continue
        if gm != model.gamma_minus.get(ab) or gp != model.gamma_plus.get(ab):
            rep.fail("transport", a, b)

    for a in sorted(model.edges):
        rep.tick("cancellation")
        gm, gp = model.gamma_minus.get(a), model.gamma_plus.get(a)
        if gm is None or gp is None:
            rep.fail("cancellation", a)
            continue
        if model.compose1.get((gp, gm)) != model.eps2.get(a) or model.compose2.get(
            (gp, gm)
        ) != model.eps1.get(a):
            rep.fail("cancellation", a)


def scan_edge_category(model, rep):
    comp = model.edge_compose
    for a in sorted(model.edges):
        for b in sorted(model.edges):
            composable = model.tgt(a) == model.src(b)
            defined = (a, b) in comp
            rep.tick("edge-composability")
            if defined != composable:
                rep.fail("edge-composability", a, b)
                continue
            if not defined:
                continue
            c = comp[(a, b)]
            rep.tick("edge-composite-endpoints")
            if model.src(c) != model.src(a) or model.tgt(c) != model.tgt(b):
                rep.fail("edge-composite-endpoints", a, b, c)

    for o in sorted(model.objects):
        rep.tick("edge-identity-endpoints")
        e = model.eps.get(o)
        if e is None or model.src(e) != o or model.tgt(e) != o:
            rep.fail("edge-identity-endpoints", o)

    for a in sorted(model.edges):
        rep.tick("edge-identity")
        left_id = model.eps.get(model.src(a))
        right_id = model.eps.get(model.tgt(a))
        if (
            left_id is None
            or right_id is None
            or comp.get((left_id, a)) != a
            or comp.get((a, right_id)) != a
        ):
            rep.fail("edge-identity", a)

    for (a, b), ab in sorted(comp.items()):
        for c in sorted(model.edges):
            if model.tgt(b) != model.src(c):
                continue
            rep.tick("edge-associativity")
            lhs = comp.get((ab, c))
            bc = comp.get((b, c))
            rhs = comp.get((a, bc)) if bc is not None else None
            if lhs is None or rhs is None or lhs != rhs:
                rep.fail("edge-associativity", a, b, c)

    if model.is_groupoid():
        for a in sorted(model.edges):
            rep.tick("edge-inverse")
            inv = model.edge_inverse.get(a)
            if inv is None:
                rep.fail("edge-inverse", a)
                continue
            e_src = model.eps.get(model.src(a))
            e_tgt = model.eps.get(model.tgt(a))
            if comp.get((a, inv)) != e_src or comp.get((inv, a)) != e_tgt:
                rep.fail("edge-inverse", a, inv)


def scan_square_category(model, rep, direction):
    comp = model.compose1 if direction == 1 else model.compose2
    eps_table = model.eps1 if direction == 1 else model.eps2
    fam = f"square{direction}"

    def meet(a, b):
        fa, fb = model.squares[a], model.squares[b]
        if direction == 1:
            return fa.bottom == fb.top
        return fa.right == fb.left

    squares = sorted(model.squares)
    for a in squares:
        for b in squares:
            composable = meet(a, b)
            defined = (a, b) in comp
            rep.tick(f"{fam}-composability")
            if defined != composable:
                rep.fail(f"{fam}-composability", a, b)
                continue
            if not defined:
                continue
            c = comp[(a, b)]
            fa, fb, fc = model.squares[a], model.squares[b], model.squares[c]
            rep.tick(f"{fam}-composite-faces")
            if direction == 1:
                want = (
                    fa.top,
                    fb.bottom,
                    model.edge_compose.get((fa.left, fb.left)),
                    model.edge_compose.get((fa.right, fb.right)),
                )
            else:
                want = (
                    model.edge_compose.get((fa.top, fb.top)),
                    model.edge_compose.get((fa.bottom, fb.bottom)),
                    fa.left,
                    fb.right,
                )
            if tuple(fc) != want:
                rep.fail(f"{fam}-composite-faces", a, b, c)

    for a in sorted(model.edges):
        rep.tick(f"{fam}-identity-faces")
        s = eps_table.get(a)
        e_src = model.eps.get(model.src(a))
        e_tgt = model.eps.get(model.tgt(a))
        if s is None:
            rep.fail(f"{fam}-identity-faces", a)
            continue
        f = model.squares[s]
        want = (
            SquareFaces(a, a, e_src, e_tgt)
            if direction == 1
            else SquareFaces(e_src, e_tgt, a, a)
        )
        if f != want:
            rep.fail(f"{fam}-identity-faces", a, s)

    for s in squares:
        rep.tick(f"{fam}-identity")
        f = model.squares[s]
        pre = eps_table.get(f.top if direction == 1 else f.left)
        post = eps_table.get(f.bottom if direction == 1 else f.right)
        if (
            pre is None
            or post is None
            or comp.get((pre, s)) != s
            or comp.get((s, post)) != s
        ):
            rep.fail(f"{fam}-identity", s)

    for (a, b), ab in sorted(comp.items()):
        for c in squares:
            if not meet(b, c):
                continue
            rep.tick(f"{fam}-associativity")
            lhs = comp.get((ab, c))
            bc = comp.get((b, c))
            rhs = comp.get((a, bc)) if bc is not None else None
            if lhs is None or rhs is None or lhs != rhs:
                rep.fail(f"{fam}-associativity", a, b, c)

    if model.is_groupoid():
        inv_table = model.inverse1 if direction == 1 else model.inverse2
        for s in squares:
            rep.tick(f"{fam}-inverse")
            t = inv_table.get(s)
            if t is None:
                rep.fail(f"{fam}-inverse", s)
                continue
            f = model.squares[s]
            pre = eps_table.get(f.top if direction == 1 else f.left)
            post = eps_table.get(f.bottom if direction == 1 else f.right)
            if comp.get((s, t)) != pre or comp.get((t, s)) != post:
                rep.fail(f"{fam}-inverse", s, t)


def scan_validate(model):
    """``core.validate`` with every check replaced by its full-scan or frozen copy."""
    core.check_structure(model)
    rep = core.Report(title="double category with connections: axiom suite")
    scan_cubical(model, rep)
    scan_edge_category(model, rep)
    scan_square_category(model, rep, 1)
    scan_square_category(model, rep, 2)
    scan_interchange(model, rep)
    scan_connections(model, rep)
    return rep


def assert_same_report(model):
    got, want = core.validate(model), scan_validate(model)
    assert got.violations == want.violations
    assert got.checked_count == want.checked_count


# models with no interchange instance: a family with no checks has no
# ``checked_count`` entry, in the scan and in ``core`` alike
NO_INTERCHANGE = {
    "empty": empty_model,
    "box(z2) without compose2": lambda: replace(models.parse_generator("box(z2)"), compose2={}),
}


@pytest.mark.parametrize(
    "spec", ["box(z2)", "box(indiscrete(3))", "shift(z2)", "shift(prod(z2,z2))", *NO_INTERCHANGE]
)
def test_validate_matches_full_scan(spec):
    model = NO_INTERCHANGE[spec]() if spec in NO_INTERCHANGE else models.parse_generator(spec)
    assert_same_report(model)
    if spec in NO_INTERCHANGE:
        assert "interchange" not in core.validate(model).checked_count


@pytest.mark.parametrize(
    "field, action", [("compose1", "drop"), ("compose2", "drop"), ("compose2", "redirect")]
)
def test_validate_matches_full_scan_where_blocks_are_walked_again(box_ind3, field, action):
    # a missing or wrong composite fails the subscript walk of the blocks
    # that read it, which are walked again and report each failing instance
    table = dict(getattr(box_ind3, field))
    key = sorted(table)[len(table) // 2]
    if action == "drop":
        del table[key]
    else:
        table[key] = next(s for s in sorted(box_ind3.squares) if s != table[key])
    model = replace(box_ind3, **{field: table})
    assert_same_report(model)
    failed = {family for family, _ in core.validate(model).violations}
    assert {f"square{field[-1]}-associativity", "interchange"} <= failed


def test_validate_matches_full_scan_on_shipped_zz2():
    assert_same_report(parse_model(ZZ2_FILE.read_text(encoding="utf-8")))


MUTATED_OPS = [
    core.OP[t] for t in ("ce", "c1", "c2", "eps", "e1", "e2", "gm", "gp", "inv_e", "inv1", "inv2")
]


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_validate_matches_full_scan_on_mutants(zz2, shift2, box_ind3, data):
    # redirect, drop or add one entry of a composition, unit, connection or
    # inverse table; keys and values are cells of the dimensions the
    # operation takes and gives
    model = data.draw(st.sampled_from((zz2, shift2, box_ind3)))
    op = data.draw(st.sampled_from(MUTATED_OPS))
    pools = (model.objects, model.edges, model.squares)
    args, values = sorted(pools[op.arg]), sorted(pools[op.value])
    entries = dict(model.table(op.tag))
    action = data.draw(st.sampled_from(("redirect", "drop", "add")))
    if action == "add":
        key = op.key(tuple(data.draw(st.sampled_from(args)) for _ in range(1 + op.binary)))
    else:
        key = data.draw(st.sampled_from(sorted(entries)))
    if action == "drop":
        del entries[key]
    else:
        entries[key] = data.draw(st.sampled_from(values))
    assert_same_report(replace(model, **{op.field: entries}))
