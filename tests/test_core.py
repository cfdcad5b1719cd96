"""Core axiom suite: mutate-and-check oracles plus frozen table expectations."""
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from cubal import core, models
from cubal.core import DoubleGC, SquareFaces, compose, connection, invert, invert_edge
from cubal.errors import MalformedModel, NotAGroupoid, NotComposable
from cubal.models import square_key


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


def test_validate_empty_model():
    m = DoubleGC(
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
    assert core.validate(m).ok


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
    assert compose(zz2, 1, gp1, gm1) == z2_square(0, 0, 1, 1) == zz2.eps2["1"]
    assert compose(zz2, 2, gp1, gm1) == z2_square(1, 1, 0, 0) == zz2.eps1["1"]


def test_compose_identity_law(zz2):
    for s in sorted(zz2.squares):
        bottom = zz2.squares[s].bottom
        assert compose(zz2, 1, s, zz2.eps1[bottom]) == s


def test_compose_rejects_non_meeting_pair(zz2):
    with pytest.raises(NotComposable):
        compose(zz2, 1, z2_square(0, 1, 0, 1), z2_square(0, 1, 0, 1))


def test_invert_edge_self_inverse_in_z2(zz2):
    assert invert_edge(zz2, "1") == "1"
    assert invert_edge(zz2, "0") == "0"


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
        assert invert(zz2, 1, s) == found[0]
        # the (-l, b, -r, t) shape, trivial negation in Z2
        f = zz2.squares[s]
        assert zz2.squares[found[0]] == SquareFaces(f.bottom, f.top, f.left, f.right)


def test_invert_eps2_gives_eps2_of_inverse(zz2):
    # the +1 inverse of eps2(a) is eps2(-a): their stack is eps2 of the
    # identity edge; in direction 2 the square eps2(a) is its own inverse
    s = invert(zz2, 1, zz2.eps2["1"])
    assert s == zz2.eps2[zz2.edge_inverse["1"]]
    assert compose(zz2, 1, zz2.eps2["1"], s) == zz2.eps2["0"]
    assert invert(zz2, 2, zz2.eps2["1"]) == zz2.eps2["1"]


def test_invert_requires_groupoid(zz2):
    cat = replace(zz2, kind="category", edge_inverse={}, inverse1={}, inverse2={})
    with pytest.raises(NotAGroupoid):
        invert(cat, 1, z2_square(0, 0, 0, 0))
    with pytest.raises(NotAGroupoid):
        invert_edge(cat, "1")


def test_connection_boundaries(zz2):
    # the connection diagrams: gamma-(a) has a on top and left,
    # gamma+(a) has a on right and bottom, identities elsewhere
    gm = zz2.squares[connection(zz2, "-", "1")]
    assert (gm.top, gm.left, gm.right, gm.bottom) == ("1", "1", "0", "0")
    gp = zz2.squares[connection(zz2, "+", "1")]
    assert (gp.top, gp.left, gp.right, gp.bottom) == ("0", "0", "1", "1")


def test_connection_of_identity_is_double_degeneracy(zz2):
    dd = zz2.eps1[zz2.eps["o"]]
    assert connection(zz2, "-", "0") == dd
    assert connection(zz2, "+", "0") == dd


def test_transport_concrete_form_all_pairs(corpus):
    # the derived 2x2 shapes, asserted directly on the tables
    for model in corpus.values():
        for (a, b), ab in model.edge_compose.items():
            gm = compose(
                model,
                1,
                compose(model, 2, model.gamma_minus[a], model.eps1[b]),
                compose(model, 2, model.eps2[b], model.gamma_minus[b]),
            )
            assert gm == model.gamma_minus[ab]
            gp = compose(
                model,
                1,
                compose(model, 2, model.gamma_plus[a], model.eps2[a]),
                compose(model, 2, model.eps1[a], model.gamma_plus[b]),
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
