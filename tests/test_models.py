"""Model constructors: counts by brute force, validation, substructures."""
import itertools

import pytest

from cubal import core
from cubal.colimits import iso_check
from cubal.errors import MalformedModel
from cubal.models import (
    cyclic_group,
    disjoint_union,
    full_sub_double,
    group_as_groupoid,
    indiscrete_groupoid,
    parse_category,
    parse_generator,
    product,
    shift_model,
    square_model,
    trivial_category,
)
from cubal.morphisms import validate_morphism


def test_generator_categories_validate():
    for cat in (
        cyclic_group(2),
        cyclic_group(3),
        indiscrete_groupoid(2),
        indiscrete_groupoid(4),
        product(cyclic_group(2), cyclic_group(2)),
        disjoint_union(cyclic_group(2), cyclic_group(3)),
        trivial_category(),
    ):
        # the category laws are the edge laws of its square model
        rep = core.validate(square_model(cat))
        assert rep.ok
        for law in ("composability", "composite-endpoints", "identity-endpoints", "identity",
                    "associativity", "inverse"):
            assert rep.checked_count.get(f"edge-{law}"), law


def test_zz2_square_count_matches_brute_force(zz2):
    # solutions of l+b = t+r over Z2, counted independently
    count = sum(
        1
        for t, b, l, r in itertools.product(range(2), repeat=4)
        if (l + b) % 2 == (t + r) % 2
    )
    assert count == 8
    assert len(zz2.squares) == count


def test_indiscrete_counts():
    assert len(indiscrete_groupoid(2).arrows) == 4
    assert len(indiscrete_groupoid(3).arrows) == 9
    box3 = square_model(indiscrete_groupoid(3))
    # squares are free corner choices: one commuting shell per 4-tuple of objects
    assert len(box3.squares) == 3**4


def test_product_componentwise():
    k4 = product(cyclic_group(2), cyclic_group(2))
    assert len(k4.arrows) == 4
    assert k4.compose[("1*0", "1*1")] == "0*1"
    assert square_model(k4).edge_inverse["1*1"] == "1*1"


def test_disjoint_union_counts():
    c = disjoint_union(cyclic_group(2), cyclic_group(3))
    assert len(c.objects) == 2
    assert len(c.arrows) == 5
    assert ("0.1", "1.1") not in c.compose


def test_square_models_validate(corpus):
    for model in corpus.values():
        assert core.validate(model).ok


def test_square_model_connections_shape(zz2):
    f = zz2.squares[zz2.gamma_minus["1"]]
    assert (f.top, f.left, f.right, f.bottom) == ("1", "1", "0", "0")
    f = zz2.squares[zz2.eps1["1"]]
    assert (f.top, f.bottom, f.left, f.right) == ("1", "1", "0", "0")
    f = zz2.squares[zz2.eps2["1"]]
    assert (f.top, f.bottom, f.left, f.right) == ("0", "0", "1", "1")


def test_full_sub_double_of_indiscrete(box_ind3, box_ind2):
    sub, inc = full_sub_double(box_ind3, ["0", "1"])
    assert core.validate(sub).ok
    assert validate_morphism(inc).ok
    assert iso_check(sub, box_ind2) is not None


def test_full_sub_double_everything_is_identity(zz2):
    sub, inc = full_sub_double(zz2, zz2.objects)
    assert sub == zz2
    assert inc.f2 == {s: s for s in zz2.squares}


def test_full_sub_double_of_disjoint_union(zz2):
    big = square_model(disjoint_union(cyclic_group(2), cyclic_group(3)))
    sub, _ = full_sub_double(big, ["0.o"])
    assert iso_check(sub, zz2) is not None


def test_full_sub_double_unknown_object(zz2):
    with pytest.raises(MalformedModel):
        full_sub_double(zz2, ["nope"])


def test_shift_model_validates(shift2):
    assert core.validate(shift2).ok
    assert len(shift2.squares) == 2
    assert shift2.compose1 == shift2.compose2


def test_shift_model_rejects_multi_object():
    with pytest.raises(MalformedModel):
        shift_model(indiscrete_groupoid(2))


@pytest.mark.parametrize(
    "cat",
    [cyclic_group(2), cyclic_group(3), cyclic_group(5), product(cyclic_group(2), cyclic_group(2))],
    ids=["z2", "z3", "z5", "z2xz2"],
)
def test_shift_model_inverses_are_the_group_inverses(cat):
    # s<g> inverts to s<g^-1> in both directions, g^-1 read off the group table
    (unit,) = cat.identity.values()
    inverse = {g: h for (g, h), gh in cat.compose.items() if gh == unit}
    model = shift_model(cat)
    want = {f"s{g}": f"s{h}" for g, h in inverse.items()}
    assert model.inverse1 == model.inverse2 == want
    assert model.edge_inverse == {"e": "e"}


def test_shift_model_inverses_of_z3():
    assert shift_model(cyclic_group(3)).inverse1 == {"s0": "s0", "s1": "s2", "s2": "s1"}


def test_group_as_groupoid_rejects_a_monoid():
    absorbing = {(x, y): "1" if x == y == "1" else "z" for x in "1z" for y in "1z"}
    with pytest.raises(MalformedModel, match="^element 'z' has no inverse$"):
        group_as_groupoid(["1", "z"], absorbing, "1")


def test_shift_model_rejects_a_noncommutative_group():
    # S3 as the permutations of 012; the composite of p and q sends i to p[q[i]]
    perms = ["".join(p) for p in itertools.permutations("012")]
    op = {(p, q): "".join(p[int(i)] for i in q) for p in perms for q in perms}
    s3 = group_as_groupoid(perms, op, "012")
    with pytest.raises(MalformedModel, match="shift_model needs a commutative group"):
        shift_model(s3)


def test_parse_generator_roundtrip(zz2):
    assert parse_generator("box(z2)") == zz2
    assert parse_generator("shift(z2)").squares.keys() == {"s0", "s1"}
    assert len(parse_category("prod(z2,z3)").arrows) == 6
    assert len(parse_category("sum(z2,indiscrete(2))").arrows) == 6
    with pytest.raises(MalformedModel):
        parse_generator("frobnicate(z2)")
