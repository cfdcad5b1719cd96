"""Text formats: model files, inverse recovery, morphism files."""
import pytest

from cubal import core
from cubal.errors import MalformedModel
from cubal.modelio import (
    parse_model,
    parse_morphism,
    write_model,
    write_morphism,
)
from cubal.morphisms import identity_morphism, validate_morphism


def test_model_roundtrip(corpus):
    for name, model in corpus.items():
        text = write_model(model, header=name)
        again = parse_model(text)
        assert again == model, name


def test_shift_model_roundtrip(shift2):
    assert parse_model(write_model(shift2)) == shift2


def test_inverse_tables_recovered_from_compositions(zz2):
    # the format carries no inverse sections; groupoid inverses come back
    # from the composition tables
    text = write_model(zz2)
    assert "inverse" not in text
    again = parse_model(text)
    assert again.edge_inverse == zz2.edge_inverse
    assert again.inverse1 == zz2.inverse1
    assert again.inverse2 == zz2.inverse2


def test_no_inverse_recovered_without_its_units():
    # with the +1 unit on edge 0 missing, no square with a 0 on top or bottom
    # has a +1 inverse: a missing unit must not match a missing composite,
    # which would make q1|1|0|0 the inverse of q0|0|0|0
    from importlib import resources

    shipped = (resources.files("cubal.data") / "zz2.dgc").read_text()
    lines = shipped.splitlines()
    start = lines.index("eps1")
    lines.remove(next(line for line in lines[start:] if line.split() == ["0", "->", "q0|0|0|0"]))
    model = parse_model("\n".join(lines) + "\n")
    assert "0" not in model.eps1
    assert all(
        "0" not in (f.top, f.bottom) for s, f in model.squares.items() if s in model.inverse1
    )
    assert ("square1-inverse", ("q0|0|0|0",)) in core.validate(model).violations


def test_parser_tolerates_comments_and_whitespace():
    text = """
# a single identity square
kind   groupoid
objects
   x     # trailing comment
edges
   e x x
squares
   q e e e e
compose_edge
   e e -> e
compose1
   q q -> q
compose2
   q q -> q
eps
   x -> e
eps1
   e -> q
eps2
   e -> q
gamma-
   e -> q
gamma+
   e -> q
"""
    model = parse_model(text)
    assert core.validate(model).ok
    assert model.edge_inverse == {"e": "e"}


def test_parser_rejects_unknown_section():
    with pytest.raises(MalformedModel):
        parse_model("wibble\n  a b c\n")


def test_parser_rejects_bad_arity():
    with pytest.raises(MalformedModel):
        parse_model("edges\n  e x\n")
    with pytest.raises(MalformedModel):
        parse_model("compose_edge\n  a b c\n")


def test_parser_rejects_reserved_identifier_characters():
    with pytest.raises(MalformedModel):
        parse_model("objects\n  a[b\n")


# '#' starts a comment, so no token ever holds it
@pytest.mark.parametrize("ch", sorted(core.RESERVED - {"#"}))
def test_parser_rejects_each_reserved_character(ch):
    with pytest.raises(MalformedModel, match="illegal identifier"):
        parse_model(f"objects\n  x\nedges\n  a{ch}b x x\n")


def test_parser_rejects_a_short_square_line():
    text = "objects\n  x\nedges\n  e x x\nsquares\n  q e e e\n"
    with pytest.raises(MalformedModel, match="^line 6: square wants 'id top bottom left right'$"):
        parse_model(text)


def test_parser_rejects_duplicate_elements(zz2):
    with pytest.raises(MalformedModel):
        parse_model("objects\n x\nedges\n e x x\n e x x\n")
    with pytest.raises(MalformedModel):
        parse_model(
            "objects\n x\nedges\n e x x\nsquares\n q e e e e\n q e e e e\n"
        )
    # a repeated key in a table section states two values for one entry
    lines = write_model(zz2).splitlines()
    at = lines.index("compose1") + 1
    lines.insert(at, "  q0|0|0|0 q0|0|0|0 -> q1|1|1|1")
    with pytest.raises(MalformedModel, match=f"line {at + 2}: repeated key"):
        parse_model("\n".join(lines))
    with pytest.raises(MalformedModel, match="line 5: repeated key"):
        parse_model("objects\n x\neps\n x -> e\n x -> e\n")
    with pytest.raises(MalformedModel, match="line 4: repeated key"):
        parse_morphism("map_edges\n 0 -> 0\n 1 -> 0\n 1 -> 1\n", zz2, zz2)


def test_shipped_model_matches_generator(zz2):
    from importlib import resources

    from cubal.models import parse_generator

    shipped = (resources.files("cubal.data") / "zz2.dgc").read_text()
    regenerated = write_model(parse_generator("box(z2)"))
    strip = lambda text: [
        line for line in text.splitlines() if not line.startswith("#")
    ]
    assert strip(shipped) == strip(regenerated)
    assert parse_model(shipped) == zz2


def test_missing_identifier_caught_by_validation():
    text = "kind category\nobjects\n  x\nedges\n  e x y\n"
    with pytest.raises(MalformedModel):
        core.validate(parse_model(text))


def test_morphism_roundtrip(zz2):
    idm = identity_morphism(zz2)
    text = write_morphism(idm, header="identity")
    again = parse_morphism(text, zz2, zz2)
    assert again.f0 == idm.f0 and again.f1 == idm.f1 and again.f2 == idm.f2
    assert validate_morphism(again).ok


def test_morphism_parser_rejects_stray_lines(zz2):
    with pytest.raises(MalformedModel):
        parse_morphism("o -> o\n", zz2, zz2)
