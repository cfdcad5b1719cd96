"""Text formats: models (.dgc), morphism files, and writers for both.

Model format: a UTF-8 document of sections.  ``objects`` lists identifiers,
``edges`` lines are ``id src tgt``, ``squares`` lines are ``id top bottom
left right``, the composition sections hold ``x y -> z`` triples, the unary
sections ``x -> y`` pairs, ``kind category|groupoid`` sets the flavour.
``#`` starts a comment, blank lines and extra whitespace are ignored,
unknown section keys are an error.  Groupoid inverse tables are not part of
the format: every groupoid model, generated or parsed, gets them from
``core.recover_inverses``, and anything unrecoverable surfaces later as a
validation failure.  An identifier holds no character of ``core.RESERVED``.
"""
from __future__ import annotations

from sys import intern

from .core import OPS, RESERVED, DoubleGC, EdgeEnds, SquareFaces, recover_inverses
from .errors import MalformedModel
from .morphisms import DoubleMorphism

_TABLE_SECTIONS = {op.section: op for op in OPS if op.section}
_SECTIONS = {"objects", "edges", "squares", *_TABLE_SECTIONS}


def _check_id(token: str) -> str:
    if not token or not RESERVED.isdisjoint(token):
        raise MalformedModel(f"illegal identifier {token!r}")
    return token


def parse_model(text: str) -> DoubleGC:
    objects: list[str] = []
    edges: dict[str, EdgeEnds] = {}
    squares: dict[str, SquareFaces] = {}
    tables = {op.field: {} for op in OPS}
    kind = "category"
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # one string per name: every later lookup then matches by identity
        tokens = list(map(intern, line.split()))
        clean = RESERVED.isdisjoint(line)  # then no token needs _check_id
        head = tokens[0]
        if head == "kind":
            if len(tokens) != 2 or tokens[1] not in ("category", "groupoid"):
                raise MalformedModel(f"line {lineno}: bad kind declaration {line!r}")
            kind = tokens[1]
            section = None
            continue
        if head in _SECTIONS and len(tokens) == 1:
            section = head
            continue
        if section is None:
            raise MalformedModel(f"line {lineno}: unknown section or stray line {line!r}")
        if section == "objects":
            objects.extend(tokens if clean else map(_check_id, tokens))
        elif section == "edges":
            if len(tokens) != 3:
                raise MalformedModel(f"line {lineno}: edge wants 'id src tgt'")
            e, s, t = tokens if clean else map(_check_id, tokens)
            if e in edges:
                raise MalformedModel(f"line {lineno}: duplicate edge {e!r}")
            edges[e] = EdgeEnds(s, t)
        elif section == "squares":
            if len(tokens) != 5:
                raise MalformedModel(
                    f"line {lineno}: square wants 'id top bottom left right'"
                )
            q, top, bottom, left, right = tokens if clean else map(_check_id, tokens)
            if q in squares:
                raise MalformedModel(f"line {lineno}: duplicate square {q!r}")
            squares[q] = SquareFaces(top, bottom, left, right)
        else:
            op = _TABLE_SECTIONS[section]
            arity = 2 if op.binary else 1
            if len(tokens) != arity + 2 or tokens[arity] != "->":
                raise MalformedModel(
                    f"line {lineno}: want {'x y -> z' if op.binary else 'x -> y'!r}"
                )
            key = op.key(tuple(tokens[:arity] if clean else map(_check_id, tokens[:arity])))
            table = tables[op.field]
            if key in table:
                raise MalformedModel(f"line {lineno}: repeated key {key!r} in {section}")
            table[key] = tokens[-1] if clean else _check_id(tokens[-1])

    model = DoubleGC(
        objects=tuple(sorted(dict.fromkeys(objects))),
        edges=edges,
        squares=squares,
        kind=kind,
        **tables,
    )
    return recover_inverses(model)


def write_model(model: DoubleGC, header: str = "") -> str:
    lines = [f"# {h}" for h in header.splitlines()]
    lines += [f"kind {model.kind}", "objects", *(f"  {o}" for o in sorted(model.objects))]
    # an edge line is its id and ends, a square line its id and faces, in order
    for section, cells in (("edges", model.edges), ("squares", model.squares)):
        lines.append(section)
        lines += [f"  {x} {' '.join(cells[x])}" for x in sorted(cells)]
    # composition sections first, each group in sorted section order
    for op in sorted(_TABLE_SECTIONS.values(), key=lambda op: (not op.binary, op.section)):
        lines.append(op.section)
        entries = sorted(getattr(model, op.field).items())
        lines += [f"  {' '.join(op.args(key))} -> {value}" for key, value in entries]
    return "\n".join(lines) + "\n"


# -- morphism files ---------------------------------------------------------------

# the morphism-file section of each dimension's map
MAP_SECTIONS = ("map_objects", "map_edges", "map_squares")


def parse_morphism(text: str, source: DoubleGC, target: DoubleGC) -> DoubleMorphism:
    maps = ({}, {}, {})
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in MAP_SECTIONS and len(tokens) == 1:
            section = maps[MAP_SECTIONS.index(tokens[0])]
            continue
        if section is None:
            raise MalformedModel(f"line {lineno}: unknown section or stray line {line!r}")
        if len(tokens) != 3 or tokens[1] != "->":
            raise MalformedModel(f"line {lineno}: want 'x -> y'")
        key = _check_id(tokens[0])
        if key in section:
            raise MalformedModel(f"line {lineno}: repeated key {key!r}")
        section[key] = _check_id(tokens[2])
    return DoubleMorphism(source, target, *maps)


def write_morphism(f: DoubleMorphism, header: str = "") -> str:
    lines = [f"# {h}" for h in header.splitlines()]
    for section, fmap in sorted(zip(MAP_SECTIONS, f.maps()), key=lambda item: item[0]):
        lines.append(section)
        lines += [f"  {a} -> {b}" for a, b in sorted(fmap.items())]
    return "\n".join(lines) + "\n"
