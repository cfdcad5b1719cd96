"""Constructors for concrete finite models.

The workhorse is ``square_model(C)``: the double category of commuting squares
in a finite category C, with its canonical connections.  Squares there are
keyed by their edge quadruple, so thin fillers are O(1) lookups.  The shift
models (``shift_model``) provide squares that are *not* determined by their
boundary, which the commuting-squares models can never supply; they are the
negative-witness generators.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .core import EDGE_SQUARES, OPS, DoubleGC, EdgeEnds, Names, SquareFaces, edge_square_faces
from .core import recover_inverses
from .errors import MalformedModel
from .morphisms import DoubleMorphism, identity_morphism


@dataclass(frozen=True)
class FiniteCategory:
    objects: tuple[str, ...]
    arrows: dict[str, EdgeEnds]
    compose: dict[tuple[str, str], str]
    identity: dict[str, str]
    kind: str = "category"

    def src(self, a: str) -> str:
        return self.arrows[a].src

    def tgt(self, a: str) -> str:
        return self.arrows[a].tgt


# -- generators ---------------------------------------------------------------


def group_as_groupoid(
    elements: Sequence[str],
    op: dict[tuple[str, str], str],
    unit: str,
) -> FiniteCategory:
    """One-object groupoid whose arrows are the elements of a finite group."""
    elements = tuple(elements)
    for g in elements:
        if not any(op[(g, h)] == unit == op[(h, g)] for h in elements):
            raise MalformedModel(f"element {g!r} has no inverse")
    return FiniteCategory(
        objects=("o",),
        arrows={g: EdgeEnds("o", "o") for g in elements},
        compose=dict(op),
        identity={"o": unit},
        kind="groupoid",
    )


def cyclic_group(n: int) -> FiniteCategory:
    if n < 1:
        raise MalformedModel(f"cyclic group of order {n}: the order must be at least 1")
    elements = [str(i) for i in range(n)]
    op = {(str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)}
    return group_as_groupoid(elements, op, "0")


def trivial_category() -> FiniteCategory:
    return cyclic_group(1)


def indiscrete_groupoid(n: int) -> FiniteCategory:
    """Exactly one arrow between each ordered pair of the n objects."""
    if n < 0:
        raise MalformedModel(f"indiscrete groupoid on {n} objects: the count must be at least 0")
    objs = tuple(str(i) for i in range(n))
    arrows = {f"{i}>{j}": EdgeEnds(str(i), str(j)) for i in objs for j in objs}
    compose = {
        (f"{i}>{j}", f"{j}>{k}"): f"{i}>{k}" for i in objs for j in objs for k in objs
    }
    return FiniteCategory(
        objects=objs,
        arrows=arrows,
        compose=compose,
        identity={i: f"{i}>{i}" for i in objs},
        kind="groupoid",
    )


def product(c: FiniteCategory, d: FiniteCategory) -> FiniteCategory:
    """Componentwise product category; a groupoid when both factors are."""
    objs = tuple(sorted(f"{x}*{y}" for x in c.objects for y in d.objects))
    name = lambda a, b: f"{a}*{b}"
    arrows = {
        name(a, b): EdgeEnds(name(ea.src, eb.src), name(ea.tgt, eb.tgt))
        for a, ea in c.arrows.items()
        for b, eb in d.arrows.items()
    }
    compose = {}
    for (a1, a2), a12 in c.compose.items():
        for (b1, b2), b12 in d.compose.items():
            compose[(name(a1, b1), name(a2, b2))] = name(a12, b12)
    return FiniteCategory(
        objects=objs,
        arrows=arrows,
        compose=compose,
        identity={
            name(x, y): name(c.identity[x], d.identity[y])
            for x in c.objects
            for y in d.objects
        },
        kind="groupoid" if c.kind == d.kind == "groupoid" else "category",
    )


def disjoint_union(c: FiniteCategory, d: FiniteCategory) -> FiniteCategory:
    """Tag-renamed disjoint union: component i contributes ids ``i.x``."""
    tag = lambda i, x: f"{i}.{x}"
    objs = tuple(sorted([tag(0, o) for o in c.objects] + [tag(1, o) for o in d.objects]))
    arrows = {}
    compose = {}
    identity = {}
    for i, cat in ((0, c), (1, d)):
        for a, ends in cat.arrows.items():
            arrows[tag(i, a)] = EdgeEnds(tag(i, ends.src), tag(i, ends.tgt))
        for (a, b), ab in cat.compose.items():
            compose[(tag(i, a), tag(i, b))] = tag(i, ab)
        for o, a in cat.identity.items():
            identity[tag(i, o)] = tag(i, a)
    kind = "groupoid" if c.kind == d.kind == "groupoid" else "category"
    return FiniteCategory(objs, arrows, compose, identity, kind)


# -- the double category of commuting squares --------------------------------


def square_key(top: str, bottom: str, left: str, right: str) -> str:
    return f"q{top}|{bottom}|{left}|{right}"


def square_model(cat: FiniteCategory) -> DoubleGC:
    """The double category of commuting squares (2-shells) in ``cat``.

    Squares are all quadruples (top, bottom, left, right) with matching
    corners and left+bottom = top+right; compositions paste shells, the
    connections fold an edge over a corner.

    A square's partners in ``+1`` are the squares whose top is its bottom,
    and in ``+2`` those whose left is its right, so each composition visits
    only composable pairs.  Every table names a cell by the string it is
    filed under: a square is found by its faces, an arrow or object by
    itself.  A category whose tables name a missing arrow, or whose
    composite of two commuting squares does not commute, raises
    ``MalformedModel``.  A groupoid's inverse tables, of arrows and of
    squares, come from ``core.recover_inverses``.
    """
    obj = Names("object", ((o, o) for o in cat.objects))
    edges = {a: EdgeEnds(obj[e.src], obj[e.tgt]) for a, e in cat.arrows.items()}
    arrow = Names("arrow", ((a, a) for a in edges))
    comp = Names(
        "composite of arrows",
        (((arrow[a], arrow[b]), arrow[c]) for (a, b), c in cat.compose.items()),
    )
    ident = Names("identity of object", ((obj[o], arrow[a]) for o, a in cat.identity.items()))
    arrows_from: dict[str, list[str]] = {}
    for a, ends in edges.items():
        arrows_from.setdefault(ends.src, []).append(a)

    squares: dict[str, SquareFaces] = {}
    by_faces = Names("commuting square with faces")
    for left, (tl, bl) in edges.items():
        for bottom in arrows_from.get(bl, ()):
            diag = comp[(left, bottom)]
            for top in arrows_from.get(tl, ()):
                for right in arrows_from.get(edges[top].tgt, ()):
                    if edges[right].tgt == edges[bottom].tgt and comp[(top, right)] == diag:
                        f = SquareFaces(top, bottom, left, right)
                        s = by_faces[f] = square_key(*f)
                        squares[s] = f
    by_top: dict[str, list[tuple[str, SquareFaces]]] = {}
    by_left: dict[str, list[tuple[str, SquareFaces]]] = {}
    for s, f in squares.items():
        by_top.setdefault(f.top, []).append((s, f))
        by_left.setdefault(f.left, []).append((s, f))

    # arrow composites by first argument; the square search above looked up
    # every composable pair, so each row holds all of its arrow's composites
    rows: dict[str, dict[str, str]] = {a: {} for a in edges}
    for (a, b), c in comp.items():
        rows[a][b] = c
    compose1 = {}
    compose2 = {}
    for s, (top, bottom, left, right) in squares.items():
        left_then, right_then = rows[left], rows[right]
        for t, g in by_top.get(bottom, ()):
            compose1[(s, t)] = by_faces[(top, g.bottom, left_then[g.left], right_then[g.right])]
        top_then, bottom_then = rows[top], rows[bottom]
        for t, g in by_left.get(right, ()):
            compose2[(s, t)] = by_faces[(top_then[g.top], bottom_then[g.bottom], left, g.right)]

    edge_squares = {op.field: {} for op in EDGE_SQUARES}
    for a, ends in edges.items():
        i_src, i_tgt = ident[ends.src], ident[ends.tgt]
        for op in EDGE_SQUARES:
            edge_squares[op.field][a] = by_faces[edge_square_faces(op, a, i_src, i_tgt)]

    model = DoubleGC(
        objects=tuple(sorted(obj)),
        edges=edges,
        squares=squares,
        edge_compose=dict(comp),
        compose1=compose1,
        compose2=compose2,
        eps=dict(ident),
        kind=cat.kind,
        **edge_squares,
    )
    return recover_inverses(model)


def shift_model(group: FiniteCategory) -> DoubleGC:
    """One object, one edge, squares a finite abelian group in both directions.

    Every square has fully degenerate boundary, so distinct squares share a
    shell: the model where non-thin squares and non-commutative cubes exist.
    Requires a one-object groupoid with commutative composition.
    """
    if len(group.objects) != 1 or group.kind != "groupoid":
        raise MalformedModel("shift_model needs a one-object groupoid")
    for (g, h), gh in group.compose.items():
        if group.compose[(h, g)] != gh:
            raise MalformedModel("shift_model needs a commutative group")
    obj = group.objects[0]
    unit = group.identity[obj]
    edge = "e"
    sq = lambda g: f"s{g}"
    zero = sq(unit)
    squares = {sq(g): SquareFaces(edge, edge, edge, edge) for g in group.arrows}
    table = {(sq(g), sq(h)): sq(group.compose[(g, h)]) for g in group.arrows for h in group.arrows}
    model = DoubleGC(
        objects=(obj,),
        edges={edge: EdgeEnds(obj, obj)},
        squares=squares,
        edge_compose={(edge, edge): edge},
        compose1=dict(table),
        compose2=dict(table),
        eps={obj: edge},
        kind="groupoid",
        **{op.field: {edge: zero} for op in EDGE_SQUARES},
    )
    return recover_inverses(model)


# -- substructures and induced maps -------------------------------------------


def full_sub_double(model: DoubleGC, objs: Iterable[str]) -> tuple[DoubleGC, DoubleMorphism]:
    """Full substructure on an object subset, plus its inclusion morphism."""
    keep = set(objs)
    missing = keep - set(model.objects)
    if missing:
        raise MalformedModel(f"unknown objects {sorted(missing)}")
    edges = {e: ends for e, ends in model.edges.items() if ends.src in keep and ends.tgt in keep}
    squares = {
        s: f for s, f in model.squares.items() if all(x in edges for x in f)
    }
    pools = (keep, edges, squares)
    tables = {}
    for op in OPS:
        pool, table = pools[op.arg], getattr(model, op.field)
        if op.binary:
            tables[op.field] = {k: v for k, v in table.items() if k[0] in pool and k[1] in pool}
        else:
            tables[op.field] = {k: v for k, v in table.items() if k in pool}
    sub = DoubleGC(
        objects=tuple(sorted(keep)), edges=edges, squares=squares, kind=model.kind, **tables
    )
    return sub, replace(identity_morphism(sub), target=model)


def induced_square_morphism(
    obj_map: dict[str, str],
    arrow_map: dict[str, str],
    source: DoubleGC,
    target: DoubleGC,
) -> DoubleMorphism:
    """Lift a functor between categories to a map of their square models."""
    f2 = {}
    for s, f in source.squares.items():
        f2[s] = square_key(*(arrow_map[x] for x in f))
        if f2[s] not in target.squares:
            raise MalformedModel(f"functor image of {s!r} is not a target square")
    return DoubleMorphism(source, target, dict(obj_map), dict(arrow_map), f2)


# -- generator mini-language ---------------------------------------------------


def _split_args(text: str) -> list[str]:
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur:
        parts.append(cur)
    return parts


# the deepest nesting of category expressions; the parser recurses once per level
MAX_NESTING = 100


def parse_category(spec: str, depth: int = 0) -> FiniteCategory:
    spec = spec.strip()
    if spec.startswith("z") and spec[1:].isdigit():
        return cyclic_group(int(spec[1:]))
    if "(" in spec and spec.endswith(")"):
        if depth >= MAX_NESTING:
            raise MalformedModel(f"category expressions nested deeper than {MAX_NESTING}")
        head, body = spec.split("(", 1)
        args = _split_args(body[:-1])
        if head == "indiscrete" and len(args) == 1:
            return indiscrete_groupoid(int(args[0]))
        if head == "prod" and len(args) == 2:
            return product(parse_category(args[0], depth + 1), parse_category(args[1], depth + 1))
        if head == "sum" and len(args) == 2:
            return disjoint_union(
                parse_category(args[0], depth + 1), parse_category(args[1], depth + 1)
            )
    raise MalformedModel(f"unknown category generator {spec!r}")


def parse_generator(spec: str) -> DoubleGC:
    """Generators invokable by name: box(cat-expr) and shift(zN).

    Category expressions: zN, indiscrete(N), prod(a,b), sum(a,b).
    """
    spec = spec.strip()
    if spec.startswith("box(") and spec.endswith(")"):
        return square_model(parse_category(spec[4:-1]))
    if spec.startswith("shift(") and spec.endswith(")"):
        return shift_model(parse_category(spec[6:-1]))
    raise MalformedModel(f"unknown model generator {spec!r} (want box(...) or shift(...))")
