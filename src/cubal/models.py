"""Constructors for concrete finite models.

The workhorse is ``square_model(C)``: the double category of commuting squares
in a finite category C, with its canonical connections.  Squares there are
keyed by their edge quadruple, so thin fillers are O(1) lookups.  The shift
models (``shift_model``) provide squares that are *not* determined by their
boundary, which the commuting-squares models can never supply; they are the
negative-witness generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import OPS, DoubleGC, EdgeEnds, SquareFaces
from .errors import MalformedModel
from .morphisms import DoubleMorphism


@dataclass(frozen=True)
class FiniteCategory:
    objects: tuple[str, ...]
    arrows: dict[str, EdgeEnds]
    compose: dict[tuple[str, str], str]
    identity: dict[str, str]
    kind: str = "category"
    inverse: dict[str, str] = field(default_factory=dict)

    def src(self, a: str) -> str:
        return self.arrows[a].src

    def tgt(self, a: str) -> str:
        return self.arrows[a].tgt


# -- generators ---------------------------------------------------------------


def group_as_groupoid(
    elements: Sequence[str],
    op: dict[tuple[str, str], str],
    unit: str,
    object_name: str = "o",
) -> FiniteCategory:
    """One-object groupoid whose arrows are the elements of a finite group."""
    elements = tuple(elements)
    inverse = {}
    for g in elements:
        for h in elements:
            if op[(g, h)] == unit and op[(h, g)] == unit:
                inverse[g] = h
                break
        else:
            raise MalformedModel(f"element {g!r} has no inverse")
    return FiniteCategory(
        objects=(object_name,),
        arrows={g: EdgeEnds(object_name, object_name) for g in elements},
        compose=dict(op),
        identity={object_name: unit},
        kind="groupoid",
        inverse=inverse,
    )


def cyclic_group(n: int) -> FiniteCategory:
    elements = [str(i) for i in range(n)]
    op = {(str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)}
    return group_as_groupoid(elements, op, "0")


def trivial_category() -> FiniteCategory:
    return cyclic_group(1)


def indiscrete_groupoid(n: int) -> FiniteCategory:
    """Exactly one arrow between each ordered pair of the n objects."""
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
        inverse={f"{i}>{j}": f"{j}>{i}" for i in objs for j in objs},
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
    kind = "groupoid" if c.kind == d.kind == "groupoid" else "category"
    inverse = {}
    if kind == "groupoid":
        inverse = {
            name(a, b): name(c.inverse[a], d.inverse[b])
            for a in c.arrows
            for b in d.arrows
        }
    return FiniteCategory(
        objects=objs,
        arrows=arrows,
        compose=compose,
        identity={
            name(x, y): name(c.identity[x], d.identity[y])
            for x in c.objects
            for y in d.objects
        },
        kind=kind,
        inverse=inverse,
    )


def disjoint_union(c: FiniteCategory, d: FiniteCategory) -> FiniteCategory:
    """Tag-renamed disjoint union: component i contributes ids ``i.x``."""
    tag = lambda i, x: f"{i}.{x}"
    objs = tuple(sorted([tag(0, o) for o in c.objects] + [tag(1, o) for o in d.objects]))
    arrows = {}
    compose = {}
    identity = {}
    inverse = {}
    for i, cat in ((0, c), (1, d)):
        for a, ends in cat.arrows.items():
            arrows[tag(i, a)] = EdgeEnds(tag(i, ends.src), tag(i, ends.tgt))
        for (a, b), ab in cat.compose.items():
            compose[(tag(i, a), tag(i, b))] = tag(i, ab)
        for o, a in cat.identity.items():
            identity[tag(i, o)] = tag(i, a)
        for a, b in cat.inverse.items():
            inverse[tag(i, a)] = tag(i, b)
    kind = "groupoid" if c.kind == d.kind == "groupoid" else "category"
    return FiniteCategory(objs, arrows, compose, identity, kind, inverse)


# -- the double category of commuting squares --------------------------------


def square_key(top: str, bottom: str, left: str, right: str) -> str:
    return f"q{top}|{bottom}|{left}|{right}"


def square_model(cat: FiniteCategory) -> DoubleGC:
    """The double category of commuting squares (2-shells) in ``cat``.

    Squares are all quadruples (top, bottom, left, right) with matching
    corners and left+bottom = top+right; compositions paste shells, the
    connections fold an edge over a corner.
    """
    comp = cat.compose
    arrows_from: dict[str, list[str]] = {}
    for a, ends in cat.arrows.items():
        arrows_from.setdefault(ends.src, []).append(a)

    squares: dict[str, SquareFaces] = {}
    for left in cat.arrows:
        tl, bl = cat.src(left), cat.tgt(left)
        for bottom in arrows_from.get(bl, ()):
            diag = comp[(left, bottom)]
            for top in arrows_from.get(tl, ()):
                for right in arrows_from.get(cat.tgt(top), ()):
                    if cat.tgt(right) == cat.tgt(bottom) and comp[(top, right)] == diag:
                        squares[square_key(top, bottom, left, right)] = SquareFaces(
                            top, bottom, left, right
                        )

    compose1 = {}
    compose2 = {}
    for s, f in squares.items():
        for t, g in squares.items():
            if f.bottom == g.top:
                compose1[(s, t)] = square_key(
                    f.top, g.bottom, comp[(f.left, g.left)], comp[(f.right, g.right)]
                )
            if f.right == g.left:
                compose2[(s, t)] = square_key(
                    comp[(f.top, g.top)], comp[(f.bottom, g.bottom)], f.left, g.right
                )

    eps1 = {}
    eps2 = {}
    gm = {}
    gp = {}
    for a, ends in cat.arrows.items():
        i_src, i_tgt = cat.identity[ends.src], cat.identity[ends.tgt]
        eps1[a] = square_key(a, a, i_src, i_tgt)
        eps2[a] = square_key(i_src, i_tgt, a, a)
        gm[a] = square_key(a, i_tgt, a, i_tgt)
        gp[a] = square_key(i_src, a, i_src, a)

    inverse1 = {}
    inverse2 = {}
    edge_inverse = {}
    if cat.kind == "groupoid":
        edge_inverse = dict(cat.inverse)
        for s, f in squares.items():
            inverse1[s] = square_key(
                f.bottom, f.top, cat.inverse[f.left], cat.inverse[f.right]
            )
            inverse2[s] = square_key(
                cat.inverse[f.top], cat.inverse[f.bottom], f.right, f.left
            )

    return DoubleGC(
        objects=tuple(sorted(cat.objects)),
        edges=dict(cat.arrows),
        squares=squares,
        edge_compose=dict(comp),
        compose1=compose1,
        compose2=compose2,
        eps=dict(cat.identity),
        eps1=eps1,
        eps2=eps2,
        gamma_minus=gm,
        gamma_plus=gp,
        kind=cat.kind,
        edge_inverse=edge_inverse,
        inverse1=inverse1,
        inverse2=inverse2,
    )


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
    return DoubleGC(
        objects=(obj,),
        edges={edge: EdgeEnds(obj, obj)},
        squares=squares,
        edge_compose={(edge, edge): edge},
        compose1=dict(table),
        compose2=dict(table),
        eps={obj: edge},
        eps1={edge: zero},
        eps2={edge: zero},
        gamma_minus={edge: zero},
        gamma_plus={edge: zero},
        kind="groupoid",
        edge_inverse={edge: edge},
        inverse1={sq(g): sq(group.inverse[g]) for g in group.arrows},
        inverse2={sq(g): sq(group.inverse[g]) for g in group.arrows},
    )


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
    inclusion = DoubleMorphism(
        source=sub,
        target=model,
        f0={o: o for o in sub.objects},
        f1={e: e for e in sub.edges},
        f2={s: s for s in sub.squares},
    )
    return sub, inclusion


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


def parse_category(spec: str) -> FiniteCategory:
    spec = spec.strip()
    if spec.startswith("z") and spec[1:].isdigit():
        return cyclic_group(int(spec[1:]))
    if "(" in spec and spec.endswith(")"):
        head, body = spec.split("(", 1)
        args = _split_args(body[:-1])
        if head == "indiscrete" and len(args) == 1:
            return indiscrete_groupoid(int(args[0]))
        if head == "prod" and len(args) == 2:
            return product(parse_category(args[0]), parse_category(args[1]))
        if head == "sum" and len(args) == 2:
            return disjoint_union(parse_category(args[0]), parse_category(args[1]))
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
