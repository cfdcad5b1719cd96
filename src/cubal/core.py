"""Tabulated finite double categories and double groupoids with connections.

A model carries three category structures sharing data: squares over edges in
two directions (vertical ``+1`` and horizontal ``+2``) and edges over objects.
Direction-1 faces are called top (-) and bottom (+), direction-2 faces left (-)
and right (+); arrows read downward and rightward.  All operations are partial
tables over opaque identifiers, and "undefined" is an absent key, never a
sentinel value.  Models are immutable after construction; every function here
is a pure read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .errors import MalformedModel, NotAGroupoid, NotComposable
from .reports import Report

OBJ, EDG, SQR = 0, 1, 2  # dimensions: objects, edges, squares


class EdgeEnds(NamedTuple):
    src: str
    tgt: str


class SquareFaces(NamedTuple):
    top: str
    bottom: str
    left: str
    right: str


@dataclass(frozen=True)
class DoubleGC:
    """A finite double category (or groupoid) with connections, as tables."""

    objects: tuple[str, ...]
    edges: dict[str, EdgeEnds]
    squares: dict[str, SquareFaces]
    edge_compose: dict[tuple[str, str], str]
    compose1: dict[tuple[str, str], str]
    compose2: dict[tuple[str, str], str]
    eps: dict[str, str]
    eps1: dict[str, str]
    eps2: dict[str, str]
    gamma_minus: dict[str, str]
    gamma_plus: dict[str, str]
    kind: str = "category"
    edge_inverse: dict[str, str] = field(default_factory=dict)
    inverse1: dict[str, str] = field(default_factory=dict)
    inverse2: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("category", "groupoid"):
            raise MalformedModel(f"unknown kind {self.kind!r}")

    # -- lookups -----------------------------------------------------------

    def src(self, edge: str) -> str:
        return self.edges[edge].src

    def tgt(self, edge: str) -> str:
        return self.edges[edge].tgt

    def compose_table(self, direction: int) -> dict[tuple[str, str], str]:
        return self.compose1 if direction == 1 else self.compose2

    def table(self, tag: str) -> dict:
        """The table of the operation with this ``OPS`` tag."""
        return getattr(self, OP[tag].field)

    def is_groupoid(self) -> bool:
        return self.kind == "groupoid"

    def stats(self) -> dict[str, int]:
        return {
            "objects": len(self.objects),
            "edges": len(self.edges),
            "squares": len(self.squares),
        }


class Op(NamedTuple):
    """One table operation of a model."""

    tag: str  # short name: engine keys, thin witnesses, pasting leaves
    field: str  # the DoubleGC table
    section: Optional[str]  # .dgc section; None where the format omits it
    dsl: Optional[str]  # spelling in the pasting DSL, if it has one
    arg: int  # dimension of each argument
    value: int  # dimension of the value
    binary: bool

    def args(self, key) -> tuple:
        """The arguments of a table key, as a tuple."""
        return key if self.binary else (key,)

    def key(self, args: tuple):
        """The table key for a tuple of arguments."""
        return args if self.binary else args[0]


# The order is the coequaliser engine's install order, which fixes the names
# of the elements it creates.
OPS = (
    Op("eps", "eps", "eps", None, OBJ, EDG, False),
    Op("e1", "eps1", "eps1", "e1", EDG, SQR, False),
    Op("e2", "eps2", "eps2", "e2", EDG, SQR, False),
    Op("gm", "gamma_minus", "gamma-", "G-", EDG, SQR, False),
    Op("gp", "gamma_plus", "gamma+", "G+", EDG, SQR, False),
    Op("inv_e", "edge_inverse", None, None, EDG, EDG, False),
    Op("inv1", "inverse1", None, None, SQR, SQR, False),
    Op("inv2", "inverse2", None, None, SQR, SQR, False),
    Op("ce", "edge_compose", "compose_edge", None, EDG, EDG, True),
    Op("c1", "compose1", "compose1", None, SQR, SQR, True),
    Op("c2", "compose2", "compose2", None, SQR, SQR, True),
)
OP = {op.tag: op for op in OPS}


# -- spec operations ---------------------------------------------------------


def compose(model: DoubleGC, direction: int, a: str, b: str) -> str:
    """Compose two squares in the given direction, or raise NotComposable."""
    if direction not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    table = model.compose_table(direction)
    got = table.get((a, b))
    if got is None:
        raise NotComposable(direction, a, b)
    return got


def compose_array(model: DoubleGC, rows: Iterable[Iterable[str]]) -> str:
    """Compose an array of squares: each row along +2, then the rows along +1."""
    out = None
    for row in rows:
        r = None
        for cell in row:
            r = cell if r is None else compose(model, 2, r, cell)
        out = r if out is None else compose(model, 1, out, r)
    return out


def compose_edge(model: DoubleGC, a: str, b: str) -> str:
    got = model.edge_compose.get((a, b))
    if got is None:
        raise NotComposable("edge", a, b)
    return got


def invert(model: DoubleGC, direction: int, square: str) -> str:
    if not model.is_groupoid():
        raise NotAGroupoid("square inverses exist only in groupoid models")
    table = model.inverse1 if direction == 1 else model.inverse2
    if square not in table:
        raise MalformedModel(f"no +{direction} inverse recorded for {square!r}")
    return table[square]


def invert_edge(model: DoubleGC, edge: str) -> str:
    if not model.is_groupoid():
        raise NotAGroupoid("edge inverses exist only in groupoid models")
    if edge not in model.edge_inverse:
        raise MalformedModel(f"no inverse recorded for edge {edge!r}")
    return model.edge_inverse[edge]


def connection(model: DoubleGC, sign: str, edge: str) -> str:
    if sign not in ("-", "+"):
        raise ValueError(f"sign must be '-' or '+', got {sign!r}")
    table = model.gamma_minus if sign == "-" else model.gamma_plus
    if edge not in table:
        raise MalformedModel(f"no connection entry for edge {edge!r}")
    return table[edge]


# -- structural well-formedness ----------------------------------------------


def check_structure(model: DoubleGC) -> None:
    """Raise MalformedModel if any table references a missing identifier."""
    objects = set(model.objects)
    edges = model.edges
    squares = model.squares

    for e, ends in edges.items():
        for o in ends:
            if o not in objects:
                raise MalformedModel(f"edge {e!r} has unknown endpoint {o!r}")
    for s, f in squares.items():
        for e in f:
            if e not in edges:
                raise MalformedModel(f"square {s!r} has unknown face {e!r}")
    pools = (objects, edges, squares)
    for op in OPS:
        arg_pool, value_pool = pools[op.arg], pools[op.value]
        for key, value in getattr(model, op.field).items():
            args = op.args(key)
            if value not in value_pool or any(x not in arg_pool for x in args):
                raise MalformedModel(f"{op.field} entry {(*args, value)!r} off the model")


# -- the axiom suite ----------------------------------------------------------


def _sorted_edges(model: DoubleGC) -> list[str]:
    return sorted(model.edges)


def _sorted_squares(model: DoubleGC) -> list[str]:
    return sorted(model.squares)


def _check_edge_category(model: DoubleGC, rep: Report) -> None:
    comp = model.edge_compose
    for a in _sorted_edges(model):
        for b in _sorted_edges(model):
            composable = model.tgt(a) == model.src(b)
            defined = (a, b) in comp
            rep.tick("edge-composability")
            if defined != composable:
                rep.fail("edge-composability", a, b, count=False)
                continue
            if not defined:
                continue
            c = comp[(a, b)]
            rep.tick("edge-composite-endpoints")
            if model.src(c) != model.src(a) or model.tgt(c) != model.tgt(b):
                rep.fail("edge-composite-endpoints", a, b, c, count=False)

    for o in sorted(model.objects):
        rep.tick("edge-identity-endpoints")
        e = model.eps.get(o)
        if e is None or model.src(e) != o or model.tgt(e) != o:
            rep.fail("edge-identity-endpoints", o, count=False)

    for a in _sorted_edges(model):
        rep.tick("edge-identity")
        left_id = model.eps.get(model.src(a))
        right_id = model.eps.get(model.tgt(a))
        if (
            left_id is None
            or right_id is None
            or comp.get((left_id, a)) != a
            or comp.get((a, right_id)) != a
        ):
            rep.fail("edge-identity", a, count=False)

    for (a, b), ab in sorted(comp.items()):
        for c in _sorted_edges(model):
            if model.tgt(b) != model.src(c):
                continue
            rep.tick("edge-associativity")
            lhs = comp.get((ab, c))
            bc = comp.get((b, c))
            rhs = comp.get((a, bc)) if bc is not None else None
            if lhs is None or rhs is None or lhs != rhs:
                rep.fail("edge-associativity", a, b, c, count=False)

    if model.is_groupoid():
        for a in _sorted_edges(model):
            rep.tick("edge-inverse")
            inv = model.edge_inverse.get(a)
            if inv is None:
                rep.fail("edge-inverse", a, count=False)
                continue
            e_src = model.eps.get(model.src(a))
            e_tgt = model.eps.get(model.tgt(a))
            if comp.get((a, inv)) != e_src or comp.get((inv, a)) != e_tgt:
                rep.fail("edge-inverse", a, inv, count=False)


def _square_boundary_ok(model: DoubleGC, s: str) -> bool:
    f = model.squares[s]
    return (
        model.src(f.left) == model.src(f.top)
        and model.tgt(f.left) == model.src(f.bottom)
        and model.tgt(f.top) == model.src(f.right)
        and model.tgt(f.bottom) == model.tgt(f.right)
    )


def _check_square_category(model: DoubleGC, rep: Report, direction: int) -> None:
    comp = model.compose_table(direction)
    eps_table = model.eps1 if direction == 1 else model.eps2
    fam = f"square{direction}"

    def meet(a, b):
        fa, fb = model.squares[a], model.squares[b]
        if direction == 1:
            return fa.bottom == fb.top
        return fa.right == fb.left

    squares = _sorted_squares(model)
    for a in squares:
        for b in squares:
            composable = meet(a, b)
            defined = (a, b) in comp
            rep.tick(f"{fam}-composability")
            if defined != composable:
                rep.fail(f"{fam}-composability", a, b, count=False)
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
                rep.fail(f"{fam}-composite-faces", a, b, c, count=False)

    for a in _sorted_edges(model):
        rep.tick(f"{fam}-identity-faces")
        s = eps_table.get(a)
        e_src = model.eps.get(model.src(a))
        e_tgt = model.eps.get(model.tgt(a))
        if s is None:
            rep.fail(f"{fam}-identity-faces", a, count=False)
            continue
        f = model.squares[s]
        want = (
            SquareFaces(a, a, e_src, e_tgt)
            if direction == 1
            else SquareFaces(e_src, e_tgt, a, a)
        )
        if f != want:
            rep.fail(f"{fam}-identity-faces", a, s, count=False)

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
            rep.fail(f"{fam}-identity", s, count=False)

    for (a, b), ab in sorted(comp.items()):
        for c in squares:
            if not meet(b, c):
                continue
            rep.tick(f"{fam}-associativity")
            lhs = comp.get((ab, c))
            bc = comp.get((b, c))
            rhs = comp.get((a, bc)) if bc is not None else None
            if lhs is None or rhs is None or lhs != rhs:
                rep.fail(f"{fam}-associativity", a, b, c, count=False)

    if model.is_groupoid():
        inv_table = model.inverse1 if direction == 1 else model.inverse2
        for s in squares:
            rep.tick(f"{fam}-inverse")
            t = inv_table.get(s)
            if t is None:
                rep.fail(f"{fam}-inverse", s, count=False)
                continue
            f = model.squares[s]
            pre = eps_table.get(f.top if direction == 1 else f.left)
            post = eps_table.get(f.bottom if direction == 1 else f.right)
            if comp.get((s, t)) != pre or comp.get((t, s)) != post:
                rep.fail(f"{fam}-inverse", s, t, count=False)


def _check_interchange(model: DoubleGC, rep: Report) -> None:
    # (u +2 w) +1 (u' +2 w') = (u +1 u') +2 (w +1 w') whenever both sides defined
    comp1, comp2 = model.compose1, model.compose2
    by_top: dict[str, list[str]] = {}
    by_top_left: dict[tuple[str, str], list[str]] = {}
    for s in _sorted_squares(model):
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
                    rep.fail("interchange", u, w, up, wp, count=False)


def _check_cubical(model: DoubleGC, rep: Report) -> None:
    for s in _sorted_squares(model):
        rep.tick("square-boundary")
        if not _square_boundary_ok(model, s):
            rep.fail("square-boundary", s, count=False)

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
            rep.fail("degeneracy-composition", a, b, count=False)

    for o in sorted(model.objects):
        rep.tick("double-degeneracy")
        e = model.eps.get(o)
        if e is None:
            rep.fail("double-degeneracy", o, count=False)
            continue
        vals = {
            model.eps1.get(e),
            model.eps2.get(e),
            model.gamma_minus.get(e),
            model.gamma_plus.get(e),
        }
        if len(vals) != 1 or None in vals:
            rep.fail("double-degeneracy", o, count=False)


def _check_connections(model: DoubleGC, rep: Report) -> None:
    for a in _sorted_edges(model):
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
            rep.fail("connection-boundary", a, count=False)

    # transport: the connection of a composite is a 2x2 array of connections
    # and identities, block shapes fixed by the derivation oracle
    for (a, b), ab in sorted(model.edge_compose.items()):
        rep.tick("transport")
        try:
            gm = compose(
                model,
                1,
                compose(model, 2, model.gamma_minus[a], model.eps1[b]),
                compose(model, 2, model.eps2[b], model.gamma_minus[b]),
            )
            gp = compose(
                model,
                1,
                compose(model, 2, model.gamma_plus[a], model.eps2[a]),
                compose(model, 2, model.eps1[a], model.gamma_plus[b]),
            )
        except (NotComposable, KeyError):
            rep.fail("transport", a, b, count=False)
            continue
        if gm != model.gamma_minus.get(ab) or gp != model.gamma_plus.get(ab):
            rep.fail("transport", a, b, count=False)

    for a in _sorted_edges(model):
        rep.tick("cancellation")
        gm, gp = model.gamma_minus.get(a), model.gamma_plus.get(a)
        if gm is None or gp is None:
            rep.fail("cancellation", a, count=False)
            continue
        if model.compose1.get((gp, gm)) != model.eps2.get(a) or model.compose2.get(
            (gp, gm)
        ) != model.eps1.get(a):
            rep.fail("cancellation", a, count=False)


def validate(model: DoubleGC) -> Report:
    """Run every axiom of the structure and report violations with witnesses.

    Checked: the 2-cubical relations, the three category (or groupoid)
    structures, interchange, the connection boundary patterns, the transport
    and cancellation laws in their derived concrete forms, and the degenerate
    coincidences.  Connection axioms beyond those are deliberately out of
    scope.  Enumeration order is sorted identifiers throughout, so reports
    are deterministic.  Raises MalformedModel if tables point at missing ids.
    """
    check_structure(model)
    rep = Report(title="double category with connections: axiom suite")
    _check_cubical(model, rep)
    _check_edge_category(model, rep)
    _check_square_category(model, rep, 1)
    _check_square_category(model, rep, 2)
    _check_interchange(model, rep)
    _check_connections(model, rep)
    return rep
