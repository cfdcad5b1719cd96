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

from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Optional

from .errors import MalformedModel, NotComposable
from .reports import Report

OBJ, EDG, SQR = 0, 1, 2  # dimensions: objects, edges, squares
# characters no identifier may hold: the pasting DSL's punctuation, so that
# every cell of a .dgc model can be named in a script
RESERVED = set("[](),;=?#")


class EdgeEnds(NamedTuple):
    src: str
    tgt: str


class SquareFaces(NamedTuple):
    top: str
    bottom: str
    left: str
    right: str


class Names(dict):
    """The one name string of each cell, by what finds it.

    Builders look every mention of a cell up here, so their tables share
    that string instead of holding a copy per entry.  A miss means the input
    names a cell it does not have, and raises ``MalformedModel``.
    """

    def __init__(self, what: str, items=()):
        super().__init__(items)
        self.what = what

    def __missing__(self, key):
        raise MalformedModel(f"{self.what}: no entry for {key!r}")


@dataclass(frozen=True)
class DoubleGC:
    """A finite double category (or groupoid) with connections, as tables.

    A groupoid's inverse tables are derived, never written by hand: every
    builder and the ``.dgc`` parser get them from ``recover_inverses``.
    """

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

    def table(self, tag: str) -> dict:
        """The table of the operation with this ``OPS`` tag."""
        return getattr(self, OP[tag].field)

    def cells(self) -> tuple:
        """The cells of each dimension: ``(objects, edges, squares)``."""
        return (self.objects, self.edges, self.squares)

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
    family: str  # its preservation family in ``morphisms.validate_morphism``
    # an edge square's faces, as indices into (a, eps(src a), eps(tgt a))
    faces: Optional[tuple[int, int, int, int]] = None

    def args(self, key) -> tuple:
        """The arguments of a table key, as a tuple."""
        return key if self.binary else (key,)

    def key(self, args: tuple):
        """The table key for a tuple of arguments."""
        return args if self.binary else args[0]


# The order is the coequaliser engine's install order, which fixes the names
# of the elements it creates.
OPS = (
    Op("eps", "eps", "eps", None, OBJ, EDG, False, "identity-edge"),
    Op("e1", "eps1", "eps1", "e1", EDG, SQR, False, "identity-square-1", (0, 0, 1, 2)),
    Op("e2", "eps2", "eps2", "e2", EDG, SQR, False, "identity-square-2", (1, 2, 0, 0)),
    Op("gm", "gamma_minus", "gamma-", "G-", EDG, SQR, False, "connection-minus", (0, 2, 0, 2)),
    Op("gp", "gamma_plus", "gamma+", "G+", EDG, SQR, False, "connection-plus", (1, 0, 1, 0)),
    Op("inv_e", "edge_inverse", None, None, EDG, EDG, False, "edge-inverse"),
    Op("inv1", "inverse1", None, None, SQR, SQR, False, "square-inverse-1"),
    Op("inv2", "inverse2", None, None, SQR, SQR, False, "square-inverse-2"),
    Op("ce", "edge_compose", "compose_edge", None, EDG, EDG, True, "edge-composition"),
    Op("c1", "compose1", "compose1", None, SQR, SQR, True, "square-composition-1"),
    Op("c2", "compose2", "compose2", None, SQR, SQR, True, "square-composition-2"),
)
OP = {op.tag: op for op in OPS}
# the operations taking an edge to a square with a fixed boundary: e1, e2, G-, G+
EDGE_SQUARES = tuple(op for op in OPS if op.faces)


def edge_square_faces(op: Op, a: str, src_unit: str, tgt_unit: str) -> SquareFaces:
    """The faces of the edge square ``op(a)``, given the identity edges on ``a``'s ends."""
    cells = (a, src_unit, tgt_unit)
    return SquareFaces(*(cells[i] for i in op.faces))


class Comp(NamedTuple):
    """One of the three compositions: edges over objects, squares along +1 and +2.

    The composite of ``a`` then ``b`` takes boundary slot ``lo`` from ``a`` and
    ``hi`` from ``b``, where ``a``'s ``hi`` meets ``b``'s ``lo``; each ``mid``
    slot is the edge composite of the two arguments' slots.  An inverse swaps
    ``lo`` and ``hi`` and inverts the ``mid`` edges.
    """

    op: str  # the composition's ``OPS`` tag
    family: str  # prefix of its axiom families in reports
    dim: int
    unit: str  # the identity operation
    inv: str  # the inverse operation
    lo: int
    hi: int
    mid: tuple[int, ...]


COMPS = (
    Comp("ce", "edge", EDG, "eps", "inv_e", 0, 1, ()),
    Comp("c1", "square1", SQR, "e1", "inv1", 0, 1, (2, 3)),
    Comp("c2", "square2", SQR, "e2", "inv2", 2, 3, (0, 1)),
)


def recover_inverses(model: DoubleGC) -> DoubleGC:
    """A groupoid model with each composition's two-sided inverses filled in.

    ``b`` inverts ``a`` when ``a`` then ``b`` is the unit on ``a``'s ``lo``
    slot and ``b`` then ``a`` the unit on its ``hi`` slot; the first such
    ``b`` in table order wins.  Only a ``b`` whose ``lo`` slot is ``a``'s
    ``hi`` can follow ``a``, and an ``a`` missing either unit has no inverse,
    which ``validate`` then reports.  A category model is returned unchanged.
    """
    if not model.is_groupoid():
        return model
    inverses = {}
    for comp in COMPS:
        table, unit = model.table(comp.op), model.table(comp.unit)
        cells = model.cells()[comp.dim]
        by_lo: dict[str, list[str]] = {}
        for b, bound in cells.items():
            by_lo.setdefault(bound[comp.lo], []).append(b)
        found = {}
        for a, bound in cells.items():
            lo, hi = unit.get(bound[comp.lo]), unit.get(bound[comp.hi])
            if lo is None or hi is None:
                continue
            for b in by_lo.get(bound[comp.hi], ()):
                if table.get((a, b)) == lo and table.get((b, a)) == hi:
                    found[a] = b
                    break
        inverses[OP[comp.inv].field] = found
    return replace(model, **inverses)


# -- spec operations ---------------------------------------------------------


def compose_array(model: DoubleGC, rows: Iterable[Iterable[str]]) -> str:
    """Compose an array of squares: each row along +2, then the rows along +1.

    Raises NotComposable at the first pair, in that order, with no composite.
    """
    c1, c2 = model.compose1.get, model.compose2.get
    out = None
    for row in rows:
        r = None
        for cell in row:
            if r is not None:
                got = c2((r, cell))
                if got is None:
                    raise NotComposable(2, r, cell)
                cell = got
            r = cell
        if out is not None:
            got = c1((out, r))
            if got is None:
                raise NotComposable(1, out, r)
            r = got
        out = r
    return out


# -- structural well-formedness ----------------------------------------------


def check_structure(model: DoubleGC) -> None:
    """Raise MalformedModel if any table references a missing identifier."""
    objects, edges, squares = pools = model.cells()

    for e, ends in edges.items():
        for o in ends:
            if o not in objects:
                raise MalformedModel(f"edge {e!r} has unknown endpoint {o!r}")
    for s, f in squares.items():
        for e in f:
            if e not in edges:
                raise MalformedModel(f"square {s!r} has unknown face {e!r}")
    for op in OPS:
        arg_pool, value_pool = pools[op.arg], pools[op.value]
        for key, value in getattr(model, op.field).items():
            args = op.args(key)
            if value not in value_pool or any(x not in arg_pool for x in args):
                raise MalformedModel(f"{op.field} entry {(*args, value)!r} off the model")


# -- the axiom suite ----------------------------------------------------------


def _rows(table: dict[tuple[str, str], str]) -> dict[str, dict[str, str]]:
    """A composition table by left argument: ``rows[a][b]`` is ``table[a, b]``.

    The checks below read each operand's row once per loop rather than one
    tuple key per check.  Rows are built per call and dropped with it.
    """
    rows: dict[str, dict[str, str]] = {}
    for (a, b), ab in table.items():
        rows.setdefault(a, {})[b] = ab
    return rows


def _check_category(model: DoubleGC, rep: Report, comp: Comp) -> None:
    """The category (or groupoid) laws of one composition, each stated once.

    ``b`` follows ``a`` when ``a``'s ``hi`` slot is ``b``'s ``lo`` slot.
    """
    lo, hi = comp.lo, comp.hi
    table, unit = model.table(comp.op), model.table(comp.unit)
    bounds = model.cells()[comp.dim]
    shape = "endpoints" if comp.dim == EDG else "faces"
    composability, composite, unit_bound, identity, associativity, inverse = (
        f"{comp.family}-{law}"
        for law in (
            "composability",
            f"composite-{shape}",
            f"identity-{shape}",
            "identity",
            "associativity",
            "inverse",
        )
    )
    cells = sorted(bounds)
    follows: dict[str, list[str]] = {}
    for x in cells:
        follows.setdefault(bounds[x][lo], []).append(x)

    def after(a: str) -> list[str]:
        return follows.get(bounds[a][hi], [])

    # the composable pairs and the defined keys by rows, in the order of a full
    # n*n scan: sorted a, then sorted b.  A row whose keys are the cells that
    # follow a is walked as after(a); only a row that differs sorts the union.
    rows = _rows(table)
    follow_sets = {x: frozenset(xs) for x, xs in follows.items()}
    ec, (m, n) = model.edge_compose.get, comp.mid or (None, None)
    rep.tick(composability, len(cells) ** 2)  # one per ordered pair, as the scan made
    defined = 0
    for a in cells:
        fa, row = bounds[a], rows.get(a, {})
        follow = follow_sets.get(fa[hi], frozenset())
        for b in after(a) if row.keys() == follow else sorted(row.keys() | follow):
            c = row.get(b)
            if c is None or b not in follow:  # b is in one of the two, not both
                rep.fail(composability, a, b)
                continue
            defined += 1
            fb, fc = bounds[b], bounds[c]
            if (
                fc[lo] != fa[lo]
                or fc[hi] != fb[hi]
                or m is not None
                and (fc[m] != ec((fa[m], fb[m])) or fc[n] != ec((fa[n], fb[n])))
            ):
                rep.fail(composite, a, b, c)
    rep.tick(composite, defined)

    # the unit of x has x at both ends and the units of x's ends across
    lower = model.cells()[comp.dim - 1]
    rep.tick(unit_bound, len(lower))
    for x in sorted(lower):
        u = unit.get(x)
        want = [x] * (2 + len(comp.mid))
        for i, end in zip(comp.mid, model.edges[x] if comp.mid else ()):
            want[i] = model.eps.get(end)
        if u is None or bounds[u] != tuple(want):
            # an edge unit is reported by its object alone
            witness = (x,) if u is None or comp.dim == EDG else (x, u)
            rep.fail(unit_bound, *witness)

    rep.tick(identity, len(cells))
    for s in cells:
        f = bounds[s]
        pre, post = unit.get(f[lo]), unit.get(f[hi])
        if (
            pre is None
            or post is None
            or table.get((pre, s)) != s
            or table.get((s, post)) != s
        ):
            rep.fail(identity, s)

    # (a b) c = a (b c), by rows: sorted a, then sorted b, is sorted (a, b)
    checked = 0
    for a in sorted(rows):
        row_a = rows[a]
        for b in sorted(row_a):
            ab_row, b_row = rows.get(row_a[b], {}), rows.get(b, {})
            cs = after(b)
            checked += len(cs)
            try:
                for c in cs:
                    if ab_row[c] != row_a[b_row[c]]:
                        raise KeyError(c)
            except KeyError:  # a missing entry or a mismatch: walk again, reporting
                for c in cs:
                    lhs = ab_row.get(c)
                    if lhs is None or lhs != row_a.get(b_row.get(c)):
                        rep.fail(associativity, a, b, c)
    rep.tick(associativity, checked)

    if model.is_groupoid():
        inverses = model.table(comp.inv)
        rep.tick(inverse, len(cells))
        for s in cells:
            t = inverses.get(s)
            if t is None:
                rep.fail(inverse, s)
                continue
            f = bounds[s]
            pre, post = unit.get(f[lo]), unit.get(f[hi])
            if table.get((s, t)) != pre or table.get((t, s)) != post:
                rep.fail(inverse, s, t)


def _square_boundary_ok(model: DoubleGC, s: str) -> bool:
    f = model.squares[s]
    return (
        model.src(f.left) == model.src(f.top)
        and model.tgt(f.left) == model.src(f.bottom)
        and model.tgt(f.top) == model.src(f.right)
        and model.tgt(f.bottom) == model.tgt(f.right)
    )


def _check_interchange(model: DoubleGC, rep: Report) -> None:
    # (u +2 w) +1 (u' +2 w') = (u +1 u') +2 (w +1 w') whenever both sides defined
    squares = model.squares
    rows1, rows2 = _rows(model.compose1), _rows(model.compose2)
    by_top: dict[str, list[str]] = {}
    by_top_left: dict[str, dict[str, list[str]]] = {}
    for s in sorted(squares):
        f = squares[s]
        by_top.setdefault(f.top, []).append(s)
        by_top_left.setdefault(f.top, {}).setdefault(f.left, []).append(s)
    checked = 0
    for u in sorted(rows2):
        row2_u, row1_u = rows2[u], rows1.get(u, {})
        # each u' below u: its row and the row of u +1 u', both along +2
        below = [
            (up, rows2.get(up, {}), rows2.get(row1_u.get(up), {}), squares[up].right)
            for up in by_top.get(squares[u].bottom, ())
        ]
        for w in sorted(row2_u):
            w_row1, uw_row1 = rows1.get(w, {}), rows1.get(row2_u[w], {})
            below_w = by_top_left.get(squares[w].bottom, {})
            for up, up_row2, uu_row2, right_up in below:
                wps = below_w.get(right_up, ())
                checked += len(wps)
                try:
                    for wp in wps:
                        if uw_row1[up_row2[wp]] != uu_row2[w_row1[wp]]:
                            raise KeyError(wp)
                except KeyError:  # a missing entry or a mismatch: walk again, reporting
                    for wp in wps:
                        lhs = uw_row1.get(up_row2.get(wp))
                        if lhs is None or lhs != uu_row2.get(w_row1.get(wp)):
                            rep.fail("interchange", u, w, up, wp)
    rep.tick("interchange", checked)


def _check_cubical(model: DoubleGC, rep: Report) -> None:
    rep.tick("square-boundary", len(model.squares))
    for s in sorted(model.squares):
        if not _square_boundary_ok(model, s):
            rep.fail("square-boundary", s)

    # identity maps compose across the other direction
    rep.tick("degeneracy-composition", len(model.edge_compose))
    for (a, b), ab in sorted(model.edge_compose.items()):
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

    rep.tick("double-degeneracy", len(model.objects))
    for o in sorted(model.objects):
        e = model.eps.get(o)
        if e is None:
            rep.fail("double-degeneracy", o)
            continue
        vals = {model.table(op.tag).get(e) for op in EDGE_SQUARES}
        if len(vals) != 1 or None in vals:
            rep.fail("double-degeneracy", o)


_CONNECTIONS = (OP["gm"], OP["gp"])


def _check_connections(model: DoubleGC, rep: Report) -> None:
    rep.tick("connection-boundary", len(model.edges))
    for a in sorted(model.edges):
        e_src = model.eps.get(model.src(a))
        e_tgt = model.eps.get(model.tgt(a))
        if any(
            model.squares.get(model.table(op.tag).get(a)) != edge_square_faces(op, a, e_src, e_tgt)
            for op in _CONNECTIONS
        ):
            rep.fail("connection-boundary", a)

    # transport: the connection of a composite is a 2x2 array of connections
    # and identities, block shapes fixed by the derivation oracle
    rep.tick("transport", len(model.edge_compose))
    for (a, b), ab in sorted(model.edge_compose.items()):
        try:
            gm = compose_array(
                model,
                [
                    [model.gamma_minus[a], model.eps1[b]],
                    [model.eps2[b], model.gamma_minus[b]],
                ],
            )
            gp = compose_array(
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

    rep.tick("cancellation", len(model.edges))
    for a in sorted(model.edges):
        gm, gp = model.gamma_minus.get(a), model.gamma_plus.get(a)
        if gm is None or gp is None:
            rep.fail("cancellation", a)
            continue
        if model.compose1.get((gp, gm)) != model.eps2.get(a) or model.compose2.get(
            (gp, gm)
        ) != model.eps1.get(a):
            rep.fail("cancellation", a)


def validate(model: DoubleGC) -> Report:
    """Run every axiom of the structure and report violations with witnesses.

    Checked: the 2-cubical relations, the three category (or groupoid)
    structures, interchange, the connection boundary patterns, the transport
    and cancellation laws in their derived concrete forms, and the degenerate
    coincidences.  Connection axioms beyond those are deliberately out of
    scope.  Enumeration order is sorted identifiers throughout, so reports
    are deterministic.  Every family ticks once per loop with the number of
    checks made, and not at all when there were none; so a family with no
    checks has no ``checked_count`` entry.  Associativity and interchange,
    the two families with a check per composable triple or 2x2 array, read
    the composition tables as rows by left argument (``_rows``) and compare
    the instances that share all but their last argument by subscripts, in
    one ``try``; a block that meets a missing entry or a mismatch is walked
    again by ``.get``, which reports each failing instance in order.  Raises
    MalformedModel if tables point at missing ids.
    """
    check_structure(model)
    rep = Report(title="double category with connections: axiom suite")
    _check_cubical(model, rep)
    for comp in COMPS:
        _check_category(model, rep, comp)
    _check_interchange(model, rep)
    _check_connections(model, rep)
    return rep
