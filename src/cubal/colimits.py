"""Colimits of finite double groupoids with connections.

Coproducts are disjoint unions.  Coequalisers are computed by congruence
closure plus *saturation*: once object classes merge, edges and squares that
were never composable become composable, and their composites must be added
freely as fresh elements and closed over again.  The fixed point is the
coequaliser when it is reached within the element budget; the true quotient
can be infinite, so ``budget_exceeded`` is a first-class outcome, never an
error.  The budget counts elements, base and fresh; ``stats`` also reports
the stored table rows.  Before saturating, ``coequalise`` looks for a map
from the target's edges to Z that is nonzero on a loop of the quotient; one
that ``divergence.check_divergence`` accepts proves the quotient infinite,
so the pair is answered ``budget_exceeded`` at once, with the certificate
(the soundness argument and why the search is incomplete are in
``cubal.divergence``).

Each round settles the edges before it builds on them: edge totality
(degeneracies, connections, inverses), edge composites, then the rules
pass; only then the same for squares.  So square composites are built
over settled edge classes instead of over composites that are about to
merge.  Totality and saturation visit only the classes created, made thin or
merged into since their last visit; a pair is visited only if one of its
members, or the face where they meet, is such a class.

Two kinds of merge rules run: plain congruence (faces, operations, the
category laws, interchange) and the thin-filler rule: two thin squares over
equal boundary classes coincide (uniqueness of thin fillers, valid in every
double category with connections).  The thin squares live in an index keyed
by their canonical shell; filing a square rewrites its bound to that shell,
so a filed square's shell is read from ``bounds``.  Merging edges re-keys the
index through a use list, and a key collision merges the two squares.  The
composite of two thin squares is the thin square on the composite shell, so
those composites are looked up in the index and never stored as rows, and
every law instance whose arguments are all thin holds by shell.  So set-up
leaves out each base row of ``c1`` or ``c2`` whose value is the thin square
filed under its composite shell: before ``run`` nothing has merged, so
defining it would queue no merge and store no row.

Every other law instance is checked from one designated stored row, only
in the rules pass that ends each half-round (storing a row merges only its
faces, units and inverses).  An associativity instance (x·y)·z = x·(y·z) is
visited from y·z, or from x·y when y and z are thin squares (then y·z is
answered by shell and never stored).  An interchange array u w / u' w' is
visited from its top row u·2 w; when u and w are thin, from its left column
u·1 u'; when u' is thin too, from its right column w·1 w'.  The designated
row exists exactly when the instance has a non-thin argument, and
completeness rests on the last round: the run ends on a round in which the
stamp did not move, and that round's rules pass visited every stored row,
so every instance with a non-thin argument was checked from its designated
row with all its composites present, and none queued a merge.

Each law is stated once per composition.  Edge composition and square
composition in directions 1 and 2 are each described by a ``core.COMPS`` row
(its unit, its inverse and the boundary slots where its arguments meet), and
the same code applies units, inverses, composite boundaries and saturation to
all three.

Each relation is also stated once for both argument sides.  A stored
composite is filed in one use list per side (``by_arg``), and ``_partners``
reads either side, adding the thin partners of a thin root from
``_thin_partners``.  The rules and ``goc`` read each composite through
``_entry``, stored or answered by shell.  The engine's order stands in for
searches: each dimension's base cells are installed in sorted name order
before any fresh element, a class's root is its least index, and the
arguments of a creation record are created before it, so ``roots`` lists
roots in index order and the uniqueness of factoring morphisms is decided in
one pass over it.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import Iterable, Optional

from .core import COMPS, EDG, EDGE_SQUARES, OBJ, OP, OPS, SQR, Comp, DoubleGC, EdgeEnds, Names
from .core import SquareFaces, edge_square_faces
from .divergence import check_divergence, describe, find_divergence
from .errors import (
    InputMismatch,
    NotAGroupoid,
    NotCoequalised,
    WellDefinednessFailure,
)
from .models import FiniteCategory, full_sub_double, square_model
from .morphisms import (
    DoubleMorphism,
    compose_morphisms,
    validate_morphism,
)
from .reports import Report
from .thin import thin_set

DEFAULT_BUDGET = 20000

# plain dicts for the engine's hot paths
_ARG_DIM = {op.tag: op.arg for op in OPS}
_VALUE_DIM = {op.tag: op.value for op in OPS}
# per dimension, the operations taking arguments of it: (tag, binary)
_OPS_ON = [[(op.tag, op.binary) for op in OPS if op.arg == dim] for dim in (OBJ, EDG, SQR)]


@dataclass
class QuotientResult:
    status: str  # 'finite' | 'budget_exceeded'
    object: Optional[DoubleGC]
    projection: Optional[DoubleMorphism]
    generators_added: int
    stats: dict = field(default_factory=dict)  # JSON-safe counters
    # a checked proof that the quotient is infinite (``divergence``), if one was found
    divergence: Optional[dict] = None
    # the finished engine and the coequalised pair, for the universal property
    engine: Optional["_Engine"] = field(default=None, repr=False, compare=False)
    seeds: Optional[tuple[DoubleMorphism, DoubleMorphism]] = field(
        default=None, repr=False, compare=False
    )


# -- coproduct -----------------------------------------------------------------


def coproduct(models: list[DoubleGC]) -> tuple[DoubleGC, list[DoubleMorphism]]:
    """Disjoint union with tag-renamed identifiers, plus the injections.

    Summand ``i`` contributes ``i.x`` for each cell ``x``, tagged once; every
    table and injection shares that string.  A table naming an identifier
    that is not a cell of its summand raises ``MalformedModel``.
    """
    if not models:
        raise InputMismatch("coproduct of an empty family")
    kind = "groupoid" if all(m.is_groupoid() for m in models) else "category"
    objects: list[str] = []
    edges: dict[str, EdgeEnds] = {}
    squares: dict[str, SquareFaces] = {}
    tables: dict[str, dict] = {op.field: {} for op in OPS}
    tagged: list[tuple[Names, Names, Names]] = []
    for i, m in enumerate(models):
        names = tuple(
            Names(f"summand {i} {what}", ((x, f"{i}.{x}") for x in cells))
            for what, cells in zip(("object", "edge", "square"), m.cells())
        )
        tagged.append(names)
        obj, edg, sqr = names
        objects.extend(obj.values())
        for e, (src, tgt) in m.edges.items():
            edges[edg[e]] = EdgeEnds(obj[src], obj[tgt])
        for s, (top, bottom, left, right) in m.squares.items():
            squares[sqr[s]] = SquareFaces(edg[top], edg[bottom], edg[left], edg[right])
        for op in OPS:
            out_table, args, values = tables[op.field], names[op.arg], names[op.value]
            if op.binary:
                for (x, y), v in getattr(m, op.field).items():
                    out_table[(args[x], args[y])] = values[v]
            else:
                for x, v in getattr(m, op.field).items():
                    out_table[args[x]] = values[v]
    out = DoubleGC(
        objects=tuple(sorted(objects)),
        edges=edges,
        squares=squares,
        kind=kind,
        **tables,
    )
    injections = [DoubleMorphism(m, out, *map(dict, names)) for m, names in zip(models, tagged)]
    return out, injections


# -- the congruence/saturation engine ------------------------------------------


_COMPS = {c.op: c for c in COMPS}
_COMPS_OF = {dim: [c for c in COMPS if c.dim == dim] for dim in (OBJ, EDG, SQR)}


class _Budget(Exception):
    pass


def _composite_shells(comp: Comp, products: dict, sa: Optional[tuple], seconds: list) -> Iterable:
    """For each ``(b, sb)`` of ``seconds`` in order, the shell of the
    composite of a square filed under ``sa`` then ``b``, filed under ``sb``;
    callers zip the result with ``seconds``.

    The composite shell of ``sa`` then ``sb`` is stated here once, for both
    ``_saturate`` and ``extract``.  Its middle edges are read from
    ``products`` (``_Engine._edge_products``) and are None where that
    snapshot has no composite; the shell is None where ``sb`` is None, and
    where ``sa`` is None every shell is, given as an endless ``repeat`` so
    that no list is built.  One call per first square, not per pair, keeps
    ``_saturate``'s pair loop free of calls.
    """
    if sa is None:
        return repeat(None)
    m1, m2 = comp.mid
    row1, row2 = products.get(sa[m1], {}), products.get(sa[m2], {})
    if comp.lo == 0:
        return [
            None if sb is None else (sa[0], sb[1], row1.get(sb[2]), row2.get(sb[3]))
            for _, sb in seconds
        ]
    return [
        None if sb is None else (row1.get(sb[0]), row2.get(sb[1]), sa[2], sb[3])
        for _, sb in seconds
    ]


class _Engine:
    """Union-find over three dimensions with operation tables and merge rules.

    A class's representative is its least index.  Each dimension's base
    identifiers are installed in sorted order before any fresh element, so
    quotient tables come out deterministic.
    """

    def __init__(self, base: DoubleGC, budget: int):
        self.base = base
        self.budget = float("inf")  # the base is installed whole; ``run`` checks it
        self.parent: list[list[int]] = [[], [], []]
        self.origin: list[list[tuple]] = [[], [], []]
        # per element, its boundary one dimension down: () for an object,
        # (src, tgt) for an edge, (top, bottom, left, right) for a square;
        # a filed thin square's is the canonical shell it is filed under
        self.bounds: list[list[tuple]] = [[], [], []]
        # per element, the stamp of its creation, of its becoming thin, or of
        # the last merge into it
        self.touched: list[list[int]] = [[], [], []]
        self.stamp = 0  # counts creations, merges and new table rows
        self.thin: set[int] = set()  # thin square roots
        # unit op -> root of a unit -> the class it is the unit of
        self.unit_of: dict[str, dict[int, int]] = {c.unit: {} for c in _COMPS.values()}
        # stored rows; a square composite of two thin roots is never stored
        self.sig: dict[tuple, int] = {}
        # per argument side (0 first, 1 second): (op, root) -> the stored
        # binary rows with that root on that side
        self.by_arg: tuple[dict[tuple[str, int], set[tuple]], ...] = ({}, {})
        # the filed thin squares by canonical shell, and (slot, edge root) ->
        # the filed thin squares with that face
        self.thin_index: dict[tuple[int, int, int, int], int] = {}
        self.thin_at: dict[tuple[int, int], set[int]] = {}
        self.queue: deque[tuple[int, int, int]] = deque()
        self.to_thin: deque[int] = deque()
        self.elements = 0  # made so far, base and fresh; the budget counts these
        self.b_index: list[dict[str, int]] = [{}, {}, {}]

        ts = thin_set(base)
        for dim, cells in enumerate(base.cells()):
            for x in sorted(cells):
                bound = tuple(self.b_index[dim - 1][y] for y in cells[x]) if dim else ()
                self._add(dim, ("b", x), bound, thin=dim == SQR and x in ts)
        self.base_elements = self.elements  # every later element is fresh
        for op in OPS:  # every ``ce`` row before the square composites
            args, values = self.b_index[op.arg], self.b_index[op.value]
            rows = sorted(getattr(base, op.field).items())
            if op.tag in ("c1", "c2"):
                rows = self._unsettled(_COMPS[op.tag], rows)
            for k, v in rows:
                self._define((op.tag, *(args[x] for x in op.args(k))), values[v])
        self.budget = budget

    def _unsettled(self, comp: Comp, rows: list) -> list:
        """The base ``rows`` of ``comp`` less each whose value is the thin square
        filed under its composite shell (see the module docstring)."""
        sqr, index, filed = self.b_index[SQR], self.thin_index, self._filed
        products, kept = self._edge_products(), []
        for a, group in groupby(rows, key=lambda row: row[0][0]):
            group = list(group)
            seconds = [(b, filed(sqr[b])) for (_, b), _ in group]
            shells = _composite_shells(comp, products, filed(sqr[a]), seconds)
            kept += [row for row, shell in zip(group, shells) if index.get(shell) != sqr[row[1]]]
        return kept

    # -- element bookkeeping ---------------------------------------------------

    def stats(self) -> dict:
        """Elements made (the budget counts these) and table rows stored."""
        return {"elements": self.elements, "budget": self.budget, "rows": len(self.sig)}

    def _add(self, dim: int, origin: tuple, bound: tuple = (), thin: bool = False) -> int:
        idx = len(self.parent[dim])
        self.parent[dim].append(idx)
        self.origin[dim].append(origin)
        self.bounds[dim].append(bound)
        self.stamp += 1
        self.touched[dim].append(self.stamp)
        if thin:
            self.thin.add(idx)
            self._index(idx)
        if origin[0] == "b":
            self.b_index[dim][origin[1]] = idx
        self.elements += 1
        if self.elements > self.budget:
            raise _Budget()
        return idx

    def find(self, dim: int, x: int) -> int:
        p = self.parent[dim]
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def merge(self, dim: int, a: int, b: int) -> None:
        if self.find(dim, a) != self.find(dim, b):
            self.queue.append((dim, a, b))

    def face(self, dim: int, x: int, slot: int) -> int:
        """The class of boundary ``slot`` of element ``x``."""
        return self.find(dim - 1, self.bounds[dim][x][slot])

    # -- the thin squares, by shell ----------------------------------------------

    def _index(self, s: int) -> None:
        """File thin root ``s`` under its shell, which becomes its bound; a
        shell already taken queues a merge."""
        bound = self.bounds[SQR][s]
        shell = tuple(self.find(EDG, x) for x in bound)
        if shell == bound:
            shell = bound  # already canonical: file the bound itself, not a copy
        other = self.thin_index.get(shell)
        if other is not None:
            if other != s:
                self.merge(SQR, other, s)
            return
        self.thin_index[shell] = s
        self.bounds[SQR][s] = shell
        for slot, e in enumerate(shell):
            self.thin_at.setdefault((slot, e), set()).add(s)

    def _filed(self, s: int) -> Optional[tuple[int, int, int, int]]:
        """The shell square ``s`` is filed under, or None if it is not filed."""
        shell = self.bounds[SQR][s]
        return shell if self.thin_index.get(shell) == s else None

    def _unindex(self, s: int) -> None:
        shell = self._filed(s)
        if shell is None:
            return
        del self.thin_index[shell]
        for slot, e in enumerate(shell):
            at = self.thin_at.get((slot, e))
            if at is not None:
                at.discard(s)

    def _make_thin(self, s: int) -> None:
        """Square root ``s`` is thin: index it, and answer its thin composites by shell."""
        if s in self.thin:
            if self._filed(s) is None:
                self._index(s)
            return
        self.thin.add(s)
        self.stamp += 1
        self.touched[SQR][s] = self.stamp
        self._index(s)
        for key in self._rows_of(SQR, s):
            if len(key) == 3 and key in self.sig and self._by_shell(key):
                self._redefine(key)

    def _by_shell(self, key: tuple) -> bool:
        """Whether a canonical key is a square composite of two thin roots."""
        return key[0] in ("c1", "c2") and key[1] in self.thin and key[2] in self.thin

    def _thin_composite(self, comp: Comp, a: int, b: int) -> Optional[int]:
        """The thin square on the composite shell of thin roots ``a`` then ``b``, if it exists.

        Reads the filed shells from ``bounds``, which are canonical whenever
        no merge is half applied.
        """
        sa, sb = self._filed(a), self._filed(b)
        if sa is None or sb is None or sa[comp.hi] != sb[comp.lo]:
            return None
        m1, m2 = comp.mid
        x = self.sig.get(("ce", sa[m1], sb[m1]))
        y = self.sig.get(("ce", sa[m2], sb[m2]))
        if x is None or y is None:
            return None
        x, y = self.find(EDG, x), self.find(EDG, y)
        return self.thin_index.get((sa[0], sb[1], x, y) if comp.lo == 0 else (x, y, sa[2], sb[3]))

    def _edge_products(self) -> dict[int, dict[int, int]]:
        """A snapshot of the stored edge composites: ``products[x][y]`` is the
        root of x·y.  Reading it beats live ``sig`` lookups and ``find`` calls
        where thin composites are looked up pair after pair."""
        products: dict[int, dict[int, int]] = {}
        for k, v in self.sig.items():
            if k[0] == "ce":
                products.setdefault(k[1], {})[k[2]] = self.find(EDG, v)
        return products

    # -- signature table ---------------------------------------------------------

    def _canon_key(self, key: tuple) -> tuple:
        op = key[0]
        adim = _ARG_DIM[op]
        if len(key) == 2:
            return (op, self.find(adim, key[1]))
        return (op, self.find(adim, key[1]), self.find(adim, key[2]))

    def _define(self, key: tuple, value: int) -> int:
        """Install op(args) = value, merging with an existing entry if any."""
        key = self._canon_key(key)
        op = key[0]
        vdim = _VALUE_DIM[op]
        if self._by_shell(key):
            # the composite of two thin squares is the thin filler of its shell
            self._merge_bounds(_COMPS[op], key[1], key[2], value)
            self.to_thin.append(value)
            return self.find(vdim, value)
        hit = self.sig.get(key)
        if hit is not None:
            self.merge(vdim, hit, value)
            return self.find(vdim, hit)
        self.sig[key] = value
        self.stamp += 1
        if len(key) == 3:
            for side, uses in enumerate(self.by_arg):
                uses.setdefault((op, key[1 + side]), set()).add(key)
        self._entry_rules(key, value)
        return value

    def _redefine(self, key: tuple) -> None:
        """Take a stored row out and install it again under its current key."""
        value = self.sig.pop(key, None)
        if len(key) == 3:
            for side, uses in enumerate(self.by_arg):
                uses.get((key[0], key[1 + side]), set()).discard(key)
        if value is not None:
            self._define(key, value)

    def _rows_of(self, dim: int, x: int) -> list[tuple]:
        """The stored rows with root ``x`` of dimension ``dim`` as an argument."""
        rows = []
        for op, binary in _OPS_ON[dim]:
            if binary:
                for uses in self.by_arg:
                    rows += uses.get((op, x), ())
            elif (op, x) in self.sig:
                rows.append((op, x))
        return rows

    def lookup(self, key: tuple) -> Optional[int]:
        got = self.sig.get(self._canon_key(key))
        if got is None:
            return None
        return self.find(_VALUE_DIM[key[0]], got)

    # -- merge rules --------------------------------------------------------------

    def _set_attr(self, attr: dict, root: int, value: int, vdim: int) -> None:
        cur = attr.get(root)
        if cur is None:
            attr[root] = value
        else:
            self.merge(vdim, cur, value)

    def _merge_bounds(self, comp: Comp, a: int, b: int, c: int) -> None:
        """``c`` is the composite of ``a`` then ``b``: merge its boundary with theirs."""
        c = self.find(comp.dim, c)
        for x, y in zip(self.bounds[comp.dim][c], self._composite_bound(comp, a, b)):
            self.merge(comp.dim - 1, x, y)

    def _entry_rules(self, key: tuple, value: int) -> None:
        op = key[0]
        if op in self.unit_of:
            self._set_attr(
                self.unit_of[op], self.find(_VALUE_DIM[op], value), key[1], _ARG_DIM[op]
            )
            return
        comp = _COMPS.get(op)
        if comp is None:
            return
        _, a, b = key
        dim = comp.dim
        c = self.find(dim, value)
        self._merge_bounds(comp, a, b, c)
        units = self.unit_of[comp.unit]
        if self.find(dim, a) in units:
            self.merge(dim, c, b)
        if self.find(dim, b) in units:
            self.merge(dim, c, a)
        if c in units:
            inv_a = self.sig.get(self._canon_key((comp.inv, a)))
            if inv_a is not None:
                self.merge(dim, b, inv_a)
            inv_b = self.sig.get(self._canon_key((comp.inv, b)))
            if inv_b is not None:
                self.merge(dim, a, inv_b)

    def _entry(self, op: str, a: int, b: int) -> Optional[int]:
        """The composite of ``a`` then ``b`` if it exists, stored or answered by
        shell; never creates."""
        dim = _ARG_DIM[op]
        p = self.parent[dim]
        if p[a] != a:
            a = self.find(dim, a)
        if p[b] != b:
            b = self.find(dim, b)
        if dim == SQR and a in self.thin and b in self.thin:
            return self._thin_composite(_COMPS[op], a, b)
        got = self.sig.get((op, a, b))
        if got is None or p[got] == got:
            return got
        return self.find(dim, got)

    def _partners(self, op: str, x: int, side: int) -> list[tuple[int, int]]:
        """``(y, composite)`` for each existing composite with root ``x`` on
        argument ``side`` (0: ``x·y``, 1: ``y·x``) and ``y`` on the other."""
        out = []
        for key in list(self.by_arg[side].get((op, x), ())):
            xy = self.sig.get(key)
            if xy is not None:
                out.append((key[2 - side], xy))
        if _ARG_DIM[op] == SQR and x in self.thin:
            out += self._thin_partners(_COMPS[op], x, side)
        return out

    def _thin_partners(self, comp: Comp, x: int, side: int) -> list[tuple[int, int]]:
        """``(y, composite)`` for each thin ``y`` composable with thin root ``x``,
        ``x`` on argument ``side`` as in ``_partners``."""
        meet = (comp.lo, comp.hi)
        out = []
        for y in list(self.thin_at.get((meet[side], self.face(SQR, x, meet[1 - side])), ())):
            pair = (x, y) if side == 0 else (y, x)
            xy = self._thin_composite(comp, *pair)
            if xy is not None:
                out.append((y, xy))
        return out

    def _run_assoc(self, op: str, key: tuple) -> None:
        """The associativity instances whose designated row is the stored composite a·b.

        An instance (x·y)·z = x·(y·z) is visited from its inner composite y·z
        when that row is stored, and from x·y only when y·z is answered by
        shell (y and z both thin squares).  So a·b checks (x·a)·b = x·(a·b)
        for every x, and (a·b)·z = a·(b·z) only for thin z after a thin b.
        Merge-only: instances whose composite entries are still missing are
        revisited by the rules pass of a later round.  Each instance reads
        its outer composite with ``_entry``, and its inner one only where
        the outer one exists.
        """
        key = self._canon_key(key)
        ab = self.sig.get(key)
        if ab is None:
            return
        _, a, b = key
        comp = _COMPS[op]
        dim = comp.dim
        entry = self._entry
        # each instance as (x·y, z, x, y·z)
        instances = [(xa, b, x, ab) for x, xa in self._partners(op, a, 1)]
        if dim == SQR and b in self.thin:
            instances += [(ab, z, a, bz) for z, bz in self._thin_partners(comp, b, 0)]
        for xy, z, x, yz in instances:
            lhs = entry(op, xy, z)
            if lhs is not None:
                rhs = entry(op, x, yz)
                if rhs is not None and rhs != lhs:
                    self.queue.append((dim, lhs, rhs))

    def _run_interchange(self, op: str, key: tuple) -> None:
        """(u·2 w)·1 (u'·2 w') = (u·1 u')·2 (w·1 w') on each array designated to this row.

        An array is visited from its top row u, w when that row is stored;
        else (u and w thin) from its left column u over u' when that is
        stored; else (u' thin too) from its right column w over w'.  An
        all-thin array holds by shell.  So a ``c2`` row visits every array
        it tops, and a ``c1`` row only arrays whose top row is thin, which
        needs its own first square thin.  The other squares come from two
        partner lists joined on the face where they meet.
        """
        key = self._canon_key(key)
        pq = self.sig.get(key)
        if pq is None:
            return
        _, p, q = key
        entry, partners, thin_partners = self._entry, self._partners, self._thin_partners
        if op == "c2":
            below_p, below_q = partners("c1", p, 0), partners("c1", q, 0)
            for p_, pp_, q_, qq_ in self._meeting(below_p, 3, below_q, 2):
                self._interchange(pq, entry("c2", p_, q_), pp_, qq_)
            return
        thin = self.thin
        if p not in thin:
            return
        c2 = _COMPS["c2"]
        # p over q is the left column: w thin beside the thin p
        for w, pw, w_, qw in self._meeting(thin_partners(c2, p, 0), 1, partners("c2", q, 0), 0):
            self._interchange(pw, qw, pq, entry("c1", w, w_))
        # p over q is the right column: u and u' thin beside p and q
        lefts = [(u_, uq) for u_, uq in partners("c2", q, 1) if u_ in thin]
        for u, up, u_, uq in self._meeting(thin_partners(c2, p, 1), 1, lefts, 0):
            self._interchange(up, uq, entry("c1", u, u_), pq)

    def _meeting(self, firsts: list, first_slot: int, seconds: list, second_slot: int):
        """``(x, x's composite, y, y's composite)`` for the partners whose squares
        meet: face ``first_slot`` of x is face ``second_slot`` of y."""
        by_face: dict[int, list] = {}
        for y, yc in seconds:
            by_face.setdefault(self.face(SQR, y, second_slot), []).append((y, yc))
        for x, xc in firsts:
            for y, yc in by_face.get(self.face(SQR, x, first_slot), ()):
                yield x, xc, y, yc

    def _interchange(self, top, bottom, left, right) -> None:
        """The two rows composed vertically equal the two columns composed horizontally."""
        if top is None or bottom is None or left is None or right is None:
            return
        lhs = self._entry("c1", top, bottom)
        rhs = self._entry("c2", left, right)
        if lhs is not None and rhs is not None and lhs != rhs:
            self.queue.append((SQR, lhs, rhs))

    # -- creation -----------------------------------------------------------------

    def _create(self, dim: int, origin: tuple, bound: tuple, thin: bool = False) -> int:
        """A fresh element; a thin square is the thin square on its shell, if any."""
        if not thin:
            return self._add(dim, origin, bound)
        shell = tuple(self.find(EDG, x) for x in bound)
        hit = self.thin_index.get(shell)
        if hit is not None:
            return hit
        return self._add(SQR, origin, shell, thin=True)

    def _composite_bound(self, comp: Comp, a: int, b: int) -> tuple:
        """The boundary of the composite of ``a`` then ``b``, composing edges as needed."""
        fa, fb = self.bounds[comp.dim][a], self.bounds[comp.dim][b]
        bound = list(fa)
        bound[comp.hi] = fb[comp.hi]
        for i in comp.mid:
            bound[i] = self.goc("ce", fa[i], fb[i])
        return tuple(bound)

    def goc(self, op: str, a: int, b: int) -> int:
        """Get or create the composite of two composable classes; an existing one
        is read through ``_entry``."""
        hit = self._entry(op, a, b)
        if hit is not None:
            return hit
        comp = _COMPS[op]
        dim = comp.dim
        a, b = self.find(dim, a), self.find(dim, b)
        if dim == SQR and a in self.thin and b in self.thin:
            return self._create(SQR, (op, a, b), self._composite_bound(comp, a, b), thin=True)
        key = (op, a, b)
        units = self.unit_of[comp.unit]
        if a in units:
            return self.find(dim, self._define(key, b))
        if b in units:
            return self.find(dim, self._define(key, a))
        fresh = self._add(dim, key, self._composite_bound(comp, a, b))
        self._define(key, fresh)
        return self.find(dim, fresh)

    def _inverse(self, comp: Comp, x: int) -> int:
        """The inverse of root ``x``, made if missing.  A unit is its own inverse."""
        got = self.lookup((comp.inv, x))
        if got is not None:
            return got
        if x in self.unit_of[comp.unit]:
            inv = x
        else:
            f = self.bounds[comp.dim][x]
            bound = list(f)
            bound[comp.lo], bound[comp.hi] = f[comp.hi], f[comp.lo]
            for i in comp.mid:
                bound[i] = self._inverse(_COMPS["ce"], self.find(EDG, f[i]))
            thin = comp.dim == SQR and x in self.thin
            inv = self._create(comp.dim, (comp.inv, x), tuple(bound), thin)
        self._define((comp.inv, x), inv)
        return self.find(comp.dim, inv)

    def _inverse_laws(self, comp: Comp, x: int) -> None:
        """``x`` with its inverse, either way round, is a unit; ``x`` inverts the inverse.

        For a thin square the composites are thin and hold by shell.
        """
        inv = self._inverse(comp, x)
        self._define((comp.inv, inv), x)
        dim = comp.dim
        if dim == SQR and x in self.thin:
            return
        pre = self.lookup((comp.unit, self.face(dim, x, comp.lo)))
        post = self.lookup((comp.unit, self.face(dim, x, comp.hi)))
        if pre is not None:
            self.merge(dim, self.goc(comp.op, x, inv), pre)
        if post is not None:
            self.merge(dim, self.goc(comp.op, inv, x), post)

    # -- drain: queued merges and thin filing to fixpoint ------------------------

    def drain(self) -> None:
        while self.queue or self.to_thin:
            while self.queue:
                dim, a, b = self.queue.popleft()
                ra, rb = self.find(dim, a), self.find(dim, b)
                if ra == rb:
                    continue
                root, gone = (ra, rb) if ra < rb else (rb, ra)
                self.parent[dim][gone] = root
                self.stamp += 1
                self.touched[dim][root] = self.stamp
                for x, y in zip(self.bounds[dim][root], self.bounds[dim][gone]):
                    self.merge(dim - 1, x, y)
                if dim == EDG:
                    # re-key the thin squares bounded by the edge that went
                    for slot in range(4):
                        for s in list(self.thin_at.pop((slot, gone), ())):
                            self._unindex(s)
                            self._index(s)
                elif dim == SQR and gone in self.thin:
                    self.thin.discard(gone)
                    self._unindex(gone)
                    self.to_thin.append(root)
                for comp in _COMPS_OF[dim]:
                    units = self.unit_of[comp.unit]
                    if gone in units:
                        self._set_attr(units, root, units.pop(gone), dim - 1)
                for key in self._rows_of(dim, gone):
                    self._redefine(key)
            if self.to_thin:
                self._make_thin(self.find(SQR, self.to_thin.popleft()))

    # -- sweeps -------------------------------------------------------------------

    def roots(self, dim: int, since: int = 0) -> list[int]:
        """The roots in index order, or those touched after stamp ``since``.

        A root is the least index of its class (``drain`` keeps the smaller
        index).
        """
        parent, touched = self.parent[dim], self.touched[dim]
        return [i for i in range(len(parent)) if parent[i] == i and touched[i] > since]

    def _eps_edge(self, obj_class: int) -> int:
        got = self.lookup(("eps", obj_class))
        if got is None:
            raise WellDefinednessFailure("object class without identity edge")
        return got

    def totality_sweep(self, dim: int, since: int) -> None:
        """Each class touched since ``since`` gets its degeneracies, connections and inverses."""
        fresh = self.roots(dim, since)
        if dim == EDG:
            for e in fresh:
                e_src = self._eps_edge(self.face(EDG, e, 0))
                e_tgt = self._eps_edge(self.face(EDG, e, 1))
                for op in EDGE_SQUARES:
                    key = (op.tag, e)
                    if self.lookup(key) is None:
                        shell = edge_square_faces(op, e, e_src, e_tgt)
                        self._define(key, self._create(SQR, key, shell, thin=True))
                self._inverse(_COMPS["ce"], e)
        # every new element has its inverse before any law runs
        for x in fresh:
            for comp in _COMPS_OF[dim]:
                self._inverse_laws(comp, x)

    def saturation_sweep(self, dim: int, since: int) -> None:
        """Create the composite of every class-composable pair lacking one.

        A pair needs a visit only if one of its members, or the face where
        they meet, was touched after stamp ``since``.  Both square directions
        pair the roots from before either creates.
        """
        roots = self.roots(dim)
        for comp in _COMPS_OF[dim]:
            self._saturate(comp, roots, since)

    def _saturate(self, comp: Comp, roots: list[int], since: int) -> None:
        dim = comp.dim
        touched, meet_touched = self.touched[dim], self.touched[dim - 1]
        by_lo: dict[int, list[int]] = {}
        by_hi: dict[int, list[int]] = {}
        for x in roots:
            by_lo.setdefault(self.face(dim, x, comp.lo), []).append(x)
            by_hi.setdefault(self.face(dim, x, comp.hi), []).append(x)
        op, sig, index = comp.op, self.sig, self.thin_index
        filed = self._filed if dim == SQR else lambda _: None  # edges are never thin
        # the thin composite of a pair is looked up by its shell
        products = self._edge_products() if dim == SQR else {}
        for meet, firsts in sorted(by_hi.items()):
            seconds = [(b, filed(b)) for b in by_lo.get(meet, ())]
            fresh_seconds = seconds
            if meet_touched[meet] <= since:
                fresh_seconds = [(b, sb) for b, sb in seconds if touched[b] > since]
            for a in firsts:
                pairs = seconds if touched[a] > since else fresh_seconds
                for (b, _), shell in zip(pairs, _composite_shells(comp, products, filed(a), pairs)):
                    if shell is None:  # not two thin squares
                        if (op, a, b) in sig:
                            continue
                    elif shell in index:
                        continue
                    elif None not in shell:
                        # the thin composite, filed under the shell just computed
                        self._add(SQR, (op, a, b), shell, thin=True)
                        continue
                    self.goc(op, a, b)

    def rules_pass(self, dim: int) -> None:
        """Check the associativity and interchange instances designated to each
        stored composite of this dimension, applying their merges after each.

        Instances whose arguments are all thin hold by shell; every other
        instance has a non-thin argument, so its designated row is stored
        and reaches it (see the module docstring).
        """
        for key in list(self.sig):
            op = key[0]
            if len(key) == 3 and _ARG_DIM[op] == dim:
                self._run_assoc(op, key)
                self.drain()
                if op != "ce":
                    self._run_interchange(op, key)
                    self.drain()

    def run(self, seeds: list[tuple[int, int, int]]) -> None:
        """Close under the rules, settling edges before any square is composed.

        Each round settles the edge classes (totality, composites, then the
        rules pass) and only then does the same for squares, so square
        composites are built over settled edge classes.  The round that
        changes nothing ends the run; its rules passes visited every stored
        row, so every law instance with a non-thin argument was checked
        from its designated row on the final classes.
        """
        if self.elements > self.budget:
            raise _Budget()
        for dim, x, y in seeds:
            self.merge(dim, x, y)
        self.drain()
        since = {EDG: 0, SQR: 0}
        while True:
            start = self.stamp
            for dim in (EDG, SQR):
                mark = self.stamp
                self.totality_sweep(dim, since[dim])
                self.drain()
                self.saturation_sweep(dim, since[dim])
                self.drain()
                self.rules_pass(dim)
                since[dim] = mark
            if self.stamp == start:
                return

    # -- extraction ---------------------------------------------------------------

    def class_name(self, dim: int, root: int) -> str:
        origin = self.origin[dim][root]
        if origin[0] == "b":
            return origin[1]
        return f"~{'oeq'[dim]}{root}"

    def extract(self) -> tuple[DoubleGC, DoubleMorphism]:
        """The quotient model and the projection onto it.

        Each class is named once, in one ``find`` pass per dimension that
        gives every element its class's name; the cells, tables and
        projection all share those strings.
        """
        names: list[list[str]] = []  # per dimension, each element's class name
        roots: list[dict[int, str]] = []  # per dimension, each root's name
        for dim in (OBJ, EDG, SQR):
            found = [self.find(dim, i) for i in range(len(self.parent[dim]))]
            named = {i: self.class_name(dim, i) for i, r in enumerate(found) if r == i}
            names.append([named[r] for r in found])
            roots.append(named)
        obj, edg, sqr = names
        objects = tuple(sorted(roots[OBJ].values()))
        edges = {n: EdgeEnds(*(obj[x] for x in self.bounds[EDG][e])) for e, n in roots[EDG].items()}
        squares = {
            n: SquareFaces(*(edg[x] for x in self.bounds[SQR][s])) for s, n in roots[SQR].items()
        }
        tables: dict[str, dict] = {op.field: {} for op in OPS}
        for key, value in self.sig.items():
            op = OP[key[0]]
            args = names[op.arg]
            k = op.key(tuple(args[x] for x in key[1:]))
            v = names[op.value][value]
            prev = tables[op.field].setdefault(k, v)
            if prev != v:
                raise WellDefinednessFailure(f"{op.tag}[{k}] = {prev} and {v}")
        # the rows of two thin arguments are read off their composite shells,
        # as in ``_thin_composite`` but from one snapshot of the filed shells
        # and the edge composites
        products, index = self._edge_products(), self.thin_index
        filed = {a: self._filed(a) for a in self.thin}
        for comp in _COMPS_OF[SQR]:
            table = tables[OP[comp.op].field]
            for a, sa in filed.items():
                partners = self.thin_at.get((comp.lo, self.face(SQR, a, comp.hi)), ())
                seconds = [(b, filed[b]) for b in partners]
                for (b, _), shell in zip(seconds, _composite_shells(comp, products, sa, seconds)):
                    c = index.get(shell)
                    if c is None:
                        raise WellDefinednessFailure(f"{comp.op}: a shell without thin filler")
                    table[(sqr[a], sqr[b])] = sqr[c]
        out = DoubleGC(
            objects=objects,
            edges=edges,
            squares=squares,
            kind=self.base.kind,
            **tables,
        )
        projection = DoubleMorphism(
            self.base,
            out,
            *({x: named[i] for x, i in index.items()} for named, index in zip(names, self.b_index)),
        )
        return out, projection


def coequalise(
    a: DoubleMorphism, b: DoubleMorphism, budget: int = DEFAULT_BUDGET
) -> QuotientResult:
    """Coequaliser of a parallel pair by congruence closure with saturation.

    A pair that ``find_divergence`` proves infinite, with a certificate that
    ``check_divergence`` accepts, is not saturated: its result is
    ``budget_exceeded`` with no element made, and carries the certificate
    as ``divergence``.  Every other pair runs the engine.
    """
    if a.source is not b.source and a.source != b.source:
        raise InputMismatch("parallel pair must share a source")
    if a.target is not b.target and a.target != b.target:
        raise InputMismatch("parallel pair must share a target")
    if not a.target.is_groupoid():
        raise NotAGroupoid("coequalisers are computed for double groupoids")
    divergence = find_divergence(a, b)
    if divergence is not None and check_divergence(a, b, divergence) is None:
        return QuotientResult(
            status="budget_exceeded",
            object=None,
            projection=None,
            generators_added=0,
            stats={"elements": 0, "budget": budget, "rows": 0},
            divergence=divergence,
        )
    return _run_engine(a, b, budget)


def _run_engine(a: DoubleMorphism, b: DoubleMorphism, budget: int) -> QuotientResult:
    """Saturate the pair's seeds to a fixed point within ``budget`` elements."""
    engine = _Engine(a.target, budget)
    seeds = [
        (dim, index[amap[x]], index[bmap[x]])
        for dim, (cells, index, amap, bmap) in enumerate(
            zip(a.source.cells(), engine.b_index, a.maps(), b.maps())
        )
        for x in sorted(cells)
    ]
    try:
        engine.run(seeds)
    except _Budget:
        return QuotientResult(
            status="budget_exceeded",
            object=None,
            projection=None,
            generators_added=engine.elements - engine.base_elements,
            stats=engine.stats(),
        )
    out, projection = engine.extract()
    return QuotientResult(
        status="finite",
        object=out,
        projection=projection,
        generators_added=engine.elements - engine.base_elements,
        stats=engine.stats(),
        engine=engine,
        seeds=(a, b),
    )


# -- the universal property ------------------------------------------------------


def factor_through(q: QuotientResult, f: DoubleMorphism) -> DoubleMorphism:
    """The unique morphism F with F after projection = f.

    F is defined on each congruence class through its root, the class's
    least index: on a base root by f, on a saturation-created root by
    evaluating its creation record in the target.  The equalising condition
    makes the value independent of the member chosen, and that independence
    is checked member by member.
    """
    if q.status != "finite":
        raise NotCoequalised("cannot factor through a budget_exceeded quotient")
    proj = q.projection
    base = proj.source
    if f.source is not base and f.source != base:
        raise InputMismatch("morphism must start at the coequalised model")
    a, b = q.seeds
    fmaps = f.maps()
    for amap, bmap, fmap in zip(a.maps(), b.maps(), fmaps):
        for x, av in amap.items():
            if fmap[av] != fmap[bmap[x]]:
                raise NotCoequalised(f"morphism does not equalise at {x!r}")
    engine = q.engine
    target = f.target

    memo: dict[tuple[int, int], str] = {}

    def image(dim: int, elem: int) -> str:
        """f of a base element, or its creation record evaluated in the target."""
        origin = engine.origin[dim][elem]
        if origin[0] == "b":
            return fmaps[dim][origin[1]]
        return _apply_record(target, origin, value)

    def value(dim: int, elem: int) -> str:
        root = engine.find(dim, elem)
        hit = memo.get((dim, root))
        if hit is None:
            hit = memo[(dim, root)] = image(dim, root)
        return hit

    out = DoubleMorphism(
        q.object,
        target,
        *(
            {engine.class_name(dim, x): value(dim, x) for x in engine.roots(dim)}
            for dim in (OBJ, EDG, SQR)
        ),
    )

    for dim, fout in enumerate(out.maps()):
        for i in range(len(engine.parent[dim])):
            root = engine.find(dim, i)
            cname = engine.class_name(dim, root)
            got = image(dim, i)
            if got != fout[cname]:
                raise WellDefinednessFailure(
                    f"member {i} of {cname} maps to {got}, class maps to {fout[cname]}"
                )
    return out


def _apply_record(target: DoubleGC, origin: tuple, value) -> str:
    """A creation record evaluated in ``target``.  ``image`` reads a base
    ``("b", x)`` record itself; ``goc``, ``_inverse``, ``totality_sweep`` and
    ``_saturate`` write every other record, each led by an ``OPS`` tag."""
    op = OP[origin[0]]
    got = getattr(target, op.field).get(op.key(tuple(value(op.arg, x) for x in origin[1:])))
    if got is None:
        raise WellDefinednessFailure(f"record {origin!r} not evaluable in target")
    return got


# -- pushouts --------------------------------------------------------------------


def pushout(
    f: DoubleMorphism, g: DoubleMorphism, budget: int = DEFAULT_BUDGET
) -> tuple[QuotientResult, Optional[DoubleMorphism], Optional[DoubleMorphism]]:
    """Pushout of B <- A -> C as a coequaliser A => B + C; returns cocone legs."""
    if f.source is not g.source and f.source != g.source:
        raise InputMismatch("pushout needs a common source")
    _, (inj_b, inj_c) = coproduct([f.target, g.target])
    a = compose_morphisms(f, inj_b)
    b = compose_morphisms(g, inj_c)
    result = coequalise(a, b, budget=budget)
    if result.status != "finite":
        return result, None, None
    leg_b = compose_morphisms(inj_b, result.projection)
    leg_c = compose_morphisms(inj_c, result.projection)
    return result, leg_b, leg_c


# -- isomorphism search ------------------------------------------------------------


def iso_check(
    d: DoubleGC, e: DoubleGC, node_budget: int = 10**6
) -> Optional[DoubleMorphism]:
    """Backtracking search for a bijective structure-preserving map.

    One depth-first search over the sorted objects, then the sorted edges,
    then the sorted squares of ``d``, on an explicit stack of candidate
    iterators, so the model size is not bounded by the recursion limit.
    Objects are tried by endpoint profile, edges by their mapped ends,
    squares by their mapped faces.  Each composition-table entry is checked
    once, when its last element is assigned.  A full map that fails
    ``validate_morphism`` is backtracked past like any other dead end.  Each
    item reached counts one node; past ``node_budget`` an item has no
    candidates.  Returns None when no isomorphism exists or the budget runs
    out.
    """
    if d.stats() != e.stats() or d.kind != e.kind:
        return None

    def obj_profiles(m: DoubleGC) -> dict[str, tuple]:
        """(out-degree, in-degree, loops) of every object."""
        outs, ins, loops = Counter(), Counter(), Counter()
        for src, tgt in m.edges.values():
            outs[src] += 1
            ins[tgt] += 1
            loops[src] += src == tgt
        return {o: (outs[o], ins[o], loops[o]) for o in m.objects}

    d_profiles, e_profiles = obj_profiles(d), obj_profiles(e)
    if Counter(d_profiles.values()) != Counter(e_profiles.values()):
        return None
    e_by_profile: dict[tuple, list[str]] = {}
    for o in sorted(e.objects):
        e_by_profile.setdefault(e_profiles[o], []).append(o)
    d_idents = set(d.eps.values())
    e_idents = set(e.eps.values())
    e_edges_by_key: dict[tuple, list[str]] = {}
    for x in sorted(e.edges):
        ends = e.edges[x]
        e_edges_by_key.setdefault((ends.src, ends.tgt, x in e_idents), []).append(x)
    e_sq_by_faces: dict[tuple, list[str]] = {}
    for s in sorted(e.squares):
        e_sq_by_faces.setdefault(tuple(e.squares[s]), []).append(s)

    f0, f1, f2 = maps = ({}, {}, {})
    candidates = (
        lambda o: e_by_profile.get(d_profiles[o], ()),
        lambda x: e_edges_by_key.get(
            (f0[d.edges[x].src], f0[d.edges[x].tgt], x in d_idents), ()
        ),
        lambda s: e_sq_by_faces.get(tuple(f1[x] for x in d.squares[s]), ()),
    )
    items = [(dim, x) for dim, cells in enumerate(d.cells()) for x in sorted(cells)]
    # Each d entry (x, y) -> z with the e table it must agree with, filed
    # under the position of whichever of x, y, z is assigned last.
    pos: tuple[dict[str, int], ...] = ({}, {}, {})
    for i, (dim, x) in enumerate(items):
        pos[dim][x] = i
    checks: list[list[tuple]] = [[] for _ in items]
    for comp in COMPS:
        at, e_table = pos[comp.dim], e.table(comp.op)
        for (x, y), z in d.table(comp.op).items():
            if x in at and y in at and z in at:
                checks[max(at[x], at[y], at[z])].append((x, y, z, e_table))

    used, nodes = (set(), set(), set()), 0

    def options(i: int):
        nonlocal nodes
        nodes += 1
        dim, x = items[i]
        return iter(() if nodes > node_budget else candidates[dim](x))

    if not items:
        return DoubleMorphism(d, e, *maps)
    stack = [options(0)]
    while stack:
        i = len(stack) - 1
        dim, x = items[i]
        f, taken = maps[dim], used[dim]
        if x in f:  # back from below: undo this item's assignment
            taken.discard(f.pop(x))
        for cand in stack[i]:
            if cand in taken:
                continue
            f[x] = cand
            for a, b, c, e_table in checks[i]:
                if e_table.get((f[a], f[b])) != f[c]:
                    break
            else:
                if i + 1 < len(items):
                    taken.add(cand)
                    stack.append(options(i + 1))
                    break
                iso = DoubleMorphism(d, e, *map(dict, maps))
                if validate_morphism(iso).ok:
                    return iso
            del f[x]
        else:
            stack.pop()
    return None


# -- the finite van Kampen harness --------------------------------------------------


def vk_sequence(
    cat: FiniteCategory, cover: list[Iterable[str]]
) -> tuple[DoubleMorphism, DoubleMorphism, DoubleGC]:
    """The parallel pair of a cover: intersections glued into their parents.

    A is the coproduct of the commuting-square models of the pairwise
    intersections (over ordered pairs of cover sets), B the coproduct over
    the cover sets; a and b include each intersection into its two parents.
    Returns (a, b, full) where full is the square model of the whole category.
    """
    cover_sets = [sorted(set(u)) for u in cover]
    if not cover_sets:
        raise InputMismatch("empty cover")
    union = set().union(*(set(u) for u in cover_sets))
    unknown = sorted(union - set(cat.objects))
    if unknown:
        raise InputMismatch(f"cover names unknown objects {unknown}")
    missed = sorted(set(cat.objects) - union)
    if missed:
        raise InputMismatch(f"cover must reach every object; it misses {missed}")
    full = square_model(cat)
    pieces = [full_sub_double(full, u)[0] for u in cover_sets]
    b_model, b_inj = coproduct(pieces)
    overlaps = []
    legs = []
    for i, u in enumerate(cover_sets):
        for j, v in enumerate(cover_sets):
            inter = sorted(set(u) & set(v))
            overlaps.append(full_sub_double(full, inter)[0])
            legs.append((i, j))
    a_model, a_inj = coproduct(overlaps)
    maps_a, maps_b = ({}, {}, {}), ({}, {}, {})
    for inj, (i, j) in zip(a_inj, legs):
        for inj_map, bi, bj, out_a, out_b in zip(
            inj.maps(), b_inj[i].maps(), b_inj[j].maps(), maps_a, maps_b
        ):
            for x, tagged in inj_map.items():
                out_a[tagged] = bi[x]
                out_b[tagged] = bj[x]
    a = DoubleMorphism(a_model, b_model, *maps_a)
    b = DoubleMorphism(a_model, b_model, *maps_b)
    return a, b, full


def vk_comparison(q: QuotientResult, full: DoubleGC) -> Optional[str]:
    """Why the canonical map from the quotient of a cover sequence to the
    global model ``full`` is not an isomorphism, or None when it is.

    The map is the one that the inclusions of the cover pieces induce: ``q``
    coequalises ``vk_sequence``'s pair, whose target is the coproduct of the
    pieces, and each piece is a full substructure of ``full`` under the same
    names, so the coproduct's cell ``i.x`` goes to ``x``.  The map is
    ``factor_through(q, that copairing)``.  It is an isomorphism when it is a
    bijection in each dimension, passes ``validate_morphism``, and each table
    of the quotient has as many entries as the same table of ``full``: then
    it maps the entries of each table onto the other's, so its inverse
    preserves them too.
    """
    pieces = q.projection.source
    cover = DoubleMorphism(
        pieces, full, *({x: x.split(".", 1)[1] for x in cells} for cells in pieces.cells())
    )
    try:
        g = factor_through(q, cover)
    except (NotCoequalised, WellDefinednessFailure) as exc:
        return f"no induced map: {exc}"
    for what, gmap, cells in zip(("objects", "edges", "squares"), g.maps(), full.cells()):
        if not len(gmap) == len(set(gmap.values())) == len(cells):
            return f"the induced map is not a bijection on {what}"
    vrep = validate_morphism(g)
    if not vrep.ok:
        family, witness = vrep.violations[0]
        return f"the induced map fails {family} at {' '.join(witness)}"
    for op in OPS:
        got, want = len(q.object.table(op.tag)), len(full.table(op.tag))
        if got != want:
            return f"the quotient has {got} {op.field} entries, the global model {want}"
    return None


def vk_harness(
    cat: FiniteCategory,
    cover: list[Iterable[str]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[Report, QuotientResult]:
    """Coequalise the cover sequence and decide whether the canonical map to
    the global square model is an isomorphism.

    Checks, through ``vk_comparison``, that the map induced by the inclusions
    of the cover pieces exists, is a bijection in each dimension, passes
    ``validate_morphism``, and meets tables of the same sizes as the global
    model's.  A quotient past ``budget`` fails ``vk-coequaliser-finite`` and
    is not compared; one proven infinite notes its certificate's closed path.
    """
    rep = Report(title="finite van Kampen harness")
    a, b, full = vk_sequence(cat, cover)
    result = coequalise(a, b, budget=budget)
    rep.tick("vk-coequaliser-finite")
    if result.status != "finite":
        rep.fail("vk-coequaliser-finite", result.status)
        if result.divergence is not None:
            rep.note(describe(result.divergence))
        return rep, result
    rep.note(
        "coequaliser size: {objects} objects, {edges} edges, {squares} squares".format(
            **result.object.stats()
        )
    )
    rep.tick("vk-coequaliser-iso")
    fault = vk_comparison(result, full)
    if fault is not None:
        rep.fail("vk-coequaliser-iso", fault)
    else:
        rep.note("coequaliser is isomorphic to the global square model")
    return rep, result
