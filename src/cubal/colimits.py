"""Colimits of finite double groupoids with connections.

Coproducts are disjoint unions.  Coequalisers are computed by congruence
closure plus *saturation*: once object classes merge, edges and squares that
were never composable become composable, and their composites must be added
freely as fresh elements and closed over again.  The fixed point of
(close, complete totality, merge equal-shell thin squares, add composites)
is the coequaliser when it is reached within the element budget; the true
quotient can be infinite, so ``budget_exceeded`` is a first-class outcome,
never an error.

Two kinds of merge rules run: plain congruence (faces, operations, the
category laws, interchange) and the thin-filler rule: two thin squares over
equal boundary classes coincide.  The latter is uniqueness of thin fillers,
valid in every double category with connections, and it makes rule instances
whose arguments are all thin redundant, so those are skipped.

Each law is stated once per composition.  Edge composition and square
composition in directions 1 and 2 are each described by a ``_Comp`` row (its
unit, its inverse and the boundary slots where its arguments meet), and the
same code applies units, inverses, composite boundaries and saturation to
all three.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .core import EDG, OBJ, OP, OPS, SQR, DoubleGC, EdgeEnds, SquareFaces
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
    morphisms_equal,
    validate_morphism,
)
from .reports import Report
from .thin import thin_set

DEFAULT_BUDGET = 20000

# plain dicts for the engine's hot paths
_ARG_DIM = {op.tag: op.arg for op in OPS}
_VALUE_DIM = {op.tag: op.value for op in OPS}


@dataclass
class QuotientResult:
    status: str  # 'finite' | 'budget_exceeded'
    object: Optional[DoubleGC]
    projection: Optional[DoubleMorphism]
    generators_added: int
    stats: dict = field(default_factory=dict)  # JSON-safe counters
    # the finished engine and the coequalised pair, for the universal property
    engine: Optional["_Engine"] = field(default=None, repr=False, compare=False)
    seeds: Optional[tuple[DoubleMorphism, DoubleMorphism]] = field(
        default=None, repr=False, compare=False
    )


# -- coproduct -----------------------------------------------------------------


def coproduct(models: list[DoubleGC]) -> tuple[DoubleGC, list[DoubleMorphism]]:
    """Disjoint union with tag-renamed identifiers, plus the injections."""
    if not models:
        raise InputMismatch("coproduct of an empty family")
    kind = "groupoid" if all(m.is_groupoid() for m in models) else "category"
    tag = lambda i, x: f"{i}.{x}"
    objects: list[str] = []
    edges: dict[str, EdgeEnds] = {}
    squares: dict[str, SquareFaces] = {}
    tables: dict[str, dict] = {op.field: {} for op in OPS}
    for i, m in enumerate(models):
        objects.extend(tag(i, o) for o in m.objects)
        for e, ends in m.edges.items():
            edges[tag(i, e)] = EdgeEnds(tag(i, ends.src), tag(i, ends.tgt))
        for s, f in m.squares.items():
            squares[tag(i, s)] = SquareFaces(*(tag(i, x) for x in f))
        for op in OPS:
            out_table = tables[op.field]
            for k, v in getattr(m, op.field).items():
                key = (tag(i, k[0]), tag(i, k[1])) if op.binary else tag(i, k)
                out_table[key] = tag(i, v)
    out = DoubleGC(
        objects=tuple(sorted(objects)),
        edges=edges,
        squares=squares,
        kind=kind,
        **tables,
    )
    injections = [
        DoubleMorphism(
            source=m,
            target=out,
            f0={o: tag(i, o) for o in m.objects},
            f1={e: tag(i, e) for e in m.edges},
            f2={s: tag(i, s) for s in m.squares},
        )
        for i, m in enumerate(models)
    ]
    return out, injections


# -- the congruence/saturation engine ------------------------------------------


class _Comp(NamedTuple):
    """One of the three compositions, as the engine states its laws.

    The composite of ``a`` then ``b`` takes boundary slot ``lo`` from ``a`` and
    ``hi`` from ``b``, where ``a``'s ``hi`` meets ``b``'s ``lo``; each ``mid``
    slot is the edge composite of the two arguments' slots.  An inverse swaps
    ``lo`` and ``hi`` and inverts the ``mid`` edges.
    """

    op: str
    dim: int
    unit: str  # the identity operation
    inv: str  # the inverse operation
    lo: int
    hi: int
    mid: tuple[int, ...]


_COMPS = {
    c.op: c
    for c in (
        _Comp("ce", EDG, "eps", "inv_e", 0, 1, ()),
        _Comp("c1", SQR, "e1", "inv1", 0, 1, (2, 3)),
        _Comp("c2", SQR, "e2", "inv2", 2, 3, (0, 1)),
    )
}
_COMPS_OF = {dim: [c for c in _COMPS.values() if c.dim == dim] for dim in (OBJ, EDG, SQR)}


class _Budget(Exception):
    pass


class _Engine:
    """Union-find over three dimensions with operation tables and merge rules.

    Class representatives follow the global total order: base identifiers
    (lexicographic) before saturation-created elements (creation index), so
    quotient tables come out deterministic.
    """

    def __init__(self, base: DoubleGC, budget: int):
        self.base = base
        self.budget = budget
        self.parent: list[list[int]] = [[], [], []]
        self.keys: list[list[tuple]] = [[], [], []]
        self.origin: list[list[tuple]] = [[], [], []]
        # per element, its boundary one dimension down: () for an object,
        # (src, tgt) for an edge, (top, bottom, left, right) for a square
        self.bounds: list[list[tuple]] = [[], [], []]
        self.thin: list[set[int]] = [set(), set(), set()]  # only squares are thin
        # unit op -> root of a unit -> the class it is the unit of
        self.unit_of: dict[str, dict[int, int]] = {c.unit: {} for c in _COMPS.values()}
        self.sig: dict[tuple, int] = {}
        self.uses: dict[tuple[int, int], set[tuple]] = {}
        self.by_first: dict[tuple[str, int], set[tuple]] = {}
        self.by_second: dict[tuple[str, int], set[tuple]] = {}
        self.thin_index: dict[tuple[int, int, int, int], int] = {}
        self.queue: deque[tuple[int, int, int]] = deque()
        self.rules: deque[tuple] = deque()
        self.fresh_count = 0
        self.b_index: list[dict[str, int]] = [{}, {}, {}]

        ts = thin_set(base)
        cells = (dict.fromkeys(base.objects, ()), base.edges, base.squares)
        for dim, table in enumerate(cells):
            for x in sorted(table):
                bound = tuple(self.b_index[dim - 1][y] for y in table[x])
                self._add(dim, ("b", x), bound, thin=dim == SQR and x in ts)
        for op in OPS:
            args, values = self.b_index[op.arg], self.b_index[op.value]
            for k, v in sorted(getattr(base, op.field).items()):
                self._define((op.tag, *(args[x] for x in op.args(k))), values[v])

    # -- element bookkeeping ---------------------------------------------------

    def _total(self) -> int:
        return sum(len(p) for p in self.parent)

    def _add(self, dim: int, origin: tuple, bound: tuple = (), thin: bool = False) -> int:
        idx = len(self.parent[dim])
        self.parent[dim].append(idx)
        key = (0, origin[1]) if origin[0] == "b" else (1, idx)
        self.keys[dim].append(key)
        self.origin[dim].append(origin)
        self.bounds[dim].append(bound)
        if thin:
            self.thin[dim].add(idx)
        if origin[0] == "b":
            self.b_index[dim][origin[1]] = idx
        else:
            self.fresh_count += 1
        if self._total() > self.budget:
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

    def members(self) -> list[dict[int, list[int]]]:
        """Per dimension, each root's members in creation order."""
        out: list[dict[int, list[int]]] = [{}, {}, {}]
        for dim in (OBJ, EDG, SQR):
            for i in range(len(self.parent[dim])):
                out[dim].setdefault(self.find(dim, i), []).append(i)
        return out

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
        hit = self.sig.get(key)
        if hit is not None:
            self.merge(vdim, hit, value)
            return self.find(vdim, hit)
        self.sig[key] = value
        adim = _ARG_DIM[op]
        for x in key[1:]:
            self.uses.setdefault((adim, x), set()).add(key)
        if len(key) == 3:
            self.by_first.setdefault((op, key[1]), set()).add(key)
            self.by_second.setdefault((op, key[2]), set()).add(key)
        self._entry_rules(key, value)
        return value

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
        for x, y in zip(self.bounds[dim][c], self._composite_bound(comp, a, b)):
            self.merge(dim - 1, x, y)
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
        self._queue_rules(key)

    def _queue_rules(self, key: tuple) -> None:
        """Queue the associativity and interchange instances of a composite.

        Square instances whose arguments are all thin are settled by the
        thin-filler rule, and any instance with a non-thin argument is
        reachable from an entry that has one, so all-thin entries are skipped.
        """
        op, a, b = key
        if op == "ce":
            self.rules.append(("assoc", op, key))
        elif not self._all_thin((a, b)):
            self.rules.append(("assoc", op, key))
            self.rules.append(("inter", op, key))

    def _all_thin(self, squares: Iterable[int]) -> bool:
        thin = self.thin[SQR]
        for s in squares:
            if self.find(SQR, s) not in thin:
                return False
        return True

    def _entry(self, op: str, a: int, b: int) -> Optional[int]:
        dim = _ARG_DIM[op]
        got = self.sig.get((op, self.find(dim, a), self.find(dim, b)))
        return None if got is None else self.find(dim, got)

    def _run_assoc(self, op: str, key: tuple) -> None:
        # merge-only: instances whose composite entries are still missing are
        # revisited by the global rules pass after the next saturation sweep
        key = self._canon_key(key)
        if key not in self.sig:
            return
        _, a, b = key
        dim = _ARG_DIM[op]
        edge = op == "ce"
        ab = self.find(dim, self.sig[key])
        for other in list(self.by_second.get((op, self.find(dim, a)), ())):
            xa = self.sig.get(other)
            if xa is None:
                continue
            x = other[1]
            if not edge and self._all_thin((x, a, b)):
                continue
            lhs = self._entry(op, xa, b)
            rhs = self._entry(op, x, ab)
            if lhs is not None and rhs is not None:
                self.merge(dim, lhs, rhs)
        for other in list(self.by_first.get((op, self.find(dim, b)), ())):
            bz = self.sig.get(other)
            if bz is None:
                continue
            z = other[2]
            if not edge and self._all_thin((a, b, z)):
                continue
            lhs = self._entry(op, ab, z)
            rhs = self._entry(op, a, bz)
            if lhs is not None and rhs is not None:
                self.merge(dim, lhs, rhs)

    def _run_interchange(self, op: str, key: tuple) -> None:
        key = self._canon_key(key)
        if key not in self.sig:
            return
        f = lambda s: self.find(SQR, s)
        if op == "c2":
            tops = [(key[1], key[2])]
        else:
            tops = []
            for k2 in list(self.by_first.get(("c2", key[1]), ())):
                tops.append((k2[1], k2[2]))
            for k2 in list(self.by_second.get(("c2", key[1]), ())):
                tops.append((k2[1], k2[2]))
        for u, w in tops:
            u, w = f(u), f(w)
            uw = self._entry("c2", u, w)
            if uw is None:
                continue
            for k1u in list(self.by_first.get(("c1", u), ())):
                uu = self.sig.get(k1u)
                if uu is None:
                    continue
                up = f(k1u[2])
                for k1w in list(self.by_first.get(("c1", w), ())):
                    ww = self.sig.get(k1w)
                    if ww is None:
                        continue
                    wp = f(k1w[2])
                    if self._all_thin((u, w, up, wp)):
                        continue
                    if self.face(SQR, up, 3) != self.face(SQR, wp, 2):
                        continue
                    upwp = self._entry("c2", up, wp)
                    if upwp is None:
                        continue
                    lhs = self._entry("c1", uw, upwp)
                    rhs = self._entry("c2", uu, ww)
                    if lhs is not None and rhs is not None:
                        self.merge(SQR, lhs, rhs)

    # -- creation -----------------------------------------------------------------

    def _create(self, dim: int, origin: tuple, bound: tuple, thin: bool = False) -> int:
        """A fresh element; a thin square is the thin square on its shell, if any."""
        if not thin:
            return self._add(dim, origin, bound)
        shell = tuple(self.find(EDG, x) for x in bound)
        hit = self.thin_index.get(shell)
        if hit is not None and self.parent[SQR][hit] == hit:
            return hit
        fresh = self._add(SQR, origin, shell, thin=True)
        self.thin_index.setdefault(shell, fresh)
        return fresh

    def _composite_bound(self, comp: _Comp, a: int, b: int) -> tuple:
        """The boundary of the composite of ``a`` then ``b``, composing edges as needed."""
        fa, fb = self.bounds[comp.dim][a], self.bounds[comp.dim][b]
        bound = list(fa)
        bound[comp.hi] = fb[comp.hi]
        for i in comp.mid:
            bound[i] = self.goc("ce", fa[i], fb[i])
        return tuple(bound)

    def goc(self, op: str, a: int, b: int) -> int:
        """Get or create the composite of two composable classes."""
        comp = _COMPS[op]
        dim = comp.dim
        a, b = self.find(dim, a), self.find(dim, b)
        key = (op, a, b)
        hit = self.lookup(key)
        if hit is not None:
            return hit
        units = self.unit_of[comp.unit]
        if a in units:
            return self.find(dim, self._define(key, b))
        if b in units:
            return self.find(dim, self._define(key, a))
        thin = a in self.thin[dim] and b in self.thin[dim]
        fresh = self._create(dim, key, self._composite_bound(comp, a, b), thin)
        self._define(key, fresh)
        return self.find(dim, fresh)

    def _make_inverse(self, comp: _Comp, x: int) -> bool:
        """Define the inverse of root ``x`` if it lacks one; report whether it did.

        A unit is its own inverse.  A square waits for a later round while
        one of its ``mid`` edges has no inverse yet.
        """
        if self.lookup((comp.inv, x)) is not None:
            return False
        if x in self.unit_of[comp.unit]:
            inv = x
        else:
            f = self.bounds[comp.dim][x]
            bound = list(f)
            bound[comp.lo], bound[comp.hi] = f[comp.hi], f[comp.lo]
            for i in comp.mid:
                bound[i] = self.lookup(("inv_e", f[i]))
                if bound[i] is None:
                    return False
            inv = self._create(comp.dim, (comp.inv, x), tuple(bound), x in self.thin[comp.dim])
        self._define((comp.inv, x), inv)
        return True

    def _inverse_laws(self, comp: _Comp, x: int) -> bool:
        """``x`` with its inverse, either way round, is a unit; ``x`` inverts the inverse."""
        changed = self._make_inverse(comp, x)
        inv = self.lookup((comp.inv, x))
        if inv is None:
            return False
        dim = comp.dim
        pre = self.lookup((comp.unit, self.face(dim, x, comp.lo)))
        post = self.lookup((comp.unit, self.face(dim, x, comp.hi)))
        if pre is not None:
            self.merge(dim, self.goc(comp.op, x, inv), pre)
        if post is not None:
            self.merge(dim, self.goc(comp.op, inv, x), post)
        self._define((comp.inv, inv), x)
        return changed

    # -- drain: merges and queued rules to fixpoint ------------------------------

    def drain(self) -> bool:
        changed = False
        while self.queue or self.rules:
            while self.queue:
                dim, a, b = self.queue.popleft()
                ra, rb = self.find(dim, a), self.find(dim, b)
                if ra == rb:
                    continue
                changed = True
                root, gone = (
                    (ra, rb) if self.keys[dim][ra] <= self.keys[dim][rb] else (rb, ra)
                )
                self.parent[dim][gone] = root
                for x, y in zip(self.bounds[dim][root], self.bounds[dim][gone]):
                    self.merge(dim - 1, x, y)
                if gone in self.thin[dim]:
                    self.thin[dim].discard(gone)
                    self.thin[dim].add(root)
                for comp in _COMPS_OF[dim]:
                    units = self.unit_of[comp.unit]
                    if gone in units:
                        self._set_attr(units, root, units.pop(gone), dim - 1)
                for key in self.uses.pop((dim, gone), set()):
                    value = self.sig.pop(key, None)
                    self.by_first.get((key[0], key[1]), set()).discard(key)
                    if len(key) > 2:
                        self.by_second.get((key[0], key[2]), set()).discard(key)
                    if value is not None:
                        self._define(key, value)
            if self.rules:
                tag, op, key = self.rules.popleft()
                if tag == "assoc":
                    self._run_assoc(op, key)
                else:
                    self._run_interchange(op, key)
        return changed

    # -- sweeps -------------------------------------------------------------------

    def roots(self, dim: int) -> list[int]:
        return [i for i in range(len(self.parent[dim])) if self.find(dim, i) == i]

    def _eps_edge(self, obj_class: int) -> int:
        got = self.lookup(("eps", obj_class))
        if got is None:
            raise WellDefinednessFailure("object class without identity edge")
        return got

    def totality_sweep(self) -> bool:
        """Each class must carry its degeneracies, connections and inverses."""
        changed = False
        for e in self.roots(EDG):
            e_src = self._eps_edge(self.face(EDG, e, 0))
            e_tgt = self._eps_edge(self.face(EDG, e, 1))
            shells = {
                "e1": (e, e, e_src, e_tgt),
                "e2": (e_src, e_tgt, e, e),
                "gm": (e, e_tgt, e, e_tgt),
                "gp": (e_src, e, e_src, e),
            }
            for op, shell in shells.items():
                if self.lookup((op, e)) is None:
                    changed = True
                    self._define((op, e), self._create(SQR, (op, e), shell, thin=True))
            changed |= self._make_inverse(_COMPS["ce"], e)
        # every edge has its inverse before any law runs
        for dim in (EDG, SQR):
            for x in self.roots(dim):
                for comp in _COMPS_OF[dim]:
                    changed |= self._inverse_laws(comp, x)
        return changed

    def thin_merge_sweep(self) -> bool:
        """Thin squares over equal boundary classes coincide (T1 uniqueness)."""
        changed = False
        index: dict[tuple, int] = {}
        for s in self.roots(SQR):
            if s not in self.thin[SQR]:
                continue
            shell = tuple(self.find(EDG, x) for x in self.bounds[SQR][s])
            other = index.get(shell)
            if other is None:
                index[shell] = s
            elif self.find(SQR, other) != s:
                self.merge(SQR, other, s)
                changed = True
        self.thin_index = index
        return changed

    def saturation_sweep(self) -> bool:
        """Create composites for every class-composable pair lacking an entry."""
        changed = False
        for dim in (EDG, SQR):
            # both square directions pair the roots from before either creates
            roots = self.roots(dim)
            for comp in _COMPS_OF[dim]:
                changed |= self._saturate(comp, roots)
        return changed

    def _saturate(self, comp: _Comp, roots: list[int]) -> bool:
        by_lo: dict[int, list[int]] = {}
        by_hi: dict[int, list[int]] = {}
        for x in roots:
            by_lo.setdefault(self.face(comp.dim, x, comp.lo), []).append(x)
            by_hi.setdefault(self.face(comp.dim, x, comp.hi), []).append(x)
        changed = False
        for meet, firsts in sorted(by_hi.items()):
            for a in firsts:
                for b in by_lo.get(meet, ()):
                    key = (comp.op, self.find(comp.dim, a), self.find(comp.dim, b))
                    if key not in self.sig:
                        self.goc(comp.op, a, b)
                        changed = True
        return changed

    def rules_pass(self) -> None:
        """Re-enqueue every rule instance not already settled by thinness."""
        for key in list(self.sig):
            if len(key) == 3:
                self._queue_rules(key)

    def run(self, seeds: list[tuple[int, int, int]]) -> None:
        for dim, x, y in seeds:
            self.merge(dim, x, y)
        self.drain()
        while True:
            changed = self.totality_sweep()
            changed |= self.drain()
            changed |= self.thin_merge_sweep()
            changed |= self.drain()
            changed |= self.saturation_sweep()
            changed |= self.drain()
            self.rules_pass()
            changed |= self.drain()
            if not changed:
                return

    # -- extraction ---------------------------------------------------------------

    def class_name(self, dim: int, root: int) -> str:
        key = self.keys[dim][root]
        if key[0] == 0:
            return key[1]
        return f"~{'oeq'[dim]}{key[1]}"

    def extract(self) -> tuple[DoubleGC, DoubleMorphism]:
        name = lambda dim, x: self.class_name(dim, self.find(dim, x))
        objects = tuple(sorted(name(OBJ, o) for o in self.roots(OBJ)))
        edges = {
            name(EDG, e): EdgeEnds(*(name(OBJ, x) for x in self.bounds[EDG][e]))
            for e in self.roots(EDG)
        }
        squares = {
            name(SQR, s): SquareFaces(*(name(EDG, x) for x in self.bounds[SQR][s]))
            for s in self.roots(SQR)
        }
        tables: dict[str, dict] = {op.field: {} for op in OPS}
        for key, value in self.sig.items():
            op = OP[key[0]]
            k = op.key(tuple(name(op.arg, x) for x in key[1:]))
            v = name(op.value, value)
            prev = tables[op.field].setdefault(k, v)
            if prev != v:
                raise WellDefinednessFailure(f"{op.tag}[{k}] = {prev} and {v}")
        out = DoubleGC(
            objects=objects,
            edges=edges,
            squares=squares,
            kind=self.base.kind,
            **tables,
        )
        projection = DoubleMorphism(
            source=self.base,
            target=out,
            f0={o: name(OBJ, i) for o, i in self.b_index[OBJ].items()},
            f1={e: name(EDG, i) for e, i in self.b_index[EDG].items()},
            f2={s: name(SQR, i) for s, i in self.b_index[SQR].items()},
        )
        return out, projection


def coequalise(
    a: DoubleMorphism, b: DoubleMorphism, budget: int = DEFAULT_BUDGET
) -> QuotientResult:
    """Coequaliser of a parallel pair by congruence closure with saturation."""
    if a.source is not b.source and a.source != b.source:
        raise InputMismatch("parallel pair must share a source")
    if a.target is not b.target and a.target != b.target:
        raise InputMismatch("parallel pair must share a target")
    base = a.target
    if not base.is_groupoid():
        raise NotAGroupoid("coequalisers are computed for double groupoids")
    engine = _Engine(base, budget)
    seeds = []
    for o in sorted(a.source.objects):
        seeds.append((OBJ, engine.b_index[OBJ][a.f0[o]], engine.b_index[OBJ][b.f0[o]]))
    for e in sorted(a.source.edges):
        seeds.append((EDG, engine.b_index[EDG][a.f1[e]], engine.b_index[EDG][b.f1[e]]))
    for s in sorted(a.source.squares):
        seeds.append((SQR, engine.b_index[SQR][a.f2[s]], engine.b_index[SQR][b.f2[s]]))
    try:
        engine.run(seeds)
    except _Budget:
        return QuotientResult(
            status="budget_exceeded",
            object=None,
            projection=None,
            generators_added=engine.fresh_count,
            stats={"elements": engine._total(), "budget": budget},
        )
    out, projection = engine.extract()
    return QuotientResult(
        status="finite",
        object=out,
        projection=projection,
        generators_added=engine.fresh_count,
        stats={"elements": engine._total(), "budget": budget},
        engine=engine,
        seeds=(a, b),
    )


# -- the universal property ------------------------------------------------------


def factor_through(q: QuotientResult, f: DoubleMorphism) -> DoubleMorphism:
    """The unique morphism F with F after projection = f.

    F is defined on a congruence class through any base member, and on
    saturation-created classes by evaluating their creation record in the
    target; the equalising condition makes the value independent of the
    member chosen, and that independence is checked member by member.
    """
    if q.status != "finite":
        raise NotCoequalised("cannot factor through a budget_exceeded quotient")
    proj = q.projection
    base = proj.source
    if f.source is not base and f.source != base:
        raise InputMismatch("morphism must start at the coequalised model")
    a, b = q.seeds
    for amap, bmap, fmap in ((a.f0, b.f0, f.f0), (a.f1, b.f1, f.f1), (a.f2, b.f2, f.f2)):
        for x, av in amap.items():
            if fmap[av] != fmap[bmap[x]]:
                raise NotCoequalised(f"morphism does not equalise at {x!r}")
    engine = q.engine
    target = f.target
    fmaps = (f.f0, f.f1, f.f2)
    members_of = engine.members()

    memo: dict[tuple[int, int], str] = {}

    def value(dim: int, elem: int) -> str:
        root = engine.find(dim, elem)
        hit = memo.get((dim, root))
        if hit is not None:
            return hit
        members = members_of[dim][root]
        b_members = [i for i in members if engine.origin[dim][i][0] == "b"]
        if b_members:
            images = sorted({fmaps[dim][engine.origin[dim][i][1]] for i in b_members})
            if len(images) > 1:
                raise WellDefinednessFailure(
                    f"class {engine.class_name(dim, root)} has images {images}"
                )
            out = images[0]
        else:
            first = min(members, key=lambda i: engine.keys[dim][i])
            out = _apply_record(target, engine.origin[dim][first], value)
        memo[(dim, root)] = out
        return out

    f0 = {engine.class_name(OBJ, o): value(OBJ, o) for o in engine.roots(OBJ)}
    f1 = {engine.class_name(EDG, e): value(EDG, e) for e in engine.roots(EDG)}
    f2 = {engine.class_name(SQR, s): value(SQR, s) for s in engine.roots(SQR)}
    out = DoubleMorphism(source=q.object, target=target, f0=f0, f1=f1, f2=f2)

    for dim, fout in ((OBJ, f0), (EDG, f1), (SQR, f2)):
        for i in range(len(engine.parent[dim])):
            root = engine.find(dim, i)
            cname = engine.class_name(dim, root)
            origin = engine.origin[dim][i]
            if origin[0] == "b":
                got = fmaps[dim][origin[1]]
            else:
                got = _apply_record(target, origin, value)
            if got != fout[cname]:
                raise WellDefinednessFailure(
                    f"member {i} of {cname} maps to {got}, class maps to {fout[cname]}"
                )
    return out


def check_universal(q: QuotientResult, f: DoubleMorphism) -> Report:
    """Existence, commuting, validity and uniqueness of the factoring morphism."""
    rep = Report(title="coequaliser universal property")
    F = factor_through(q, f)
    rep.tick("factor-exists")
    comp = compose_morphisms(q.projection, F)
    rep.tick("factor-commutes")
    if not morphisms_equal(comp, f):
        rep.fail("factor-commutes", count=False)
    vrep = validate_morphism(F)
    rep.tick("factor-is-morphism")
    if not vrep.ok:
        rep.fail("factor-is-morphism", *(v[0] for v in vrep.violations[:3]), count=False)

    # uniqueness: walk classes in creation order; each is forced either by a
    # base member (G(proj x) = f x) or by its creation record through earlier
    # classes, so any G agreeing with f on the projection equals F everywhere
    engine = q.engine
    members_of = engine.members()
    for dim in (OBJ, EDG, SQR):
        forced: set[int] = set()
        pending = True
        while pending:
            pending = False
            for root in engine.roots(dim):
                if root in forced:
                    continue
                members = members_of[dim][root]
                if any(engine.origin[dim][i][0] == "b" for i in members):
                    forced.add(root)
                    pending = True
                    continue
                first = min(members, key=lambda i: engine.keys[dim][i])
                origin = engine.origin[dim][first]
                adim = _ARG_DIM[origin[0]]
                args_forced = True
                for arg in origin[1:]:
                    if adim == dim and engine.find(adim, arg) == root:
                        args_forced = False
                    elif adim == dim and engine.find(adim, arg) not in forced:
                        args_forced = False
                if args_forced:
                    forced.add(root)
                    pending = True
        rep.tick("uniqueness-forced")
        unforced = [r for r in engine.roots(dim) if r not in forced]
        if unforced:
            rep.fail(
                "uniqueness-forced",
                *(engine.class_name(dim, r) for r in unforced[:4]),
                count=False,
            )
    return rep


def _apply_record(target: DoubleGC, origin: tuple, value) -> str:
    op = OP.get(origin[0])
    if op is None:
        raise WellDefinednessFailure(f"no table operation in creation record {origin!r}")
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

    Pruned by counts, endpoint profiles and boundary keys; intended for
    models up to a few hundred squares.  Returns None when no isomorphism
    exists or the node budget runs out.
    """
    if (
        len(d.objects) != len(e.objects)
        or len(d.edges) != len(e.edges)
        or len(d.squares) != len(e.squares)
        or d.kind != e.kind
    ):
        return None

    def obj_profile(m: DoubleGC, o: str) -> tuple:
        outs = sum(1 for x in m.edges.values() if x.src == o)
        ins = sum(1 for x in m.edges.values() if x.tgt == o)
        loops = sum(1 for x in m.edges.values() if x.src == o and x.tgt == o)
        return (outs, ins, loops)

    d_objs = sorted(d.objects)
    e_by_profile: dict[tuple, list[str]] = {}
    for o in sorted(e.objects):
        e_by_profile.setdefault(obj_profile(e, o), []).append(o)
    candidates = {o: e_by_profile.get(obj_profile(d, o), []) for o in d_objs}
    if any(not candidates[o] for o in d_objs):
        return None

    state = {"nodes": 0}
    d_idents = set(d.eps.values())
    e_idents = set(e.eps.values())
    d_edges = sorted(d.edges)
    e_edges_by_key: dict[tuple, list[str]] = {}
    for x in sorted(e.edges):
        ends = e.edges[x]
        e_edges_by_key.setdefault((ends.src, ends.tgt, x in e_idents), []).append(x)
    d_squares = sorted(d.squares)
    e_sq_by_faces: dict[tuple, list[str]] = {}
    for s in sorted(e.squares):
        e_sq_by_faces.setdefault(tuple(e.squares[s]), []).append(s)

    def solve(items: list[str], candidates, tables) -> Optional[dict[str, str]]:
        """Map ``items`` injectively onto their candidates, preserving ``tables``."""
        f: dict[str, str] = {}
        used: set[str] = set()

        def preserved() -> bool:
            for d_table, e_table in tables:
                for (x, y), z in d_table.items():
                    if x in f and y in f and z in f:
                        if e_table.get((f[x], f[y])) != f[z]:
                            return False
            return True

        def step(i: int) -> bool:
            if i == len(items):
                return True
            state["nodes"] += 1
            if state["nodes"] > node_budget:
                return False
            x = items[i]
            for cand in candidates(x):
                if cand in used:
                    continue
                f[x] = cand
                used.add(cand)
                if preserved() and step(i + 1):
                    return True
                used.discard(cand)
                del f[x]
            return False

        return f if step(0) else None

    def obj_step(i: int, f0: dict[str, str], used: set[str]):
        if state["nodes"] > node_budget:
            return None
        if i == len(d_objs):
            f1 = solve(
                d_edges,
                lambda x: e_edges_by_key.get(
                    (f0[d.edges[x].src], f0[d.edges[x].tgt], x in d_idents), ()
                ),
                [(d.edge_compose, e.edge_compose)],
            )
            if f1 is None:
                return None
            f2 = solve(
                d_squares,
                lambda s: e_sq_by_faces.get(tuple(f1[x] for x in d.squares[s]), ()),
                [(d.compose1, e.compose1), (d.compose2, e.compose2)],
            )
            if f2 is None:
                return None
            iso = DoubleMorphism(source=d, target=e, f0=dict(f0), f1=f1, f2=f2)
            return iso if validate_morphism(iso).ok else None
        state["nodes"] += 1
        o = d_objs[i]
        for cand in candidates[o]:
            if cand in used:
                continue
            f0[o] = cand
            used.add(cand)
            got = obj_step(i + 1, f0, used)
            if got is not None:
                return got
            used.discard(cand)
            del f0[o]
        return None

    return obj_step(0, {}, set())


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
    if union != set(cat.objects):
        raise InputMismatch("cover must reach every object")
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
    maps_a = {"f0": {}, "f1": {}, "f2": {}}
    maps_b = {"f0": {}, "f1": {}, "f2": {}}
    for idx, (i, j) in enumerate(legs):
        inj = a_inj[idx]
        for dim in ("f0", "f1", "f2"):
            inj_map = getattr(inj, dim)
            bi = getattr(b_inj[i], dim)
            bj = getattr(b_inj[j], dim)
            for x, tagged in inj_map.items():
                maps_a[dim][tagged] = bi[x]
                maps_b[dim][tagged] = bj[x]
    a = DoubleMorphism(source=a_model, target=b_model, **maps_a)
    b = DoubleMorphism(source=a_model, target=b_model, **maps_b)
    return a, b, full


def vk_harness(
    cat: FiniteCategory,
    cover: list[Iterable[str]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[Report, QuotientResult]:
    """Coequalise the cover sequence and compare with the global square model."""
    rep = Report(title="finite van Kampen harness")
    a, b, full = vk_sequence(cat, cover)
    result = coequalise(a, b, budget=budget)
    rep.tick("vk-coequaliser-finite")
    if result.status != "finite":
        rep.fail("vk-coequaliser-finite", result.status, count=False)
        return rep, result
    rep.note(
        "coequaliser size: {objects} objects, {edges} edges, {squares} squares".format(
            **result.object.stats()
        )
    )
    rep.tick("vk-coequaliser-iso")
    iso = iso_check(result.object, full)
    if iso is None:
        rep.fail("vk-coequaliser-iso", "no isomorphism found", count=False)
    else:
        rep.note("coequaliser is isomorphic to the global square model")
    return rep, result
