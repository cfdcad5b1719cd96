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
category laws per dimension, interchange) and the thin-filler rule: two thin
squares over equal boundary classes coincide.  The latter is uniqueness of
thin fillers, valid in every double category with connections, and it makes
rule instances whose arguments are all thin redundant, so those are skipped.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

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
        self.edge_ends: list[tuple[int, int]] = []
        self.square_faces: list[tuple[int, int, int, int]] = []
        self.thin: dict[int, bool] = {}
        self.deg_of: dict[int, int] = {}  # edge root -> object class of its eps
        self.e1_of: dict[int, int] = {}  # square root -> edge class of its eps1
        self.e2_of: dict[int, int] = {}
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
        for o in sorted(base.objects):
            self._add(OBJ, ("b", o))
        for e in sorted(base.edges):
            ends = base.edges[e]
            self._add(
                EDG,
                ("b", e),
                ends=(self.b_index[OBJ][ends.src], self.b_index[OBJ][ends.tgt]),
            )
        for s in sorted(base.squares):
            f = base.squares[s]
            self._add(
                SQR,
                ("b", s),
                sq=tuple(self.b_index[EDG][x] for x in f),
                thin=s in ts,
            )
        for op in OPS:
            args, values = self.b_index[op.arg], self.b_index[op.value]
            for k, v in sorted(getattr(base, op.field).items()):
                self._define((op.tag, *(args[x] for x in op.args(k))), values[v])

    # -- element bookkeeping ---------------------------------------------------

    def _total(self) -> int:
        return sum(len(p) for p in self.parent)

    def _add(self, dim, origin, ends=None, sq=None, thin=False) -> int:
        idx = len(self.parent[dim])
        self.parent[dim].append(idx)
        key = (0, origin[1]) if origin[0] == "b" else (1, idx)
        self.keys[dim].append(key)
        self.origin[dim].append(origin)
        if dim == EDG:
            self.edge_ends.append(ends)
        if dim == SQR:
            self.square_faces.append(sq)
            self.thin[idx] = thin
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

    def src_of(self, e: int) -> int:
        return self.find(OBJ, self.edge_ends[e][0])

    def tgt_of(self, e: int) -> int:
        return self.find(OBJ, self.edge_ends[e][1])

    def sq_face(self, s: int, i: int) -> int:
        return self.find(EDG, self.square_faces[s][i])

    def shell_of(self, s: int) -> tuple[int, int, int, int]:
        return tuple(self.sq_face(s, i) for i in range(4))

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
        if op == "eps":
            self._set_attr(self.deg_of, self.find(EDG, value), key[1], OBJ)
        elif op == "e1":
            self._set_attr(self.e1_of, self.find(SQR, value), key[1], EDG)
        elif op == "e2":
            self._set_attr(self.e2_of, self.find(SQR, value), key[1], EDG)
        elif op == "ce":
            _, a, b = key
            c = self.find(EDG, value)
            self.merge(OBJ, self.src_of(c), self.src_of(a))
            self.merge(OBJ, self.tgt_of(c), self.tgt_of(b))
            if self.find(EDG, a) in self.deg_of:
                self.merge(EDG, c, b)
            if self.find(EDG, b) in self.deg_of:
                self.merge(EDG, c, a)
            if c in self.deg_of:
                inv_a = self.sig.get(self._canon_key(("inv_e", a)))
                if inv_a is not None:
                    self.merge(EDG, b, inv_a)
                inv_b = self.sig.get(self._canon_key(("inv_e", b)))
                if inv_b is not None:
                    self.merge(EDG, a, inv_b)
            self.rules.append(("assoc", "ce", key))
        elif op in ("c1", "c2"):
            _, a, b = key
            c = self.find(SQR, value)
            fa, fb = self.square_faces[a], self.square_faces[b]
            fc = self.square_faces[c]
            if op == "c1":
                self.merge(EDG, fc[0], fa[0])
                self.merge(EDG, fc[1], fb[1])
                self.merge(EDG, fc[2], self.goc_ce(fa[2], fb[2]))
                self.merge(EDG, fc[3], self.goc_ce(fa[3], fb[3]))
                ident = self.e1_of
            else:
                self.merge(EDG, fc[0], self.goc_ce(fa[0], fb[0]))
                self.merge(EDG, fc[1], self.goc_ce(fa[1], fb[1]))
                self.merge(EDG, fc[2], fa[2])
                self.merge(EDG, fc[3], fb[3])
                ident = self.e2_of
            if self.find(SQR, a) in ident:
                self.merge(SQR, c, b)
            if self.find(SQR, b) in ident:
                self.merge(SQR, c, a)
            if c in ident:
                inv_a = self.sig.get(self._canon_key((f"inv{op[1]}", a)))
                if inv_a is not None:
                    self.merge(SQR, b, inv_a)
                inv_b = self.sig.get(self._canon_key((f"inv{op[1]}", b)))
                if inv_b is not None:
                    self.merge(SQR, a, inv_b)
            # all-thin instances are settled by the thin-filler rule, and any
            # instance with a non-thin argument is reachable from an entry
            # that has one, so thin-thin entries never need rule triggers
            if not self._all_thin((a, b)):
                self.rules.append(("assoc", op, key))
                self.rules.append(("inter", op, key))

    def _all_thin(self, squares: Iterable[int]) -> bool:
        return all(self.thin.get(self.find(SQR, s), False) for s in squares)

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
                    if self.sq_face(up, 3) != self.sq_face(wp, 2):
                        continue
                    upwp = self._entry("c2", up, wp)
                    if upwp is None:
                        continue
                    lhs = self._entry("c1", uw, upwp)
                    rhs = self._entry("c2", uu, ww)
                    if lhs is not None and rhs is not None:
                        self.merge(SQR, lhs, rhs)

    # -- creation -----------------------------------------------------------------

    def _new_thin_square(self, shell: tuple[int, int, int, int], origin: tuple) -> int:
        shell = tuple(self.find(EDG, x) for x in shell)
        hit = self.thin_index.get(shell)
        if hit is not None and self.parent[SQR][hit] == hit:
            return hit
        fresh = self._add(SQR, origin, sq=shell, thin=True)
        self.thin_index.setdefault(shell, fresh)
        return fresh

    def goc_ce(self, a: int, b: int) -> int:
        """Get or create the composite of two composable edge classes."""
        a, b = self.find(EDG, a), self.find(EDG, b)
        hit = self.lookup(("ce", a, b))
        if hit is not None:
            return hit
        if a in self.deg_of:
            return self.find(EDG, self._define(("ce", a, b), b))
        if b in self.deg_of:
            return self.find(EDG, self._define(("ce", a, b), a))
        fresh = self._add(
            EDG, ("ce", a, b), ends=(self.edge_ends[a][0], self.edge_ends[b][1])
        )
        self._define(("ce", a, b), fresh)
        return self.find(EDG, fresh)

    def goc(self, op: str, a: int, b: int) -> int:
        if op == "ce":
            return self.goc_ce(a, b)
        a, b = self.find(SQR, a), self.find(SQR, b)
        hit = self.lookup((op, a, b))
        if hit is not None:
            return hit
        ident = self.e1_of if op == "c1" else self.e2_of
        if a in ident:
            return self.find(SQR, self._define((op, a, b), b))
        if b in ident:
            return self.find(SQR, self._define((op, a, b), a))
        fa, fb = self.square_faces[a], self.square_faces[b]
        if op == "c1":
            faces = (
                self.find(EDG, fa[0]),
                self.find(EDG, fb[1]),
                self.goc_ce(fa[2], fb[2]),
                self.goc_ce(fa[3], fb[3]),
            )
        else:
            faces = (
                self.goc_ce(fa[0], fb[0]),
                self.goc_ce(fa[1], fb[1]),
                self.find(EDG, fa[2]),
                self.find(EDG, fb[3]),
            )
        if self.thin.get(a, False) and self.thin.get(b, False):
            fresh = self._new_thin_square(faces, (op, a, b))
        else:
            fresh = self._add(SQR, (op, a, b), sq=faces, thin=False)
        self._define((op, a, b), fresh)
        return self.find(SQR, fresh)

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
                if dim == EDG:
                    self.merge(OBJ, self.edge_ends[root][0], self.edge_ends[gone][0])
                    self.merge(OBJ, self.edge_ends[root][1], self.edge_ends[gone][1])
                    if gone in self.deg_of:
                        self._set_attr(self.deg_of, root, self.deg_of.pop(gone), OBJ)
                if dim == SQR:
                    for i in range(4):
                        self.merge(
                            EDG, self.square_faces[root][i], self.square_faces[gone][i]
                        )
                    if self.thin.pop(gone, False):
                        self.thin[root] = True
                    for attr in (self.e1_of, self.e2_of):
                        if gone in attr:
                            self._set_attr(attr, root, attr.pop(gone), EDG)
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
        groupoid = self.base.is_groupoid()
        for e in self.roots(EDG):
            e_src = self._eps_edge(self.src_of(e))
            e_tgt = self._eps_edge(self.tgt_of(e))
            shells = {
                "e1": (e, e, e_src, e_tgt),
                "e2": (e_src, e_tgt, e, e),
                "gm": (e, e_tgt, e, e_tgt),
                "gp": (e_src, e, e_src, e),
            }
            for op, shell in shells.items():
                if self.lookup((op, e)) is None:
                    changed = True
                    self._define((op, e), self._new_thin_square(shell, (op, e)))
            if groupoid and self.lookup(("inv_e", e)) is None:
                changed = True
                if e in self.deg_of:
                    self._define(("inv_e", e), e)
                else:
                    fresh = self._add(
                        EDG,
                        ("inv_e", e),
                        ends=(self.edge_ends[e][1], self.edge_ends[e][0]),
                    )
                    self._define(("inv_e", e), fresh)
        if groupoid:
            for e in self.roots(EDG):
                inv = self.lookup(("inv_e", e))
                if inv is None:
                    continue
                self.merge(EDG, self.goc_ce(e, inv), self._eps_edge(self.src_of(e)))
                self.merge(EDG, self.goc_ce(inv, e), self._eps_edge(self.tgt_of(e)))
                self._define(("inv_e", inv), e)
            for s in self.roots(SQR):
                changed |= self._square_inverse(s, "inv1")
                changed |= self._square_inverse(s, "inv2")
        return changed

    def _square_inverse(self, s: int, op: str) -> bool:
        changed = False
        d = "c1" if op == "inv1" else "c2"
        ident_op = "e1" if op == "inv1" else "e2"
        inv = self.lookup((op, s))
        if inv is None:
            fs = self.square_faces[s]
            if op == "inv1":
                li = self.lookup(("inv_e", self.find(EDG, fs[2])))
                ri = self.lookup(("inv_e", self.find(EDG, fs[3])))
                if li is None or ri is None:
                    return False
                faces = (self.find(EDG, fs[1]), self.find(EDG, fs[0]), li, ri)
            else:
                ti = self.lookup(("inv_e", self.find(EDG, fs[0])))
                bi = self.lookup(("inv_e", self.find(EDG, fs[1])))
                if ti is None or bi is None:
                    return False
                faces = (ti, bi, self.find(EDG, fs[3]), self.find(EDG, fs[2]))
            if self.thin.get(self.find(SQR, s), False):
                inv = self._new_thin_square(faces, (op, s))
            else:
                inv = self._add(SQR, (op, s), sq=faces, thin=False)
            self._define((op, s), inv)
            changed = True
        inv = self.lookup((op, s))
        pre = self.lookup((ident_op, self.sq_face(s, 0 if op == "inv1" else 2)))
        post = self.lookup((ident_op, self.sq_face(s, 1 if op == "inv1" else 3)))
        if pre is not None:
            self.merge(SQR, self.goc(d, s, inv), pre)
        if post is not None:
            self.merge(SQR, self.goc(d, inv, s), post)
        self._define((op, inv), s)
        return changed

    def thin_merge_sweep(self) -> bool:
        """Thin squares over equal boundary classes coincide (T1 uniqueness)."""
        changed = False
        index: dict[tuple, int] = {}
        for s in self.roots(SQR):
            if not self.thin.get(s, False):
                continue
            shell = self.shell_of(s)
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
        edges_by_src: dict[int, list[int]] = {}
        edges_by_tgt: dict[int, list[int]] = {}
        for e in self.roots(EDG):
            edges_by_src.setdefault(self.src_of(e), []).append(e)
            edges_by_tgt.setdefault(self.tgt_of(e), []).append(e)
        for o, outs in sorted(edges_by_tgt.items()):
            for a in outs:
                for b in edges_by_src.get(o, ()):
                    if ("ce", self.find(EDG, a), self.find(EDG, b)) not in self.sig:
                        self.goc_ce(a, b)
                        changed = True
        sq_by_top: dict[int, list[int]] = {}
        sq_by_bottom: dict[int, list[int]] = {}
        sq_by_left: dict[int, list[int]] = {}
        sq_by_right: dict[int, list[int]] = {}
        for s in self.roots(SQR):
            sq_by_top.setdefault(self.sq_face(s, 0), []).append(s)
            sq_by_bottom.setdefault(self.sq_face(s, 1), []).append(s)
            sq_by_left.setdefault(self.sq_face(s, 2), []).append(s)
            sq_by_right.setdefault(self.sq_face(s, 3), []).append(s)
        for e, above in sorted(sq_by_bottom.items()):
            for a in above:
                for b in sq_by_top.get(e, ()):
                    if ("c1", self.find(SQR, a), self.find(SQR, b)) not in self.sig:
                        self.goc("c1", a, b)
                        changed = True
        for e, lefts in sorted(sq_by_right.items()):
            for a in lefts:
                for b in sq_by_left.get(e, ()):
                    if ("c2", self.find(SQR, a), self.find(SQR, b)) not in self.sig:
                        self.goc("c2", a, b)
                        changed = True
        return changed

    def rules_pass(self) -> None:
        """Re-enqueue every rule instance not already settled by thinness.

        Instances whose arguments are all thin are decided by the thin-filler
        rule; an instance with a non-thin argument is always reachable from an
        entry that has a non-thin argument, so those entries suffice.
        """
        for key in list(self.sig):
            if len(key) == 2:
                continue
            op = key[0]
            if op != "ce" and self._all_thin((key[1], key[2])):
                continue
            self.rules.append(("assoc", op, key))
            if op != "ce":
                self.rules.append(("inter", op, key))

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
            name(EDG, e): EdgeEnds(
                name(OBJ, self.edge_ends[e][0]), name(OBJ, self.edge_ends[e][1])
            )
            for e in self.roots(EDG)
        }
        squares = {
            name(SQR, s): SquareFaces(*(name(EDG, x) for x in self.square_faces[s]))
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
    for amap, bmap, fmap in _parallel_maps(q, f):
        for x, av in amap.items():
            if fmap[av] != fmap[bmap[x]]:
                raise NotCoequalised(f"morphism does not equalise at {x!r}")
    engine = q.engine
    target = f.target
    fmaps = (f.f0, f.f1, f.f2)
    members_of: list[dict[int, list[int]]] = [{}, {}, {}]
    for dim in (OBJ, EDG, SQR):
        for i in range(len(engine.parent[dim])):
            members_of[dim].setdefault(engine.find(dim, i), []).append(i)

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
            out = _apply_record(engine, target, engine.origin[dim][first], value)
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
                got = _apply_record(engine, target, origin, value)
            if got != fout[cname]:
                raise WellDefinednessFailure(
                    f"member {i} of {cname} maps to {got}, class maps to {fout[cname]}"
                )
    return out


def _parallel_maps(q: QuotientResult, f: DoubleMorphism):
    """Reconstruct the seeds of the coequaliser as (a-map, b-map, f-map) triples."""
    seeds = q.seeds
    if seeds is None:
        return []
    a, b = seeds
    return (
        (a.f0, b.f0, f.f0),
        (a.f1, b.f1, f.f1),
        (a.f2, b.f2, f.f2),
    )


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
    for dim in (OBJ, EDG, SQR):
        forced: set[int] = set()
        pending = True
        while pending:
            pending = False
            for root in engine.roots(dim):
                if root in forced:
                    continue
                members = [
                    i
                    for i in range(len(engine.parent[dim]))
                    if engine.find(dim, i) == root
                ]
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


def _apply_record(engine: _Engine, target: DoubleGC, origin: tuple, value) -> str:
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

    def solve_edges(f0):
        f1: dict[str, str] = {}
        used: set[str] = set()

        def step(i: int) -> bool:
            if i == len(d_edges):
                return True
            state["nodes"] += 1
            if state["nodes"] > node_budget:
                return False
            x = d_edges[i]
            ends = d.edges[x]
            for cand in e_edges_by_key.get(
                (f0[ends.src], f0[ends.tgt], x in d_idents), ()
            ):
                if cand in used:
                    continue
                f1[x] = cand
                used.add(cand)
                ok = True
                for (p, qq), r in d.edge_compose.items():
                    if p in f1 and qq in f1 and r in f1:
                        if e.edge_compose.get((f1[p], f1[qq])) != f1[r]:
                            ok = False
                            break
                if ok and step(i + 1):
                    return True
                used.discard(cand)
                del f1[x]
            return False

        return f1 if step(0) else None

    def solve_squares(f1):
        f2: dict[str, str] = {}
        used: set[str] = set()

        def step(i: int) -> bool:
            if i == len(d_squares):
                return True
            state["nodes"] += 1
            if state["nodes"] > node_budget:
                return False
            s = d_squares[i]
            want = tuple(f1[x] for x in d.squares[s])
            for cand in e_sq_by_faces.get(want, ()):
                if cand in used:
                    continue
                f2[s] = cand
                used.add(cand)
                ok = True
                for (x, y), z in d.compose1.items():
                    if x in f2 and y in f2 and z in f2:
                        if e.compose1.get((f2[x], f2[y])) != f2[z]:
                            ok = False
                            break
                if ok:
                    for (x, y), z in d.compose2.items():
                        if x in f2 and y in f2 and z in f2:
                            if e.compose2.get((f2[x], f2[y])) != f2[z]:
                                ok = False
                                break
                if ok and step(i + 1):
                    return True
                used.discard(cand)
                del f2[s]
            return False

        return f2 if step(0) else None

    def obj_step(i: int, f0: dict[str, str], used: set[str]):
        if state["nodes"] > node_budget:
            return None
        if i == len(d_objs):
            f1 = solve_edges(f0)
            if f1 is None:
                return None
            f2 = solve_squares(f1)
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
