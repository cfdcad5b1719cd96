"""The glue path as it stood before it shared one name per cell and joined partners.

Verbatim copies of the earlier ``models.square_model`` (every pair of
squares tried for each composition, every entry's key formatted afresh),
``colimits.coproduct`` (each mention of an identifier tagged anew),
``colimits._Engine.extract`` (each mention of an element named through
``find``), ``colimits._Engine._run_assoc`` and ``_run_interchange`` (every
instance visited from each stored row in it), and the uniqueness loop of
``colimits.check_universal`` (a fixpoint over every class's members), kept
as oracles for ``test_glue.py``: the current builders must give equal models
and identical ``.dgc`` text, the current rules must queue the merges of the
instances their designated rows reach, in the same order, and the one-pass
``unforced`` must leave unforced the classes the fixpoint does.
The rule oracles read partner lists through the engine's ``_partners``.
``EveryRowEngine`` is the engine as it was set up before it left out the base
square rows that change nothing: every base row goes through ``_define``.

``check_universal`` checks the universal property of a finite coequaliser
for one morphism: the factoring morphism exists, commutes, is a morphism and
is unique on every class, by the one-pass ``unforced``.  It is the checker
of the colimit tests, and the library does not call it.
"""
from __future__ import annotations

from cubal.colimits import _ARG_DIM, _COMPS_OF, QuotientResult, _Engine, factor_through
from cubal.core import EDG, OBJ, OP, OPS, SQR, DoubleGC, EdgeEnds, SquareFaces
from cubal.errors import InputMismatch, WellDefinednessFailure
from cubal.models import FiniteCategory, square_key
from cubal.morphisms import DoubleMorphism, compose_morphisms, validate_morphism
from cubal.reports import Report


def oracle_square_model(cat: FiniteCategory) -> DoubleGC:
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
        # each arrow's two-sided inverse, read off the composition and identities
        for a, ends in cat.arrows.items():
            for b in arrows_from.get(ends.tgt, ()):
                if (
                    comp[(a, b)] == cat.identity[ends.src]
                    and comp.get((b, a)) == cat.identity[ends.tgt]
                ):
                    edge_inverse[a] = b
                    break
        for s, f in squares.items():
            inverse1[s] = square_key(
                f.bottom, f.top, edge_inverse[f.left], edge_inverse[f.right]
            )
            inverse2[s] = square_key(
                edge_inverse[f.top], edge_inverse[f.bottom], f.right, f.left
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


def oracle_coproduct(models: list[DoubleGC]) -> tuple[DoubleGC, list[DoubleMorphism]]:
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


def oracle_extract(self) -> tuple[DoubleGC, DoubleMorphism]:
    """``_Engine.extract`` of the earlier engine; ``self`` is a finished engine."""
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
    # the rows of two thin arguments are read off their composite shells
    for comp in _COMPS_OF[SQR]:
        table = tables[OP[comp.op].field]
        for a in self.thin:
            for b in self.thin_at.get((comp.lo, self.face(SQR, a, comp.hi)), ()):
                c = self._thin_composite(comp, a, b)
                if c is None:
                    raise WellDefinednessFailure(f"{comp.op}: a shell without thin filler")
                table[(name(SQR, a), name(SQR, b))] = name(SQR, c)
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


def oracle_run_assoc(self, op: str, key: tuple, designated=None) -> None:
    """``_Engine._run_assoc`` of the earlier engine; ``self`` is a running engine.

    With ``designated`` given, an instance is checked only when this row is
    the one ``designated`` names for it.
    """
    # merge-only: instances whose composite entries are still missing are
    # revisited by the rules pass of a later round
    key = self._canon_key(key)
    ab = self.sig.get(key)
    if ab is None:
        return
    _, a, b = key
    dim = _ARG_DIM[op]
    # (x·y)·z = x·(y·z) with the row a·b as y·z, then as x·y
    instances = [("yz", x, a, b, xa, ab) for x, xa in self._partners(op, a, 1)]
    instances += [("xy", a, b, z, ab, bz) for z, bz in self._partners(op, b, 0)]
    entry = self._entry
    for role, x, y, z, xy, yz in instances:
        if designated is not None and designated(self, op, x, y, z) != role:
            continue
        lhs = entry(op, xy, z)
        if lhs is not None:
            rhs = entry(op, x, yz)
            if rhs is not None and rhs != lhs:
                self.queue.append((dim, lhs, rhs))


def oracle_run_interchange(self, op: str, key: tuple, designated=None) -> None:
    """``_Engine._run_interchange`` of the earlier engine; ``self`` is a running engine.

    A ``c2`` row is visited as the top row of each array, a ``c1`` row as
    its left and as its right column.  With ``designated`` given, an array
    is checked only when this row is the one ``designated`` names for it.
    """
    key = self._canon_key(key)
    pq = self.sig.get(key)
    if pq is None:
        return
    _, p, q = key
    entry = self._entry
    after = lambda op, x: self._partners(op, x, 0)
    before = lambda op, x: self._partners(op, x, 1)

    def keep(role, u, w, u_, w_):
        return designated is None or designated(self, u, w, u_, w_) == role

    if op == "c2":
        for p_, pp_, q_, qq_ in self._meeting(after("c1", p), 3, after("c1", q), 2):
            if keep("top", p, q, p_, q_):
                self._interchange(pq, entry("c2", p_, q_), pp_, qq_)
        return
    for w, pw, w_, qw in self._meeting(after("c2", p), 1, after("c2", q), 0):
        if keep("left", p, w, q, w_):
            self._interchange(pw, qw, pq, entry("c1", w, w_))
    for u, up, u_, uq in self._meeting(before("c2", p), 1, before("c2", q), 0):
        if keep("right", u, p, u_, q):
            self._interchange(up, uq, entry("c1", u, u_), pq)


def designated_assoc(self, op: str, x: int, y: int, z: int) -> str:
    """The row an instance (x·y)·z = x·(y·z) is visited from: y·z, or x·y
    when y·z is answered by shell (y and z thin squares)."""
    if _ARG_DIM[op] == SQR and y in self.thin and z in self.thin:
        return "xy"
    return "yz"


def designated_interchange(self, u: int, w: int, u_: int, w_: int) -> str:
    """The row an array u w / u' w' is visited from: its top row, its left
    column when the top row is thin, its right column when u' is thin too."""
    thin = self.thin
    if u not in thin or w not in thin:
        return "top"
    if u_ not in thin:
        return "left"
    return "right"


def oracle_forced(engine, dim: int) -> set[int]:
    """The uniqueness loop of the earlier ``check_universal``: the roots of
    ``dim`` forced by a fixpoint over each class's members."""
    members_of: dict[int, list[int]] = {}
    for i in range(len(engine.parent[dim])):
        members_of.setdefault(engine.find(dim, i), []).append(i)
    forced: set[int] = set()
    pending = True
    while pending:
        pending = False
        for root in engine.roots(dim):
            if root in forced:
                continue
            members = members_of[root]
            if any(engine.origin[dim][i][0] == "b" for i in members):
                forced.add(root)
                pending = True
                continue
            first = min(members)
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
    return forced


def unforced(engine, dim: int) -> list[int]:
    """The roots whose value under a factoring morphism is not forced.

    A class is forced by a base member (G(proj x) = f x) or by its
    creation record through forced classes.  The root is the least
    index, and base cells come before every fresh element, so a class
    has a base member exactly when its root is one; every argument of
    the root's record was created before it, so the argument's root comes
    earlier in ``roots``.  One pass decides all.
    """
    forced: set[int] = set()
    out = []
    for root in engine.roots(dim):
        origin = engine.origin[dim][root]
        if (
            origin[0] == "b"
            or _ARG_DIM[origin[0]] != dim
            or all(engine.find(dim, arg) in forced for arg in origin[1:])
        ):
            forced.add(root)
        else:
            out.append(root)
    return out


def check_universal(q: QuotientResult, f: DoubleMorphism) -> Report:
    """Existence, commuting, validity and uniqueness of the factoring morphism."""
    rep = Report(title="coequaliser universal property")
    F = factor_through(q, f)
    rep.tick("factor-exists")
    comp = compose_morphisms(q.projection, F)
    rep.tick("factor-commutes")
    if comp.maps() != f.maps():
        rep.fail("factor-commutes")
    vrep = validate_morphism(F)
    rep.tick("factor-is-morphism")
    if not vrep.ok:
        rep.fail("factor-is-morphism", *(v[0] for v in vrep.violations[:3]))

    # uniqueness: any G agreeing with f on the projection equals F on every
    # forced class
    for dim in (OBJ, EDG, SQR):
        rep.tick("uniqueness-forced")
        roots = unforced(q.engine, dim)
        if roots:
            rep.fail("uniqueness-forced", *(q.engine.class_name(dim, r) for r in roots[:4]))
    return rep


class EveryRowEngine(_Engine):
    """``_Engine`` with every base row of ``c1`` and ``c2`` installed through ``_define``."""

    def _unsettled(self, comp, rows):
        return rows
