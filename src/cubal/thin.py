"""Thin squares: compositional closure of connections and identities.

Thinness here is algebraic: the least set containing every identity square,
double degeneracy and connection, closed under both compositions.  The thin
structure (commuting shell -> unique thin filler) is recovered from the
closure; the axioms T0-T3 and the rigidity of thinly equivalent squares are
checked over whole models.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import EDGE_SQUARES, OP, DoubleGC, SquareFaces
from .errors import MultipleThinFillers, NoThinFiller
from .reports import Report
from .shells import Cube3, _commutes, cube_ok, shell_commutes

Witness = tuple  # ('e1'|'e2'|'gm'|'gp', edge) or ('c1'|'c2', Witness, Witness)


@dataclass(frozen=True)
class ThinSet:
    members: frozenset[str]
    witness: dict[str, Witness]
    by_shell: dict[SquareFaces, tuple[str, ...]]

    def __contains__(self, square: str) -> bool:
        return square in self.members


def thin_set(model: DoubleGC) -> ThinSet:
    """Least fixed point of composition closure over degeneracies and connections."""
    witness: dict[str, Witness] = {}
    frontier: list[str] = []

    def seed(square: str, w: Witness) -> None:
        if square not in witness:
            witness[square] = w
            frontier.append(square)

    for e in sorted(model.edges):
        for op in EDGE_SQUARES:
            seed(model.table(op.tag)[e], (op.tag, e))

    # the squares each square composes with, either way round, in either
    # direction: no other pairing can add a member
    partners: dict[str, set[str]] = {}
    for direction in (1, 2):
        for a, b in model.compose_table(direction):
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
    partners_sorted = {s: sorted(ts) for s, ts in partners.items()}
    tables = ((model.compose1, "c1"), (model.compose2, "c2"))

    members = set(witness)
    while frontier:
        new = frontier
        frontier = []
        # pair every new member with every known partner, both orders, both
        # ways; a partner handled as s earlier in the round has met s already
        handled: set[str] = set()
        for s in new:
            for t in partners_sorted.get(s, ()):
                if t not in members or t in handled:
                    continue
                for table, tag in tables:
                    for a, b in ((s, t), (t, s)):
                        got = table.get((a, b))
                        if got is not None and got not in witness:
                            witness[got] = (tag, witness[a], witness[b])
                            frontier.append(got)
            handled.add(s)
        members.update(frontier)

    by_shell: dict[SquareFaces, list[str]] = {}
    for s in sorted(witness):
        by_shell.setdefault(model.squares[s], []).append(s)
    return ThinSet(
        members=frozenset(witness),
        witness=witness,
        by_shell={k: tuple(v) for k, v in by_shell.items()},
    )


def evaluate_witness(model: DoubleGC, w: Witness) -> str:
    tag = w[0]
    if OP[tag].binary:
        return model.table(tag)[(evaluate_witness(model, w[1]), evaluate_witness(model, w[2]))]
    return model.table(tag)[w[1]]


def is_thin(model: DoubleGC, square: str, ts: Optional[ThinSet] = None) -> bool:
    ts = ts or thin_set(model)
    return square in ts


def thin_filler(model: DoubleGC, shell: SquareFaces, ts: Optional[ThinSet] = None) -> str:
    """The unique thin square with the given boundary (axiom T1)."""
    ts = ts or thin_set(model)
    candidates = ts.by_shell.get(shell, ())
    if not candidates:
        raise NoThinFiller(f"no thin filler for {shell}")
    if len(candidates) > 1:
        raise MultipleThinFillers(shell, candidates)
    return candidates[0]


def _all_shells(model: DoubleGC) -> Iterator[SquareFaces]:
    edges_from: dict[str, list[str]] = {}
    for e in sorted(model.edges):
        edges_from.setdefault(model.src(e), []).append(e)
    for left in sorted(model.edges):
        for top in edges_from.get(model.src(left), ()):
            for bottom in edges_from.get(model.tgt(left), ()):
                for right in edges_from.get(model.tgt(top), ()):
                    if model.tgt(right) == model.tgt(bottom):
                        yield SquareFaces(top, bottom, left, right)


def check_thin_axioms(model: DoubleGC, ts: Optional[ThinSet] = None) -> Report:
    """T0 through T3 over the whole model.

    T3 takes "is an identity" to mean the vertical identity on the top edge;
    a thin relative homotopy that is an identity square of any other form
    passes with a note recording the variant, so such models get flagged
    without failing.
    """
    ts = ts or thin_set(model)
    rep = Report(title="thin structure axiom suite")

    for s in sorted(ts.members):
        rep.tick("T0-thin-boundary-commutes")
        if not shell_commutes(model, model.squares[s]):
            rep.fail("T0-thin-boundary-commutes", s)

    for shell in _all_shells(model):
        fillers = ts.by_shell.get(shell, ())
        if shell_commutes(model, shell):
            rep.tick("T1-unique-thin-filler")
            if len(fillers) != 1:
                rep.fail(
                    "T1-unique-thin-filler",
                    shell.left,
                    shell.bottom,
                    shell.top,
                    shell.right,
                    f"fillers={len(fillers)}",
                )
        else:
            rep.tick("T0-no-filler-for-noncommuting")
            if fillers:
                rep.fail("T0-no-filler-for-noncommuting", *fillers)

    for e in sorted(model.edges):
        rep.tick("T2-identities-thin")
        if model.eps1[e] not in ts or model.eps2[e] not in ts:
            rep.fail("T2-identities-thin", e)
    # closure under composition holds by construction; verify on the tables
    for direction in (1, 2):
        for (a, b), c in sorted(model.compose_table(direction).items()):
            if a in ts and b in ts:
                rep.tick("T2-composition-closed")
                if c not in ts:
                    rep.fail("T2-composition-closed", a, b, c)

    identity_edges = set(model.eps.values())
    identity_squares = set(model.eps1.values()) | set(model.eps2.values())
    for s in sorted(ts.members):
        f = model.squares[s]
        if f.left in identity_edges and f.right in identity_edges:
            rep.tick("T3-relative-homotopy-is-identity")
            if s == model.eps1.get(f.top):
                continue
            if s in identity_squares:
                rep.note(f"T3: {s} is an identity square of a variant form")
                continue
            rep.fail("T3-relative-homotopy-is-identity", s)
    return rep


def _relhom_candidates(
    model: DoubleGC, ts: ThinSet, top: str, bottom: str
) -> tuple[str, ...]:
    e = model.eps
    key = SquareFaces(top, bottom, e[model.src(top)], e[model.tgt(top)])
    return ts.by_shell.get(key, ())


def thinly_equivalent(
    model: DoubleGC,
    u: str,
    v: str,
    budget: int = 10**6,
    ts: Optional[ThinSet] = None,
) -> Optional[bool]:
    """Search for a commutative cube joining u to v with thin side faces.

    The side faces are relative homotopies, so their boundaries are pinned by
    the shared shell of u and v; candidates come from the thin set.  Returns
    True/False, or None when more than ``budget`` candidate cubes would need
    checking (unknown, reported distinctly from False).
    """
    fu, fv = model.squares[u], model.squares[v]
    if fu != fv:
        raise ValueError(f"{u!r} and {v!r} do not share a boundary shell")
    ts = ts or thin_set(model)
    c2m = _relhom_candidates(model, ts, fu.top, fv.top)
    c2p = _relhom_candidates(model, ts, fu.bottom, fv.bottom)
    c3m = _relhom_candidates(model, ts, fu.left, fv.left)
    c3p = _relhom_candidates(model, ts, fu.right, fv.right)
    total = len(c2m) * len(c2p) * len(c3m) * len(c3p)
    if total > budget:
        return None
    for f2m, f2p, f3m, f3p in itertools.product(c2m, c2p, c3m, c3p):
        cube = Cube3(u, v, f2m, f2p, f3m, f3p)
        if cube_ok(model, cube) and _commutes(model, cube):
            return True
    return False


def rigidity_check(model: DoubleGC) -> Report:
    """Thinly equivalent squares coincide, over all equal-shell square pairs."""
    ts = thin_set(model)
    rep = Report(title="rigidity of thinly equivalent squares")
    by_shell: dict[SquareFaces, list[str]] = {}
    for s in sorted(model.squares):
        by_shell.setdefault(model.squares[s], []).append(s)
    unknowns = 0
    for group in by_shell.values():
        for u in group:
            for v in group:
                rep.tick("rigidity")
                verdict = thinly_equivalent(model, u, v, ts=ts)
                if verdict is None:
                    unknowns += 1
                    rep.tick("rigidity-unknown")
                elif verdict and u != v:
                    rep.fail("rigidity", u, v)
    if unknowns:
        rep.note(f"{unknowns} pairs exceeded the search budget (unknown)")
    return rep
