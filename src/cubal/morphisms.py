"""Structure-preserving maps between tabulated double categories."""
from __future__ import annotations

from dataclasses import dataclass

from .core import DoubleGC
from .errors import MalformedModel
from .reports import Report


@dataclass(frozen=True)
class DoubleMorphism:
    """A triple of maps (objects, edges, squares) between two models."""

    source: DoubleGC
    target: DoubleGC
    f0: dict[str, str]
    f1: dict[str, str]
    f2: dict[str, str]


def identity_morphism(model: DoubleGC) -> DoubleMorphism:
    return DoubleMorphism(
        source=model,
        target=model,
        f0={o: o for o in model.objects},
        f1={e: e for e in model.edges},
        f2={s: s for s in model.squares},
    )


def compose_morphisms(f: DoubleMorphism, g: DoubleMorphism) -> DoubleMorphism:
    """g after f (apply f first)."""
    if f.target is not g.source and f.target != g.source:
        raise MalformedModel("morphisms do not chain: target of first != source of second")
    return DoubleMorphism(
        source=f.source,
        target=g.target,
        f0={o: g.f0[v] for o, v in f.f0.items()},
        f1={e: g.f1[v] for e, v in f.f1.items()},
        f2={s: g.f2[v] for s, v in f.f2.items()},
    )


def morphisms_equal(f: DoubleMorphism, g: DoubleMorphism) -> bool:
    return f.f0 == g.f0 and f.f1 == g.f1 and f.f2 == g.f2


def validate_morphism(f: DoubleMorphism) -> Report:
    """Check every preservation equation of a double-category morphism.

    Covers faces, degeneracies, both square compositions, edge composition,
    connections, and inverses when both models are groupoids.  Failures are
    report entries, never exceptions.
    """
    rep = Report(title="morphism preservation suite")
    src_m, tgt_m = f.source, f.target

    for o in sorted(src_m.objects):
        rep.tick("map-totality")
        if f.f0.get(o) not in tgt_m.objects and f.f0.get(o) is None:
            rep.fail("map-totality", o, count=False)
    for e in sorted(src_m.edges):
        rep.tick("map-totality")
        if f.f1.get(e) not in tgt_m.edges:
            rep.fail("map-totality", e, count=False)
    for s in sorted(src_m.squares):
        rep.tick("map-totality")
        if f.f2.get(s) not in tgt_m.squares:
            rep.fail("map-totality", s, count=False)
    if not rep.ok:
        return rep

    for e in sorted(src_m.edges):
        rep.tick("edge-endpoints")
        img = f.f1[e]
        if tgt_m.src(img) != f.f0[src_m.src(e)] or tgt_m.tgt(img) != f.f0[src_m.tgt(e)]:
            rep.fail("edge-endpoints", e, count=False)

    for s in sorted(src_m.squares):
        rep.tick("square-faces")
        fs = src_m.squares[s]
        ft = tgt_m.squares[f.f2[s]]
        if tuple(ft) != tuple(f.f1[x] for x in fs):
            rep.fail("square-faces", s, count=False)

    for o in sorted(src_m.objects):
        rep.tick("identity-edge")
        if tgt_m.eps.get(f.f0[o]) != f.f1.get(src_m.eps[o]):
            rep.fail("identity-edge", o, count=False)

    for name, src_t, tgt_t in (
        ("identity-square-1", src_m.eps1, tgt_m.eps1),
        ("identity-square-2", src_m.eps2, tgt_m.eps2),
        ("connection-minus", src_m.gamma_minus, tgt_m.gamma_minus),
        ("connection-plus", src_m.gamma_plus, tgt_m.gamma_plus),
    ):
        for e in sorted(src_m.edges):
            rep.tick(name)
            if tgt_t.get(f.f1[e]) != f.f2.get(src_t[e]):
                rep.fail(name, e, count=False)

    for (a, b), c in sorted(src_m.edge_compose.items()):
        rep.tick("edge-composition")
        if tgt_m.edge_compose.get((f.f1[a], f.f1[b])) != f.f1[c]:
            rep.fail("edge-composition", a, b, count=False)

    for direction in (1, 2):
        name = f"square-composition-{direction}"
        tgt_table = tgt_m.compose_table(direction)
        for (a, b), c in sorted(src_m.compose_table(direction).items()):
            rep.tick(name)
            if tgt_table.get((f.f2[a], f.f2[b])) != f.f2[c]:
                rep.fail(name, a, b, count=False)

    if src_m.is_groupoid() and tgt_m.is_groupoid():
        for e, inv in sorted(src_m.edge_inverse.items()):
            rep.tick("edge-inverse")
            if tgt_m.edge_inverse.get(f.f1[e]) != f.f1[inv]:
                rep.fail("edge-inverse", e, count=False)
        for name, src_t, tgt_t in (
            ("square-inverse-1", src_m.inverse1, tgt_m.inverse1),
            ("square-inverse-2", src_m.inverse2, tgt_m.inverse2),
        ):
            for s, inv in sorted(src_t.items()):
                rep.tick(name)
                if tgt_t.get(f.f2[s]) != f.f2[inv]:
                    rep.fail(name, s, count=False)

    return rep
