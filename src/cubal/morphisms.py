"""Structure-preserving maps between tabulated double categories."""
from __future__ import annotations

from dataclasses import dataclass

from .core import COMPS, OPS, DoubleGC
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


# The preservation family of each table operation.
_FAMILIES = {
    "eps": "identity-edge",
    "e1": "identity-square-1",
    "e2": "identity-square-2",
    "gm": "connection-minus",
    "gp": "connection-plus",
    "ce": "edge-composition",
    "c1": "square-composition-1",
    "c2": "square-composition-2",
    "inv_e": "edge-inverse",
    "inv1": "square-inverse-1",
    "inv2": "square-inverse-2",
}
_INVERSES = {comp.inv for comp in COMPS}


def validate_morphism(f: DoubleMorphism) -> Report:
    """Check every preservation equation of a double-category morphism.

    Covers faces, then every entry of each source table in ``core.OPS``:
    degeneracies, connections, edge and square compositions, and inverses
    when both models are groupoids.  Failures are report entries, never
    exceptions.
    """
    rep = Report(title="morphism preservation suite")
    src_m, tgt_m = f.source, f.target
    maps = (f.f0, f.f1, f.f2)

    for fmap, cells, images in zip(
        maps,
        (src_m.objects, src_m.edges, src_m.squares),
        (tgt_m.objects, tgt_m.edges, tgt_m.squares),
    ):
        for x in sorted(cells):
            rep.tick("map-totality")
            if fmap.get(x) not in images:
                rep.fail("map-totality", x, count=False)
    if not rep.ok:
        return rep

    for e in sorted(src_m.edges):
        rep.tick("edge-endpoints")
        img = f.f1[e]
        if tgt_m.src(img) != f.f0.get(src_m.src(e)) or tgt_m.tgt(img) != f.f0.get(src_m.tgt(e)):
            rep.fail("edge-endpoints", e, count=False)

    for s in sorted(src_m.squares):
        rep.tick("square-faces")
        fs = src_m.squares[s]
        ft = tgt_m.squares[f.f2[s]]
        if tuple(ft) != tuple(map(f.f1.get, fs)):
            rep.fail("square-faces", s, count=False)

    groupoids = src_m.is_groupoid() and tgt_m.is_groupoid()
    for op in sorted(OPS, key=lambda op: op.tag in _INVERSES):
        if op.tag in _INVERSES and not groupoids:
            continue
        name, src_table = _FAMILIES[op.tag], src_m.table(op.tag)
        arg, value_of, image = maps[op.arg].get, maps[op.value].get, tgt_m.table(op.tag).get
        if src_table:
            rep.tick(name, len(src_table))
        for key, value in sorted(src_table.items()):
            got = image((arg(key[0]), arg(key[1])) if op.binary else arg(key))
            if got is None or got != value_of(value):
                rep.fail(name, *op.args(key), count=False)

    return rep
