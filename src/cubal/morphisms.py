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

    def maps(self) -> tuple:
        """The map of each dimension: ``(f0, f1, f2)``."""
        return (self.f0, self.f1, self.f2)


def identity_morphism(model: DoubleGC) -> DoubleMorphism:
    return DoubleMorphism(model, model, *({x: x for x in cells} for cells in model.cells()))


def compose_morphisms(f: DoubleMorphism, g: DoubleMorphism) -> DoubleMorphism:
    """g after f (apply f first)."""
    if f.target is not g.source and f.target != g.source:
        raise MalformedModel("morphisms do not chain: target of first != source of second")
    return DoubleMorphism(
        f.source,
        g.target,
        *({x: gmap[v] for x, v in fmap.items()} for fmap, gmap in zip(f.maps(), g.maps())),
    )


def morphisms_equal(f: DoubleMorphism, g: DoubleMorphism) -> bool:
    return f.maps() == g.maps()


_INVERSES = {comp.inv for comp in COMPS}


def validate_morphism(f: DoubleMorphism) -> Report:
    """Check every preservation equation of a double-category morphism.

    Covers faces, then every entry of each source table in ``core.OPS``, under
    the operation's ``family``: degeneracies, connections, edge and square
    compositions, and inverses when both models are groupoids.  Failures are
    report entries, never exceptions.
    """
    rep = Report(title="morphism preservation suite")
    src_m, tgt_m = f.source, f.target
    maps = f.maps()

    for fmap, cells, images in zip(maps, src_m.cells(), tgt_m.cells()):
        for x in sorted(cells):
            rep.tick("map-totality")
            if fmap.get(x) not in images:
                rep.fail("map-totality", x)
    if not rep.ok:
        return rep

    for e in sorted(src_m.edges):
        rep.tick("edge-endpoints")
        img = f.f1[e]
        if tgt_m.src(img) != f.f0.get(src_m.src(e)) or tgt_m.tgt(img) != f.f0.get(src_m.tgt(e)):
            rep.fail("edge-endpoints", e)

    for s in sorted(src_m.squares):
        rep.tick("square-faces")
        fs = src_m.squares[s]
        ft = tgt_m.squares[f.f2[s]]
        if tuple(ft) != tuple(map(f.f1.get, fs)):
            rep.fail("square-faces", s)

    groupoids = src_m.is_groupoid() and tgt_m.is_groupoid()
    for op in sorted(OPS, key=lambda op: op.tag in _INVERSES):
        if op.tag in _INVERSES and not groupoids:
            continue
        name, src_table = op.family, src_m.table(op.tag)
        arg, value_of, image = maps[op.arg].get, maps[op.value].get, tgt_m.table(op.tag).get
        if src_table:
            rep.tick(name, len(src_table))
        for key, value in sorted(src_table.items()):
            got = image((arg(key[0]), arg(key[1])) if op.binary else arg(key))
            if got is None or got != value_of(value):
                rep.fail(name, *op.args(key))

    return rep
