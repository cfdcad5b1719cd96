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
    report entries, never exceptions.  Each family is scanned in table order
    and only its failing keys are sorted, so failures come in key order.
    """
    rep = Report(title="morphism preservation suite")
    src_m, tgt_m = f.source, f.target
    maps = f.maps()

    def report(family: str, checked: int, failed: list[tuple]) -> None:
        rep.tick(family, checked)
        for key in sorted(failed):
            rep.fail(family, *key)

    for fmap, cells, images in zip(maps, src_m.cells(), tgt_m.cells()):
        report("map-totality", len(cells), [(x,) for x in cells if fmap.get(x) not in images])
    if not rep.ok:
        return rep

    f0, f1, f2 = f.f0.get, f.f1, f.f2
    ends, faces = tgt_m.edges, tgt_m.squares
    report("edge-endpoints", len(src_m.edges), [
        (e,) for e, (src, tgt) in src_m.edges.items() if ends[f1[e]] != (f0(src), f0(tgt))
    ])
    report("square-faces", len(src_m.squares), [
        (s,) for s, fs in src_m.squares.items() if faces[f2[s]] != tuple(map(f1.get, fs))
    ])

    groupoids = src_m.is_groupoid() and tgt_m.is_groupoid()
    for op in sorted(OPS, key=lambda op: op.tag in _INVERSES):
        if op.tag in _INVERSES and not groupoids:
            continue
        src_table = src_m.table(op.tag)
        arg, value_of, image = maps[op.arg].get, maps[op.value].get, tgt_m.table(op.tag).get
        if op.binary:
            failed = [
                key for key, value in src_table.items()
                if (got := image((arg(key[0]), arg(key[1])))) is None or got != value_of(value)
            ]
        else:
            failed = [
                (key,) for key, value in src_table.items()
                if (got := image(arg(key))) is None or got != value_of(value)
            ]
        report(op.family, len(src_table), failed)

    return rep
