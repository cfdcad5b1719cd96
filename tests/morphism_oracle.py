"""Oracle for ``cubal.morphisms.validate_morphism``: the sorted scan.

``sorted_validate_morphism`` is ``validate_morphism`` as it was before it
scanned each table in table order and sorted only the failing keys: it sorts
every family's cells or table entries and checks them in that order, so its
failures come in key order by construction.  It is the report-for-report
oracle for ``test_morphisms.py``.  The library does not use it.
"""
from __future__ import annotations

from cubal.core import COMPS, OPS
from cubal.morphisms import DoubleMorphism
from cubal.reports import Report

_INVERSES = {comp.inv for comp in COMPS}


def sorted_validate_morphism(f: DoubleMorphism) -> Report:
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
