"""Oracles for the cube code of ``cubal.shells``: earlier or brute-force versions.

``OracleCubeIndex.cubes`` is the cube enumeration before it was driven by
one constraint plan: slot candidates from hand-written ``by_tb``/``by_quad``
indexes in the fixed order ``f1m f1p f2m f2p f3m f3p``, and pins checked
after the walk, so it lists the cubes in sorted order.  It is the
enumeration oracle for ``test_cube_sampler.py``.

``corner_random_cube`` is the sampler by brute force: the pinned slots are
checked against each other first, then each free slot is drawn in the order
``f1m f2m f3m f1p f2p f3p`` from the sorted squares that satisfy every face
relation with the slots already held.  It is the draw-for-draw oracle for
``test_cube_sampler.py``.

``oracle_compose_cubes`` is cube composition with one hand-written branch
per direction, before one face rule covered all three.  It is the oracle
for ``test_shells.py``.  None of them is used by the library.
"""
from __future__ import annotations

from random import Random
from typing import Iterator, Optional

from cubal.core import DoubleGC
from cubal.errors import FaceCompositionUndefined, NotComposable
from cubal.shells import FACE_RELATIONS, TRIES, Cube3, require_cube


class OracleCubeIndex:
    def __init__(self, model: DoubleGC):
        self.model = model
        self.squares = sorted(model.squares)
        self.by_tb: dict[tuple[str, str], list[str]] = {}
        self.by_quad: dict[tuple[str, str, str, str], list[str]] = {}
        for s in self.squares:
            f = model.squares[s]
            self.by_tb.setdefault((f.top, f.bottom), []).append(s)
            self.by_quad.setdefault(tuple(f), []).append(s)

    def _slot_candidates(self, chosen: dict[str, str], slot: str) -> list[str]:
        sq = self.model.squares
        if slot == "f1m" or slot == "f1p":
            return self.squares
        a1m, a1p = sq[chosen["f1m"]], sq[chosen["f1p"]]
        if slot == "f2m":
            return self.by_tb.get((a1m.top, a1p.top), [])
        if slot == "f2p":
            return self.by_tb.get((a1m.bottom, a1p.bottom), [])
        a2m, a2p = sq[chosen["f2m"]], sq[chosen["f2p"]]
        if slot == "f3m":
            return self.by_quad.get((a1m.left, a1p.left, a2m.left, a2p.left), [])
        return self.by_quad.get((a1m.right, a1p.right, a2m.right, a2p.right), [])

    def cubes(self, fixed: Optional[dict[str, str]] = None) -> Iterator[Cube3]:
        fixed = fixed or {}
        order = ("f1m", "f1p", "f2m", "f2p", "f3m", "f3p")

        def walk(i: int, chosen: dict[str, str]) -> Iterator[Cube3]:
            if i == len(order):
                yield Cube3(**chosen)
                return
            slot = order[i]
            cands = self._slot_candidates(chosen, slot)
            want = fixed.get(slot)
            if want is not None:
                cands = [want] if want in cands else []
            for c in cands:
                chosen[slot] = c
                yield from walk(i + 1, chosen)
                del chosen[slot]

        yield from walk(0, {})


def _fits(model, held: dict[str, str], slot: str, square: str) -> bool:
    """Whether ``square`` in ``slot`` meets every held slot as FACE_RELATIONS says."""
    sq = model.squares
    for a, p, b, q in FACE_RELATIONS:
        if a == slot and b in held and getattr(sq[square], p) != getattr(sq[held[b]], q):
            return False
        if b == slot and a in held and getattr(sq[square], q) != getattr(sq[held[a]], p):
            return False
    return True


def corner_random_cube(
    model: DoubleGC,
    rng: Random,
    fixed: Optional[dict[str, str]] = None,
) -> Optional[Cube3]:
    fixed = fixed or {}
    pinned: dict[str, str] = {}
    for slot in ("f1m", "f1p", "f2m", "f2p", "f3m", "f3p"):
        if slot in fixed:
            square = fixed[slot]
            if square not in model.squares or not _fits(model, pinned, slot, square):
                return None
            pinned[slot] = square
    squares = sorted(model.squares)
    for _ in range(TRIES):
        held = dict(pinned)
        for slot in ("f1m", "f2m", "f3m", "f1p", "f2p", "f3p"):
            if slot in held:
                continue
            cands = [s for s in squares if _fits(model, held, slot, s)]
            if not cands:
                break
            held[slot] = rng.choice(cands)
        else:
            return Cube3(**held)
    return None


def oracle_compose_cubes(model: DoubleGC, direction: int, a: Cube3, b: Cube3) -> Cube3:
    if direction not in (1, 2, 3):
        raise ValueError(f"direction must be 1, 2 or 3, got {direction}")
    if a.face(direction, "+") != b.face(direction, "-"):
        raise NotComposable(direction, a, b)

    def c1(x, y):
        got = model.compose1.get((x, y))
        if got is None:
            raise FaceCompositionUndefined(f"{x!r} +1 {y!r} undefined")
        return got

    def c2(x, y):
        got = model.compose2.get((x, y))
        if got is None:
            raise FaceCompositionUndefined(f"{x!r} +2 {y!r} undefined")
        return got

    if direction == 1:
        out = Cube3(
            a.f1m,
            b.f1p,
            c1(a.f2m, b.f2m),
            c1(a.f2p, b.f2p),
            c1(a.f3m, b.f3m),
            c1(a.f3p, b.f3p),
        )
    elif direction == 2:
        out = Cube3(
            c1(a.f1m, b.f1m),
            c1(a.f1p, b.f1p),
            a.f2m,
            b.f2p,
            c2(a.f3m, b.f3m),
            c2(a.f3p, b.f3p),
        )
    else:
        out = Cube3(
            c2(a.f1m, b.f1m),
            c2(a.f1p, b.f1p),
            c2(a.f2m, b.f2m),
            c2(a.f2p, b.f2p),
            a.f3m,
            b.f3p,
        )
    require_cube(model, out)
    return out
