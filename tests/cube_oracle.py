"""The cube sampler as it stood before it was driven by one constraint plan.

A copy of the earlier ``CubeIndex`` from ``cubal.shells``, less its
``by_left`` index, which nothing read: slot candidates from hand-written
``by_tb``/``by_quad`` indexes in the fixed order ``f1m f1p f2m f2p f3m f3p``,
and pins checked after the draw.  Kept as the oracle for
``test_cube_sampler.py``.  Not used by the library.
"""
from __future__ import annotations

from random import Random
from typing import Iterator, Optional

from cubal.core import DoubleGC
from cubal.shells import Cube3


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

    def random_cube(
        self,
        rng: Random,
        fixed: Optional[dict[str, str]] = None,
        tries: int = 200,
    ) -> Optional[Cube3]:
        fixed = fixed or {}
        order = ("f1m", "f1p", "f2m", "f2p", "f3m", "f3p")
        for _ in range(tries):
            chosen: dict[str, str] = {}
            for slot in order:
                if slot in fixed:
                    cands = self._slot_candidates(chosen, slot)
                    if fixed[slot] not in cands:
                        break
                    chosen[slot] = fixed[slot]
                    continue
                cands = self._slot_candidates(chosen, slot)
                if not cands:
                    break
                chosen[slot] = rng.choice(cands)
            else:
                return Cube3(**chosen)
        return None
