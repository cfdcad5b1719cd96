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

``oracle_compose_cubes`` and ``oracle_degenerate_cube`` are cube
composition and the identity cube with one hand-written branch per
direction, before one face rule covered all three.  They are the oracles
for ``test_shells.py``.

``InterpretedCubeIndex``, ``interpreted_compose_cubes`` and
``interpreted_composites``/``interpreted_commutes``/``interpreted_hcl_prime``
are the cube layer before ``cubal.shells`` generated its hot paths: the plan
walked by a loop over its steps, with ``itemgetter`` keys read off the
chosen squares laid end to end; composition by a loop over ``_ACROSS`` and
``cube_ok``; and the odd/even and HCL' arrays written out by hand and
composed by ``compose_array``.  They are the oracles for
``test_cube_compiled.py``.

``oracle_theorem25_harness`` is the closure harness before its exhaustive
mode looked each composite up among the commutative cubes: every composite
is decided by ``_commutes``, and each cube of a sampled pair is drawn from
``InterpretedCubeIndex`` with its pins rebuilt per call.  It is the oracle
for ``test_theorem25_oracle.py``.  None of these is used by the library.
"""
from __future__ import annotations

from operator import itemgetter
from random import Random
from typing import Callable, Hashable, Iterator, NamedTuple, Optional, Sequence

from cubal.core import DoubleGC, SquareFaces, compose_array
from cubal.errors import FaceCompositionUndefined, NotComposable
from cubal.reports import Report
from cubal.shells import (
    CORNER_ORDER,
    FACE_RELATIONS,
    SLOTS,
    TRIES,
    Cube3,
    _ACROSS,
    _commutes,
    compose_cubes,
    require_cube,
)


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


def oracle_degenerate_cube(model: DoubleGC, direction: int, square: str) -> Cube3:
    f = model.squares[square]
    e1, e2 = model.eps1, model.eps2
    if direction == 1:
        return Cube3(square, square, e1[f.top], e1[f.bottom], e1[f.left], e1[f.right])
    if direction == 2:
        return Cube3(e1[f.top], e1[f.bottom], square, square, e2[f.left], e2[f.right])
    if direction == 3:
        return Cube3(e2[f.top], e2[f.bottom], e2[f.left], e2[f.right], square, square)
    raise ValueError(f"direction must be 1, 2 or 3, got {direction}")


# -- the interpreted cube layer --------------------------------------------------

_POS = {name: i for i, name in enumerate(SquareFaces._fields)}


def _getter(offsets: tuple[int, ...]) -> Callable[[Sequence[str]], Hashable]:
    """Reads these offsets of a sequence as one hashable key."""
    return itemgetter(*offsets) if offsets else (lambda _: ())


class _Step(NamedTuple):
    """One slot of a plan, with the faces that the slots before it fix.

    ``own`` reads those faces off a square of this slot; ``key`` reads the
    faces they must equal off the chosen squares laid end to end (four
    entries per slot of ``SLOTS``); ``index`` maps a key to the sorted squares
    that fit it.
    """

    slot: int  # position in SLOTS
    span: slice  # this slot's faces among the chosen squares laid end to end
    own: Callable[[Sequence[str]], Hashable]
    key: Callable[[Sequence[str]], Hashable]
    index: dict


class InterpretedCubeIndex:
    """``CubeIndex`` with its plan walked by a loop over ``_Step`` tuples."""

    def __init__(self, model: DoubleGC):
        self.model = model
        self.squares = sorted(model.squares)
        self._indexes: dict[tuple[int, ...], dict] = {}
        self._plans: dict[tuple[str, ...], tuple[_Step, ...]] = {}

    def _index(self, positions: tuple[int, ...]) -> dict:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            own = _getter(positions)
            sq = self.model.squares
            for s in self.squares:
                index.setdefault(own(sq[s]), []).append(s)
            self._indexes[positions] = index
        return index

    def _plan(self, pinned: tuple[str, ...]) -> tuple[_Step, ...]:
        plan = self._plans.get(pinned)
        if plan is None:
            order = pinned + tuple(s for s in CORNER_ORDER if s not in pinned)
            steps = []
            for i, slot in enumerate(order):
                earlier = order[:i]
                fixes = []  # (position in this slot's square, offset it must equal)
                for a, p, b, q in FACE_RELATIONS:
                    if a == slot and b in earlier:
                        fixes.append((_POS[p], 4 * SLOTS.index(b) + _POS[q]))
                    elif b == slot and a in earlier:
                        fixes.append((_POS[q], 4 * SLOTS.index(a) + _POS[p]))
                fixes.sort()
                positions = tuple(pos for pos, _ in fixes)
                k = SLOTS.index(slot)
                steps.append(_Step(
                    slot=k,
                    span=slice(4 * k, 4 * k + 4),
                    own=_getter(positions),
                    key=_getter(tuple(off for _, off in fixes)),
                    # a pinned square is checked against its key, never looked up
                    index={} if slot in pinned else self._index(positions),
                ))
            plan = self._plans[pinned] = tuple(steps)
        return plan

    def _start(self, fixed: Optional[dict[str, str]]):
        """The free steps of the plan for these pins, and the pinned squares,
        or None when a pinned square is unknown or contradicts an earlier pin."""
        fixed = fixed or {}
        pinned = tuple(s for s in SLOTS if s in fixed)
        plan = self._plan(pinned)
        sq = self.model.squares
        names: list = [None] * 6
        flat: list = [None] * 24
        for step in plan[: len(pinned)]:
            name = fixed[SLOTS[step.slot]]
            f = sq.get(name)
            if f is None or step.own(f) != step.key(flat):
                return None
            names[step.slot] = name
            flat[step.span] = f
        return plan[len(pinned):], names, flat

    def cubes(self, fixed: Optional[dict[str, str]] = None) -> Iterator[Cube3]:
        start = self._start(fixed)
        if start is None:
            return
        free, names, flat = start
        sq = self.model.squares
        if not free:
            yield Cube3(*names)
            return
        last = len(free) - 1

        def walk(i: int) -> Iterator[Cube3]:
            k, span, _, key, index = free[i]
            cands = index.get(key(flat), ())
            if i == last:
                for c in cands:
                    names[k] = c
                    yield Cube3(*names)
                return
            for c in cands:
                names[k] = c
                flat[span] = sq[c]
                yield from walk(i + 1)

        yield from walk(0)

    def random_cube(self, rng: Random, fixed: Optional[dict[str, str]] = None) -> Optional[Cube3]:
        start = self._start(fixed)
        if start is None:
            return None
        free, pinned_names, pinned_flat = start
        sq = self.model.squares
        for _ in range(TRIES):
            names, flat = pinned_names[:], pinned_flat[:]
            for k, span, _, key, index in free:
                cands = index.get(key(flat))
                if not cands:
                    break
                c = names[k] = rng.choice(cands)
                flat[span] = sq[c]
            else:
                return Cube3(*names)
        return None


def interpreted_compose_cubes(model: DoubleGC, direction: int, a: Cube3, b: Cube3) -> Cube3:
    if direction not in (1, 2, 3):
        raise ValueError(f"direction must be 1, 2 or 3, got {direction}")
    plus = 2 * direction - 1  # the slot of the plus face in ``direction``
    if a[plus] != b[plus - 1]:
        raise NotComposable(direction, a, b)
    get = (None, model.compose1.get, model.compose2.get)
    faces = list(a)
    faces[plus] = b[plus]
    for i, n in _ACROSS[direction]:
        got = get[n]((a[i], b[i]))
        if got is None:
            raise FaceCompositionUndefined(f"{a[i]!r} +{n} {b[i]!r} undefined")
        faces[i] = got
    out = Cube3(*faces)
    require_cube(model, out)
    return out


def written_odd_array(model: DoubleGC, c: Cube3) -> list[list[str]]:
    sq = model.squares
    t1 = model.gamma_plus[sq[c.f1m].left]
    t2 = model.gamma_minus[sq[c.f1m].right]
    t3 = model.eps2[sq[c.f2p].right]
    return [[t1, c.f1m, t2], [c.f3m, c.f2p, t3]]


def written_even_array(model: DoubleGC, c: Cube3) -> list[list[str]]:
    sq = model.squares
    t4 = model.eps2[sq[c.f2m].left]
    t5 = model.gamma_plus[sq[c.f1p].left]
    t6 = model.gamma_minus[sq[c.f1p].right]
    return [[t4, c.f2m, c.f3p], [t5, c.f1p, t6]]


def written_hcl_prime_arrays(model: DoubleGC, c: Cube3) -> tuple[list[list[str]], list[list[str]]]:
    sq = model.squares
    lhs = [
        [model.gamma_plus[sq[c.f1m].left], c.f1m],
        [c.f3m, c.f2p],
        [model.gamma_minus[sq[c.f1p].left], model.eps1[sq[c.f2p].bottom]],
    ]
    rhs = [
        [model.eps1[sq[c.f2m].top], model.gamma_plus[sq[c.f1m].right]],
        [c.f2m, c.f3p],
        [c.f1p, model.gamma_minus[sq[c.f1p].right]],
    ]
    return lhs, rhs


def interpreted_composites(model: DoubleGC, c: Cube3) -> tuple[str, str]:
    return (
        compose_array(model, written_odd_array(model, c)),
        compose_array(model, written_even_array(model, c)),
    )


def interpreted_commutes(model: DoubleGC, c: Cube3) -> bool:
    odd, even = interpreted_composites(model, c)
    return odd == even


def interpreted_hcl_prime(model: DoubleGC, c: Cube3) -> bool:
    lhs, rhs = written_hcl_prime_arrays(model, c)
    return compose_array(model, lhs) == compose_array(model, rhs)


# -- the closure harness, composite by composite ---------------------------------


def _oracle_random_commutative(idx: InterpretedCubeIndex, rng: Random, minus=None):
    fixed = {SLOTS[2 * d - 2]: face for d, face in (minus or {}).items()}
    for _ in range(TRIES):
        c = idx.random_cube(rng, fixed=fixed)
        if c is not None and _commutes(idx.model, c):
            return c
    return None


def _oracle_pairs(idx: InterpretedCubeIndex, comm, d, samples, rng, attempts: list):
    """Pairs in direction ``d``; ``attempts[0]`` counts the sampled attempts."""
    if comm is not None:
        by_minus: dict[str, list[Cube3]] = {}
        for c in comm:
            by_minus.setdefault(c.face(d, "-"), []).append(c)
        for a in comm:
            for b in by_minus.get(a.face(d, "+"), ()):
                yield a, b
        return
    made = attempts[0] = 0
    while made < samples and attempts[0] < 20 * samples:
        attempts[0] += 1
        a = _oracle_random_commutative(idx, rng)
        if a is None:
            continue
        b = _oracle_random_commutative(idx, rng, {d: a.face(d, "+")})
        if b is None:
            continue
        made += 1
        yield a, b


def oracle_theorem25_harness(model: DoubleGC, exhaustive: bool, samples: int, seed: int) -> Report:
    rep = Report(title="composition of commutative 3-shells")
    idx = InterpretedCubeIndex(model)
    rng, attempts = Random(seed), [0]
    comm = [c for c in idx.cubes() if _commutes(model, c)] if exhaustive else None
    if exhaustive:
        rep.note(f"commutative cubes: {len(comm)} (exhaustive)")
    for d in (1, 2, 3):
        fam = f"closure-dir{d}"
        for a, b in _oracle_pairs(idx, comm, d, samples, rng, attempts):
            rep.tick(fam)
            if not _commutes(model, compose_cubes(model, d, a, b)):
                rep.fail(fam, f"dir{d}", *a, *b)
        if not exhaustive:
            made = rep.checked_count.get(fam, 0)
            rep.note(f"dir {d}: sampled {made} composable commutative pairs")
            why = f"{fam}: no composable commutative pair in {attempts[0]} attempts"
            rep.fail_unchecked([fam], why)
    return rep
