"""2-shells, 3-shells (cubes), their compositions and commutativity.

A cube is six squares wired by the face relations; it commutes when the
connection-padded composite of its odd faces equals that of its even faces.
The 2x3 arrays behind the two composites carry three thin slots each; the
concrete slot species used here (a connection or an identity applied to a
boundary edge of a named face) were fixed by boundary unification;
``tests/test_shells.py`` re-confirms them against the pasting solver.
"""
from __future__ import annotations

from collections import Counter
from itertools import islice
from operator import itemgetter
from random import Random
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import DoubleGC, SquareFaces, compose_array
from .errors import (
    FaceCompositionUndefined,
    MalformedModel,
    NotComposable,
)
from .morphisms import DoubleMorphism
from .reports import Report

EXHAUSTIVE_SQUARE_CUTOFF = 64  # beyond this, |cubes| ~ |squares|^6 forces sampling
# by default, the triple and the closure harness check every pair only up to
# these many per direction (shift(z2 x z2)'s 2^18 closure pairs take seconds),
# and list at most that many cubes to count them; the HCL harness checks
# every cube only up to THEOREM25_PAIR_CUTOFF cubes
TRIPLE_PAIR_CUTOFF = 4096
THEOREM25_PAIR_CUTOFF = 2**18
# walks per ``CubeIndex.random_cube`` draw, and draws per commutative cube
TRIES = 200


def shell_commutes(model: DoubleGC, s: SquareFaces) -> bool:
    """Whether left then bottom is top then right on the boundary ``s``."""
    lb = model.edge_compose.get((s.left, s.bottom))
    tr = model.edge_compose.get((s.top, s.right))
    if lb is None or tr is None:
        raise NotComposable("edge", (s.left, s.bottom), (s.top, s.right))
    return lb == tr


class Cube3(NamedTuple):
    """Six squares subject to the face relations of a 3-shell."""

    f1m: str
    f1p: str
    f2m: str
    f2p: str
    f3m: str
    f3p: str

    def face(self, direction: int, sign: str) -> str:
        """The face in ``direction`` 1, 2 or 3 on side ``sign`` '-' or '+'."""
        if direction not in (1, 2, 3) or sign not in ("-", "+"):
            raise ValueError(
                f"face needs direction 1, 2 or 3 and sign '-' or '+', got {direction!r}, {sign!r}"
            )
        return self[2 * direction - 2 + (sign == "+")]

    def faces(self) -> "Cube3":
        """The six faces in the order of ``SLOTS``: the cube itself."""
        return self


SLOTS = Cube3._fields
# the order a plan takes the slots that are not pinned: the three faces at the
# corner where every minus face meets, then the plus faces, so that each slot
# after the first is fixed by faces already chosen on two or more sides
CORNER_ORDER = ("f1m", "f2m", "f3m", "f1p", "f2p", "f3p")

# The twelve face relations of a 3-shell, stated once: face ``pos_a`` of the
# square in slot ``a`` is face ``pos_b`` of the square in slot ``b``.  Every
# face of every slot appears exactly once.
FACE_RELATIONS = (
    # faces shared between directions 1 and 2
    ("f2m", "top", "f1m", "top"),
    ("f2m", "bottom", "f1p", "top"),
    ("f2p", "top", "f1m", "bottom"),
    ("f2p", "bottom", "f1p", "bottom"),
    # between 1 and 3
    ("f3m", "top", "f1m", "left"),
    ("f3m", "bottom", "f1p", "left"),
    ("f3p", "top", "f1m", "right"),
    ("f3p", "bottom", "f1p", "right"),
    # between 2 and 3
    ("f3m", "left", "f2m", "left"),
    ("f3m", "right", "f2p", "left"),
    ("f3p", "left", "f2m", "right"),
    ("f3p", "right", "f2p", "right"),
)
_POS = {name: i for i, name in enumerate(SquareFaces._fields)}
# both sides of every relation as offsets into the six faces laid end to end
_LHS = itemgetter(*(4 * SLOTS.index(a) + _POS[p] for a, p, _, _ in FACE_RELATIONS))
_RHS = itemgetter(*(4 * SLOTS.index(b) + _POS[q] for _, _, b, q in FACE_RELATIONS))


def cube_ok(model: DoubleGC, c: Cube3) -> bool:
    sq = model.squares
    try:
        flat = (*sq[c.f1m], *sq[c.f1p], *sq[c.f2m], *sq[c.f2p], *sq[c.f3m], *sq[c.f3p])
    except KeyError:
        return False
    return _LHS(flat) == _RHS(flat)


def require_cube(model: DoubleGC, c: Cube3) -> None:
    if not cube_ok(model, c):
        raise MalformedModel(f"not a 3-shell: {c}")


# per cube direction d: each face slot in another direction k, with the
# square direction its two faces compose along, d - (d > k)
_ACROSS = {
    d: tuple((i, d - (d > k)) for i, k in enumerate((1, 1, 2, 2, 3, 3)) if k != d)
    for d in (1, 2, 3)
}


def compose_cubes(model: DoubleGC, direction: int, a: Cube3, b: Cube3) -> Cube3:
    """Partial composition of cubes in direction 1, 2 or 3.

    The faces in ``direction`` are ``a``'s minus face and ``b``'s plus face;
    each face in another direction ``k`` composes ``a``'s face with ``b``'s
    along square direction ``direction - (direction > k)``.
    """
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


def degenerate_cube(model: DoubleGC, direction: int, square: str) -> Cube3:
    """The identity cube on a square for composition in the given direction.

    Both faces in ``direction`` are ``square``; the face slots across it,
    in order, are the degenerate squares of ``square``'s faces in order,
    each along the direction its slot composes in (as in ``compose_cubes``).
    """
    if direction not in (1, 2, 3):
        raise ValueError(f"direction must be 1, 2 or 3, got {direction}")
    eps = (None, model.eps1, model.eps2)
    faces = [square] * 6
    for (i, n), edge in zip(_ACROSS[direction], model.squares[square]):
        faces[i] = eps[n][edge]
    return Cube3(*faces)


# -- odd/even composites -------------------------------------------------------


def odd_composite_array(model: DoubleGC, c: Cube3) -> list[list[str]]:
    """The 2x3 array for the odd-face composite, thin slots already resolved."""
    sq = model.squares
    t1 = model.gamma_plus[sq[c.f1m].left]
    t2 = model.gamma_minus[sq[c.f1m].right]
    t3 = model.eps2[sq[c.f2p].right]
    return [[t1, c.f1m, t2], [c.f3m, c.f2p, t3]]


def even_composite_array(model: DoubleGC, c: Cube3) -> list[list[str]]:
    sq = model.squares
    t4 = model.eps2[sq[c.f2m].left]
    t5 = model.gamma_plus[sq[c.f1p].left]
    t6 = model.gamma_minus[sq[c.f1p].right]
    return [[t4, c.f2m, c.f3p], [t5, c.f1p, t6]]


def _composites(model: DoubleGC, c: Cube3) -> tuple[str, str]:
    """The odd and the even composite of a cube whose shape is already checked."""
    return (
        compose_array(model, odd_composite_array(model, c)),
        compose_array(model, even_composite_array(model, c)),
    )


def _commutes(model: DoubleGC, c: Cube3) -> bool:
    odd, even = _composites(model, c)
    return odd == even


def is_commutative(model: DoubleGC, c: Cube3) -> bool:
    require_cube(model, c)
    return _commutes(model, c)


def hcl_prime_arrays(model: DoubleGC, c: Cube3) -> tuple[list[list[str]], list[list[str]]]:
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


def _hcl_prime(model: DoubleGC, c: Cube3) -> bool:
    lhs, rhs = hcl_prime_arrays(model, c)
    return compose_array(model, lhs) == compose_array(model, rhs)


def hcl_prime_holds(model: DoubleGC, c: Cube3) -> bool:
    """The 3x2 reformulation of commutativity; agrees with is_commutative."""
    require_cube(model, c)
    return _hcl_prime(model, c)


def map_cube(f: DoubleMorphism, c: Cube3) -> Cube3:
    return Cube3(*(f.f2[x] for x in c))


# -- enumeration and sampling --------------------------------------------------


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


class CubeIndex:
    """Cube enumeration and sampling, outward from the pinned faces.

    For a set of pinned slots the plan takes the pinned slots first, then the
    rest in ``CORNER_ORDER``.  Each slot's square comes from an index keyed
    on every face that the slots before it constrain through
    ``FACE_RELATIONS``, so a walk only meets squares that fit what it holds.
    One plan drives both ``cubes()``, which lists cubes in plan order (not
    sorted), and ``random_cube``.  Indexes (one per tuple of face positions)
    and plans are built on first use and kept.
    """

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
        """The free steps of the plan for these pins, and the pinned squares.

        The squares come as names in ``SLOTS`` order and as their faces laid
        end to end; slots not pinned hold None.  The whole is None when a
        pinned square is not in the model or contradicts an earlier pin: no
        walk could complete such a cube.
        """
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
        """All cubes, optionally with some faces pinned."""
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

    def random_cube(
        self,
        rng: Random,
        fixed: Optional[dict[str, str]] = None,
    ) -> Optional[Cube3]:
        """A cube drawn slot by slot along the plan; up to ``TRIES`` walks.

        Each slot is drawn uniformly from the squares that fit the faces
        already chosen; when none fits, the walk is rejected and the next
        one starts.  In ``CORNER_ORDER`` the last free slot is fixed on all
        four sides by faces that commute, so on the box and shift models of
        ``tests/test_cube_sampler.py`` no walk is rejected, with none or any
        of the pins the harnesses set: a draw makes one ``rng.choice`` per
        free slot.
        """
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


def all_cubes(model: DoubleGC) -> list[Cube3]:
    return list(CubeIndex(model).cubes())


# -- theorem harnesses ----------------------------------------------------------
#
# A harness checks each cube's shape once: ``CubeIndex`` builds cubes along
# ``FACE_RELATIONS`` and ``compose_cubes`` checks what it returns, so the
# harnesses use the unchecked ``_commutes``, ``_composites`` and ``_hcl_prime``.


def _random_commutative(idx: CubeIndex, rng: Random, minus=None):
    """A drawn commutative cube whose minus face in each direction ``d`` of
    ``minus`` is ``minus[d]``, or None after ``TRIES`` draws."""
    fixed = {SLOTS[2 * d - 2]: face for d, face in (minus or {}).items()}
    for _ in range(TRIES):
        c = idx.random_cube(rng, fixed=fixed)
        if c is not None and _commutes(idx.model, c):
            return c
    return None


def _every_cube(idx: CubeIndex, exhaustive: Optional[bool], cutoff: int) -> Optional[Iterable]:
    """Every cube of ``idx``, or None where the harness is to sample.

    ``exhaustive`` True or False decides; by default (None) every cube only
    where there are at most EXHAUSTIVE_SQUARE_CUTOFF squares and at most
    ``cutoff`` cubes, found by listing at most ``cutoff + 1``.
    """
    if exhaustive is not None:
        return idx.cubes() if exhaustive else None
    if len(idx.model.squares) > EXHAUSTIVE_SQUARE_CUTOFF:
        return None
    cubes = list(islice(idx.cubes(), cutoff + 1))
    return cubes if len(cubes) <= cutoff else None


class _Pairs:
    """Composable commutative cube pairs: ``pairs(d)`` yields ``(a, b)`` in direction ``d``.

    Exhaustive where ``_every_cube`` gives every cube and, by default, at
    most ``cutoff`` pairs lie in each direction: every pair, ``b`` found by
    its minus face among the commutative cubes, listed once in ``comm``.
    Sampled otherwise, with ``comm`` None: up to ``samples`` pairs in
    ``20 * samples`` attempts, each drawing a commutative ``a`` and then a
    commutative ``b`` whose minus face is ``a``'s plus face; ``attempts``
    counts those of the latest direction.
    """

    def __init__(
        self, idx: CubeIndex, exhaustive: Optional[bool], samples: int, rng: Random, cutoff: int
    ):
        self.idx, self.samples, self.rng = idx, samples, rng
        cubes = _every_cube(idx, exhaustive, cutoff)
        self.comm = None if cubes is None else [c for c in cubes if _commutes(idx.model, c)]
        if exhaustive is None and self.comm is not None and self.most() > cutoff:
            self.comm = None
        self.attempts = 0

    def most(self) -> int:
        """The largest number of exhaustive pairs in one direction."""
        counts = []
        for d in (1, 2, 3):
            minus = Counter(c.face(d, "-") for c in self.comm)
            counts.append(sum(minus[c.face(d, "+")] for c in self.comm))
        return max(counts)

    def __call__(self, d: int) -> Iterator[tuple[Cube3, Cube3]]:
        if self.comm is not None:
            by_minus: dict[str, list[Cube3]] = {}
            for c in self.comm:
                by_minus.setdefault(c.face(d, "-"), []).append(c)
            for a in self.comm:
                for b in by_minus.get(a.face(d, "+"), ()):
                    yield a, b
            return
        made = self.attempts = 0
        while made < self.samples and self.attempts < 20 * self.samples:
            self.attempts += 1
            a = _random_commutative(self.idx, self.rng)
            if a is None:
                continue
            b = _random_commutative(self.idx, self.rng, {d: a.face(d, "+")})
            if b is None:
                continue
            made += 1
            yield a, b


def theorem25_harness(
    model: DoubleGC,
    exhaustive: Optional[bool] = None,
    samples: int = 10000,
    seed: int = 0,
) -> Report:
    """Composites of commutative cubes stay commutative, in all three directions.

    By default exhaustive only where its work is bounded: at most
    EXHAUSTIVE_SQUARE_CUTOFF squares, at most THEOREM25_PAIR_CUTOFF cubes
    and at most as many composable commutative pairs in each direction;
    otherwise ``samples`` pairs per direction.  The direction-1 case gets
    no special treatment: the same harness covers it.
    """
    rep = Report(title="composition of commutative 3-shells")
    idx = CubeIndex(model)
    pairs = _Pairs(idx, exhaustive, samples, Random(seed), THEOREM25_PAIR_CUTOFF)
    exhaustive = pairs.comm is not None
    if exhaustive:
        rep.note(f"commutative cubes: {len(pairs.comm)} (exhaustive)")
    for d in (1, 2, 3):
        fam = f"closure-dir{d}"
        for a, b in pairs(d):
            rep.tick(fam)
            if not _commutes(model, compose_cubes(model, d, a, b)):
                rep.fail(fam, f"dir{d}", *a, *b)
        if not exhaustive:
            made = rep.checked_count.get(fam, 0)
            rep.note(f"dir {d}: sampled {made} composable commutative pairs")
            why = f"{fam}: no composable commutative pair in {pairs.attempts} attempts"
            rep.fail_unchecked([fam], why)
    return rep


def hcl_agreement(
    model: DoubleGC,
    exhaustive: Optional[bool] = None,
    samples: int = 10000,
    seed: int = 0,
) -> Report:
    """is_commutative and the HCL' reformulation agree; composites share shells.

    By default exhaustive only where its work is bounded: at most
    EXHAUSTIVE_SQUARE_CUTOFF squares and at most THEOREM25_PAIR_CUTOFF
    cubes; otherwise ``samples`` cubes.
    """
    rep = Report(title="HCL versus HCL' agreement")
    idx = CubeIndex(model)
    cubes = _every_cube(idx, exhaustive, THEOREM25_PAIR_CUTOFF)
    exhaustive = cubes is not None
    if not exhaustive:
        rng = Random(seed)
        cubes = []
        while len(cubes) < samples:
            c = idx.random_cube(rng)
            if c is None:
                break
            cubes.append(c)
    checked = commutative = 0
    for c in cubes:
        checked += 1
        rep.tick("hcl-agreement")
        odd, even = _composites(model, c)
        direct = odd == even
        commutative += direct
        if direct != _hcl_prime(model, c):
            rep.fail("hcl-agreement", *c)
        rep.tick("shared-boundary-shell")
        if model.squares[odd] != model.squares[even]:
            rep.fail("shared-boundary-shell", *c)
    rep.note(f"cubes checked: {checked} ({commutative} commutative)")
    if not exhaustive:
        why = "sampling drew no cube, so neither family was checked"
        rep.fail_unchecked(["hcl-agreement", "shared-boundary-shell"], why)
    return rep


def triple_interchange_check(
    model: DoubleGC,
    samples: int = 2000,
    seed: int = 0,
    exhaustive: Optional[bool] = None,
) -> Report:
    """Associativity of +1,+2,+3 and their pairwise interchange on commutative cubes.

    By default exhaustive only where its work is bounded: at most
    EXHAUSTIVE_SQUARE_CUTOFF squares, at most TRIPLE_PAIR_CUTOFF cubes and
    at most as many composable commutative pairs in each direction.
    """
    rep = Report(title="triple structure on commutative 3-shells")
    idx = CubeIndex(model)
    rng = Random(seed)
    pairs = _Pairs(idx, exhaustive, samples, rng, TRIPLE_PAIR_CUTOFF)
    families = []

    for d in (1, 2, 3):
        fam = f"associativity-dir{d}"
        families.append(fam)
        for a, b in pairs(d):
            c = _random_commutative(idx, rng, {d: b.face(d, "+")})
            if c is None:
                continue
            rep.tick(fam)
            lhs = compose_cubes(model, d, compose_cubes(model, d, a, b), c)
            rhs = compose_cubes(model, d, a, compose_cubes(model, d, b, c))
            if lhs != rhs:
                rep.fail(fam, *a, *b, *c)

    for i, j in ((1, 2), (1, 3), (2, 3)):
        fam = f"interchange-dir{i}{j}"
        families.append(fam)
        for a, b in pairs(i):
            g = _random_commutative(idx, rng, {j: a.face(j, "+")})
            if g is None:
                continue
            dlt = _random_commutative(idx, rng, {i: g.face(i, "+"), j: b.face(j, "+")})
            if dlt is None:
                continue
            rep.tick(fam)
            lhs = compose_cubes(
                model, j, compose_cubes(model, i, a, b), compose_cubes(model, i, g, dlt)
            )
            rhs = compose_cubes(
                model, i, compose_cubes(model, j, a, g), compose_cubes(model, j, b, dlt)
            )
            if lhs != rhs:
                rep.fail(fam, *a, *b)
    rep.fail_unchecked(families, "no composable commutative cubes drawn for a family")
    return rep
