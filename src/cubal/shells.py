"""2-shells, 3-shells (cubes), their compositions and commutativity.

A cube is six squares wired by the face relations; it commutes when the
connection-padded composite of its odd faces equals that of its even faces.
The odd and even arrays and the two HCL' arrays are stated once, below, as
pasting steps over the slot names (``ODD_STEP``, ``EVEN_STEP``,
``HCL_PRIME_STEPS``); each thin cell is a connection or an identity whose
argument the seam pass infers from the faces around it.  The pinned chains
of ``pastings`` begin and end with the same arrays over a composite's
faces, and ``tests/test_shells.py`` checks that the two statements agree.

The hot paths run as generated straight-line functions, each compiled by
``dsl._compile``: ``CubeIndex``'s walk and draw, one per set of pinned
slots; ``compose_cubes``, one per direction; and ``_commutes``,
``_composites`` and ``_hcl_prime``, compiled from the array steps in
``dsl``'s positional mode.  Their interpreted forms are the oracles of
``tests/cube_oracle.py``.
"""
from __future__ import annotations

import functools
from collections import Counter
from itertools import islice
from operator import itemgetter
from random import Random
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .core import DoubleGC, SquareFaces
from .dsl import _compile, _positional
from .errors import FaceCompositionUndefined, MalformedModel, NotComposable
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


# -- generated code ------------------------------------------------------------
#
# The hot paths of this module run as straight-line Python generated from the
# tables that state them once: FACE_RELATIONS, _ACROSS, the array steps
# below and a plan's slot order.  A source depends on its table alone, never
# on a model: squares, indexes and model tables reach the generated function
# as arguments, so each source is compiled once per process and holds no
# square name.


def _compose_source(direction: int) -> str:
    """``compose_cubes`` in one direction: ``_ACROSS``'s face rule unrolled,
    then ``cube_ok`` inline, calling ``require_cube`` only on a miss."""
    plus = 2 * direction - 1
    name = f"compose_dir{direction}"
    faces = [f"a{i}" for i in range(6)]
    faces[plus] = f"b{plus}"
    lines = [
        f"def {name}(model, a, b):",
        "    a0, a1, a2, a3, a4, a5 = a",
        "    b0, b1, b2, b3, b4, b5 = b",
        f"    if a{plus} != b{plus - 1}:",
        f"        raise NotComposable({direction}, a, b)",
    ]
    lines += [f"    get{n} = model.compose{n}.get" for n in sorted({n for _, n in _ACROSS[direction]})]
    for i, n in _ACROSS[direction]:
        faces[i] = f"x{i}"
        lines += [
            f"    x{i} = get{n}((a{i}, b{i}))",
            f"    if x{i} is None:",
            f'        raise FaceCompositionUndefined(f"{{a{i}!r}} +{n} {{b{i}!r}} undefined")',
        ]
    lines += [
        f"    out = Cube3({', '.join(faces)})",
        "    squares = model.squares",
        "    try:",
        f"        {', '.join(f'q{k}' for k in range(6))} = {', '.join(f'squares[{f}]' for f in faces)}",
        "        ok = " + " and ".join(
            f"q{SLOTS.index(a)}[{_POS[p]}] == q{SLOTS.index(b)}[{_POS[q]}]"
            for a, p, b, q in FACE_RELATIONS
        ),
        "    except KeyError:",
        "        ok = False",
        "    if not ok:",
        "        require_cube(model, out)",
        "    return out",
    ]
    return "\n".join(lines) + "\n"


_COMPOSE = {
    d: _compile(
        _compose_source(d), f"compose_dir{d}",
        Cube3=Cube3, NotComposable=NotComposable,
        FaceCompositionUndefined=FaceCompositionUndefined, require_cube=require_cube,
    )
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
    return _COMPOSE[direction](model, a, b)


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
#
# Each array is stated once, as a pasting step over the slot names: a face of
# the cube by its slot, and each thin cell as a connection or an identity
# whose argument ``_`` the seam pass infers from the faces around it.  Each
# test below is one generated kernel in ``dsl``'s positional mode, for a cube
# whose shape is already checked.

ODD_STEP = "[G+(_), f1m, G-(_); f3m, f2p, e2(_)]"
EVEN_STEP = "[e2(_), f2m, f3p; G+(_), f1p, G-(_)]"
HCL_PRIME_STEPS = ("[G+(_), f1m; f3m, f2p; G-(_), e1(_)]", "[e1(_), G+(_); f2m, f3p; f1p, G-(_)]")

# The odd and the even composite of a cube.
_composites = _positional((ODD_STEP, EVEN_STEP), SLOTS, verdict=False)
# Whether those two composites are equal: the cube commutes.
_commutes = _positional((ODD_STEP, EVEN_STEP), SLOTS, verdict=True)
# Whether the two HCL' composites are equal.
_hcl_prime = _positional(HCL_PRIME_STEPS, SLOTS, verdict=True)


def is_commutative(model: DoubleGC, c: Cube3) -> bool:
    require_cube(model, c)
    return _commutes(model, c)


def hcl_prime_holds(model: DoubleGC, c: Cube3) -> bool:
    """The 3x2 reformulation of commutativity; agrees with is_commutative."""
    require_cube(model, c)
    return _hcl_prime(model, c)


# -- enumeration and sampling --------------------------------------------------


def _plan(pinned: tuple[str, ...]) -> tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]:
    """The slots in the order a walk takes them: the pinned slots, then the
    rest in ``CORNER_ORDER``.

    Each slot comes as its position in ``SLOTS`` with the faces that the
    slots before it fix, sorted: ``(position in its square, earlier slot,
    position in that slot's square)``.
    """
    order = pinned + tuple(s for s in CORNER_ORDER if s not in pinned)
    steps = []
    for i, slot in enumerate(order):
        earlier = order[:i]
        fixes = []
        for a, p, b, q in FACE_RELATIONS:
            if a == slot and b in earlier:
                fixes.append((_POS[p], SLOTS.index(b), _POS[q]))
            elif b == slot and a in earlier:
                fixes.append((_POS[q], SLOTS.index(a), _POS[p]))
        steps.append((SLOTS.index(slot), tuple(sorted(fixes))))
    return tuple(steps)


def _plan_source(pinned: tuple[str, ...]) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """The source of ``bind(squares, indexes)`` for a plan, and the face
    positions that each free slot's index is keyed on, in plan order.

    ``bind`` returns the plan's ``walk(fixed)``, nested loops that yield the
    cubes in plan order, and ``draw(choice, fixed)``, up to ``TRIES`` walks
    that each call ``choice`` once per free slot until no square fits.  Both
    first check the pinned squares, each against the pins before it, and
    give nothing when one is missing or contradicts them.  Slot ``k`` holds
    the name ``n<k>`` and, where a later slot reads its faces, the boundary
    ``q<k>``; free slot ``j`` reads the index ``i<j>``.
    """
    plan = _plan(pinned)
    pins, free = plan[: len(pinned)], plan[len(pinned):]
    read = {k for _, fixes in plan for _, k, _ in fixes}
    cube = f"Cube3({', '.join(f'n{k}' for k in range(6))})"

    def key(fixes) -> str:
        parts = [f"q{k}[{q}]" for _, k, q in fixes]
        return parts[0] if len(parts) == 1 else f"({', '.join(parts)})"

    def checks(fail: str) -> list[str]:
        lines = []
        for k, fixes in pins:
            differs = "".join(f" or q{k}[{p}] != q{j}[{q}]" for p, j, q in fixes)
            lines += [
                f"n{k} = fixed[{SLOTS[k]!r}]",
                f"q{k} = squares.get(n{k})",
                f"if q{k} is None{differs}:",
                f"    return{fail}",
            ]
        return lines

    def chosen(k: int) -> list[str]:
        return [f"q{k} = squares[n{k}]"] if k in read else []

    walk = ["def walk(fixed):", *("    " + line for line in checks(""))]
    depth = 1
    for j, (k, fixes) in enumerate(free):
        pad = "    " * depth
        walk.append(f"{pad}for n{k} in i{j}.get({key(fixes)}, ()):")
        walk += [pad + "    " + line for line in chosen(k)]
        depth += 1
    walk.append("    " * depth + f"yield {cube}")

    draw = ["def draw(choice, fixed):", *("    " + line for line in checks(" None"))]
    if free:
        (k, fixes), rest = free[0], free[1:]
        # the first free slot is fixed by the pins alone: its squares never change
        draw += [
            f"    first = i0.get({key(fixes)})",
            "    if not first:",
            "        return None",
            "    for _ in tries:",
            f"        n{k} = choice(first)",
            *("        " + line for line in chosen(k)),
        ]
        for j, (k, fixes) in enumerate(rest, 1):
            draw += [
                f"        c = i{j}.get({key(fixes)})",
                "        if not c:",
                "            continue",
                f"        n{k} = choice(c)",
                *("        " + line for line in chosen(k)),
            ]
        draw += [f"        return {cube}", "    return None"]
    else:
        draw.append(f"    return {cube}")

    lines = ["def bind(squares, indexes):"]
    if free:
        lines.append(f"    {''.join(f'i{j}, ' for j in range(len(free)))}= indexes")
    lines += ["    " + line for line in walk + draw]
    lines.append("    return walk, draw")
    positions = tuple(tuple(p for p, _, _ in fixes) for _, fixes in free)
    return "\n".join(lines) + "\n", positions


@functools.lru_cache(maxsize=None)  # one entry per set of pinned slots: at most 64
def _compiled_plan(pinned: tuple[str, ...]) -> tuple[Callable, tuple[tuple[int, ...], ...]]:
    """``bind`` of ``_plan_source`` compiled, and its index positions."""
    source, positions = _plan_source(pinned)
    return _compile(source, "bind", Cube3=Cube3, tries=range(TRIES)), positions


class CubeIndex:
    """Cube enumeration and sampling, outward from the pinned faces.

    For a set of pinned slots the plan takes the pinned slots first, then the
    rest in ``CORNER_ORDER``.  Each slot's square comes from an index keyed
    on every face that the slots before it constrain through
    ``FACE_RELATIONS``, so a walk only meets squares that fit what it holds.
    One plan drives both ``cubes()``, which lists cubes in plan order (not
    sorted), and ``random_cube``; it runs as the generated functions of
    ``_plan_source``, bound to this model's squares and indexes.  Indexes
    (one per tuple of face positions) and bound plans are built on first use
    and kept.
    """

    def __init__(self, model: DoubleGC):
        self.model = model
        self.squares = sorted(model.squares)
        self._indexes: dict[tuple[int, ...], dict] = {}
        self._bound: dict[tuple, tuple[Callable, Callable]] = {}

    def _index(self, positions: tuple[int, ...]) -> dict:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            own = itemgetter(*positions) if positions else (lambda _: ())
            sq = self.model.squares
            for s in self.squares:
                index.setdefault(own(sq[s]), []).append(s)
            self._indexes[positions] = index
        return index

    def _bound_plan(self, fixed: dict[str, str]) -> tuple[Callable, Callable]:
        """The ``walk`` and ``draw`` of the plan for the slots ``fixed`` pins,
        bound to this model; kept by the pinned slots in ``fixed``'s order."""
        key = tuple(fixed)
        bound = self._bound.get(key)
        if bound is None:
            bind, positions = _compiled_plan(tuple(s for s in SLOTS if s in fixed))
            bound = bind(self.model.squares, tuple(self._index(p) for p in positions))
            self._bound[key] = bound
        return bound

    def cubes(self, fixed: Optional[dict[str, str]] = None) -> Iterator[Cube3]:
        """All cubes, optionally with some faces pinned."""
        fixed = fixed or {}
        return self._bound_plan(fixed)[0](fixed)

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
        fixed = fixed or {}
        return self._bound_plan(fixed)[1](rng.choice, fixed)


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
