"""2-shells, 3-shells (cubes), their compositions and commutativity.

A cube is six squares wired by the face relations; it commutes when the
connection-padded composite of its odd faces equals that of its even faces.
The 2x3 arrays behind the two composites carry three thin slots each; the
concrete slot species used here (a connection or an identity applied to a
boundary edge of a named face) were fixed by boundary unification and are
re-confirmed against the pasting solver by ``*_composite(..., via_solver=True)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterator, Optional

from .core import DoubleGC, compose_array
from .errors import (
    FaceCompositionUndefined,
    MalformedModel,
    NotComposable,
)
from .morphisms import DoubleMorphism
from .reports import Report

EXHAUSTIVE_SQUARE_CUTOFF = 64  # beyond this, |cubes| ~ |squares|^6 forces sampling


@dataclass(frozen=True)
class Shell2:
    """Boundary quadruple of a square position: (left, bottom, top, right)."""

    left: str
    bottom: str
    top: str
    right: str


def boundary_shell(model: DoubleGC, square: str) -> Shell2:
    f = model.squares[square]
    return Shell2(left=f.left, bottom=f.bottom, top=f.top, right=f.right)


def shell_commutes(model: DoubleGC, s: Shell2) -> bool:
    lb = model.edge_compose.get((s.left, s.bottom))
    tr = model.edge_compose.get((s.top, s.right))
    if lb is None or tr is None:
        raise NotComposable("edge", (s.left, s.bottom), (s.top, s.right))
    return lb == tr


@dataclass(frozen=True)
class Cube3:
    """Six squares subject to the face relations of a 3-shell."""

    f1m: str
    f1p: str
    f2m: str
    f2p: str
    f3m: str
    f3p: str

    def face(self, direction: int, sign: str) -> str:
        return getattr(self, f"f{direction}{'m' if sign == '-' else 'p'}")

    def faces(self) -> tuple[str, str, str, str, str, str]:
        return (self.f1m, self.f1p, self.f2m, self.f2p, self.f3m, self.f3p)


def cube_ok(model: DoubleGC, c: Cube3) -> bool:
    sq = model.squares
    if not all(f in sq for f in c.faces()):
        return False
    a1m, a1p = sq[c.f1m], sq[c.f1p]
    a2m, a2p = sq[c.f2m], sq[c.f2p]
    a3m, a3p = sq[c.f3m], sq[c.f3p]
    return (
        # faces shared between directions 1 and 2
        a2m.top == a1m.top
        and a2m.bottom == a1p.top
        and a2p.top == a1m.bottom
        and a2p.bottom == a1p.bottom
        # between 1 and 3
        and a3m.top == a1m.left
        and a3m.bottom == a1p.left
        and a3p.top == a1m.right
        and a3p.bottom == a1p.right
        # between 2 and 3
        and a3m.left == a2m.left
        and a3m.right == a2p.left
        and a3p.left == a2m.right
        and a3p.right == a2p.right
    )


def require_cube(model: DoubleGC, c: Cube3) -> None:
    if not cube_ok(model, c):
        raise MalformedModel(f"not a 3-shell: {c}")


def compose_cubes(model: DoubleGC, direction: int, a: Cube3, b: Cube3) -> Cube3:
    """Partial composition of cubes in direction 1, 2 or 3."""
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


def degenerate_cube(model: DoubleGC, direction: int, square: str) -> Cube3:
    """The identity cube on a square for composition in the given direction."""
    f = model.squares[square]
    e1, e2 = model.eps1, model.eps2
    if direction == 1:
        return Cube3(square, square, e1[f.top], e1[f.bottom], e1[f.left], e1[f.right])
    if direction == 2:
        return Cube3(e1[f.top], e1[f.bottom], square, square, e2[f.left], e2[f.right])
    if direction == 3:
        return Cube3(e2[f.top], e2[f.bottom], e2[f.left], e2[f.right], square, square)
    raise ValueError(f"direction must be 1, 2 or 3, got {direction}")


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


def _solver_check(model: DoubleGC, rows: list[list[str]], kinds: list[list[str]]) -> None:
    # replays the same array through the pasting solver with anonymous slots
    # and insists the unification lands on the identical squares
    from . import pastings

    cells = []
    env = pastings.Env.for_model(model)
    for row, krow in zip(rows, kinds):
        cells.append(
            ", ".join(
                f"{k}(_)" if k else name for name, k in zip(row, krow)
            )
        )
    text = "[" + "; ".join(cells) + "]"
    expr = pastings.parse(text)
    solved = pastings.solve(model, env, expr)
    got = [[leaf for leaf in row] for row in pastings.array_square_grid(model, env, solved)]
    want = [list(r) for r in rows]
    if got != want:
        raise MalformedModel(
            f"solver resolved thin slots {got}, derived table says {want}"
        )


def odd_composite(model: DoubleGC, c: Cube3, via_solver: bool = False) -> str:
    """Composite of the odd faces f1m, f3m, f2p, padded by thin squares."""
    require_cube(model, c)
    rows = odd_composite_array(model, c)
    if via_solver:
        _solver_check(model, rows, [["G+", "", "G-"], ["", "", "e2"]])
    return compose_array(model, rows)


def even_composite(model: DoubleGC, c: Cube3, via_solver: bool = False) -> str:
    require_cube(model, c)
    rows = even_composite_array(model, c)
    if via_solver:
        _solver_check(model, rows, [["e2", "", ""], ["G+", "", "G-"]])
    return compose_array(model, rows)


def is_commutative(model: DoubleGC, c: Cube3, via_solver: bool = False) -> bool:
    return odd_composite(model, c, via_solver) == even_composite(model, c, via_solver)


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


def hcl_prime_holds(model: DoubleGC, c: Cube3, via_solver: bool = False) -> bool:
    """The 3x2 reformulation of commutativity; agrees with is_commutative."""
    require_cube(model, c)
    lhs, rhs = hcl_prime_arrays(model, c)
    if via_solver:
        _solver_check(model, lhs, [["G+", ""], ["", ""], ["G-", "e1"]])
        _solver_check(model, rhs, [["e1", "G+"], ["", ""], ["", "G-"]])
    return compose_array(model, lhs) == compose_array(model, rhs)


def map_cube(f: DoubleMorphism, c: Cube3) -> Cube3:
    return Cube3(*(f.f2[x] for x in c.faces()))


# -- enumeration and sampling --------------------------------------------------


class CubeIndex:
    """Face indexes that drive cube enumeration.

    A cube is determined by (f1m, f1p) plus choices of f2m, f2p constrained on
    (top, bottom) and of f3m, f3p constrained on their full quadruple, which is
    exactly the face-relation system.
    """

    def __init__(self, model: DoubleGC):
        self.model = model
        self.squares = sorted(model.squares)
        self.by_tb: dict[tuple[str, str], list[str]] = {}
        self.by_quad: dict[tuple[str, str, str, str], list[str]] = {}
        self.by_left: dict[str, list[str]] = {}
        for s in self.squares:
            f = model.squares[s]
            self.by_tb.setdefault((f.top, f.bottom), []).append(s)
            self.by_quad.setdefault(tuple(f), []).append(s)
            self.by_left.setdefault(f.left, []).append(s)

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
        """All cubes, optionally with some faces pinned."""
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


def all_cubes(model: DoubleGC) -> list[Cube3]:
    return list(CubeIndex(model).cubes())


# -- theorem harnesses ----------------------------------------------------------


def _random_commutative(idx: CubeIndex, rng: Random, fixed=None, tries=200):
    for _ in range(tries):
        c = idx.random_cube(rng, fixed=fixed)
        if c is not None and is_commutative(idx.model, c):
            return c
    return None


def theorem25_harness(
    model: DoubleGC,
    exhaustive: Optional[bool] = None,
    samples: int = 10000,
    seed: int = 0,
) -> Report:
    """Composites of commutative cubes stay commutative, in all three directions.

    Exhaustive below EXHAUSTIVE_SQUARE_CUTOFF squares, sampled above it.  The
    direction-1 case gets no special treatment: the same harness covers it.
    """
    if exhaustive is None:
        exhaustive = len(model.squares) <= EXHAUSTIVE_SQUARE_CUTOFF
    rep = Report(title="composition of commutative 3-shells")
    idx = CubeIndex(model)
    if exhaustive:
        comm = [c for c in idx.cubes() if is_commutative(model, c)]
        rep.note(f"commutative cubes: {len(comm)} (exhaustive)")
        by_minus = {1: {}, 2: {}, 3: {}}
        for c in comm:
            for d in (1, 2, 3):
                by_minus[d].setdefault(c.face(d, "-"), []).append(c)
        for d in (1, 2, 3):
            fam = f"closure-dir{d}"
            for a in comm:
                for b in by_minus[d].get(a.face(d, "+"), ()):
                    rep.tick(fam)
                    if not is_commutative(model, compose_cubes(model, d, a, b)):
                        rep.fail(fam, f"dir{d}", *a.faces(), *b.faces(), count=False)
    else:
        rng = Random(seed)
        slot_minus = {1: "f1m", 2: "f2m", 3: "f3m"}
        for d in (1, 2, 3):
            fam = f"closure-dir{d}"
            made = 0
            attempts = 0
            while made < samples and attempts < samples * 20:
                attempts += 1
                a = _random_commutative(idx, rng)
                if a is None:
                    continue
                b = _random_commutative(idx, rng, fixed={slot_minus[d]: a.face(d, "+")})
                if b is None:
                    continue
                made += 1
                rep.tick(fam)
                if not is_commutative(model, compose_cubes(model, d, a, b)):
                    rep.fail(fam, f"dir{d}", *a.faces(), *b.faces(), count=False)
            rep.note(f"dir {d}: sampled {made} composable commutative pairs")
            if made == 0:
                # a requested family that never ran must not read as a pass
                rep.fail(fam, "never checked", count=False)
                rep.note(f"{fam}: no composable commutative pair in {attempts} attempts")
    return rep


def hcl_agreement(
    model: DoubleGC,
    exhaustive: Optional[bool] = None,
    samples: int = 10000,
    seed: int = 0,
) -> Report:
    """is_commutative and the HCL' reformulation agree; composites share shells."""
    if exhaustive is None:
        exhaustive = len(model.squares) <= EXHAUSTIVE_SQUARE_CUTOFF
    rep = Report(title="HCL versus HCL' agreement")
    idx = CubeIndex(model)
    if exhaustive:
        cubes = list(idx.cubes())
    else:
        rng = Random(seed)
        cubes = []
        while len(cubes) < samples:
            c = idx.random_cube(rng)
            if c is None:
                break
            cubes.append(c)
    commutative = 0
    for c in cubes:
        rep.tick("hcl-agreement")
        direct = is_commutative(model, c)
        commutative += direct
        if direct != hcl_prime_holds(model, c):
            rep.fail("hcl-agreement", *c.faces(), count=False)
        rep.tick("shared-boundary-shell")
        odd = odd_composite(model, c)
        even = even_composite(model, c)
        if boundary_shell(model, odd) != boundary_shell(model, even):
            rep.fail("shared-boundary-shell", *c.faces(), count=False)
    rep.note(f"cubes checked: {len(cubes)} ({commutative} commutative)")
    if not exhaustive and not cubes:
        for fam in ("hcl-agreement", "shared-boundary-shell"):
            rep.fail(fam, "never checked", count=False)
        rep.note("sampling drew no cube, so neither family was checked")
    return rep


def triple_interchange_check(
    model: DoubleGC,
    samples: int = 2000,
    seed: int = 0,
    exhaustive: Optional[bool] = None,
) -> Report:
    """Associativity of +1,+2,+3 and their pairwise interchange on commutative cubes."""
    rep = Report(title="triple structure on commutative 3-shells")
    idx = CubeIndex(model)
    rng = Random(seed)
    if exhaustive is None:
        exhaustive = len(model.squares) <= 8
    slot_minus = {1: "f1m", 2: "f2m", 3: "f3m"}

    def comm_pairs(d):
        if exhaustive:
            comm = [c for c in idx.cubes() if is_commutative(model, c)]
            for a in comm:
                for b in comm:
                    if a.face(d, "+") == b.face(d, "-"):
                        yield a, b
        else:
            for _ in range(samples):
                a = _random_commutative(idx, rng)
                if a is None:
                    continue
                b = _random_commutative(idx, rng, fixed={slot_minus[d]: a.face(d, "+")})
                if b is None:
                    continue
                yield a, b

    for d in (1, 2, 3):
        fam = f"associativity-dir{d}"
        for a, b in comm_pairs(d):
            c = _random_commutative(idx, rng, fixed={slot_minus[d]: b.face(d, "+")})
            if c is None:
                continue
            rep.tick(fam)
            lhs = compose_cubes(model, d, compose_cubes(model, d, a, b), c)
            rhs = compose_cubes(model, d, a, compose_cubes(model, d, b, c))
            if lhs != rhs:
                rep.fail(fam, *a.faces(), *b.faces(), *c.faces(), count=False)

    for i, j in ((1, 2), (1, 3), (2, 3)):
        fam = f"interchange-dir{i}{j}"
        for a, b in comm_pairs(i):
            g = _random_commutative(idx, rng, fixed={slot_minus[j]: a.face(j, "+")})
            if g is None:
                continue
            fixed = {slot_minus[i]: g.face(i, "+"), slot_minus[j]: b.face(j, "+")}
            dlt = _random_commutative(idx, rng, fixed=fixed)
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
                rep.fail(fam, *a.faces(), *b.faces(), count=False)
    return rep
