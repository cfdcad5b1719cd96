"""Solving, evaluating and replaying pasting steps over a model.

The language, its seam pass and its plan compiler are ``cubal.dsl``; its
public names (``parse``, ``Env``, the syntax classes) are re-exported here.
``solve`` resolves every '?' and '_' by seam propagation and thin-filler
lookup, and closes the slots left open against a target by an exact search,
with no cap; each slot it fills holds a ``Placed`` leaf, a model square
never resolved through the environment again.  ``typecheck`` refuses a
step that still has a slot and runs one sweep of the seam pass over any
other, so a flat array must have every internal seam matching exactly:
block decompositions are never re-partitioned.  ``evaluate`` folds the tree
that sweep placed.  ``replay``, ``replay_pinned`` and ``run_script`` bind
each chain through one compiled kernel (``dsl._chain``).  A chain with a '?'
step, or whose binding misses, falls back to each step's compiled plan (its
chain of one) and to ``solve``, which raises the precise error.  The first
and the last step of each pinned chain are the arrays of ``shells`` over the
composite's faces ``g*``: odd and even for +1 and +2, HCL' for +3.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .core import DoubleGC, SquareFaces
# the language's public names are re-exported from here
from .dsl import (
    Array,
    Env,
    Expr,
    Hole,
    OpLeaf,
    Placed,
    Ref,
    _SIDES,
    _chain,
    _fold,
    _is_slot,
    _Node,
    _propagate,
    _slots,
    _Solver,
    parse,
    to_text,
)
from .errors import AmbiguousSlot, DslError, ParseError, UnboundName, UnsolvableSlot
from .reports import Report
from .shells import Cube3, compose_cubes
from .thin import ThinSet, thin_set

# -- typecheck -----------------------------------------------------------------


def _placed_tree(model: DoubleGC, env: Env, expr: Expr) -> _Node:
    """The tree of a step without slots, every leaf placed by one sweep.

    The sweep places every leaf before its array compares seams and composes
    its outer sides.  A slot is refused: solve first.
    """
    root = _Node(expr, "")
    slots = _slots(root)
    if slots:
        slot = "'?' slot" if isinstance(slots[0].expr, Hole) else "placeholder argument"
        raise UnboundName(f"unresolved {slot}; run solve first")
    _Solver(model, env).sweep(root, finalize=True)
    return root


def typecheck(model: DoubleGC, env: Env, expr: Expr) -> SquareFaces:
    """Check all adjacency conditions before any evaluation; return the outer faces.

    Placeholders are rejected here: solve first.  The check is ``solve``'s
    seam pass.  A flat array whose internal seams do not match exactly is
    refused, which is the guard against silent re-partitioning of block
    decompositions.
    """
    return SquareFaces(**_placed_tree(model, env, expr).shell)


# -- evaluation ----------------------------------------------------------------


def evaluate(model: DoubleGC, env: Env, expr: Expr) -> str:
    """Row-major evaluation of a solved expression, after its seam pass."""
    return _fold(model, _placed_tree(model, env, expr))


def _fill(expr: Expr, squares: Iterator[Optional[str]]) -> Expr:
    """``expr`` with its slots, in reading order, placed from ``squares``; a
    slot handed None stays open."""
    if isinstance(expr, Array):
        return Array(tuple([tuple([_fill(cell, squares) for cell in row]) for row in expr.rows]))
    square = next(squares) if _is_slot(expr) else None
    return expr if square is None else Placed(square)


def _pinned(solver: _Solver, expr: Expr, target: Optional[SquareFaces]) -> _Node:
    """The root node of ``expr``, its sides set to ``target``'s when given."""
    root = _Node(expr, "")
    if target is not None:
        for side in _SIDES:
            solver.set_side(root, side, getattr(target, side))
    return root




def solve(
    model: DoubleGC,
    env: Env,
    expr: Expr,
    target: Optional[SquareFaces] = None,
    ts: Optional[ThinSet] = None,
) -> Expr:
    """Replace every '?' and '_' by the unique thin square the seams force.

    Fixed-point propagation over seam constraints resolves most slots.  The
    slots left open are closed against the target outer faces by an exact
    depth-first search: each open slot in turn takes each listed candidate
    that fits the sides known, and propagation with the target pinned drops
    a partly filled step as soon as a seam or an outer side fails.  So
    ``solve`` answers as trying every assignment would: a sole surviving
    assignment is returned, otherwise UnsolvableSlot or AmbiguousSlot
    (listing the candidates) is raised.
    """
    solver = _Solver(model, env, lambda: ts or thin_set(model))
    root = _pinned(solver, expr, target)
    _propagate(solver, root)
    slots = _slots(root)
    # propagation checked every seam and outer side of the slots it filled
    base = _fill(expr, iter([node.value for node in slots]))
    open_nodes = [node for node in slots if node.value is None]
    if not open_nodes:
        return base

    # per open slot: each candidate as it is listed (a square for '?', an
    # argument for '_') -> the square it places
    candidates = [solver.candidates(node) for node in open_nodes]
    for node, cands in zip(open_nodes, candidates):
        if not cands:
            raise UnsolvableSlot(node.pos, "no thin candidate fits")
    first = open_nodes[0].pos
    if target is None:
        raise AmbiguousSlot(first, candidates[0])
    # surviving steps by first candidate; two under one settle its part
    survivors: dict[str, list[Expr]] = {}
    stack = [()]  # each entry: the (candidate, square) of the first open slots
    while stack:
        chosen = stack.pop()
        if chosen and len(survivors.get(chosen[0][0], ())) > 1:
            continue
        rest = [None] * (len(open_nodes) - len(chosen))
        attempt = _fill(base, iter([square for _, square in chosen] + rest))
        node = _pinned(solver, attempt, target)
        try:
            _propagate(solver, node)
        except DslError:
            continue
        if not rest:
            survivors.setdefault(chosen[0][0], []).append(attempt)
            continue
        # a candidate off a side known here would fail the next propagation
        known = [(s, e) for s, e in _slots(node)[0].shell.items() if e is not None]
        for listed, square in candidates[len(chosen)].items():
            if all(getattr(model.squares[square], s) == e for s, e in known):
                stack.append(chosen + ((listed, square),))
    if not survivors:
        raise UnsolvableSlot(first, f"no candidate assignment reaches target {target}")
    steps = [step for found in survivors.values() for step in found]
    if len(steps) > 1:
        raise AmbiguousSlot(first, sorted(survivors) if len(survivors) > 1 else candidates[0])
    return steps[0]



def _step_value(model: DoubleGC, env: Env, step: Expr | str, ts: Optional[ThinSet]) -> str:
    """Evaluate one step: by its compiled plan, or by ``solve`` when that fails."""
    plan = _chain((step,), model.is_groupoid())
    if plan is not None:
        try:
            values = plan.bind(model, env, ())
            if values is not None:
                return values[0]
        except (KeyError, DslError):
            pass  # solve raises what it raises
    expr = parse(step) if isinstance(step, str) else step
    return _fold(model, _placed_tree(model, env, solve(model, env, expr, ts=ts)))


def _chain_values(
    model: DoubleGC,
    env: Optional[Env],
    steps: Iterable[Expr | str],
    ts: Optional[ThinSet],
    slots: tuple[str, ...] = (),
    c: tuple[str, ...] = (),
) -> list[str]:
    """Each step's square, by the chain's compiled kernel.  Where a step has
    a '?', a check fails or a lookup misses, each step goes through
    ``_step_value`` instead, which raises the precise error, over ``env`` or,
    when that is None, the names ``slots`` bound to ``c``."""
    steps = tuple(steps)
    try:
        plan = _chain(steps, model.is_groupoid(), slots)
        values = plan and plan.bind(model, env, c)
    except (KeyError, DslError):
        values = None
    if values is None:
        env = Env(model, dict(zip(slots, c))) if env is None else env
        values = [_step_value(model, env, step, ts) for step in steps]
    return values


def _step_equality(rep: Report, values: list[str]) -> list[int]:
    """Tick each consecutive pair of step values; fail and return the unequal ones."""
    unequal = []
    for i in range(len(values) - 1):
        rep.tick("step-equality")
        if values[i] != values[i + 1]:
            rep.fail("step-equality", f"step{i}", values[i], values[i + 1])
            unequal.append(i)
    return unequal


# -- derivation replay -----------------------------------------------------------


def replay(
    model: DoubleGC,
    env: Env,
    script: list[Expr | str],
    ts: Optional[ThinSet] = None,
    title: str = "derivation replay",
) -> Report:
    """Solve and evaluate consecutive steps, asserting pairwise equality.

    The chain is bound as one compiled kernel, its names resolved through
    ``env``; where that misses, each step's plan and then ``solve`` evaluate
    it.  A chain of fewer than two steps checks no equality, so it fails as
    never checked.
    """
    return _chain_report(_chain_values(model, env, script, ts), title)


def _chain_report(values: list[str], title: str) -> Report:
    """The report of a chain whose steps evaluate to ``values``."""
    rep = Report(title=title)
    for i in _step_equality(rep, values):
        rep.note(f"step {i} -> {i + 1}: {values[i]!r} != {values[i + 1]!r}")
    rep.fail_unchecked(["step-equality"], "the chain has fewer than two steps")
    return rep


# Pinned derivation chains for composites of commutative cubes, one per
# composition direction.  Names: a*/b* are the faces of the two cubes,
# g* the faces of their composite (m/p = the -/+ face, digit = direction).
PLUS1_STEPS = [
    "[G+(_), g1m, G-(_); g3m, g2p, e2(_)]",
    "[G+(_), a1m, G-(_); [a3m; b3m], [a2p; b2p], e2(_)]",
    "[G+(_), a1m, G-(_); a3m, a2p, e2(_); b3m, b2p, e2(_)]",
    "[e2(_), a2m, a3p; G+(_), a1p, G-(_); b3m, b2p, e2(_)]",
    "[e2(_), a2m, a3p; G+(_), b1m, G-(_); b3m, b2p, e2(_)]",
    "[e2(_), a2m, a3p; e2(_), b2m, b3p; G+(_), b1p, G-(_)]",
    "[e2(_), [a2m; b2m], [a3p; b3p]; G+(_), g1p, G-(_)]",
    "[e2(_), g2m, g3p; G+(_), g1p, G-(_)]",
]

PLUS2_STEPS = [
    "[G+(_), g1m, G-(_); g3m, g2p, e2(_)]",
    "[G+(_), [a1m; b1m], G-(_); [a3m, b3m], b2p, e2(_)]",
    "[G+(_), e2(_), a1m, G-(_), e1(_); e1(_), G+(_), b1m, e2(_), G-(_); a3m, b3m, b2p, e2(_), e2(_)]",
    "[G+(_), e2(_), a1m, G-(_), e1(_); a3m, e2(_), b2m, e2(_), b3p; e1(_), G+(_), b1p, e2(_), G-(_)]",
    "[G+(_), e2(_), a1m, G-(_), e1(_); a3m, e2(_), a2p, e2(_), b3p; e1(_), G+(_), b1p, e2(_), G-(_)]",
    "[e2(_), e2(_), a2m, a3p, b3p; G+(_), e2(_), a1p, G-(_), e1(_); e1(_), G+(_), b1p, e2(_), G-(_)]",
    "[e2(_), g2m, g3p; G+(_), g1p, G-(_)]",
]

PLUS3_STEPS = [
    "[G+(_), g1m; g3m, g2p; G-(_), e1(_)]",
    "[G+(_), [a1m, b1m]; a3m, [a2p, b2p]; G-(_), e1(_)]",
    "[G+(_), a1m, b1m; a3m, a2p, b2p; G-(_), e1(_), e1(_)]",
    "[e1(_), G+(_), b1m; a2m, a3p, b2p; a1p, G-(_), e1(_)]",
    "[e1(_), G+(_), b1m; a2m, b3m, b2p; a1p, G-(_), e1(_)]",
    "[e1(_), e1(_), G+(_); a2m, b2m, b3p; a1p, b1p, G-(_)]",
    "[e1(_), G+(_); [a2m, b2m], b3p; [a1p, b1p], G-(_)]",
    "[e1(_), G+(_); g2m, g3p; g1p, G-(_)]",
]

PINNED_STEPS = {1: PLUS1_STEPS, 2: PLUS2_STEPS, 3: PLUS3_STEPS}
# the names of the faces of (*a, *b, *g), in the order of ``Cube3``
_FACE_NAMES = tuple(f"{cube}{d}{sign}" for cube in "abg" for d in (1, 2, 3) for sign in "mp")


def derivation_env(model: DoubleGC, a: Cube3, b: Cube3, direction: int) -> Env:
    """Bind the face names the pinned scripts use for a composable cube pair."""
    g = compose_cubes(model, direction, a, b)
    return Env(model, dict(zip(_FACE_NAMES, (*a, *b, *g))))


def replay_pinned(
    model: DoubleGC,
    a: Cube3,
    b: Cube3,
    direction: int,
    ts: Optional[ThinSet] = None,
) -> Report:
    """``replay`` of the pinned chain in ``direction`` on the pair ``a``, ``b``.

    The chain's kernel reads the 18 faces of ``a``, ``b`` and their
    composite as a tuple, with no ``Env``; where it misses, the chain is
    replayed step by step over ``derivation_env``, as ``replay`` would.
    """
    g = compose_cubes(model, direction, a, b)
    values = _chain_values(model, None, PINNED_STEPS[direction], ts, _FACE_NAMES, (*a, *b, *g))
    return _chain_report(values, f"pinned +{direction} derivation")


# -- script files -----------------------------------------------------------------


def parse_script(text: str) -> tuple[tuple, ...]:
    """A script file's items in order: let-bindings ``('let', name, text)``
    and chains of =-separated steps ``('chain', (text, ...))``."""
    items: list[tuple] = []
    chain: list[str] = []

    def flush():
        nonlocal chain
        if chain:
            items.append(("chain", tuple(chain)))
            chain = []

    def step(text: str) -> str:
        """``text``, a suffix of ``line``, once it parses; a ParseError keeps
        its type and names its line and column in the script."""
        try:
            parse(text)
        except ParseError as exc:
            col = len(raw) - len(raw.lstrip()) + len(line) - len(text) + exc.col
            raise type(exc)(exc.message, lineno, col) from None
        return text

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        if line.startswith("let "):
            flush()
            head, _, rhs = line[4:].partition("=")
            name = head.strip()
            if not name or not rhs.strip():
                raise ParseError(f"malformed let binding {raw!r}", lineno, 1)
            items.append(("let", name, step(rhs.strip())))
        elif line.startswith("="):
            if not chain:
                raise ParseError(f"'=' continuation without a chain: {raw!r}", lineno, 1)
            chain.append(step(line[1:].strip()))
        else:
            flush()
            chain.append(step(line))
    flush()
    return tuple(items)


def run_script(
    model: DoubleGC,
    text: str,
    mode: str = "replay",
) -> tuple[Report, list[list[str]]]:
    """Execute a script file; returns the report and per-chain step values."""
    env = Env(model)
    ts = thin_set(model)
    rep = Report(title=f"script {mode}")
    outputs: list[list[str]] = []
    for item in parse_script(text):
        if item[0] == "let":
            _, name, rhs = item
            env.squares[name] = _step_value(model, env, rhs, ts)
            continue
        values = _chain_values(model, env, item[1], ts)
        outputs.append(values)
        if mode == "replay":
            _step_equality(rep, values)
        else:
            rep.tick("evaluated-chains")
    if mode == "replay":
        rep.fail_unchecked(["step-equality"], "the script has no chain of two steps or more")
    else:
        rep.fail_unchecked(["evaluated-chains"], "the script has no chain")
    return rep, outputs
