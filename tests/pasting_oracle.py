"""Earlier forms of ``cubal.pastings.typecheck`` and of ``solve``'s search.

``_typecheck``, ``_leaf_square`` and ``_edge_run`` are copies of the earlier
checker of a written step: it reads each leaf's square by its own rule
(a missing table entry is a bare ``KeyError``), compares every internal seam of
each array by both cells (``r0c0|r1c0``) and composes the four outer edge
runs, raising ``NotComposable`` where a run has no composite.  It is the
oracle for the differential test in ``test_pastings.py``: the seam pass must
accept exactly the steps it accepts, with the same outer faces.  Not used by
the library.

``oracle_bind`` is the earlier binder of a compiled plan: one interpreted
pass over the plan's terms, each dispatched on its kind, then every check
pair.  It is the oracle for the generated bind function in
``test_plan_kernel.py``: both must give the same square of each step, or
None, or raise the same error.

``oracle_solve`` is ``solve`` with its open-slot stage as a product loop:
every assignment of the listed candidates to the open slots is filled in
and checked by one sweep with the target pinned, with no cap on their
number.  It is the oracle for ``solve``'s pruned search in
``test_pastings.py``: both must give the same outcome on every step.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional

from cubal.core import DoubleGC, SquareFaces
from cubal.errors import (
    AmbiguousSlot,
    DslError,
    NotComposable,
    SeamMismatch,
    UnboundName,
    UnsolvableSlot,
)
from cubal.dsl import (
    Array,
    Env,
    Expr,
    OpLeaf,
    Placed,
    Ref,
    _double_degeneracy,
    _propagate,
    _slots,
    _Plan,
    _Solver,
)
from cubal.pastings import _fill, _pinned
from cubal.thin import ThinSet, thin_set


def _leaf_square(model: DoubleGC, env: Env, expr: Expr) -> str:
    if isinstance(expr, Placed):
        return env.placed(expr.square)
    if isinstance(expr, Ref):
        return env.resolve_square(expr.name)
    if isinstance(expr, OpLeaf):
        if expr.arg is None:
            raise UnboundName("unresolved placeholder argument; run solve first")
        if expr.op == "dd":
            return _double_degeneracy(model, env.resolve_object(expr.arg))
        return model.table(expr.op)[env.resolve_edge(expr.arg)]
    raise UnboundName("unresolved '?' slot; run solve first")


def _edge_run(model: DoubleGC, edges: Iterable[str], error) -> str:
    """The composite of a run of edges; raises ``error(a, b)`` where ``a`` then
    ``b`` has none."""
    it = iter(edges)
    out = next(it)
    for e in it:
        nxt = model.edge_compose.get((out, e))
        if nxt is None:
            raise error(out, e)
        out = nxt
    return out


def _typecheck(model: DoubleGC, env: Env, expr: Expr, pos: str) -> SquareFaces:
    if not isinstance(expr, Array):
        return model.squares[_leaf_square(model, env, expr)]
    shells = [
        [_typecheck(model, env, cell, f"{pos}r{i}c{j}") for j, cell in enumerate(row)]
        for i, row in enumerate(expr.rows)
    ]
    rows = len(shells)
    cols = len(shells[0])
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols and shells[i][j].right != shells[i][j + 1].left:
                raise SeamMismatch(
                    f"{pos}r{i}c{j}|r{i}c{j + 1}",
                    shells[i][j].right,
                    shells[i][j + 1].left,
                )
            if i + 1 < rows and shells[i][j].bottom != shells[i + 1][j].top:
                raise SeamMismatch(
                    f"{pos}r{i}c{j}|r{i + 1}c{j}",
                    shells[i][j].bottom,
                    shells[i + 1][j].top,
                )
    error = functools.partial(NotComposable, "edge")
    return SquareFaces(
        top=_edge_run(model, (shells[0][j].top for j in range(cols)), error),
        bottom=_edge_run(model, (shells[rows - 1][j].bottom for j in range(cols)), error),
        left=_edge_run(model, (shells[i][0].left for i in range(rows)), error),
        right=_edge_run(model, (shells[i][cols - 1].right for i in range(rows)), error),
    )


def oracle_typecheck(model: DoubleGC, env: Env, expr: Expr) -> SquareFaces:
    return _typecheck(model, env, expr, "")


def oracle_bind(plan: _Plan, model: DoubleGC, env: Env) -> Optional[list[str]]:
    squares = model.squares
    vals: list[str] = []
    for kind, a, b in plan.terms:
        if kind == "face":
            v = squares[vals[a]][b]
        elif kind == "sq":
            v = env.resolve_square(a)
        elif kind == "edge":
            v = env.resolve_edge(vals[a])
        elif kind == "lit":
            v = a
        elif kind == "obj":
            v = env.resolve_object(vals[a])
        elif kind == "src":
            v = model.src(vals[a])
        elif b is None:
            v = getattr(model, kind)[vals[a]]
        else:
            v = getattr(model, kind)[vals[a], vals[b]]
        vals.append(v)
    for x, y in plan.checks:
        if vals[x] != vals[y]:
            return None
    return [vals[v] for v in plan.values]


def oracle_solve(
    model: DoubleGC,
    env: Env,
    expr: Expr,
    target: Optional[SquareFaces] = None,
    ts: Optional[ThinSet] = None,
) -> Expr:
    solver = _Solver(model, env, lambda: ts or thin_set(model))
    root = _pinned(solver, expr, target)
    _propagate(solver, root)
    slots = _slots(root)
    open_nodes = [node for node in slots if node.value is None]
    if not open_nodes:
        return _fill(expr, iter([node.value for node in slots]))

    candidates = {node.pos: solver.candidates(node) for node in open_nodes}
    for pos, cands in candidates.items():
        if not cands:
            raise UnsolvableSlot(pos, "no thin candidate fits")
    if target is None:
        node = open_nodes[0]
        raise AmbiguousSlot(node.pos, candidates[node.pos])
    survivors = []
    positions = [n.pos for n in open_nodes]
    for combo in itertools.product(*(candidates[p] for p in positions)):
        trial = dict(zip(positions, combo))
        attempt = _fill(
            expr,
            iter([candidates[n.pos][trial[n.pos]] if n.value is None else n.value for n in slots]),
        )
        try:
            solver.sweep(_pinned(solver, attempt, target), finalize=True)
        except DslError:
            continue
        survivors.append((trial, attempt))
    if not survivors:
        raise UnsolvableSlot(
            positions[0], f"no candidate assignment reaches target {target}"
        )
    if len(survivors) > 1:
        first = positions[0]
        seen = sorted({t[first] for t, _ in survivors})
        raise AmbiguousSlot(first, seen if len(seen) > 1 else candidates[first])
    return survivors[0][1]
