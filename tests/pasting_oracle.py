"""``cubal.pastings.typecheck`` as it stood before the solver's seam pass replaced it.

``_typecheck`` and ``_edge_run`` are copies of the earlier checker of a
written step: it reads each leaf's square, compares every internal seam of
each array by both cells (``r0c0|r1c0``) and composes the four outer edge
runs, raising ``NotComposable`` where a run has no composite.  It is the
oracle for the differential test in ``test_pastings.py``: the seam pass must
accept exactly the steps it accepts, with the same outer faces.  Not used by
the library.
"""
from __future__ import annotations

import functools
from typing import Iterable

from cubal.core import DoubleGC, SquareFaces
from cubal.errors import NotComposable, SeamMismatch
from cubal.pastings import Array, Env, Expr, _leaf_value


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
        return model.squares[_leaf_value(model, env, expr)]
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
