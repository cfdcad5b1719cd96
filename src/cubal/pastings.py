"""Pasting-diagram DSL: matrix-notation expressions over a model.

Grammar::

    expr := name | 'e1(' arg ')' | 'e2(' arg ')' | 'G-(' arg ')' | 'G+(' arg ')'
          | 'O(' arg ')' | '?' | '[' row (';' row)* ']'
    row  := expr (',' expr)*
    arg  := name | '_'

``?`` stands for any thin square, ``_`` for an unknown argument of a
degeneracy or connection; ``solve`` resolves both by seam propagation and
thin-filler lookup, and closes the slots left open against a target by an
exact search, with no cap.  The solved expression holds the square ``solve``
placed in each slot as a ``Placed`` leaf, which names a square of the model
and is never resolved through the environment again.  Propagation compares
every seam and composes every outer side, so a step it fills is checked
once, there.  ``replay`` and ``run_script`` compile each step without '?'
once, by running that propagation and the row-major evaluation over
symbolic lookups; binding the compiled step to an environment is then one
pass of table lookups that yields its square.  ``solve`` remains the path
for '?' and for any binding that misses.

Arrays evaluate row-major (rows fold with +2, then the rows fold with +1);
the interchange law makes the result independent of fold order, which
``tests/test_pastings.py`` checks against a column-major fold.

Block decompositions are never re-partitioned: a flat array must have every
internal seam matching exactly.  Propagation is the only seam check and the
only code that resolves a leaf: ``typecheck`` refuses a step that still has
a slot; over any other step it runs one sweep, which places every leaf
before an array compares its seams, and returns the outer faces.
``evaluate`` folds the tree that sweep placed, and ``solve``'s search
propagates each partly filled step with the target pinned on the root.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .core import EDGE_SQUARES, OP, OPS, RESERVED, DoubleGC, SquareFaces, compose_array
from .errors import (
    AmbiguousSlot,
    DslError,
    ParseError,
    RaggedArray,
    SeamMismatch,
    UnboundName,
    UnsolvableSlot,
)
from .reports import Report
from .shells import Cube3, compose_cubes
from .thin import ThinSet, thin_set

# O(x) is the double degeneracy e1(eps(x)), a composite rather than a table
OP_NAMES = {**{op.dsl: op.tag for op in OPS if op.dsl}, "O": "dd"}
OP_DISPLAY = {v: k for k, v in OP_NAMES.items()}


# -- abstract syntax -----------------------------------------------------------


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class OpLeaf:
    op: str  # e1 | e2 | gm | gp | dd
    arg: Optional[str]  # None is the placeholder '_'


@dataclass(frozen=True)
class Hole:
    pass


@dataclass(frozen=True)
class Placed:
    """A square of the model, by its identifier: how ``solve`` fills a slot."""

    square: str


@dataclass(frozen=True)
class Array:
    rows: tuple[tuple["Expr", ...], ...]


Expr = Union[Ref, OpLeaf, Hole, Placed, Array]


def to_text(expr: Expr) -> str:
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, OpLeaf):
        return f"{OP_DISPLAY[expr.op]}({expr.arg if expr.arg is not None else '_'})"
    if isinstance(expr, Hole):
        return "?"
    if isinstance(expr, Placed):
        return expr.square
    rows = "; ".join(", ".join(to_text(e) for e in row) for row in expr.rows)
    return f"[{rows}]"


# -- tokenizer and parser ------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int
    is_atom: bool


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in RESERVED:
            tokens.append(_Token(ch, line, col, is_atom=False))
            col += 1
            i += 1
            continue
        start = i
        start_col = col
        while i < n and not text[i].isspace() and text[i] not in RESERVED:
            i += 1
            col += 1
        tokens.append(_Token(text[start:i], line, start_col, is_atom=True))
    return tokens


# the deepest nesting of arrays a step may have; the recursive parser,
# solver and evaluator each take a few frames per level
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1, False)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def parse_expr(self) -> Expr:
        tok = self.take()
        if tok.text == "?" and not tok.is_atom:
            return Hole()
        if tok.text == "[":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"arrays nested deeper than {MAX_NESTING}", tok.line, tok.col)
            rows = [self.parse_row()]
            while True:
                nxt = self.take()
                if nxt.text == "]":
                    break
                if nxt.text != ";":
                    raise ParseError(
                        f"expected ';' or ']', found {nxt.text!r}", nxt.line, nxt.col
                    )
                rows.append(self.parse_row())
            self.depth -= 1
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise RaggedArray(f"rows of length {[len(r) for r in rows]}", tok.line, tok.col)
            return Array(tuple(tuple(r) for r in rows))
        if tok.is_atom:
            nxt = self.peek()
            if nxt is not None and nxt.text == "(":
                if tok.text not in OP_NAMES:
                    raise ParseError(
                        f"unknown operation {tok.text!r}", tok.line, tok.col
                    )
                self.expect("(")
                arg = self.take()
                if not arg.is_atom:
                    raise ParseError(
                        f"expected argument, found {arg.text!r}", arg.line, arg.col
                    )
                self.expect(")")
                return OpLeaf(OP_NAMES[tok.text], None if arg.text == "_" else arg.text)
            if tok.text == "_":
                raise ParseError("'_' is only legal as an operation argument", tok.line, tok.col)
            return Ref(tok.text)
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)

    def parse_row(self) -> list[Expr]:
        row = [self.parse_expr()]
        while True:
            nxt = self.peek()
            if nxt is None or nxt.text != ",":
                return row
            self.take()
            row.append(self.parse_expr())


@functools.lru_cache(maxsize=1024)
def parse(text: str) -> Expr:
    """Parse one expression; results are shared between calls (``Expr`` is frozen)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(
            f"trailing input {trailing.text!r}", trailing.line, trailing.col
        )
    return expr


# -- environments --------------------------------------------------------------


@dataclass
class Env:
    """Name bindings for squares (a script's ``let``); every other name, and a
    square name left unbound, is a raw model identifier."""

    model: DoubleGC
    squares: dict[str, str] = field(default_factory=dict)

    @classmethod
    def for_model(cls, model: DoubleGC) -> "Env":
        return cls(model=model)

    def resolve_square(self, name: str) -> str:
        if name in self.squares:
            return self.squares[name]
        if name in self.model.squares:
            return name
        raise UnboundName(f"unknown square {name!r}")

    def placed(self, square: str) -> str:
        """A square named by its model identifier, never by a binding."""
        if square in self.model.squares:
            return square
        raise UnboundName(f"unknown square {square!r}")

    def resolve_edge(self, name: str) -> str:
        if name in self.model.edges:
            return name
        raise UnboundName(f"unknown edge {name!r}")

    def resolve_object(self, name: str) -> str:
        if name in self.model.objects:
            return name
        raise UnboundName(f"unknown object {name!r}")


def _double_degeneracy(model: DoubleGC, obj: str) -> str:
    """O(x) = e1(eps(x)), the square ``dd`` places on object ``x``."""
    return model.eps1[model.eps[obj]]


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
    _Solver(model, env, None).sweep(root, finalize=True)
    return root


def _fold(model: DoubleGC, node: _Node) -> str:
    """The square of a placed node: a leaf's own, an array's cells row-major."""
    if not node.rows:
        return node.value
    return compose_array(model, [[_fold(model, cell) for cell in row] for row in node.rows])


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


def array_square_grid(model: DoubleGC, env: Env, expr: Expr) -> list[list[str]]:
    """Evaluate each cell of a top-level array (after solve)."""
    if not isinstance(expr, Array):
        raise ValueError("expected an array expression")
    root = _placed_tree(model, env, expr)
    return [[_fold(model, cell) for cell in row] for row in root.rows]


# -- the thin-slot solver --------------------------------------------------------

_SIDES = SquareFaces._fields
# which shell sides carry the defining edge of each species: for an edge
# square, the faces that are its argument
_OP_DEFINING = {
    **{op.tag: tuple(s for s, i in zip(_SIDES, op.faces) if i == 0) for op in EDGE_SQUARES},
    "dd": _SIDES,
}


class _Node:
    __slots__ = ("expr", "pos", "shell", "value", "rows")

    def __init__(self, expr: Expr, pos: str):
        self.expr = expr
        self.pos = pos
        self.shell: dict[str, Optional[str]] = dict.fromkeys(_SIDES)
        self.value: Optional[str] = None
        self.rows: list[list[_Node]] = []
        if isinstance(expr, Array):
            self.rows = [
                [_Node(cell, f"{pos}r{i}c{j}") for j, cell in enumerate(row)]
                for i, row in enumerate(expr.rows)
            ]


class _Solver:
    def __init__(self, model: DoubleGC, env: Env, ts: Optional[ThinSet]):
        self.model = model
        self.env = env
        self._ts = ts
        self.changed = False

    @property
    def ts(self) -> ThinSet:
        if self._ts is None:
            self._ts = thin_set(self.model)
        return self._ts

    def agree(self, a: str, b: str, error, *args) -> None:
        """Raise ``error(*args)`` where edges ``a`` and ``b`` differ."""
        if a != b:
            raise error(*args)

    def set_side(self, node: _Node, side: str, edge: str) -> None:
        cur = node.shell[side]
        if cur is None:
            node.shell[side] = edge
            self.changed = True
        else:
            self.agree(cur, edge, SeamMismatch, f"{node.pos}:{side}", cur, edge)

    def set_value(self, node: _Node, square: str) -> None:
        """Place ``square`` in ``node``; every caller places into an empty node."""
        node.value = square
        self.changed = True
        f = self.model.squares[square]
        for side in _SIDES:
            self.set_side(node, side, getattr(f, side))

    def fill_op(self, node: _Node, arg: str) -> None:
        """Place the operation's square for an argument named in the step."""
        if node.expr.op == "dd":
            # argument of the double degeneracy is an object
            self.place_op(node, self.env.resolve_object(arg))
        else:
            self.place_op(node, self.env.resolve_edge(arg))

    def place_op(self, node: _Node, cell: str) -> None:
        """Place the operation's square on a model edge (a model object for ``dd``)."""
        model = self.model
        op = node.expr.op
        if op == "dd":
            self.set_value(node, _double_degeneracy(model, cell))
            return
        table = model.table(op)
        if cell not in table:
            raise UnsolvableSlot(node.pos, f"no {OP_DISPLAY[op]} entry for {cell!r}")
        self.set_value(node, table[cell])

    def infer_op_arg(self, node: _Node) -> None:
        op = node.expr.op
        for side in _OP_DEFINING[op]:
            edge = node.shell[side]
            if edge is None:
                continue
            if op == "dd":
                obj = self.model.src(edge)
                self.agree(
                    self.model.eps.get(obj),
                    edge,
                    UnsolvableSlot,
                    node.pos,
                    f"double degeneracy needs identity edges, got {edge!r}",
                )
                self.place_op(node, obj)
            else:
                self.place_op(node, edge)
            return

    def candidates(self, node: _Node) -> dict[str, str]:
        """Each way to fill a slot that fits the sides known: a thin square for
        '?', keyed by itself; an argument for '_', with the square it places."""
        model = self.model
        if isinstance(node.expr, Hole):
            if None not in node.shell.values():
                # all four sides known: the thin fillers of that shell, sorted
                return {m: m for m in self.ts.by_shell.get(SquareFaces(**node.shell), ())}
            values = {m: m for m in sorted(self.ts.members)}
        elif node.expr.op == "dd":
            values = {x: _double_degeneracy(model, x) for x in sorted(model.objects)}
        else:
            table = model.table(node.expr.op)
            values = {x: table[x] for x in sorted(model.edges) if x in table}
        known = [(side, e) for side, e in node.shell.items() if e is not None]
        return {
            x: square
            for x, square in values.items()
            if all(getattr(model.squares[square], side) == e for side, e in known)
        }

    def try_hole(self, node: _Node, finalize: bool) -> None:
        known = {s: e for s, e in node.shell.items() if e is not None}
        if not known and not finalize:
            return
        candidates = self.candidates(node)
        if not candidates:
            raise UnsolvableSlot(node.pos, f"known sides {known}")
        if len(candidates) == 1:
            self.set_value(node, next(iter(candidates)))

    def chain(self, edges: list[Optional[str]], node: _Node) -> Optional[str]:
        """The composite of a run of edges, or None while one is unknown."""
        if None in edges:
            return None
        out = edges[0]
        for e in edges[1:]:
            nxt = self.model.edge_compose.get((out, e))
            if nxt is None:
                raise UnsolvableSlot(node.pos, f"edge run {out!r} then {e!r} undefined")
            out = nxt
        return out

    def divide_segment(
        self, segments: list[Optional[str]], total: str, node: _Node
    ) -> Optional[tuple[int, str]]:
        """Solve one unknown segment of a pinned composite, groupoid only."""
        if not self.model.is_groupoid():
            return None
        holes = [i for i, e in enumerate(segments) if e is None]
        if len(holes) != 1:
            return None
        i = holes[0]
        inv = self.model.edge_inverse
        out = total
        prefix = segments[:i]
        if prefix:
            out = self.chain([inv[self.chain(prefix, node)], out], node)
        suffix = segments[i + 1 :]
        if suffix:
            out = self.chain([out, inv[self.chain(suffix, node)]], node)
        return i, out

    def propagate_array(self, node: _Node) -> None:
        rows, cols = len(node.rows), len(node.rows[0])
        for i in range(rows):
            for j in range(cols):
                cell = node.rows[i][j]
                if j + 1 < cols:
                    nbr = node.rows[i][j + 1]
                    if cell.shell["right"] is not None:
                        self.set_side(nbr, "left", cell.shell["right"])
                    if nbr.shell["left"] is not None:
                        self.set_side(cell, "right", nbr.shell["left"])
                if i + 1 < rows:
                    nbr = node.rows[i + 1][j]
                    if cell.shell["bottom"] is not None:
                        self.set_side(nbr, "top", cell.shell["bottom"])
                    if nbr.shell["top"] is not None:
                        self.set_side(cell, "bottom", nbr.shell["top"])
        outer = {
            "top": node.rows[0],
            "bottom": node.rows[-1],
            "left": [row[0] for row in node.rows],
            "right": [row[-1] for row in node.rows],
        }
        for side, cells in outer.items():
            segments = [cell.shell[side] for cell in cells]
            total = self.chain(segments, node)
            if total is not None:
                self.set_side(node, side, total)
            elif node.shell[side] is not None:
                # a pinned outer composite with one unknown segment determines it
                got = self.divide_segment(segments, node.shell[side], node)
                if got is not None:
                    self.set_side(cells[got[0]], side, got[1])

    def sweep(self, node: _Node, finalize: bool) -> None:
        expr = node.expr
        if isinstance(expr, Ref):
            if node.value is None:
                self.set_value(node, self.env.resolve_square(expr.name))
        elif isinstance(expr, Placed):
            if node.value is None:
                self.set_value(node, self.env.placed(expr.square))
        elif isinstance(expr, OpLeaf):
            if node.value is None:
                if expr.arg is not None:
                    self.fill_op(node, expr.arg)
                else:
                    self.infer_op_arg(node)
        elif isinstance(expr, Hole):
            if node.value is None:
                self.try_hole(node, finalize)
        else:
            for row in node.rows:
                for cell in row:
                    self.sweep(cell, finalize)
            self.propagate_array(node)


def _is_slot(expr: Expr) -> bool:
    """Whether ``expr`` is a '?' or '_' slot, which ``solve`` fills."""
    return isinstance(expr, Hole) or (isinstance(expr, OpLeaf) and expr.arg is None)


def _slots(node: _Node) -> list[_Node]:
    """The slot nodes under ``node``, in reading order."""
    if isinstance(node.expr, Array):
        return [n for row in node.rows for cell in row for n in _slots(cell)]
    return [node] if _is_slot(node.expr) else []


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


def _propagate(solver: _Solver, root: _Node) -> None:
    """Sweep to the fixed point, then once more with '?' slots finalised."""
    while True:
        solver.changed = False
        solver.sweep(root, finalize=False)
        if not solver.changed:
            break
    solver.sweep(root, finalize=True)


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
    solver = _Solver(model, env, ts)
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


# -- compiled steps ----------------------------------------------------------------
#
# A step without '?' is compiled once by running the code that solves and
# evaluates it over ``_Terms`` instead of a model: every lookup that code
# makes becomes a term, and every comparison between two different terms
# becomes a check pair.  ``_propagate`` places every leaf, compares every
# seam, composes every outer side into an edge-composite term and records
# the term of the square it places in each '_' slot; ``_fold`` then reads
# the placed tree row-major (``compose2`` terms fold each row, then
# ``compose1`` terms fold the rows), and its result is the term of the
# step's square.  Binding a plan to a model and an environment evaluates
# every term and compares every check pair in one pass, so it makes every
# lookup and comparison that ``solve`` and the fold would make, and
# succeeds exactly where they would, with the same square.  ``solve`` stays
# the path for '?' steps and for any binding that misses, and raises what it
# always raised.


class _Lookup:
    """A mapping whose every key is present: ``make`` builds the value."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __getitem__(self, key):
        return self.make(key)

    def get(self, key):
        return self.make(key)

    def __contains__(self, key):
        return True


class _Terms:
    """Stands in for the model and the environment while a step compiles.

    A term is an index into ``entries``.  An entry ``(kind, a, b)`` refers to
    earlier terms by index, so one pass in order evaluates every term; a
    name (``sq``, ``lit``) or a face index is held as is.  Each table of the
    model is a lookup whose entries take the table's field name as their
    kind.  Equal entries share one index.
    """

    def __init__(self, groupoid: bool):
        self.groupoid = groupoid
        self.entries: list[tuple] = []
        self.index: dict[tuple, int] = {}
        self.squares = _Lookup(lambda sq: SquareFaces(*(self.term("face", sq, i) for i in range(4))))
        for op in OPS:
            setattr(self, op.field, self._table(op))

    def _table(self, op) -> _Lookup:
        return _Lookup(lambda key: self.term(op.field, *op.args(key)))

    def term(self, kind: str, a, b=None) -> int:
        key = (kind, a, b)
        got = self.index.get(key)
        if got is None:
            got = self.index[key] = len(self.entries)
            self.entries.append(key)
        return got

    def is_groupoid(self) -> bool:
        return self.groupoid

    def table(self, tag: str) -> _Lookup:
        return getattr(self, OP[tag].field)

    def src(self, edge: int) -> int:
        return self.term("src", edge)

    def resolve_square(self, name: str) -> int:
        return self.term("sq", name)

    def placed(self, square: str) -> int:
        """The ``Placed`` leaf of a step ``solve`` returned, passed to ``replay``."""
        return self.term("lit", square)

    def resolve_edge(self, arg: str) -> int:
        return self.term("edge", self.term("lit", arg))

    def resolve_object(self, arg: str) -> int:
        return self.term("obj", self.term("lit", arg))


class _Compiler(_Solver):
    """``_Solver`` over ``_Terms``: the first write to a side wins.

    Each comparison of two different terms is kept as a check, because
    ``solve`` compares the two edges and raises when they differ.  A pair is
    kept once, in either order.
    """

    def __init__(self, terms: _Terms):
        super().__init__(terms, terms, None)
        self.checks: dict[tuple[int, int], None] = {}

    def agree(self, a: int, b: int, error, *args) -> None:
        if a != b:
            self.checks[min(a, b), max(a, b)] = None

    def try_hole(self, node: _Node, finalize: bool) -> None:
        pass  # a '?' step is left to solve


@dataclass(frozen=True)
class _Plan:
    """One step compiled over ``_Terms``: its lookups, its checks, its square."""

    terms: tuple[tuple, ...]  # every lookup solve and evaluate make, in order
    checks: tuple[tuple[int, int], ...]  # pairs of terms that must agree
    value: int  # the term of the step's square

    def bind(self, model: DoubleGC, env: Env) -> Optional[str]:
        """The step's square as ``evaluate(solve(...))`` gives it, or None if a
        check fails.

        A lookup that misses raises ``KeyError``, or the environment's
        ``UnboundName``, where those would raise their own error.
        """
        squares = model.squares
        vals: list[str] = []
        for kind, a, b in self.terms:
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
        for x, y in self.checks:
            if vals[x] != vals[y]:
                return None
        return vals[self.value]


@functools.lru_cache(maxsize=1024)
def _plan(step: Expr | str, groupoid: bool) -> Optional[_Plan]:
    """The compiled plan of a step, or None when only ``solve`` can resolve it."""
    expr = parse(step) if isinstance(step, str) else step
    terms = _Terms(groupoid)
    compiler = _Compiler(terms)
    root = _Node(expr, "")
    _propagate(compiler, root)
    if any(node.value is None for node in _slots(root)):
        return None
    value = _fold(terms, root)
    return _Plan(terms=tuple(terms.entries), checks=tuple(compiler.checks), value=value)


def _step_value(model: DoubleGC, env: Env, step: Expr | str, ts: Optional[ThinSet]) -> str:
    """Evaluate one step: by its compiled plan, or by ``solve`` when that fails."""
    plan = _plan(step, model.is_groupoid())
    if plan is not None:
        try:
            value = plan.bind(model, env)
            if value is not None:
                return value
        except (KeyError, DslError):
            pass  # solve raises what it raises
    expr = parse(step) if isinstance(step, str) else step
    return _fold(model, _placed_tree(model, env, solve(model, env, expr, ts=ts)))


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
    """Solve and evaluate consecutive steps, asserting pairwise equality."""
    rep = Report(title=title)
    values = [_step_value(model, env, step, ts) for step in script]
    for i in _step_equality(rep, values):
        rep.note(f"step {i} -> {i + 1}: {values[i]!r} != {values[i + 1]!r}")
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


def derivation_env(model: DoubleGC, a: Cube3, b: Cube3, direction: int) -> Env:
    """Bind the face names the pinned scripts use for a composable cube pair."""
    g = compose_cubes(model, direction, a, b)
    env = Env.for_model(model)
    for prefix, cube in (("a", a), ("b", b), ("g", g)):
        for d in (1, 2, 3):
            env.squares[f"{prefix}{d}m"] = cube.face(d, "-")
            env.squares[f"{prefix}{d}p"] = cube.face(d, "+")
    return env


def replay_pinned(
    model: DoubleGC,
    a: Cube3,
    b: Cube3,
    direction: int,
    ts: Optional[ThinSet] = None,
) -> Report:
    env = derivation_env(model, a, b, direction)
    return replay(
        model,
        env,
        PINNED_STEPS[direction],
        ts=ts,
        title=f"pinned +{direction} derivation",
    )


# -- script files -----------------------------------------------------------------


@dataclass(frozen=True)
class Script:
    """Parsed script file: let-bindings and chains of =-separated steps."""

    items: tuple[tuple, ...]  # ('let', name, text) | ('chain', (text, ...))


def parse_script(text: str) -> Script:
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
    return Script(items=tuple(items))


def run_script(
    model: DoubleGC,
    text: str,
    mode: str = "replay",
) -> tuple[Report, list[list[str]]]:
    """Execute a script file; returns the report and per-chain step values."""
    script = parse_script(text)
    env = Env.for_model(model)
    ts = thin_set(model)
    rep = Report(title=f"script {mode}")
    outputs: list[list[str]] = []
    for item in script.items:
        if item[0] == "let":
            _, name, rhs = item
            env.squares[name] = _step_value(model, env, rhs, ts)
            continue
        values = [_step_value(model, env, step, ts) for step in item[1]]
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
