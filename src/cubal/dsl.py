"""The pasting-diagram language: its syntax, its seam pass and its plan compiler.

Grammar::

    expr := name | 'e1(' arg ')' | 'e2(' arg ')' | 'G-(' arg ')' | 'G+(' arg ')'
          | 'O(' arg ')' | '?' | '[' row (';' row)* ']'
    row  := expr (',' expr)*
    arg  := name | '_'

``?`` stands for any thin square, ``_`` for an unknown argument of a
degeneracy or connection.  Arrays evaluate row-major: rows fold with +2,
then the rows fold with +1.  ``_Solver`` is the seam pass, the only seam
check and the only code that resolves a leaf; a '?' draws its candidates
from a thin set the caller hands in, so this module imports neither
``thin`` nor ``shells``.  ``pastings`` builds ``solve`` and replay on it.

The plan compiler turns a chain of steps into one generated straight-line
function: a chain's ``bind(model, env, c)`` (``_chain``; a step's plan is
its chain of one), whose names are read from the tuple ``c`` where they are
slots and through ``env`` otherwise, or, in the positional mode,
``kernel(model, c)`` over a cube whose shape is checked (``_positional``),
from which ``shells`` builds its commutativity tests.  ``pastings`` falls
back to each step's plan, then to ``solve``, where a chain's binding
misses.  ``_compile`` is the one place that turns generated source into a
function.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

from .core import EDGE_SQUARES, OP, OPS, RESERVED, DoubleGC, SquareFaces, compose_array
from .errors import ParseError, RaggedArray, SeamMismatch, UnboundName, UnsolvableSlot

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


class _Token(NamedTuple):
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


class Env:
    """Name bindings for squares (a script's ``let``); every other name, and a
    square name left unbound, is a raw model identifier."""

    def __init__(self, model: DoubleGC, squares: Optional[dict[str, str]] = None):
        self.model = model
        self.squares: dict[str, str] = {} if squares is None else squares

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
    """The seam pass over one model and environment.

    ``thin`` gives the thin set (``thin.ThinSet``) that '?' slots draw their
    candidates from; it is called once, when a '?' first needs them.
    """

    def __init__(self, model: DoubleGC, env: Env, thin: Optional[Callable] = None):
        self.model = model
        self.env = env
        self._thin = thin
        self._ts = None
        self.changed = False

    @property
    def ts(self):
        if self._ts is None:
            self._ts = self._thin()
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


def _leaves(node: _Node) -> list[_Node]:
    """The leaf nodes under ``node``, in reading order."""
    if node.rows:
        return [n for row in node.rows for cell in row for n in _leaves(cell)]
    return [node]


def _slots(node: _Node) -> list[_Node]:
    """The slot nodes under ``node``, in reading order."""
    return [n for n in _leaves(node) if _is_slot(n.expr)]


def _propagate(solver: _Solver, root: _Node) -> None:
    """Sweep to the fixed point, then once more with '?' slots finalised."""
    while True:
        solver.changed = False
        solver.sweep(root, finalize=False)
        if not solver.changed:
            break
    solver.sweep(root, finalize=True)


def _fold(model: DoubleGC, node: _Node) -> str:
    """The square of a placed node: a leaf's own, an array's cells row-major."""
    if not node.rows:
        return node.value
    return compose_array(model, [[_fold(model, cell) for cell in row] for row in node.rows])


# -- compiled plans --------------------------------------------------------------
#
# A chain compiles by running ``_propagate`` and ``_fold`` over one
# ``_Terms`` for each step in turn: every lookup they make becomes a term,
# shared by every step that makes it, and every comparison of two different
# terms a check pair.  A name from a step reaches the generated function
# only as a constant in ``C`` or as a position of its tuple argument, never
# as source text.  A chain's ``bind`` makes every lookup and comparison that
# ``solve`` and the fold would make on each of its steps.


def _compile(source: str, name: str, **bound) -> Callable:
    """The function ``name`` that generated ``source`` defines, seeing only
    ``bound`` and ``KeyError``: no builtins."""
    namespace = {"__builtins__": {}, "KeyError": KeyError, **bound}
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    return namespace[name]


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


# The kinds of term whose argument is a name taken from the step.
_NAMED = ("sq", "lit")
# The kinds of term that read a model table: the tables' field names.
_TABLES = frozenset(op.field for op in OPS)
# The expression that binds each kind of term.  ``{a}`` and ``{b}`` take
# integers only: an earlier term, a face index, or an index into ``C``.
_EMIT = {
    "face": "q{a:d}[{b:d}]",
    "sq": "env.resolve_square(C[{a:d}])",
    "lit": "C[{a:d}]",
    "edge": "env.resolve_edge(v{a:d})",
    "obj": "env.resolve_object(v{a:d})",
    "src": "model.src(v{a:d})",
    **{
        op.field: f"t_{op.field}[v{{a:d}}, v{{b:d}}]" if op.binary else f"t_{op.field}[v{{a:d}}]"
        for op in OPS
    },
}


def _table_lines(terms: tuple[tuple, ...], order) -> list[str]:
    """One binding of each model table that the terms of ``order`` read."""
    tables = dict.fromkeys(terms[i][0] for i in order if terms[i][0] in _TABLES)
    return [f"t_{kind} = model.{kind}" for kind in tables]


def _term_lines(terms: tuple[tuple, ...], order, consts: list[str], read: set[int]) -> list[str]:
    """``v<i> = ...`` for each term ``i`` of ``order``.  A name from the step
    is appended to ``consts`` and read as ``C[k]``; a square is looked up
    once, before the first of its faces, and unpacked into the locals of
    every face of it in ``terms`` ('_' for the others); ``read`` holds the
    squares looked up already."""
    lines = []
    for i in order:
        kind, a, b = terms[i]
        if kind == "face":
            if a not in read:
                read.add(a)
                faces = {pos: f"v{j:d}" for j, (k, x, pos) in enumerate(terms) if k == "face" and x == a}
                lines.append(f"{', '.join(faces.get(pos, '_') for pos in range(4))} = squares[v{a:d}]")
            continue
        if kind in _NAMED:
            consts.append(a)
            a = len(consts) - 1
        lines.append(f"v{i:d} = " + _EMIT[kind].format(a=a, b=b))
    return lines


def _kernel_source(
    terms: tuple[tuple, ...],
    checks: tuple[tuple[int, int], ...],
    values: tuple[int, ...],
    slots: tuple[str, ...] = (),
) -> tuple[str, tuple[str, ...]]:
    """The source of a plan's bind function, and the constants ``C`` it reads.

    The function reads each square named in ``slots`` from its position in
    ``c``, binds each model table the plan uses once, then each other term
    to one local ``v<i>`` in ``terms`` order, compares every check pair in
    one ``if`` and returns the terms of ``values``.  Any other name from a
    step is put in ``C`` and read as ``C[k]``, so the source holds only
    integers, local names and ``OPS`` field names.
    """
    consts: list[str] = []
    read = {name: f"v{i:d}" for i, (kind, name, _) in enumerate(terms) if kind == "sq" and name in slots}
    order = [i for i, (kind, name, _) in enumerate(terms) if not (kind == "sq" and name in read)]
    lines = ["def bind(model, env, c):", "    squares = model.squares"]
    lines += [f"    {''.join(read.get(name, '_') + ', ' for name in slots)}= c"] if slots else []
    lines += ["    " + line for line in _table_lines(terms, order) + _term_lines(terms, order, consts, set())]
    if checks:
        lines.append("    if " + " or ".join(f"v{x:d} != v{y:d}" for x, y in checks) + ":")
        lines.append("        return None")
    lines.append(f"    return [{', '.join(f'v{v:d}' for v in values)}]")
    return "\n".join(lines) + "\n", tuple(consts)


class _Plan(NamedTuple):
    """A chain of steps compiled over one ``_Terms``: its lookups, its
    checks, each step's square."""

    terms: tuple[tuple, ...]  # every lookup solve and evaluate make, in order
    checks: tuple[tuple[int, int], ...]  # pairs of terms that must agree
    values: tuple[int, ...]  # the term of each step's square
    # the generated function, compiled from ``_kernel_source``: ``bind(model,
    # env, c)`` is each step's square as ``evaluate(solve(...))`` gives it,
    # or None if a check fails; a lookup that misses raises ``KeyError``, or
    # the environment's ``UnboundName``, where those would raise their own error
    bind: Callable[[DoubleGC, Optional[Env], tuple[str, ...]], Optional[list[str]]]


@functools.lru_cache(maxsize=1024)
def _chain(steps: tuple[Expr | str, ...], groupoid: bool, slots: tuple[str, ...] = ()) -> Optional[_Plan]:
    """The compiled plan of a chain, or None when only ``solve`` can resolve
    one of its steps.  A square named in ``slots`` is read from ``c``."""
    terms = _Terms(groupoid)
    compiler = _Compiler(terms)
    roots = []
    for step in steps:
        roots.append(_Node(parse(step) if isinstance(step, str) else step, ""))
        _propagate(compiler, roots[-1])
        if any(node.value is None for node in _slots(roots[-1])):
            return None
    values = tuple(_fold(terms, root) for root in roots)
    entries, checks = tuple(terms.entries), tuple(compiler.checks)
    source, consts = _kernel_source(entries, checks, values, slots)
    return _Plan(entries, checks, values, _compile(source, "bind", C=consts))



# -- the positional mode -----------------------------------------------------------


def _closure(terms: tuple[tuple, ...], wanted, have: set[int]) -> list[int]:
    """The terms of ``wanted`` and every term they read, directly or not,
    less those in ``have``, in order.  ``have`` must hold every named term,
    which reads none; a face reads its square, a binary table entry its two
    arguments, any other term its one argument."""
    found: set[int] = set()
    stack = list(wanted)
    while stack:
        i = stack.pop()
        if i not in found and i not in have:
            found.add(i)
            kind, a, b = terms[i]
            stack.extend((a,) if kind == "face" or b is None else (a, b))
    return sorted(found)


def _fold_source(node: _Node) -> str:
    """``_fold`` of a placed node as an expression over the term locals."""
    if not node.rows:
        return f"v{node.value:d}"
    rows = ", ".join("[" + ", ".join(_fold_source(cell) for cell in row) + "]" for row in node.rows)
    return f"compose_array(model, [{rows}])"


@functools.lru_cache(maxsize=None)  # shells compiles its odd/even steps twice
def _trace(steps: tuple[str, ...]) -> tuple[tuple[tuple, ...], list[_Node], list[int]]:
    """``steps`` run through the seam pass and the fold: their terms, each
    step's placed tree and the term of its square.  On a checked cube every
    side an argument can be read from holds the same edge, so each cell
    reads it off a named square that another cell reads already, if any.
    """
    terms = _Terms(False)  # no pinned outer side to divide: no inverse is read
    compiler = _Compiler(terms)
    roots = []
    for step in steps:
        roots.append(_Node(parse(step), ""))
        _propagate(compiler, roots[-1])
    entries = terms.entries
    leaves = [leaf for root in roots for leaf in _leaves(root) if isinstance(leaf.expr, OpLeaf)]
    choices = [
        [e for e in (leaf.shell[side] for side in _OP_DEFINING[leaf.expr.op])
         if e is not None and entries[e][0] == "face" and entries[entries[e][1]][0] == "sq"]
        for leaf in leaves
    ]
    read = {entries[edges[0]][1] for edges in choices if len(edges) == 1}
    for leaf, edges in zip(leaves, choices):
        edge = next((e for e in edges if entries[e][1] in read), edges[0])
        read.add(entries[edge][1])
        leaf.value = terms.term(OP[leaf.expr.op].field, edge)
    values = [_fold(terms, root) for root in roots]
    return tuple(entries), roots, values


def _positional_source(steps: tuple[str, ...], slots: tuple[str, ...], verdict: bool) -> str:
    """The source of ``kernel(model, c)``: the squares of ``steps`` for the
    cube ``c`` whose positions hold the names ``slots``, or whether the two
    are equal when ``verdict``.  Only for a cube whose shape is checked, so
    no seam is compared.  Step by step it reads the placed cells, then
    composes them, and where a composite misses it composes the cells with
    ``compose_array``: it raises what reading and composing the arrays in
    turn raises.
    """
    entries, roots, values = _trace(steps)
    cube = ["_"] * len(slots)
    have = set()
    for i, (kind, name, _) in enumerate(entries):
        if kind == "sq":
            cube[slots.index(name)] = f"v{i:d}"
            have.add(i)
    body, read = [], set()
    for root, value in zip(roots, values):
        for leaf in _leaves(root):
            cell = _closure(entries, (leaf.value,), have)
            body += _term_lines(entries, cell, [], read)
            have.update(cell)
        composites = _closure(entries, (value,), have)
        have.update(composites)
        body += ["try:", *("    " + line for line in _term_lines(entries, composites, [], read))]
        body += ["except KeyError:", f"    v{value:d} = {_fold_source(root)}"]
    lines = ["def kernel(model, c):", f"    {', '.join(cube)} = c", "    squares = model.squares"]
    lines += ["    " + line for line in _table_lines(entries, sorted(have)) + body]
    lines.append("    return " + (" == " if verdict else ", ").join(f"v{v:d}" for v in values))
    return "\n".join(lines) + "\n"


def _positional(steps: tuple[str, ...], slots: tuple[str, ...], verdict: bool) -> Callable:
    """``_positional_source`` compiled."""
    return _compile(
        _positional_source(steps, slots, verdict), "kernel", compose_array=compose_array
    )
