"""The pasting DSL: grammar, seams, the thin-slot solver, evaluation, replay."""
import dataclasses
import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from cubal import dsl, pastings, shells, thin
from cubal.core import SquareFaces
from cubal.errors import (
    AmbiguousSlot,
    DslError,
    NotComposable,
    ParseError,
    RaggedArray,
    SeamMismatch,
    UnboundName,
    UnsolvableSlot,
)
from cubal.models import square_key
from cubal.pastings import (
    Array,
    Env,
    Hole,
    OpLeaf,
    Placed,
    Ref,
    evaluate,
    parse,
    parse_script,
    replay,
    replay_pinned,
    run_script,
    solve,
    to_text,
    typecheck,
)
from cubal.shells import all_cubes
from pasting_oracle import oracle_solve, oracle_typecheck
from test_shells import cell_values, odd_composite_array
from test_replay_compiled import zero_monoid_box


def test_parse_connection_array():
    expr = parse("[G+(a), e2(a); e1(a), G+(b)]")
    assert isinstance(expr, Array)
    assert expr.rows == (
        (OpLeaf("gp", "a"), OpLeaf("e2", "a")),
        (OpLeaf("e1", "a"), OpLeaf("gp", "b")),
    )


def test_parse_row_and_placeholders():
    assert parse("[u, w]") == Array(((Ref("u"), Ref("w")),))
    assert parse("[?; G-(_)]") == Array(((Hole(),), (OpLeaf("gm", None),)))


def test_parse_ragged_array():
    with pytest.raises(RaggedArray):
        parse("[u; v, w]")


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("[a,", "unexpected end of input", 1, 3),
        ("e1(a b)", "expected ')', found 'b'", 1, 6),
        ("[a b]", "expected ';' or ']', found 'b'", 1, 4),
        ("e1(()", "expected argument, found '('", 1, 4),
        ("_", "'_' is only legal as an operation argument", 1, 1),
        ("]", "unexpected ']'", 1, 1),
    ],
)
def test_parse_errors_name_their_token(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert type(err.value) is ParseError
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_parse_skips_a_comment():
    assert parse("a # note") == Ref("a")


def test_parse_bounds_array_nesting(zz2):
    depth = dsl.MAX_NESTING
    assert depth == 100
    square = "q0|0|0|0"
    deep = parse("[" * depth + square + "]" * depth)
    assert evaluate(zz2, Env(zz2), deep) == square
    with pytest.raises(ParseError) as err:
        parse("[" * (depth + 1) + square + "]" * (depth + 1))
    assert (err.value.line, err.value.col) == (1, depth + 1)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("[u,\n  )]")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse("u w")  # trailing input
    with pytest.raises(ParseError):
        parse("frob(a)")  # unknown operation


@given(
    st.recursive(
        st.one_of(
            st.sampled_from([Ref("u"), Ref("w"), OpLeaf("gm", "a"), OpLeaf("e1", None), Hole()]),
            st.builds(OpLeaf, st.sampled_from(["e1", "e2", "gm", "gp", "dd"]), st.sampled_from(["a", "edge.1", None])),
        ),
        lambda leaves: st.builds(
            lambda rows: Array(tuple(tuple(r) for r in rows)),
            st.lists(st.lists(leaves, min_size=1, max_size=3), min_size=1, max_size=3).filter(
                lambda rows: len({len(r) for r in rows}) == 1
            ),
        ),
        max_leaves=12,
    )
)
def test_print_parse_roundtrip(expr):
    assert parse(to_text(expr)) == expr


def test_typecheck_transport_outer_shell(zz2):
    env = Env(zz2)
    expr = parse("[G+(1), e2(1); e1(1), G+(1)]")
    shell = typecheck(zz2, env, expr)
    # outer shell of the transport array is the shell of G+(1+1) = G+(0)
    assert shell == zz2.squares[zz2.gamma_plus["0"]]


def test_typecheck_seam_mismatch(zz2):
    env = Env(zz2)
    # bottom edge 1 against top edge 0: the seam pass names the side of the
    # lower cell it could not set
    bad = parse(f"[{square_key('1','1','0','0')}; {square_key('0','0','0','0')}]")
    with pytest.raises(SeamMismatch) as err:
        typecheck(zz2, env, bad)
    assert err.value.position == "r1c0:top"


def test_refinement_guard_rejects_cross_seams(zz2):
    # flat rewriting of two stacked squares is rejected when the cross seams
    # are undefined, and the expression is never evaluated
    env = Env(zz2)
    a1 = square_key("1", "0", "1", "0")  # right edge 0
    b1 = square_key("1", "0", "0", "1")  # left edge 0... pick a mismatch pair
    bad_pair = square_key("1", "1", "1", "1")
    flat = Array(((Ref(a1), Ref(bad_pair)),))
    with pytest.raises(SeamMismatch):
        typecheck(zz2, env, flat)
    with pytest.raises(SeamMismatch):
        evaluate(zz2, env, flat)


def test_unbound_name(zz2):
    env = Env(zz2)
    with pytest.raises(UnboundName):
        typecheck(zz2, env, parse("[mystery]"))


@pytest.mark.parametrize("text, kind", [("e1(nosuch)", "edge"), ("O(nosuch)", "object")])
def test_unknown_operation_argument(zz2, text, kind):
    env = Env(zz2)
    for run in (lambda: evaluate(zz2, env, parse(text)), lambda: replay(zz2, env, [text])):
        with pytest.raises(UnboundName) as err:
            run()
        assert str(err.value) == f"unknown {kind} 'nosuch'"


def test_unknown_placed_square(zz2):
    # a Placed leaf names a model square; its plan's lookup misses and solve
    # raises the environment's error
    env = Env(zz2)
    step = Array(((Placed("nosuch"),),))
    for run in (lambda: evaluate(zz2, env, step), lambda: replay(zz2, env, [step, step])):
        with pytest.raises(UnboundName) as err:
            run()
        assert str(err.value) == "unknown square 'nosuch'"


def test_solve_builds_the_thin_set_when_none_is_given(zz2, zz2_thin):
    env = Env(zz2)
    step = parse("[O(o), e1(1), O(o); e2(1), ?, e2(1); O(o), e1(1), O(o)]")
    solved = solve(zz2, env, step)
    assert solved == solve(zz2, env, step, ts=zz2_thin)
    assert to_text(solved) == "[O(o), e1(1), O(o); e2(1), q1|1|1|1, e2(1); O(o), e1(1), O(o)]"


@pytest.mark.parametrize("text, line", [("= e1(1)", 1), ("let s = e1(1)\n= e1(1)", 2), ("e1(1)\n\n= e1(1)", 3)])
def test_script_continuation_without_a_chain(text, line):
    with pytest.raises(ParseError, match="'=' continuation without a chain") as err:
        parse_script(text)
    assert (err.value.line, err.value.col) == (line, 1)


def _atoms(model):
    """Every leaf a written step can hold on ``model``: each square by name and
    each degeneracy or connection on each edge (``O`` on each object)."""
    leaves = [Ref(s) for s in sorted(model.squares)]
    leaves += [OpLeaf(op, e) for op in ("e1", "e2", "gm", "gp") for e in sorted(model.edges)]
    return leaves + [OpLeaf("dd", o) for o in sorted(model.objects)]


def _written_steps(model, rng, n):
    """``n`` seeded written steps, flat and nested arrays up to 3x3.  Each cell
    is drawn from the leaves and flat arrays the oracle accepted whose faces
    fit the cells above and to the left; about one step in three then has
    one cell drawn blind, which may be an unbound name or a slot."""
    env = Env(model)
    fitted = []  # (expr, its faces, nested) for each leaf and array the oracle accepts
    blind = [Ref("mystery"), Hole(), OpLeaf("gp", None)]

    def keep(expr, nested):
        blind.append(expr)
        try:
            fitted.append((expr, oracle_typecheck(model, env, expr), nested))
        except (DslError, NotComposable, KeyError):
            pass

    def fits(faces, above, before):
        return (above is None or above.bottom == faces.top) and (
            before is None or before.right == faces.left
        )

    for leaf in _atoms(model):
        keep(leaf, False)
    steps = []
    while len(steps) < n:
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        cells, faces = {}, {}
        for i, j in itertools.product(range(rows), range(cols)):
            pool = [
                item
                for item in fitted
                if not item[2] and fits(item[1], faces.get((i - 1, j)), faces.get((i, j - 1)))
            ]
            cells[i, j], faces[i, j], _ = rng.choice(pool or [(rng.choice(blind), None, False)])
        if rng.random() < 0.3:
            cells[rng.randrange(rows), rng.randrange(cols)] = rng.choice(blind)
        step = Array(tuple(tuple(cells[i, j] for j in range(cols)) for i in range(rows)))
        keep(step, any(isinstance(c, Array) for c in cells.values()))
        steps.append(step)
    return steps


def _single_entry_mutants(model, rng, n):
    """``n`` copies of ``model`` with one entry of one table the seam pass
    reads redirected to another value of its kind, or dropped."""
    edges, squares = sorted(model.edges), sorted(model.squares)
    out = []
    for _ in range(n):
        table = rng.choice(
            ("squares", "edge_compose", "eps", "eps1", "eps2", "gamma_minus", "gamma_plus")
        )
        entries = dict(getattr(model, table))
        key = rng.choice(sorted(entries))
        if table == "squares":
            side = rng.choice(SquareFaces._fields)
            entries[key] = entries[key]._replace(**{side: rng.choice(edges)})
        else:
            pool = edges if table in ("edge_compose", "eps") else squares
            others = [v for v in pool if v != entries[key]]
            if others and rng.random() > 0.2:
                entries[key] = rng.choice(others)
            else:
                del entries[key]
        out.append(dataclasses.replace(model, **{table: entries}))
    return out


def _check_outcome(check, model, expr):
    try:
        return check(model, Env(model), expr)
    except (DslError, NotComposable, KeyError) as exc:
        return type(exc)


def test_seam_pass_matches_the_written_step_oracle(zz2, shift2):
    # typecheck, through solve's seam pass, accepts exactly the written steps
    # the earlier checker accepts, with the same outer faces; where that one
    # finds a seam mismatch, so does the pass
    from cubal.models import cyclic_group, product, shift_model

    rng = random.Random(11)
    klein = shift_model(product(cyclic_group(2), cyclic_group(2)))
    cases = [(m, 300) for m in (zz2, shift2, klein)]
    mutants = _single_entry_mutants(zz2, rng, 30) + _single_entry_mutants(klein, rng, 10)
    cases += [(m, 40) for m in mutants]
    seen = Counter()
    for model, n in cases:
        for expr in _written_steps(model, rng, n):
            want = _check_outcome(oracle_typecheck, model, expr)
            got = _check_outcome(typecheck, model, expr)
            if isinstance(want, SquareFaces) or want is SeamMismatch:
                assert got == want, to_text(expr)
            else:
                assert isinstance(got, type), (to_text(expr), want, got)
            nested = any(isinstance(cell, Array) for row in expr.rows for cell in row)
            seen[want if isinstance(want, type) else "accepted", nested] += 1
    for kind in ("accepted", SeamMismatch):
        assert seen[kind, False] and seen[kind, True], seen
    assert {NotComposable, UnboundName, KeyError} <= {kind for kind, _ in seen}, seen


def test_evaluate_single_and_cancellation(zz2):
    env = Env(zz2)
    u = square_key("1", "0", "1", "0")
    assert evaluate(zz2, env, parse(f"[{u}]")) == u
    assert evaluate(zz2, env, parse("[G+(1), G-(1)]")) == zz2.eps1["1"]
    assert evaluate(zz2, env, parse("[G+(1); G-(1)]")) == zz2.eps2["1"]


def test_evaluate_transport_instance(zz2):
    env = Env(zz2)
    got = evaluate(zz2, env, parse("[G-(1), e1(1); e2(1), G-(1)]"))
    assert got == zz2.gamma_minus["0"] == zz2.eps1["0"]


def test_solver_resolves_def23_odd_array(zz2, zz2_thin):
    # the unification oracle with the species the diagrams carry: argument
    # slots are inferred from the seams and land on the derived table
    env = Env(zz2)
    for cube in all_cubes(zz2)[::9]:
        want = odd_composite_array(zz2, cube)
        text = f"[G+(_), {cube.f1m}, G-(_); {cube.f3m}, {cube.f2p}, e2(_)]"
        solved = solve(zz2, env, parse(text), ts=zz2_thin)
        grid = cell_values(zz2, env, solved)
        assert grid == want


def test_solver_reports_anonymous_slot_ambiguity(zz2, zz2_thin):
    # with bare '?' slots several thin assignments fit the same boundary in
    # this degenerate model; the solver must list them, never pick one, and
    # every candidate assignment evaluates to the same composite
    env = Env(zz2)
    sq = zz2.squares
    cube = all_cubes(zz2)[0]
    target = SquareFaces(
        left=sq[cube.f3m].left,
        bottom=zz2.edge_compose[(sq[cube.f3m].bottom, sq[cube.f2p].bottom)],
        top=zz2.edge_compose[(sq[cube.f1m].top, sq[cube.f1m].right)],
        right=sq[cube.f2p].right,
    )
    text = f"[?, {cube.f1m}, ?; {cube.f3m}, {cube.f2p}, ?]"
    with pytest.raises(AmbiguousSlot) as err:
        solve(zz2, env, parse(text), target=target, ts=zz2_thin)
    assert len(err.value.candidates) > 1


def test_solve_single_hole_with_target(zz2, zz2_thin):
    env = Env(zz2)
    dd = zz2.eps1["0"]
    solved = solve(
        zz2, env, parse("[?]"), target=zz2.squares[dd], ts=zz2_thin
    )
    assert evaluate(zz2, env, solved) == dd


def test_solve_non_commuting_target_unsolvable(zz2, zz2_thin):
    env = Env(zz2)
    bad = SquareFaces(left="1", bottom="0", top="0", right="0")
    with pytest.raises(UnsolvableSlot):
        solve(zz2, env, parse("[?]"), target=bad, ts=zz2_thin)


def test_hole_with_four_known_sides_reads_the_shell_index(corpus, shift2):
    # the by-shell lookup gives what filtering every thin square gives
    for model in (*corpus.values(), shift2):
        ts = thin.thin_set(model)
        solver = dsl._Solver(model, Env(model), lambda: ts)
        shells_ = set(model.squares.values())
        shells_.add(SquareFaces(*(sorted(model.edges)[0],) * 4))
        for shell in sorted(shells_):
            node = dsl._Node(Hole(), "")
            node.shell.update(shell._asdict())
            scan = {m: m for m in sorted(ts.members) if model.squares[m] == shell}
            assert solver.candidates(node) == scan


def test_solve_unconstrained_hole_is_ambiguous(zz2, zz2_thin):
    env = Env(zz2)
    with pytest.raises(AmbiguousSlot) as err:
        solve(zz2, env, parse("[?]"), ts=zz2_thin)
    assert len(err.value.candidates) == 8


def _row_run(model, edges):
    """The composite of a run of edges, or None where it has none."""
    out = edges[0]
    for e in edges[1:]:
        out = model.edge_compose.get((out, e))
    return out


@pytest.mark.parametrize(
    "row, sides, survivors, want",
    [
        (["?", "?"], "1111", 1, ("solved", "[q1|1|1|1, q1|1|1|1]")),
        (
            ["?", "?"],
            "111z",
            0,
            (
                "UnsolvableSlot",
                "no thin square fits slot at r0c0: no candidate assignment reaches target "
                "SquareFaces(top='1', bottom='1', left='1', right='z')",
            ),
        ),
        (
            ["?", "qz|z|1|1"],
            "zz11",
            2,
            ("AmbiguousSlot", "slot at r0c0 admits ['q1|1|1|1', 'qz|z|1|1']"),
        ),
    ],
)
def test_assignment_search_outcomes(row, sides, survivors, want):
    # a one-row array on the zero-monoid box, with the target's sides pinned:
    # propagation leaves every '?' open, so solve tries each assignment of
    # thin candidates, and one, none or two of them reach the target
    model = zero_monoid_box()
    ts = thin.thin_set(model)
    env = Env(model)
    target = SquareFaces(*sides)
    step = parse(f"[{', '.join(row)}]")
    solver = dsl._Solver(model, env, lambda: ts)
    root = dsl._Node(step, "")
    for side in SquareFaces._fields:
        solver.set_side(root, side, getattr(target, side))
    dsl._propagate(solver, root)
    assert [cell.value for cell in root.rows[0] if cell.expr == Hole()] == [None] * row.count("?")
    sq = model.squares
    fits = [
        cells
        for cells in itertools.product(*(sorted(ts.members) if c == "?" else [c] for c in row))
        if all(sq[x].right == sq[y].left for x, y in zip(cells, cells[1:]))
        and (sq[cells[0]].left, sq[cells[-1]].right) == (target.left, target.right)
        and _row_run(model, [sq[c].top for c in cells]) == target.top
        and _row_run(model, [sq[c].bottom for c in cells]) == target.bottom
    ]
    assert len(fits) == survivors
    try:
        got = ("solved", to_text(solve(model, env, step, target=target, ts=ts)))
    except DslError as exc:
        got = (type(exc).__name__, str(exc))
    assert got == want


def test_four_open_slots_on_the_zero_monoid_box_match_brute_force():
    # propagation leaves all four '?' of [?, ?; ?, ?] open for every target;
    # the search gives what typechecking all 10^4 assignments gives: one
    # target solved, six unsolvable and nine ambiguous
    model = zero_monoid_box()
    ts = thin.thin_set(model)
    env = Env(model)
    reached = Counter()
    for a, b, c, d in itertools.product(sorted(ts.members), repeat=4):
        grid = Array(((Placed(a), Placed(b)), (Placed(c), Placed(d))))
        try:
            reached[typecheck(model, env, grid)] += 1
        except DslError:
            pass
    step = parse("[?, ?; ?, ?]")
    outcomes = Counter()
    for sides in itertools.product(sorted(model.edges), repeat=4):
        target = SquareFaces(*sides)
        want = {0: UnsolvableSlot, 1: "solved"}.get(reached[target], AmbiguousSlot)
        try:
            solved = solve(model, env, step, target=target, ts=ts)
        except (UnsolvableSlot, AmbiguousSlot) as exc:
            got = type(exc)
        else:
            assert typecheck(model, env, solved) == target
            got = "solved"
        assert got == want, target
        outcomes[got] += 1
    assert outcomes == {"solved": 1, UnsolvableSlot: 6, AmbiguousSlot: 9}


def _knockout_steps(model, rng, n):
    """``n`` seeded flat arrays up to 3x2 or 2x3 whose cells' faces fit, each
    with 1-3 cells blanked and a target: the array's outer faces, a square's
    shell or none.  A blanked operation cell becomes its '_' form or '?'; a
    blanked square becomes '?' or the '_' of any operation."""
    env = Env(model)
    leaves = []
    for leaf in _atoms(model):
        try:
            leaves.append((leaf, oracle_typecheck(model, env, leaf)))
        except (DslError, KeyError):
            pass
    shells_ = sorted(set(model.squares.values()))
    steps = []
    while len(steps) < n:
        rows, cols = rng.choice(((1, 2), (2, 1), (2, 2), (2, 3), (3, 2)))
        cells, faces = {}, {}
        for i, j in itertools.product(range(rows), range(cols)):
            pool = [
                (leaf, f)
                for leaf, f in leaves
                if (i == 0 or faces[i - 1, j].bottom == f.top)
                and (j == 0 or faces[i, j - 1].right == f.left)
            ]
            cells[i, j], faces[i, j] = rng.choice(pool)
        full = Array(tuple(tuple(cells[i, j] for j in range(cols)) for i in range(rows)))
        try:
            outer = oracle_typecheck(model, env, full)
        except (DslError, NotComposable):
            continue
        for i, j in rng.sample(sorted(cells), rng.randint(1, min(3, len(cells)))):
            cell = cells[i, j]
            if rng.random() < 0.5:
                cells[i, j] = Hole()
            elif isinstance(cell, OpLeaf):
                cells[i, j] = OpLeaf(cell.op, None)
            else:
                cells[i, j] = OpLeaf(rng.choice(("e1", "e2", "gm", "gp", "dd")), None)
        step = Array(tuple(tuple(cells[i, j] for j in range(cols)) for i in range(rows)))
        target = rng.choice((outer, outer, rng.choice(shells_), None))
        steps.append((step, target))
    return steps


def _solve_outcome(solver, model, env, step, target, ts):
    try:
        return ("solved", to_text(solver(model, env, step, target=target, ts=ts)))
    except DslError as exc:
        return (type(exc).__name__, str(exc))


def test_solve_search_matches_the_product_loop_oracle(zz2, shift2):
    # the pruned search gives what trying every assignment gives: the same
    # outcome type, message and solved text, on knockouts with '?' and '_'
    # blanks, where on the shift models several arguments place one square
    from cubal.models import parse_generator

    rng = random.Random(22)
    named = {
        "box(z2)": zz2,
        "box(z3)": parse_generator("box(z3)"),
        "box(indiscrete(2))": parse_generator("box(indiscrete(2))"),
        "shift(z2)": shift2,
        "klein shift": parse_generator("shift(prod(z2,z2))"),
        "zero-monoid box": zero_monoid_box(),
    }
    seen = Counter()
    for name, model in named.items():
        ts = thin.thin_set(model)
        env = Env(model)
        for step, target in _knockout_steps(model, rng, 200):
            want = _solve_outcome(oracle_solve, model, env, step, target, ts)
            got = _solve_outcome(solve, model, env, step, target, ts)
            assert got == want, (name, to_text(step), target)
            searched = target is not None and (
                want[0] == "AmbiguousSlot" or "no candidate assignment" in want[1]
            )
            seen[want[0], target is not None, searched] += 1
    # steps are solved with a target, and the search itself finds some
    # unsolvable and some ambiguous
    for kind in ("solved", "UnsolvableSlot", "AmbiguousSlot"):
        assert seen[kind, True, kind != "solved"], seen
    assert seen["AmbiguousSlot", False, False], seen


def test_solve_placeholder_arguments(zz2, zz2_thin):
    env = Env(zz2)
    u = square_key("1", "0", "1", "0")
    solved = solve(zz2, env, parse(f"[G+(_), {u}]"), ts=zz2_thin)
    # the slot holds the square solve placed, G+ of the inferred argument 1
    assert solved.rows[0][0] == Placed(zz2.gamma_plus["1"])
    assert evaluate(zz2, env, solved) == zz2.compose2[(zz2.gamma_plus["1"], u)]


def colmajor(model, grid):
    """The column-major fold: each column with +1, then the columns with +2."""
    cols = [functools.reduce(lambda a, b: model.compose1[(a, b)], col) for col in zip(*grid)]
    return functools.reduce(lambda a, b: model.compose2[(a, b)], cols)


def test_fold_order_independence(zz2, zz2_thin):
    env = Env(zz2)
    exprs = [
        "[G+(1), e2(1); e1(1), G+(1)]",
        "[G-(1), e1(1); e2(1), G-(1)]",
        f"[{square_key('1','0','1','0')}, {square_key('0','1','0','1')}; "
        f"{square_key('0','1','1','0')}, {square_key('1','0','0','1')}]",
    ]
    for text in exprs:
        expr = solve(zz2, env, parse(text), ts=zz2_thin)
        grid = cell_values(zz2, env, expr)
        assert evaluate(zz2, env, expr) == colmajor(zz2, grid)


def test_solver_recovers_knocked_out_cells(box_ind2):
    # take solved 2x2 arrays, blank one cell, and re-solve against the outer
    # shell: the recovered array must evaluate to the original composite
    import random

    from cubal.shells import all_cubes as _ac  # reuse cube plumbing for squares

    ts = thin.thin_set(box_ind2)
    env = Env(box_ind2)
    rng = random.Random(7)
    squares = sorted(box_ind2.squares)
    made = 0
    while made < 25:
        a = rng.choice(squares)
        bs = [s for s in squares if box_ind2.squares[s].left == box_ind2.squares[a].right]
        cs = [s for s in squares if box_ind2.squares[s].top == box_ind2.squares[a].bottom]
        if not bs or not cs:
            continue
        b = rng.choice(bs)
        c = rng.choice(cs)
        ds = [
            s
            for s in squares
            if box_ind2.squares[s].top == box_ind2.squares[b].bottom
            and box_ind2.squares[s].left == box_ind2.squares[c].right
        ]
        if not ds:
            continue
        d = rng.choice(ds)
        full = parse(f"[{a}, {b}; {c}, {d}]")
        want = evaluate(box_ind2, env, full)
        target = box_ind2.squares[want]
        cells = [a, b, c, d]
        knock = rng.randrange(4)
        cells[knock] = "?"
        text = f"[{cells[0]}, {cells[1]}; {cells[2]}, {cells[3]}]"
        solved = solve(box_ind2, env, parse(text), target=target, ts=ts)
        assert evaluate(box_ind2, env, solved) == want
        made += 1


def test_replay_single_step(zz2, zz2_thin):
    # one step checks no equality: the family must not read as a pass
    env = Env(zz2)
    for script in (["[G+(1), G-(1)]"], []):
        rep = replay(zz2, env, script, ts=zz2_thin)
        assert not rep.ok and rep.checked_count == {}
        assert rep.violations == [("step-equality", ("never checked",))]
        assert rep.notes == ["the chain has fewer than two steps"]


def test_replay_detects_mismatch(zz2, zz2_thin):
    env = Env(zz2)
    rep = replay(zz2, env, ["[G+(1), G-(1)]", "[e2(1)]"], ts=zz2_thin)
    assert not rep.ok
    assert rep.checked_count["step-equality"] == 1


def test_replay_compiles_a_solved_step(zz2, zz2_thin):
    # a step solve returned holds the square it placed as a Placed leaf;
    # replay compiles that leaf like any other
    env = Env(zz2)
    solved = solve(zz2, env, parse("[G+(1), G-(_)]"), ts=zz2_thin)
    assert to_text(solved) == "[G+(1), q1|0|1|0]"
    assert dsl._chain((solved,), zz2.is_groupoid()) is not None
    rep = replay(zz2, env, [solved, "[G+(1), G-(1)]"], ts=zz2_thin)
    assert rep.ok and rep.checked_count == {"step-equality": 1}
    rep = replay(zz2, env, [solved, "[e2(1)]"], ts=zz2_thin)
    want = evaluate(zz2, env, solved), zz2.eps2["1"]
    assert rep.notes == [f"step 0 -> 1: {want[0]!r} != {want[1]!r}"]


def test_replay_pinned_chains_sample(zz2, zz2_thin):
    comm = [c for c in all_cubes(zz2) if shells.is_commutative(zz2, c)]
    for d in (1, 2, 3):
        a = comm[3]
        b = next(c for c in comm if c.face(d, "-") == a.face(d, "+"))
        rep = replay_pinned(zz2, a, b, d, ts=zz2_thin)
        assert rep.ok, (d, rep.to_text())
        assert rep.checked_count["step-equality"] == len(pastings.PINNED_STEPS[d]) - 1


def test_replay_pinned_chains_on_shift(shift2):
    ts = thin.thin_set(shift2)
    comm = [c for c in all_cubes(shift2) if shells.is_commutative(shift2, c)]
    for d in (1, 2, 3):
        a = comm[1]
        b = next(c for c in comm if c.face(d, "-") == a.face(d, "+"))
        assert replay_pinned(shift2, a, b, d, ts=ts).ok


def test_replay_pinned_chains_on_klein_shift():
    # a larger group of non-thin squares; step equalities are non-trivial here
    from cubal.models import cyclic_group, product, shift_model

    k4 = shift_model(product(cyclic_group(2), cyclic_group(2)))
    ts = thin.thin_set(k4)
    comm = [c for c in all_cubes(k4) if shells.is_commutative(k4, c)]
    assert len(comm) < len(all_cubes(k4))
    for d in (1, 2, 3):
        for a in comm[:: len(comm) // 40]:
            b = next(c for c in comm if c.face(d, "-") == a.face(d, "+"))
            rep = replay_pinned(k4, a, b, d, ts=ts)
            assert rep.ok, rep.to_text()


def test_parse_script_structure():
    script = parse_script(
        """
# header comment
let x = [G+(1); G-(1)]
x
= e2(1)

[u]
"""
    )
    assert script == (
        ("let", "x", "[G+(1); G-(1)]"),
        ("chain", ("x", "= e2(1)".lstrip("= ").strip() if False else "e2(1)")),
        ("chain", ("[u]",)),
    )


def test_run_script_eval_and_replay(zz2):
    text = "let u = [G+(1); G-(1)]\nu\n= e2(1)\n"
    rep, outputs = run_script(zz2, text, mode="replay")
    assert rep.ok
    assert outputs == [[zz2.eps2["1"], zz2.eps2["1"]]]
    rep2, outputs2 = run_script(zz2, text, mode="eval")
    assert rep2.ok and outputs2 == outputs


def test_run_script_mismatch_reported(zz2):
    rep, _ = run_script(zz2, "[G+(1); G-(1)]\n= e1(1)\n", mode="replay")
    assert not rep.ok
