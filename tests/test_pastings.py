"""The pasting DSL: grammar, seams, the thin-slot solver, evaluation, replay."""
import functools

import pytest
from hypothesis import given, strategies as st

from cubal import pastings, shells, thin
from cubal.core import SquareFaces, compose
from cubal.errors import (
    AmbiguousSlot,
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
from cubal.shells import all_cubes, odd_composite_array


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


def test_parse_bounds_array_nesting(zz2):
    depth = pastings.MAX_NESTING
    assert depth == 100
    square = "q0|0|0|0"
    deep = parse("[" * depth + square + "]" * depth)
    assert evaluate(zz2, Env.for_model(zz2), deep) == square
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
    env = Env.for_model(zz2)
    expr = parse("[G+(1), e2(1); e1(1), G+(1)]")
    shell = typecheck(zz2, env, expr)
    # outer shell of the transport array is the shell of G+(1+1) = G+(0)
    assert shell == zz2.squares[zz2.gamma_plus["0"]]


def test_typecheck_seam_mismatch(zz2):
    env = Env.for_model(zz2)
    # bottom edge 1 against top edge 0
    bad = parse(f"[{square_key('1','1','0','0')}; {square_key('0','0','0','0')}]")
    with pytest.raises(SeamMismatch) as err:
        typecheck(zz2, env, bad)
    assert "r0c0" in str(err.value)


def test_refinement_guard_rejects_cross_seams(zz2):
    # flat rewriting of two stacked squares is rejected when the cross seams
    # are undefined, and the expression is never evaluated
    env = Env.for_model(zz2)
    a1 = square_key("1", "0", "1", "0")  # right edge 0
    b1 = square_key("1", "0", "0", "1")  # left edge 0... pick a mismatch pair
    bad_pair = square_key("1", "1", "1", "1")
    flat = Array(((Ref(a1), Ref(bad_pair)),))
    with pytest.raises(SeamMismatch):
        typecheck(zz2, env, flat)
    with pytest.raises(SeamMismatch):
        evaluate(zz2, env, flat)


def test_unbound_name(zz2):
    env = Env.for_model(zz2)
    with pytest.raises(UnboundName):
        typecheck(zz2, env, parse("[mystery]"))


def test_evaluate_single_and_cancellation(zz2):
    env = Env.for_model(zz2)
    u = square_key("1", "0", "1", "0")
    assert evaluate(zz2, env, parse(f"[{u}]")) == u
    assert evaluate(zz2, env, parse("[G+(1), G-(1)]")) == zz2.eps1["1"]
    assert evaluate(zz2, env, parse("[G+(1); G-(1)]")) == zz2.eps2["1"]


def test_evaluate_transport_instance(zz2):
    env = Env.for_model(zz2)
    got = evaluate(zz2, env, parse("[G-(1), e1(1); e2(1), G-(1)]"))
    assert got == zz2.gamma_minus["0"] == zz2.eps1["0"]


def test_solver_resolves_def23_odd_array(zz2, zz2_thin):
    # the unification oracle with the species the diagrams carry: argument
    # slots are inferred from the seams and land on the derived table
    env = Env.for_model(zz2)
    for cube in all_cubes(zz2)[::9]:
        want = odd_composite_array(zz2, cube)
        text = f"[G+(_), {cube.f1m}, G-(_); {cube.f3m}, {cube.f2p}, e2(_)]"
        solved = solve(zz2, env, parse(text), ts=zz2_thin)
        grid = pastings.array_square_grid(zz2, env, solved)
        assert grid == want


def test_solver_reports_anonymous_slot_ambiguity(zz2, zz2_thin):
    # with bare '?' slots several thin assignments fit the same boundary in
    # this degenerate model; the solver must list them, never pick one, and
    # every candidate assignment evaluates to the same composite
    env = Env.for_model(zz2)
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
    env = Env.for_model(zz2)
    dd = zz2.eps1["0"]
    solved = solve(
        zz2, env, parse("[?]"), target=zz2.squares[dd], ts=zz2_thin
    )
    assert evaluate(zz2, env, solved) == dd


def test_solve_non_commuting_target_unsolvable(zz2, zz2_thin):
    env = Env.for_model(zz2)
    bad = SquareFaces(left="1", bottom="0", top="0", right="0")
    with pytest.raises(UnsolvableSlot):
        solve(zz2, env, parse("[?]"), target=bad, ts=zz2_thin)


def test_hole_with_four_known_sides_reads_the_shell_index(corpus, shift2):
    # the by-shell lookup gives what filtering every thin square gives
    for model in (*corpus.values(), shift2):
        ts = thin.thin_set(model)
        solver = pastings._Solver(model, Env.for_model(model), ts)
        shells_ = set(model.squares.values())
        shells_.add(SquareFaces(*(sorted(model.edges)[0],) * 4))
        for shell in sorted(shells_):
            node = pastings._Node(Hole(), "")
            node.shell.update(shell._asdict())
            scan = {m: m for m in sorted(ts.members) if model.squares[m] == shell}
            assert solver.candidates(node) == scan


def test_solve_unconstrained_hole_is_ambiguous(zz2, zz2_thin):
    env = Env.for_model(zz2)
    with pytest.raises(AmbiguousSlot) as err:
        solve(zz2, env, parse("[?]"), ts=zz2_thin)
    assert len(err.value.candidates) == 8


def test_solve_placeholder_arguments(zz2, zz2_thin):
    env = Env.for_model(zz2)
    u = square_key("1", "0", "1", "0")
    solved = solve(zz2, env, parse(f"[G+(_), {u}]"), ts=zz2_thin)
    # the slot holds the square solve placed, G+ of the inferred argument 1
    assert solved.rows[0][0] == Placed(zz2.gamma_plus["1"])
    assert evaluate(zz2, env, solved) == zz2.compose2[(zz2.gamma_plus["1"], u)]


def colmajor(model, grid):
    """The column-major fold: each column with +1, then the columns with +2."""
    cols = [functools.reduce(lambda a, b: compose(model, 1, a, b), col) for col in zip(*grid)]
    return functools.reduce(lambda a, b: compose(model, 2, a, b), cols)


def test_fold_order_independence(zz2, zz2_thin):
    env = Env.for_model(zz2)
    exprs = [
        "[G+(1), e2(1); e1(1), G+(1)]",
        "[G-(1), e1(1); e2(1), G-(1)]",
        f"[{square_key('1','0','1','0')}, {square_key('0','1','0','1')}; "
        f"{square_key('0','1','1','0')}, {square_key('1','0','0','1')}]",
    ]
    for text in exprs:
        expr = solve(zz2, env, parse(text), ts=zz2_thin)
        grid = pastings.array_square_grid(zz2, env, expr)
        assert evaluate(zz2, env, expr) == colmajor(zz2, grid)


def test_solver_recovers_knocked_out_cells(box_ind2):
    # take solved 2x2 arrays, blank one cell, and re-solve against the outer
    # shell: the recovered array must evaluate to the original composite
    import random

    from cubal.shells import all_cubes as _ac  # reuse cube plumbing for squares

    ts = thin.thin_set(box_ind2)
    env = Env.for_model(box_ind2)
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
    env = Env.for_model(zz2)
    rep = replay(zz2, env, ["[G+(1), G-(1)]"], ts=zz2_thin)
    assert rep.ok and rep.checked_count == {}


def test_replay_detects_mismatch(zz2, zz2_thin):
    env = Env.for_model(zz2)
    rep = replay(zz2, env, ["[G+(1), G-(1)]", "[e2(1)]"], ts=zz2_thin)
    assert not rep.ok
    assert rep.checked_count["step-equality"] == 1


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
    assert script.items == (
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
