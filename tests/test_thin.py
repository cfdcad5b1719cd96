"""Thin structure: closure, fillers, T0-T3, thin equivalence and rigidity."""
import itertools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from thin_oracle import oracle_thin_set

from cubal import models, thin
from cubal.errors import MultipleThinFillers, NoThinFiller
from cubal.core import SquareFaces
from cubal.models import square_key
from cubal.thin import (
    ThinSet,
    check_thin_axioms,
    evaluate_witness,
    rigidity_check,
    thin_filler,
    thin_set,
    thinly_equivalent,
)


def test_closure_covers_all_squares_of_box_models(corpus):
    # every commuting shell in a commuting-squares model is a composite of
    # connections and identities
    for name, model in corpus.items():
        ts = thin_set(model)
        assert ts.members == frozenset(model.squares), name


def test_closure_of_trivial_model():
    m = models.square_model(models.trivial_category())
    assert thin_set(m).members == frozenset(m.squares)


def test_shift_thin_set_is_identity_only(shift2):
    ts = thin_set(shift2)
    assert ts.members == frozenset({"s0"})
    assert "s0" in ts and "s1" not in ts


def assert_same_thin_set(model):
    got, want = thin_set(model), oracle_thin_set(model)
    assert list(got.witness.items()) == list(want.witness.items())
    assert got.by_shell == want.by_shell
    assert got.members == want.members


def test_thin_set_matches_oracle(corpus, shift2):
    for model in (*corpus.values(), shift2, models.parse_generator("shift(prod(z2,z2))")):
        assert_same_thin_set(model)


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_thin_set_matches_oracle_on_mutants(zz2, data):
    # redirect, drop or add one composition entry, or redirect one seed of the
    # closure; the new value is a square of the model
    squares = sorted(zz2.squares)
    table = data.draw(st.sampled_from(
        ("compose1", "compose2", "eps1", "eps2", "gamma_minus", "gamma_plus")))
    entries = dict(getattr(zz2, table))
    composition = table.startswith("compose")
    action = data.draw(st.sampled_from(("redirect", "drop", "add") if composition else ("redirect",)))
    if action == "add":
        key = (data.draw(st.sampled_from(squares)), data.draw(st.sampled_from(squares)))
    else:
        key = data.draw(st.sampled_from(sorted(entries)))
    if action == "drop":
        del entries[key]
    else:
        entries[key] = data.draw(st.sampled_from(squares))
    assert_same_thin_set(replace(zz2, **{table: entries}))


def test_witnesses_evaluate_to_their_members(zz2, zz2_thin):
    for member, witness in zz2_thin.witness.items():
        assert evaluate_witness(zz2, witness) == member


def test_cancellation_witness_evaluates_to_eps2(zz2):
    # the composite gp(1) +1 gm(1) as a witness tree lands on eps2(1)
    assert evaluate_witness(zz2, ("c1", ("gp", "1"), ("gm", "1"))) == zz2.eps2["1"]


def test_thin_filler_unique_per_commuting_shell(zz2, zz2_thin):
    got = thin_filler(zz2, SquareFaces(left="1", bottom="1", top="0", right="0"), zz2_thin)
    # the corner square with the connection flavour: both composites land on it
    assert got == square_key("0", "1", "1", "0")
    assert got == zz2.compose2[(zz2.gamma_minus["1"], zz2.eps1["1"])]


def test_thin_filler_of_degenerate_shell(zz2, zz2_thin):
    dd = zz2.eps1["0"]
    assert thin_filler(zz2, zz2.squares[dd], zz2_thin) == dd


def test_thin_filler_missing_raises(shift2):
    # the shift model has a unique shell; a foreign shell has no filler
    ts = thin_set(shift2)
    with pytest.raises(NoThinFiller):
        thin_filler(shift2, SquareFaces(left="e", bottom="e", top="missing", right="e"), ts)


def test_multiple_fillers_detected():
    # gluing a duplicate thin square onto shift2 by hand would break T1;
    # simulate by feeding a by-shell index with two members
    from cubal.thin import ThinSet

    fake = ThinSet(
        members=frozenset({"s0", "s1"}),
        witness={},
        by_shell={SquareFaces("e", "e", "e", "e"): ("s0", "s1")},
    )
    with pytest.raises(MultipleThinFillers):
        thin_filler(None, SquareFaces(left="e", bottom="e", top="e", right="e"), fake)


def test_thin_axioms_pass_corpus(corpus):
    for name, model in corpus.items():
        rep = check_thin_axioms(model)
        assert rep.ok, name
        assert rep.checked_count["T1-unique-thin-filler"] > 0
        assert rep.checked_count["T3-relative-homotopy-is-identity"] > 0
        assert not rep.notes  # no variant identity forms on the corpus


def test_thin_axioms_pass_shift(shift2):
    assert check_thin_axioms(shift2).ok


def declared_thin(model, members):
    """A thin set that takes ``members`` as given, closed or not."""
    by_shell = {}
    for s in sorted(members):
        by_shell.setdefault(model.squares[s], []).append(s)
    return ThinSet(
        members=frozenset(members),
        witness={},
        by_shell={shell: tuple(v) for shell, v in by_shell.items()},
    )


def test_thin_axioms_fail_on_a_declared_thin_set(shift2):
    # both squares of shift(z2) share the one shell: declaring s1 thin too
    # gives that shell two fillers, and s1 is a relative homotopy that is no
    # identity
    rep = check_thin_axioms(shift2, declared_thin(shift2, {"s0", "s1"}))
    assert rep.violations == [
        ("T1-unique-thin-filler", ("e", "e", "e", "e", "fillers=2")),
        ("T3-relative-homotopy-is-identity", ("s1",)),
    ]
    assert not rep.notes
    # s1 alone: the identity square s0 is not thin, and s1 s1 = s0 leaves
    # the set in both directions
    rep = check_thin_axioms(shift2, declared_thin(shift2, {"s1"}))
    assert rep.violations == [
        ("T2-identities-thin", ("e",)),
        ("T2-composition-closed", ("s1", "s1", "s0")),
        ("T2-composition-closed", ("s1", "s1", "s0")),
        ("T3-relative-homotopy-is-identity", ("s1",)),
    ]
    # with s1 the horizontal identity of e, T3 notes it as a variant form
    variant = replace(shift2, eps2={"e": "s1"})
    rep = check_thin_axioms(variant, declared_thin(variant, {"s0", "s1"}))
    assert rep.violations == [("T1-unique-thin-filler", ("e", "e", "e", "e", "fillers=2"))]
    assert rep.notes == ["T3: s1 is an identity square of a variant form"]


def test_thin_axioms_fail_when_edges_stop_composing(zz2):
    # 0 then 1 composing to 0 leaves the shells of q0|0|1|1 and q1|1|0|0
    # non-commuting, though both squares stay in the model's own thin set
    edge_compose = {**zz2.edge_compose, ("0", "1"): "0"}
    model = replace(zz2, edge_compose=edge_compose)
    rep = check_thin_axioms(model, thin_set(model))
    failed = {}
    for family, witness in rep.violations:
        failed.setdefault(family, set()).add(witness)
    both = {("q0|0|1|1",), ("q1|1|0|0",)}
    assert failed["T0-thin-boundary-commutes"] == both
    assert failed["T0-no-filler-for-noncommuting"] == both


def test_thinly_equivalent_reflexive(zz2, zz2_thin):
    for s in sorted(zz2.squares):
        assert thinly_equivalent(zz2, s, s, ts=zz2_thin) is True


def test_thinly_equivalent_requires_equal_shells(zz2, zz2_thin):
    with pytest.raises(ValueError):
        thinly_equivalent(zz2, zz2.eps1["1"], zz2.eps2["1"], ts=zz2_thin)


def test_thinly_equivalent_never_joins_distinct_shift_squares(shift2):
    # distinct squares over the same shell: false or unknown, never true
    ts = thin_set(shift2)
    assert thinly_equivalent(shift2, "s0", "s1", ts=ts) is False
    assert thinly_equivalent(shift2, "s1", "s0", ts=ts) is False


def test_thinly_equivalent_budget_returns_unknown(shift2, monkeypatch):
    ts = thin_set(shift2)
    monkeypatch.setattr(thin, "EQUIVALENCE_BUDGET", 0)
    assert thinly_equivalent(shift2, "s0", "s1", ts=ts) is None


def test_rigidity_zz2(zz2):
    rep = rigidity_check(zz2)
    assert rep.ok
    assert rep.checked_count["rigidity"] == 8  # one pair per square, shells unique
    assert "rigidity-unknown" not in rep.checked_count


def test_rigidity_shift(shift2):
    rep = rigidity_check(shift2)
    assert rep.ok
    assert rep.checked_count["rigidity"] == 4


def test_rigidity_fails_where_a_square_has_a_clone(zz2):
    # a copy of s composes as s does, so a cube from s to its copy commutes
    # wherever one from s to s does: two squares thinly equivalent, not equal
    # (no double groupoid: the copy is no unit's composite)
    s = square_key("1", "0", "1", "0")
    copy = s + "'"

    def with_copy(table):
        out = dict(table)
        for (x, y), xy in table.items():
            for pair in itertools.product({x, copy if x == s else x}, {y, copy if y == s else y}):
                out.setdefault(pair, xy)
        return out

    model = replace(
        zz2,
        squares={**zz2.squares, copy: zz2.squares[s]},
        compose1=with_copy(zz2.compose1),
        compose2=with_copy(zz2.compose2),
    )
    rep = rigidity_check(model)
    assert rep.violations == [("rigidity", (s, copy)), ("rigidity", (copy, s))]
    assert rep.checked_count["rigidity"] == 8 - 1 + 4


def test_rigidity_reports_pairs_past_the_budget_as_unknown():
    # 32 squares on the one shell of a one-edge model, all thin because eps1
    # of the edge generates them under both compositions (Z/32, so no
    # double groupoid): 32^4 candidate cubes per pair exceed the 10^6 budget
    n = 32
    base = models.square_model(models.cyclic_group(1))
    (edge,) = base.edges
    (shell,) = set(base.squares.values())
    squares = {f"t{i:02}": shell for i in range(n)}
    add = {(f"t{i:02}", f"t{j:02}"): f"t{(i + j) % n:02}" for i in range(n) for j in range(n)}
    model = replace(
        base, squares=squares, compose1=add, compose2=add,
        eps1={edge: "t01"}, eps2={edge: "t00"}, gamma_minus={edge: "t00"}, gamma_plus={edge: "t00"},
        inverse1={}, inverse2={},
    )
    assert thin_set(model).members == frozenset(squares)
    rep = rigidity_check(model)
    # no pair was decided, so rigidity was never checked: the report fails
    assert rep.checked_count == {"rigidity-unknown": n * n}
    assert rep.notes == [
        f"{n * n} pairs exceeded the search budget (unknown)",
        "no pair was decided within the search budget",
    ]
    assert rep.violations == [("rigidity", ("never checked",))]
    assert not rep.ok


def test_morphisms_preserve_thinness(box_ind2, box_ind3):
    obj_map = {"0": "0", "1": "1"}
    arrow_map = {a: a for a in models.indiscrete_groupoid(2).arrows}
    f = models.induced_square_morphism(obj_map, arrow_map, box_ind2, box_ind3)
    ts2 = thin_set(box_ind2)
    ts3 = thin_set(box_ind3)
    for s in sorted(box_ind2.squares):
        if s in ts2:
            assert f.f2[s] in ts3
