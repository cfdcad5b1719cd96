"""The glue path: square models, coproducts and quotients.

The builders against their earlier per-mention versions in
``glue_oracle.py`` (equal models, identical ``.dgc`` text); one name string
per cell, shared by every table that mentions it; malformed input raising
``MalformedModel``; and the coequaliser's trajectory, pinned by its counters
and by the earlier associativity and interchange rules queuing the same
merges on the instances designated to each row.
"""
from dataclasses import replace

import pytest

from cubal import colimits, models
from cubal.core import EDG, OBJ, OPS, SQR, DoubleGC, EdgeEnds
from cubal.errors import MalformedModel
from cubal.modelio import write_model
from glue_oracle import (
    designated_assoc,
    designated_interchange,
    oracle_coproduct,
    oracle_extract,
    oracle_forced,
    oracle_run_assoc,
    oracle_run_interchange,
    oracle_square_model,
    unforced,
)
from test_coeq_oracle import builder_corpus, glue_at_point
from test_golden import COEQ_PAIRS, _interval_loop_pair, _vk_pair


def absorbing_monoid() -> models.FiniteCategory:
    """The monoid {1, z} with z absorbing: a category that is not a groupoid."""
    table = {(x, y): "1" if x == y == "1" else "z" for x in "1z" for y in "1z"}
    one = EdgeEnds("o", "o")
    return models.FiniteCategory(("o",), {"1": one, "z": one}, table, {"o": "1"})


z2 = models.cyclic_group(2)
# the conftest corpus by name, then the larger and the non-groupoid cases
CATEGORIES = {
    "z2": lambda: z2,
    "z3": lambda: models.cyclic_group(3),
    "z2xz2": lambda: models.product(z2, z2),
    "ind2": lambda: models.indiscrete_groupoid(2),
    "ind3": lambda: models.indiscrete_groupoid(3),
    "z2+z3": lambda: models.disjoint_union(z2, models.cyclic_group(3)),
    "ind5": lambda: models.indiscrete_groupoid(5),
    "absorbing": absorbing_monoid,
}


def assert_same_model(new: DoubleGC, old: DoubleGC) -> None:
    assert new == old
    assert write_model(new) == write_model(old)


def assert_same_maps(new, old) -> None:
    assert (new.f0, new.f1, new.f2) == (old.f0, old.f1, old.f2)


# -- the builders against their oracles ------------------------------------------


def test_categories_cover_the_corpus(corpus):
    assert set(corpus) <= set(CATEGORIES)


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_square_model_matches_all_pairs_oracle(name):
    cat = CATEGORIES[name]()
    assert_same_model(models.square_model(cat), oracle_square_model(cat))


def test_coproduct_matches_per_mention_oracle(corpus):
    families = [
        list(corpus.values()),
        [models.square_model(models.indiscrete_groupoid(5)), corpus["ind3"]],
        [models.square_model(absorbing_monoid()), corpus["z2"]],  # kind "category"
    ]
    for family in families:
        new, new_inj = colimits.coproduct(family)
        old, old_inj = oracle_coproduct(family)
        assert_same_model(new, old)
        assert len(new_inj) == len(old_inj) == len(family)
        for a, b in zip(new_inj, old_inj):
            assert_same_maps(a, b)


@pytest.mark.parametrize("name", sorted(COEQ_PAIRS))
def test_quotient_matches_per_mention_oracles(name, monkeypatch):
    # the pair built by the earlier square_model and coproduct, the quotient
    # read by the earlier extract: the same run, the same model, the same maps
    pair, budget = COEQ_PAIRS[name]
    new = colimits.coequalise(*pair(), budget=budget)
    with monkeypatch.context() as m:
        m.setattr(models, "square_model", oracle_square_model)
        m.setattr(colimits, "square_model", oracle_square_model)
        m.setattr(colimits, "coproduct", oracle_coproduct)
        old_pair = pair()
    old = colimits.coequalise(*old_pair, budget=budget)
    assert (new.status, new.generators_added, new.stats) == (
        old.status, old.generators_added, old.stats
    )
    if new.status == "finite":
        old_model, old_projection = oracle_extract(old.engine)
        assert_same_model(new.object, old_model)
        assert_same_maps(new.projection, old_projection)


# -- one name string per cell -----------------------------------------------------


def assert_shared(model: DoubleGC, *maps) -> None:
    """Every name in every table, face and map is the string its cell is filed under."""
    filed = (
        {o: o for o in model.objects},
        {e: e for e in model.edges},
        {s: s for s in model.squares},
    )

    def same(dim: int, x: str) -> None:
        assert filed[dim][x] is x, f"{x!r} is a copy of the name it is filed under"

    for ends in model.edges.values():
        for x in ends:
            same(OBJ, x)
    for faces in model.squares.values():
        for x in faces:
            same(EDG, x)
    for op in OPS:
        for k, v in model.table(op.tag).items():
            for x in op.args(k):
                same(op.arg, x)
            same(op.value, v)
    for m in maps:
        for dim, f in enumerate((m.f0, m.f1, m.f2)):
            for x in f.values():
                same(dim, x)


def test_square_model_shares_each_cell_name():
    assert_shared(models.square_model(models.indiscrete_groupoid(3)))


def test_coproduct_shares_each_cell_name(box_ind3, zz2):
    out, injections = colimits.coproduct([box_ind3, zz2, box_ind3])
    assert_shared(out, *injections)


def test_quotient_shares_each_cell_name():
    q = colimits.coequalise(*_vk_pair(3, ["01", "12"]))
    assert q.status == "finite"
    assert_shared(q.object, q.projection)


# -- malformed input --------------------------------------------------------------


def test_coproduct_of_a_table_naming_a_missing_cell(zz2):
    bad = replace(zz2, compose1={**zz2.compose1, next(iter(zz2.compose1)): "no-such-square"})
    with pytest.raises(MalformedModel, match="no-such-square"):
        colimits.coproduct([zz2, bad])


def test_square_model_of_a_non_associative_category():
    # one object, arrows 1, a, b, every product of two non-units the unit:
    # (a a) b = b but a (a b) = a, so a commuting square over a and one over
    # b compose into a shell that does not commute
    one = EdgeEnds("o", "o")
    table = {(x, y): y if x == "1" else x if y == "1" else "1" for x in "1ab" for y in "1ab"}
    cat = models.FiniteCategory(("o",), {x: one for x in "1ab"}, table, {"o": "1"})
    with pytest.raises(MalformedModel, match="commuting square"):
        models.square_model(cat)


# -- the coequaliser's trajectory -------------------------------------------------


def _shift_z2_box_ind2_pair():
    # a non-thin square carried along two edges: stored square rows, so
    # interchange runs
    box_ind2 = models.square_model(models.indiscrete_groupoid(2))
    return glue_at_point(models.shift_model(z2), box_ind2)


@pytest.mark.parametrize(
    "pair, status, added, stats, visits",
    [
        (lambda: _vk_pair(4, ["012", "123"]), "finite", 140, (326, 660), (260, 15, 0, 0)),
        (lambda: _vk_pair(5, ["012", "234"]), "finite", 608, (794, 1505), (532, 64, 0, 0)),
        (_interval_loop_pair, "budget_exceeded", 19979, (20001, 19049), (3253, 1165, 0, 0)),
        (_shift_z2_box_ind2_pair, "finite", 1380, (1406, 478), (2164, 204, 2132, 365)),
    ],
    ids=["vk_ind4", "vk_ind5", "interval_loop", "shift_z2_box_ind2"],
)
def test_engine_trajectory_is_pinned(pair, status, added, stats, visits, monkeypatch):
    # every rule visit queues what the earlier every-row rule queues for the
    # instances designated to that row, in its order; the visits and merges
    # of each rule and the run's counters stay as recorded
    counts = []

    def checked(name, oracle, designated):
        rule = getattr(colimits._Engine, name)
        count = [0, 0]  # visits, merges queued
        counts.append(count)

        def both(engine, op, key):
            start = len(engine.queue)
            oracle(engine, op, key, designated)
            want = list(engine.queue)[start:]
            while len(engine.queue) > start:
                engine.queue.pop()
            rule(engine, op, key)
            assert list(engine.queue)[start:] == want
            count[0] += 1
            count[1] += len(want)

        monkeypatch.setattr(colimits._Engine, name, both)

    checked("_run_assoc", oracle_run_assoc, designated_assoc)
    checked("_run_interchange", oracle_run_interchange, designated_interchange)
    q = colimits.coequalise(*pair())
    assert tuple(counts[0] + counts[1]) == visits
    elements, rows = stats
    assert (q.status, q.generators_added) == (status, added)
    assert q.stats == {"elements": elements, "budget": colimits.DEFAULT_BUDGET, "rows": rows}
    if q.status == "finite":
        # at the fixpoint no instance fails, visited from any of its rows
        engine = q.engine
        for key in list(engine.sig):
            if len(key) == 3:
                oracle_run_assoc(engine, key[0], key)
                if key[0] != "ce":
                    oracle_run_interchange(engine, key[0], key)
        assert not engine.queue
        assert_partners_complete(engine)


def assert_partners_complete(engine) -> None:
    """``_partners`` against a scan of every stored row and every thin pair
    that ``_thin_composite`` fills: the rule oracles read partners through
    ``_partners`` too, so they alone cannot see a partner it misses."""
    want: dict[tuple, list] = {}
    for key, value in engine.sig.items():
        if len(key) == 3:
            for side in (0, 1):
                want.setdefault((key[0], key[1 + side], side), []).append((key[2 - side], value))
    for comp in colimits._COMPS_OF[SQR]:
        for a in engine.thin:
            for b in engine.thin:
                ab = engine._thin_composite(comp, a, b)
                if ab is not None:
                    want.setdefault((comp.op, a, 0), []).append((b, ab))
                    want.setdefault((comp.op, b, 1), []).append((a, ab))
    for dim in (EDG, SQR):
        for comp in colimits._COMPS_OF[dim]:
            for x in engine.roots(dim):
                for side in (0, 1):
                    got = sorted(engine._partners(comp.op, x, side))
                    assert got == sorted(want.get((comp.op, x, side), [])), (comp.op, x, side)


@pytest.mark.parametrize(
    "pair",
    [
        lambda: _vk_pair(4, ["012", "123"]),
        lambda: _vk_pair(5, ["012", "234"]),
        _shift_z2_box_ind2_pair,
        lambda: _vk_pair(3, ["01", "12"]),
        lambda: _vk_pair(4, ["01", "12", "23"]),
    ],
    ids=["vk_ind4", "vk_ind5", "shift_z2_box_ind2", "vk_ind3_01_12", "vk_ind4_01_12_23"],
)
def test_engine_orders_and_thin_index_hold(pair):
    # the finite trajectory cases and two more vK covers: what the engine
    # reads instead of storing it twice holds on the finished engine
    q = colimits.coequalise(*pair())
    assert q.status == "finite"
    engine = q.engine
    for dim, cells in enumerate(engine.base.cells()):
        # base cells in sorted name order, before every fresh element
        names, origin = sorted(cells), engine.origin[dim]
        assert [o[1] for o in origin[: len(names)] if o[0] == "b"] == names
        assert all(o[0] != "b" for o in origin[len(names):])
        # a root is the least index of its class
        assert all(engine.find(dim, i) <= i for i in range(len(origin)))
    # every thin root is filed under its canonical shell, which is its bound
    at: dict[tuple[int, int], set[int]] = {}
    for s in engine.thin:
        shell = engine.bounds[SQR][s]
        assert shell == tuple(engine.find(EDG, x) for x in shell)
        assert engine.thin_index[shell] == s
        for slot, e in enumerate(shell):
            at.setdefault((slot, e), set()).add(s)
    assert len(engine.thin_index) == len(engine.thin)
    # thin_at holds exactly the filed squares with each face
    assert {k: v for k, v in engine.thin_at.items() if v} == at


def test_one_pass_uniqueness_matches_the_fixpoint():
    # the finite builder-corpus quotients, then one engine with a root whose
    # record names its own class, so that the unforced path is compared too
    engines = []
    for pair, budget in builder_corpus().values():
        q = colimits.coequalise(*pair(), budget=budget)
        if q.status == "finite":
            engines.append(q.engine)
    patched = colimits.coequalise(*_vk_pair(4, ["012", "123"])).engine
    root = next(r for r in patched.roots(SQR) if patched.origin[SQR][r][0] in ("c1", "c2"))
    op, _, b = patched.origin[SQR][root]
    patched.origin[SQR][root] = (op, root, b)
    engines.append(patched)
    for engine in engines:
        for dim in (OBJ, EDG, SQR):
            forced = set(engine.roots(dim)) - set(unforced(engine, dim))
            assert forced == oracle_forced(engine, dim)
    assert root in unforced(patched, SQR)
