"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

All tolerances are exact (table equality on finite models); the runtime
bounds are the stated ones.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""
import time
from dataclasses import replace

from cubal import core, models, pastings, shells, thin
from cubal.colimits import (
    coequalise,
    coproduct,
    iso_check,
    pushout,
    vk_harness,
    vk_sequence,
)
from cubal.models import (
    cyclic_group,
    disjoint_union,
    full_sub_double,
    indiscrete_groupoid,
    square_key,
    square_model,
    trivial_category,
)
from cubal.morphisms import DoubleMorphism, identity_morphism
from glue_oracle import check_universal


def announce(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} acceptance-{criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_axiom_suite(corpus):
    t0 = time.monotonic()
    failures = []
    families = set()
    for name, model in corpus.items():
        rep = core.validate(model)
        families.update(rep.checked_count)
        if not rep.ok:
            failures.append((name, rep.violations[:2]))
    elapsed = time.monotonic() - t0
    for must in ("transport", "cancellation", "interchange", "double-degeneracy"):
        assert must in families
    announce(
        "1-axiom-suite",
        not failures and elapsed < 10.0,
        f"6 models, {elapsed:.2f}s",
    )


def test_criterion_2_theorem25(zz2, box_ind3):
    t0 = time.monotonic()
    rep = shells.theorem25_harness(zz2, exhaustive=True)
    ok = rep.ok and all(
        rep.checked_count[f"closure-dir{d}"] == 2048 for d in (1, 2, 3)
    )
    rep_big = shells.theorem25_harness(box_ind3, exhaustive=False, samples=10000, seed=0)
    ok = ok and rep_big.ok
    ok = ok and all(
        rep_big.checked_count[f"closure-dir{d}"] == 10000 for d in (1, 2, 3)
    )
    elapsed = time.monotonic() - t0
    announce(
        "2-theorem25",
        ok and elapsed < 60.0,
        f"exhaustive 3x2048 + sampled 3x10000, {elapsed:.2f}s",
    )


def test_criterion_3_hcl_equivalence(zz2):
    rep = shells.hcl_agreement(zz2, exhaustive=True)
    ok = (
        rep.ok
        and rep.checked_count["hcl-agreement"] == 128
        and rep.checked_count["shared-boundary-shell"] == 128
    )
    announce("3-hcl-equivalence", ok, "128 cubes, 100% agreement")


def test_criterion_4_thin_structure(corpus):
    ok = True
    detail = []
    for name, model in corpus.items():
        ts = thin.thin_set(model)
        rep = thin.check_thin_axioms(model, ts)
        covered = ts.members == frozenset(model.squares)
        fillers = rep.checked_count.get("T1-unique-thin-filler", 0)
        ok = ok and rep.ok and covered and fillers > 0
        detail.append(f"{name}:{fillers}")
    announce("4-thin-structure", ok, "T1 shells checked " + " ".join(detail))


def test_criterion_5_rigidity(zz2):
    rep = thin.rigidity_check(zz2)
    ok = (
        rep.ok
        and rep.checked_count["rigidity"] == 8
        and "rigidity-unknown" not in rep.checked_count
    )
    announce("5-rigidity", ok, "all equal-shell pairs, no unknowns")


def test_criterion_6_derivation_replay(zz2, zz2_thin):
    t0 = time.monotonic()
    comm = [c for c in shells.all_cubes(zz2) if shells.is_commutative(zz2, c)]
    by_minus = {d: {} for d in (1, 2, 3)}
    for c in comm:
        for d in (1, 2, 3):
            by_minus[d].setdefault(c.face(d, "-"), []).append(c)
    totals = {}
    failures = 0
    for d in (1, 2, 3):
        n = 0
        for a in comm:
            for b in by_minus[d].get(a.face(d, "+"), ()):
                rep = pastings.replay_pinned(zz2, a, b, d, ts=zz2_thin)
                failures += not rep.ok
                n += 1
        totals[d] = n
    elapsed = time.monotonic() - t0
    ok = failures == 0 and all(totals[d] == 2048 for d in (1, 2, 3))
    announce(
        "6-derivation-replay",
        ok,
        f"+1/+2/+3 chains over {sum(totals.values())} pairs, {elapsed:.1f}s",
    )


def _canonical_untag(source, full):
    return DoubleMorphism(
        source=source,
        target=full,
        f0={o: o.split(".", 1)[1] for o in source.objects},
        f1={e: e.split(".", 1)[1] for e in source.edges},
        f2={s: s.split(".", 1)[1] for s in source.squares},
    )


def _collapse(source):
    triv = square_model(trivial_category())
    return DoubleMorphism(
        source=source,
        target=triv,
        f0={o: "o" for o in source.objects},
        f1={e: "0" for e in source.edges},
        f2={s: "q0|0|0|0" for s in source.squares},
    )


def test_criterion_7_universal_property(corpus, shift2):
    triples = 0
    failures = []

    def check(setup_name, q, f):
        nonlocal triples
        triples += 1
        rep = check_universal(q, f)
        if not rep.ok:
            failures.append((setup_name, rep.violations[:2]))

    # identity coequalisers over the corpus
    for name, model in corpus.items():
        idm = identity_morphism(model)
        q = coequalise(idm, idm)
        check(name, q, q.projection)
        check(name, q, _collapse(model))
        check(name, q, identity_morphism(model))

    # cover coequalisers, including disjoint and duplicated covers
    vk_setups = [
        (indiscrete_groupoid(2), [["0", "1"]]),
        (indiscrete_groupoid(2), [["0"], ["1"]]),
        (indiscrete_groupoid(2), [["0", "1"], ["0", "1"]]),
        (indiscrete_groupoid(3), [["0", "1"], ["1", "2"]]),
        (indiscrete_groupoid(3), [["0", "1", "2"], ["1", "2"]]),
        (indiscrete_groupoid(3), [["0", "1", "2"], ["0", "1", "2"]]),
        (indiscrete_groupoid(4), [["0", "1", "2"], ["1", "2", "3"]]),
        (indiscrete_groupoid(4), [["0", "1"], ["1", "2"], ["2", "3"]]),
        (disjoint_union(cyclic_group(2), cyclic_group(3)), [["0.o"], ["1.o"]]),
    ]
    for cat, cover in vk_setups:
        name = f"vk{len(cat.objects)}-{len(cover)}"
        a, b, full = vk_sequence(cat, cover)
        q = coequalise(a, b)
        assert q.status == "finite"
        check(name, q, q.projection)
        check(name, q, _collapse(a.target))
        check(name, q, _canonical_untag(a.target, full))

    # a collapsing pair and the shift gluing
    zz2 = corpus["z2"]
    folded = models.induced_square_morphism(
        {"o": "o"}, {"0": "0", "1": "0"}, zz2, zz2
    )
    q = coequalise(identity_morphism(zz2), folded)
    check("fold", q, q.projection)
    check("fold", q, _collapse(zz2))
    check("fold", q, folded)  # idempotent, so it equalises the pair

    idq = coequalise(identity_morphism(zz2), identity_morphism(zz2))
    check("z2-id-fold", idq, folded)

    triv = square_model(trivial_category())
    inc = DoubleMorphism(
        source=triv, target=shift2, f0={"o": "o"}, f1={"0": "e"}, f2={"q0|0|0|0": "s0"}
    )
    summ, (ib, ic) = coproduct([shift2, shift2])
    from cubal.morphisms import compose_morphisms

    q = coequalise(compose_morphisms(inc, ib), compose_morphisms(inc, ic), budget=2000)
    check("shift-glue", q, q.projection)
    check("shift-glue", q, _collapse(summ))

    announce(
        "7-universal-property",
        triples >= 50 and not failures,
        f"{triples} (a,b,f) triples, {len(failures)} failures",
    )


def test_criterion_8_van_kampen(box_ind2):
    t0 = time.monotonic()
    cat = indiscrete_groupoid(4)
    rep, result = vk_harness(cat, [["0", "1", "2"], ["1", "2", "3"]])
    ok = rep.ok and result.status == "finite"
    ok = ok and core.validate(result.object).ok

    # the two-set pushout route must agree
    full = square_model(cat)
    sub_u, _ = full_sub_double(full, ["0", "1", "2"])
    sub_v, _ = full_sub_double(full, ["1", "2", "3"])
    overlap, _ = full_sub_double(full, ["1", "2"])
    keep = lambda target: DoubleMorphism(
        source=overlap,
        target=target,
        f0={o: o for o in overlap.objects},
        f1={e: e for e in overlap.edges},
        f2={s: s for s in overlap.squares},
    )
    push, _, _ = pushout(keep(sub_u), keep(sub_v))
    ok = ok and push.status == "finite"
    ok = ok and iso_check(push.object, result.object) is not None
    ok = ok and iso_check(push.object, full) is not None
    elapsed = time.monotonic() - t0
    announce("8-van-kampen", ok and elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_9_negative_controls(zz2):
    K = square_key
    mutations = {}

    def mutate(name, field, table, expect):
        mutations[name] = (replace(zz2, **{field: table}), expect)

    ec = dict(zz2.edge_compose)
    ec[("1", "1")] = "1"
    mutate("edge-compose-redirect", "edge_compose", ec, "edge-inverse")
    ec2 = dict(zz2.edge_compose)
    del ec2[("0", "1")]
    mutate("edge-compose-drop", "edge_compose", ec2, "edge-composability")
    c1 = dict(zz2.compose1)
    c1[(K("1", "1", "0", "0"), K("1", "1", "0", "0"))] = K("1", "1", "1", "1")
    mutate("compose1-redirect", "compose1", c1, "square1-associativity")
    c2 = dict(zz2.compose2)
    c2[(K("1", "0", "1", "0"), K("0", "0", "0", "0"))] = K("0", "1", "1", "0")
    mutate("compose2-redirect", "compose2", c2, "interchange")
    e = dict(zz2.eps)
    e["o"] = "1"
    mutate("eps-redirect", "eps", e, "edge-identity")
    e1 = dict(zz2.eps1)
    e1["1"] = K("0", "0", "0", "0")
    mutate("eps1-redirect", "eps1", e1, "square1-identity-faces")
    e1b = dict(zz2.eps1)
    e1b["0"] = K("1", "1", "0", "0")
    mutate("double-degeneracy-redirect", "eps1", e1b, "double-degeneracy")
    e2 = dict(zz2.eps2)
    e2["1"] = K("0", "0", "0", "0")
    mutate("eps2-redirect", "eps2", e2, "square2-identity-faces")
    gm = dict(zz2.gamma_minus)
    gm["1"] = K("0", "0", "0", "0")
    mutate("gamma-minus-redirect", "gamma_minus", gm, "connection-boundary")
    gp = dict(zz2.gamma_plus)
    gp["1"] = K("0", "1", "1", "0")
    mutate("gamma-plus-redirect", "gamma_plus", gp, "cancellation")
    ei = dict(zz2.edge_inverse)
    ei["1"] = "0"
    mutate("edge-inverse-redirect", "edge_inverse", ei, "edge-inverse")
    i1 = dict(zz2.inverse1)
    i1[K("1", "0", "1", "0")] = K("1", "0", "1", "0")
    mutate("inverse1-redirect", "inverse1", i1, "square1-inverse")
    i2 = dict(zz2.inverse2)
    i2[K("1", "0", "1", "0")] = K("1", "0", "1", "0")
    mutate("inverse2-redirect", "inverse2", i2, "square2-inverse")

    missed = []
    for name, (model, expect) in mutations.items():
        rep = core.validate(model)
        fams = {f for f, _ in rep.violations}
        if rep.ok or expect not in fams:
            missed.append((name, expect, sorted(fams)))

    # the interval-loop coequaliser must stay honest about divergence
    bx = square_model(indiscrete_groupoid(2))
    triv = square_model(trivial_category())
    corner = lambda o: DoubleMorphism(
        source=triv,
        target=bx,
        f0={"o": o},
        f1={"0": f"{o}>{o}"},
        f2={"q0|0|0|0": K(f"{o}>{o}", f"{o}>{o}", f"{o}>{o}", f"{o}>{o}")},
    )
    q = coequalise(corner("0"), corner("1"), budget=300)
    loop_honest = q.status == "budget_exceeded" and q.object is None

    announce(
        "9-negative-controls",
        not missed and loop_honest,
        f"{len(mutations)} mutations caught" + (f"; missed {missed}" if missed else ""),
    )
