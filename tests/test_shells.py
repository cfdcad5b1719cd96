"""Cubes: face relations, compositions, odd/even composites, HCL harnesses."""
import dataclasses
import itertools
import time
from random import Random

import pytest

from cube_oracle import oracle_compose_cubes, oracle_degenerate_cube
from test_colimits import xmod_model

from cubal import models, pastings, shells
from cubal.core import SquareFaces, compose_array
from cubal.errors import MalformedModel, NotComposable
from cubal.models import indiscrete_groupoid, square_key
from cubal.morphisms import validate_morphism
from cubal.shells import (
    Cube3,
    all_cubes,
    compose_cubes,
    cube_ok,
    degenerate_cube,
    even_composite_array,
    hcl_agreement,
    hcl_prime_arrays,
    hcl_prime_holds,
    is_commutative,
    map_cube,
    odd_composite_array,
    shell_commutes,
    theorem25_harness,
    triple_interchange_check,
)


def odd_composite(model, c):
    return compose_array(model, odd_composite_array(model, c))


def even_composite(model, c):
    return compose_array(model, even_composite_array(model, c))


def brute_force_cube_count_z2():
    # independent count: 12 boundary edges over Z2, one parity equation per face
    count = 0
    for bits in itertools.product(range(2), repeat=12):
        e = dict(zip(["tmm", "tmp", "tpm", "tpp", "fmm", "fmp", "fpm", "fpp", "gmm", "gmp", "gpm", "gpp"], bits))
        faces = [
            e["tmm"] + e["tmp"] + e["fmm"] + e["fmp"],  # f1m
            e["tpm"] + e["tpp"] + e["fpm"] + e["fpp"],  # f1p
            e["tmm"] + e["tpm"] + e["gmm"] + e["gmp"],  # f2m
            e["tmp"] + e["tpp"] + e["gpm"] + e["gpp"],  # f2p
            e["fmm"] + e["fpm"] + e["gmm"] + e["gpm"],  # f3m
            e["fmp"] + e["fpp"] + e["gmp"] + e["gpp"],  # f3p
        ]
        if all(f % 2 == 0 for f in faces):
            count += 1
    return count


def test_cube_enumeration_matches_brute_force(zz2):
    cubes = all_cubes(zz2)
    assert len(cubes) == brute_force_cube_count_z2() == 128
    assert all(cube_ok(zz2, c) for c in cubes)


def test_boundary_shell_examples(zz2):
    s = square_key("1", "0", "1", "0")
    assert zz2.squares[s] == SquareFaces(left="1", bottom="0", top="1", right="0")
    e1 = zz2.eps1["1"]
    assert zz2.squares[e1] == SquareFaces(left="0", bottom="1", top="1", right="0")
    dd = zz2.eps1["0"]
    assert zz2.squares[dd] == SquareFaces(left="0", bottom="0", top="0", right="0")


def test_shell_commutes_z2_arithmetic(zz2):
    assert shell_commutes(zz2, SquareFaces(left="1", bottom="1", top="0", right="0"))
    assert not shell_commutes(zz2, SquareFaces(left="1", bottom="0", top="0", right="0"))
    assert shell_commutes(zz2, zz2.squares[zz2.eps1["0"]])


def test_compose_cubes_identity(zz2):
    for c in all_cubes(zz2)[::17]:
        for d in (1, 2, 3):
            ident = degenerate_cube(zz2, d, c.face(d, "+"))
            assert compose_cubes(zz2, d, c, ident) == c
            pre = degenerate_cube(zz2, d, c.face(d, "-"))
            assert compose_cubes(zz2, d, pre, c) == c


def test_cube_face_reads_its_slot_and_rejects_other_arguments():
    c = Cube3("a", "b", "c", "d", "e", "f")
    got = [c.face(d, sign) for d in (1, 2, 3) for sign in "-+"]
    assert got == list(c.faces())
    for direction, sign in [(3, "minus"), (1, "p"), (4, "+"), (0, "-"), ("1", "-")]:
        with pytest.raises(ValueError):
            c.face(direction, sign)


def test_compose_cubes_dir3_face_rule(zz2):
    # direction 3 composes the direction-1 and direction-2 faces with +2
    cubes = all_cubes(zz2)
    pairs = [
        (a, b) for a in cubes for b in cubes if a.f3p == b.f3m
    ]
    a, b = pairs[5]
    out = compose_cubes(zz2, 3, a, b)
    assert out.f1m == zz2.compose2[(a.f1m, b.f1m)]
    assert out.f2p == zz2.compose2[(a.f2p, b.f2p)]
    assert out.f3m == a.f3m and out.f3p == b.f3p


def test_compose_cubes_rejects_mismatch(zz2):
    cubes = all_cubes(zz2)
    a = cubes[0]
    b = next(c for c in cubes if c.f1m != a.f1p)
    with pytest.raises(NotComposable):
        compose_cubes(zz2, 1, a, b)


def _outcome(compose, model, d, a, b):
    try:
        return ("value", compose(model, d, a, b))
    except Exception as exc:  # the outcome under test includes the exception
        return ("raise", type(exc).__name__, str(exc))


def _composable_pairs(cubes, d):
    by_minus = {}
    for c in cubes:
        by_minus.setdefault(c.face(d, "-"), []).append(c)
    return [(a, b) for a in cubes for b in by_minus.get(a.face(d, "+"), ())]


@pytest.mark.parametrize("spec", ["box(z2)", "shift(z2)"])
def test_compose_cubes_matches_three_branch_oracle(spec):
    model = models.parse_generator(spec)
    cubes = all_cubes(model)
    for d in (1, 2, 3):
        pairs = _composable_pairs(cubes, d)
        assert pairs
        for a, b in pairs:
            assert compose_cubes(model, d, a, b) == oracle_compose_cubes(model, d, a, b)
    # what each rejects, and how
    for d in (0, 1, 2, 3, 4):
        for a, b in itertools.islice(itertools.product(cubes, repeat=2), 0, None, 97):
            want = _outcome(oracle_compose_cubes, model, d, a, b)
            assert _outcome(compose_cubes, model, d, a, b) == want


@pytest.mark.parametrize(
    "spec", ["box(z2)", "box(indiscrete(3))", "shift(z2)", "shift(prod(z2,z2))"]
)
def test_degenerate_cube_matches_three_branch_oracle(spec):
    model = models.parse_generator(spec)
    for d in (1, 2, 3):
        for s in model.squares:
            assert degenerate_cube(model, d, s) == oracle_degenerate_cube(model, d, s)
    for d in (0, 4):
        for fn in (degenerate_cube, oracle_degenerate_cube):
            with pytest.raises(ValueError, match="direction must be 1, 2 or 3"):
                fn(model, d, min(model.squares))


def test_compose_cubes_matches_oracle_on_missing_composites(zz2):
    # one compose1 and one compose2 entry removed: the same face fails first,
    # with the same message
    compose1, compose2 = dict(zz2.compose1), dict(zz2.compose2)
    del compose1[min(compose1)]
    del compose2[max(compose2)]
    mutant = dataclasses.replace(zz2, compose1=compose1, compose2=compose2)
    cubes = all_cubes(zz2)
    raised = set()
    for d in (1, 2, 3):
        for a, b in _composable_pairs(cubes, d):
            got = _outcome(compose_cubes, mutant, d, a, b)
            assert got == _outcome(oracle_compose_cubes, mutant, d, a, b)
            if got[0] == "raise":
                raised.add((d, got[1], got[2].split("'")[2]))
    assert raised == {
        (d, "FaceCompositionUndefined", f" +{n} ")
        for d, n in ((1, 1), (2, 1), (2, 2), (3, 2))
    }


def test_shape_checks_reject_a_non_cube(zz2):
    cube = all_cubes(zz2)[0]
    faces = dict(zip(shells.SLOTS, cube.faces()))
    faces["f3p"] = next(s for s in sorted(zz2.squares) if s != cube.f3p)
    broken = Cube3(**faces)
    assert not cube_ok(zz2, broken)
    for check in (is_commutative, hcl_prime_holds):
        with pytest.raises(MalformedModel):
            check(zz2, broken)


def test_harnesses_check_each_cube_shape_once(zz2, monkeypatch):
    # cubes from CubeIndex are built along the face relations; only the
    # composite compose_cubes returns is checked, once
    calls = []
    real = shells.cube_ok
    monkeypatch.setattr(shells, "cube_ok", lambda model, c: calls.append(c) or real(model, c))
    assert theorem25_harness(zz2, exhaustive=True).ok
    assert len(calls) == 3 * 2048
    calls.clear()
    assert hcl_agreement(zz2, exhaustive=True).ok
    assert calls == []


def test_all_dd_cube_composites_are_dd(zz2):
    dd = zz2.eps1["0"]
    c = Cube3(dd, dd, dd, dd, dd, dd)
    assert odd_composite(zz2, c) == dd
    assert even_composite(zz2, c) == dd
    assert is_commutative(zz2, c)


def test_odd_even_share_boundary_shell_exhaustive(zz2):
    for c in all_cubes(zz2):
        assert zz2.squares[odd_composite(zz2, c)] == zz2.squares[even_composite(zz2, c)]


def test_every_zz2_cube_is_commutative(zz2):
    # in a commuting-squares model a square is its shell, and the two
    # composites always share a shell, so no non-commutative cube can exist
    assert all(is_commutative(zz2, c) for c in all_cubes(zz2))


def test_commutativity_in_box_matches_shell_oracle(box_ind2):
    # direct-evaluation oracle for commuting-squares models
    for c in all_cubes(box_ind2)[::7]:
        odd = odd_composite(box_ind2, c)
        even = even_composite(box_ind2, c)
        assert (odd == even) == (
            box_ind2.squares[odd] == box_ind2.squares[even]
        )
        assert is_commutative(box_ind2, c)


def test_shift_commutativity_matches_xor_oracle(shift2):
    val = lambda s: int(s[1:])
    seen_non_commutative = 0
    for c in all_cubes(shift2):
        odd = (val(c.f1m) + val(c.f3m) + val(c.f2p)) % 2
        even = (val(c.f2m) + val(c.f1p) + val(c.f3p)) % 2
        assert is_commutative(shift2, c) == (odd == even)
        seen_non_commutative += odd != even
    assert seen_non_commutative == 32  # frozen witness count


def test_hcl_prime_agrees_everywhere(zz2, shift2):
    for model in (zz2, shift2):
        for c in all_cubes(model):
            assert hcl_prime_holds(model, c) == is_commutative(model, c)


def test_hcl_agreement_report(zz2):
    rep = hcl_agreement(zz2, exhaustive=True)
    assert rep.ok
    assert rep.checked_count["hcl-agreement"] == 128
    assert rep.checked_count["shared-boundary-shell"] == 128


def test_hcl_agreement_sampled_above_cutoff(box_ind3):
    rep = hcl_agreement(box_ind3, samples=150, seed=1)
    assert rep.ok
    assert rep.checked_count["hcl-agreement"] == 150


def solver_grid(model, rows, kinds):
    # the same array through the pasting solver, each thin slot an anonymous
    # placeholder of the given species
    text = "[" + "; ".join(
        ", ".join(f"{k}(_)" if k else name for name, k in zip(row, krow))
        for row, krow in zip(rows, kinds)
    ) + "]"
    env = pastings.Env.for_model(model)
    solved = pastings.solve(model, env, pastings.parse(text))
    return pastings.array_square_grid(model, env, solved)


def test_solver_confirms_derived_slot_species(zz2):
    # the thin slots the solver resolves coincide with the derived table
    for c in all_cubes(zz2)[::11]:
        odd = odd_composite_array(zz2, c)
        assert solver_grid(zz2, odd, [["G+", "", "G-"], ["", "", "e2"]]) == odd
        even = even_composite_array(zz2, c)
        assert solver_grid(zz2, even, [["e2", "", ""], ["G+", "", "G-"]]) == even
        lhs, rhs = hcl_prime_arrays(zz2, c)
        assert solver_grid(zz2, lhs, [["G+", ""], ["", ""], ["G-", "e1"]]) == lhs
        assert solver_grid(zz2, rhs, [["e1", "G+"], ["", ""], ["", "G-"]]) == rhs


def test_theorem25_exhaustive_zz2(zz2):
    rep = theorem25_harness(zz2)
    assert rep.ok
    assert rep.checked_count["closure-dir1"] == 2048
    assert rep.checked_count["closure-dir2"] == 2048
    assert rep.checked_count["closure-dir3"] == 2048


def test_theorem25_sampled_indiscrete(box_ind3):
    rep = theorem25_harness(box_ind3, samples=300, seed=0)
    assert rep.ok
    assert all(n == 300 for n in rep.checked_count.values())


def test_theorem25_closure_on_shift(shift2):
    rep = theorem25_harness(shift2)
    assert rep.ok


@pytest.mark.parametrize(
    "spec, pairs, exhaustive",
    [
        ("box(z2)", 2048, True),
        ("shift(z2)", 512, True),
        ("shift(prod(z2,z2))", 262144, True),
        ("box(prod(z2,z2))", 4194304, False),
    ],
)
def test_theorem25_default_is_exhaustive_up_to_the_pair_cutoff(spec, pairs, exhaustive):
    idx = shells.CubeIndex(models.parse_generator(spec))
    assert shells._Pairs(idx, True, 0, Random(0), shells.THEOREM25_PAIR_CUTOFF).most() == pairs
    chosen = shells._Pairs(idx, None, 10, Random(0), shells.THEOREM25_PAIR_CUTOFF)
    assert (chosen.comm is not None) == exhaustive


def _sampled_by_default(model, samples):
    rep = theorem25_harness(model, samples=samples)
    assert rep.ok, rep.violations[:2]
    assert dict(rep.checked_count) == {f"closure-dir{d}": samples for d in (1, 2, 3)}
    assert rep.notes == [
        f"dir {d}: sampled {samples} composable commutative pairs" for d in (1, 2, 3)
    ]


def test_theorem25_default_samples_box_z2xz2():
    # 64 squares, at the square cutoff, but 4,194,304 pairs per direction
    _sampled_by_default(models.parse_generator("box(prod(z2,z2))"), 50)


def test_theorem25_default_samples_the_24_square_crossed_module():
    # Z2 acting on Z3 by inversion: 24 squares, 40,310,784 pairs per direction
    model = xmod_model(0, factors=1)
    assert len(model.squares) == 24
    _sampled_by_default(model, 50)


def test_cube_harness_defaults_list_at_most_the_cutoff_of_cubes(monkeypatch):
    # shift(z9) has 9 squares, under the square cutoff, but 9^6 = 531,441
    # cubes: by default both harnesses sample, after listing no more than
    # THEOREM25_PAIR_CUTOFF + 1 cubes
    model = models.shift_model(models.cyclic_group(9))
    listed = []  # cubes read from each listing
    cubes = shells.CubeIndex.cubes

    def counted(self, fixed=None):
        listed.append(0)
        for c in cubes(self, fixed):
            listed[-1] += 1
            yield c

    monkeypatch.setattr(shells.CubeIndex, "cubes", counted)
    _sampled_by_default(model, 50)
    rep = hcl_agreement(model, samples=50)
    assert rep.ok, rep.violations[:2]
    assert dict(rep.checked_count) == {"hcl-agreement": 50, "shared-boundary-shell": 50}
    assert listed == [shells.THEOREM25_PAIR_CUTOFF + 1] * 2


def test_triple_interchange_zz2(zz2, monkeypatch):
    enumerations = []
    cubes = shells.CubeIndex.cubes

    def counted(self, fixed=None):
        enumerations.append(fixed)
        return cubes(self, fixed)

    monkeypatch.setattr(shells.CubeIndex, "cubes", counted)
    rep = triple_interchange_check(zz2, samples=200, seed=0)
    assert rep.ok
    # the default counts the pairs on the same enumeration it then checks
    assert enumerations == [None]
    # 2,048 composable commutative pairs per direction: exhaustive by default
    assert rep.checked_count["associativity-dir1"] == 2048
    assert all(
        rep.checked_count.get(f"associativity-dir{d}", 0) > 0 for d in (1, 2, 3)
    )
    assert all(
        rep.checked_count.get(f"interchange-dir{i}{j}", 0) > 0
        for i, j in ((1, 2), (1, 3), (2, 3))
    )


def test_triple_samples_a_small_model_with_many_pairs():
    # shift(z2 x z2) has 4 squares but 262,144 composable commutative pairs
    # per direction, so by default it samples
    z2 = models.cyclic_group(2)
    start = time.perf_counter()
    rep = triple_interchange_check(models.shift_model(models.product(z2, z2)))
    assert time.perf_counter() - start < 30
    assert rep.ok and rep.checked_count["associativity-dir1"] == 2000


TRIPLE_FAMILIES = [f"associativity-dir{d}" for d in (1, 2, 3)] + [
    f"interchange-dir{i}{j}" for i, j in ((1, 2), (1, 3), (2, 3))
]


def _failures(rep) -> dict[str, list[tuple[str, ...]]]:
    out: dict[str, list[tuple[str, ...]]] = {}
    for fam, witness in rep.violations:
        out.setdefault(fam, []).append(witness)
    return out


def _composable(d: int, a: tuple, b: tuple) -> bool:
    return Cube3(*a).face(d, "+") == Cube3(*b).face(d, "-")


def test_theorem25_failure_names_the_pair(zz2, monkeypatch):
    # every composite made not to commute: each of the 2,048 pairs per
    # direction fails, named by its direction and its two cubes
    bad = Cube3(*"xxxxxx")
    monkeypatch.setattr(shells, "compose_cubes", lambda model, d, a, b: bad)
    monkeypatch.setattr(shells, "_commutes", lambda model, c: c != bad)
    rep = theorem25_harness(zz2, exhaustive=True)
    failures = _failures(rep)
    assert sorted(failures) == [f"closure-dir{d}" for d in (1, 2, 3)]
    for d in (1, 2, 3):
        witnesses = failures[f"closure-dir{d}"]
        assert len(witnesses) == rep.checked_count[f"closure-dir{d}"] == 2048
        for w in witnesses:
            assert w[0] == f"dir{d}" and _composable(d, w[1:7], w[7:])


def test_hcl_failures_name_the_cube(zz2, monkeypatch):
    cubes = list(shells.CubeIndex(zz2).cubes())
    monkeypatch.setattr(shells, "_hcl_prime", lambda model, c: False)
    rep = hcl_agreement(zz2, exhaustive=True)
    assert rep.violations == [("hcl-agreement", c) for c in cubes]
    # composites on different shells: they differ, so the HCL' verdict
    # disagrees as well
    first, last = sorted(zz2.squares)[0], sorted(zz2.squares)[-1]
    assert zz2.squares[first] != zz2.squares[last]
    monkeypatch.undo()
    monkeypatch.setattr(shells, "_composites", lambda model, c: (first, last))
    rep = hcl_agreement(zz2, exhaustive=True)
    failures = _failures(rep)
    assert failures == {"hcl-agreement": cubes, "shared-boundary-shell": cubes}


def test_triple_failures_name_the_cubes(zz2, monkeypatch):
    # composition replaced by a record of its arguments: the two
    # bracketings, and the rows-then-columns and columns-then-rows
    # composites, always differ
    monkeypatch.setattr(shells, "compose_cubes", lambda model, d, a, b: (d, a, b))
    rep = triple_interchange_check(zz2, samples=3, exhaustive=False)
    failures = _failures(rep)
    assert sorted(failures) == sorted(TRIPLE_FAMILIES)
    for fam, witnesses in failures.items():
        d = int(fam[-2] if fam.startswith("interchange") else fam[-1])
        assert len(witnesses) == rep.checked_count[fam] == 3
        for w in witnesses:
            assert len(w) == (18 if fam.startswith("associativity") else 12)
            assert _composable(d, w[:6], w[6:12])


def test_triple_family_that_never_ran_fails(zz2, monkeypatch):
    # each cube the check draws, made undrawable in turn: the families that
    # never ran fail, and only those
    random_cube = shells.CubeIndex.random_cube
    never = lambda self, rng, fixed: None
    unpinned = lambda self, rng, fixed: None if fixed else random_cube(self, rng, fixed)
    one_pin = lambda self, rng, fixed: None if len(fixed) > 1 else random_cube(self, rng, fixed)
    for draw, exhaustive, unchecked in (
        (never, False, TRIPLE_FAMILIES),  # no first cube of a pair
        (unpinned, False, TRIPLE_FAMILIES),  # no second cube on the first's face
        (never, True, TRIPLE_FAMILIES),  # every pair, but no third cube
        (one_pin, True, TRIPLE_FAMILIES[3:]),  # no fourth cube, pinned on two faces
    ):
        monkeypatch.setattr(shells.CubeIndex, "random_cube", draw)
        rep = triple_interchange_check(zz2, samples=5, exhaustive=exhaustive)
        assert rep.violations == [(fam, ("never checked",)) for fam in unchecked]
        ran = [fam for fam in TRIPLE_FAMILIES if fam not in unchecked]
        assert sorted(rep.checked_count) == sorted(ran)
    assert [rep.checked_count[fam] for fam in TRIPLE_FAMILIES[:3]] == [2048] * 3


def test_morphism_image_of_commutative_cube(box_ind2, box_ind3):
    obj_map = {"0": "0", "1": "1"}
    arrow_map = {a: a for a in indiscrete_groupoid(2).arrows}
    f = models.induced_square_morphism(obj_map, arrow_map, box_ind2, box_ind3)
    assert validate_morphism(f).ok
    for c in all_cubes(box_ind2)[::13]:
        if is_commutative(box_ind2, c):
            assert is_commutative(box_ind3, map_cube(f, c))
