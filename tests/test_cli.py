"""Command line: exit codes, determinism, text/structured mirroring."""
import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cubal
from cubal import colimits, models, shells
from cubal.cli import run
from cubal.modelio import write_model, write_morphism
from test_bench_workloads import _workloads
from test_divergence import _circle_legs
from test_golden import _interval_loop_pair

# The directory that holds the imported package, so that a child interpreter
# runs the code under test and not some other installed copy.
PACKAGE_ROOT = str(Path(cubal.__file__).resolve().parent.parent)


def run_cli(*argv, hash_seed="0", returncode=0):
    """Run ``python -m cubal`` in a fresh interpreter with an explicit
    string-hash seed, and check its exit code."""
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [PACKAGE_ROOT, inherited])),
        PYTHONHASHSEED=hash_seed,
    )
    result = subprocess.run(
        [sys.executable, "-m", "cubal", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == returncode, (
        f"cubal {' '.join(argv)} exited {result.returncode}:\n{result.stderr}"
    )
    return result


@pytest.fixture(scope="module")
def zz2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "zz2.dgc"
    assert run(["gen", "box(z2)", "-o", str(path)]) == 0
    return str(path)


def test_negative_seed_and_nonpositive_budget_are_usage_errors(zz2_file, capsys):
    assert run(["--seed", "-1", "validate", zz2_file]) == 2
    for budget in ("0", "-3"):
        assert run(["vk", "indiscrete(2)", "--cover", "0,1", "--budget", budget]) == 2
    assert "must be a positive integer" in capsys.readouterr().err
    # --samples 0 used to run 10,000 samples, and --samples -5 to pass on none
    for command in ("hcl", "theorem25"):
        for samples in ("0", "-5"):
            assert run([command, zz2_file, "--samples", samples]) == 2
            err = capsys.readouterr().err
            assert "--samples: must be a positive integer" in err


def test_gen_and_validate_roundtrip(zz2_file, capsys):
    assert run(["validate", zz2_file]) == 0
    out = capsys.readouterr().out
    assert "ok=yes" in out
    assert out.startswith("== double category")


def test_validate_missing_file_is_usage_error(zz2_file, tmp_path, capsys):
    assert run(["validate", "/nonexistent/missing.dgc"]) == 2
    # a directory given where a file is read or written is a usage error too
    for argv in (
        ["validate", str(tmp_path)],
        ["gen", "box(z2)", "-o", str(tmp_path)],
        ["--json-out", str(tmp_path), "validate", zz2_file],
    ):
        capsys.readouterr()
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("error: "), argv
        # the sidecar is opened before any report is printed
        assert out == "", argv


def test_bad_generator_is_usage_error(capsys):
    assert run(["gen", "frobnicate(9)"]) == 2
    capsys.readouterr()
    assert run(["vk", "foo(3)", "--cover", "0"]) == 2
    assert capsys.readouterr().err == "error: unknown category generator 'foo(3)'\n"


def test_gen_out_file_holds_what_stdout_gets(tmp_path, capsys):
    out_file = tmp_path / "zz2.dgc"
    assert run(["gen", "box(z2)", "-o", str(out_file)]) == 0
    capsys.readouterr()
    assert run(["gen", "box(z2)"]) == 0
    assert out_file.read_text(encoding="utf-8") == capsys.readouterr().out


def test_bad_kind_declaration_is_an_input_error(tmp_path, capsys):
    bogus = tmp_path / "bogus.dgc"
    bogus.write_text("kind bogus\n", encoding="utf-8")
    assert run(["validate", str(bogus)]) == 2
    assert capsys.readouterr().err == "error: line 1: bad kind declaration 'kind bogus'\n"


def test_cyclic_group_of_order_zero_is_usage_error(capsys):
    # z0 has no unit: shift(z0) used to write a model that validate rejects
    for argv in (["gen", "shift(z0)"], ["gen", "box(z0)"], ["vk", "z0", "--cover", "o"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cyclic group of order 0: the order must be at least 1" in captured.err


def test_indiscrete_groupoid_of_negative_size_is_usage_error(capsys):
    # indiscrete(0) is the empty groupoid; a negative count is no groupoid
    assert run(["gen", "box(indiscrete(0))"]) == 0
    capsys.readouterr()
    assert run(["gen", "box(indiscrete(-1))"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "indiscrete groupoid on -1 objects: the count must be at least 0" in captured.err


def test_validate_catches_tampered_file(zz2_file, tmp_path, capsys):
    text = open(zz2_file).read()
    # redirect one compose1 entry to break associativity and faces
    lines = text.splitlines()
    idx = next(
        i
        for i, l in enumerate(lines)
        if l.strip().startswith("q0|0|0|0 q0|0|0|0 ->")
    )
    lines[idx] = "  q0|0|0|0 q0|0|0|0 -> q1|1|0|0"
    bad = tmp_path / "bad.dgc"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


ZZ2_LINES = (resources.files("cubal.data") / "zz2.dgc").read_text(encoding="utf-8").splitlines()
DATA = resources.files("cubal.data")
GLUE_LEFT_LINES = (DATA / "glue_left.map").read_text(encoding="utf-8").splitlines()
GLUE_FILES = ("overlap.dgc", "charts.dgc", "glue_right.map")


def single_line_mutant(file_lines: list[str]):
    """The file with one line edited: dropped, or one token replaced by another of the file."""
    file_tokens = sorted({tok for line in file_lines for tok in line.split()})

    @st.composite
    def mutant(draw):
        lines = list(file_lines)
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        if not tokens or draw(st.booleans()):
            del lines[i]
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(file_tokens))
            lines[i] = "  " * lines[i].startswith(" ") + " ".join(tokens)
        return "\n".join(lines) + "\n"

    return mutant()


def zz2_mutant():
    return single_line_mutant(ZZ2_LINES)


@pytest.fixture(scope="module")
def mutant_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.dgc"


def quiet_run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(list(argv))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(text=zz2_mutant())
def test_harness_commands_reject_invalid_mutants(mutant_file, text):
    # a harness command never raises, and never passes a model that fails validate
    mutant_file.write_text(text, encoding="utf-8")
    path = str(mutant_file)
    valid = quiet_run("validate", path) == 0
    for argv in (("thin", path), ("hcl", path, "--exhaustive")):
        code = quiet_run(*argv)
        assert code in (0, 1, 2), argv
        assert valid or code != 0, argv


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(text=single_line_mutant(GLUE_LEFT_LINES))
def test_coeq_and_pushout_reject_bad_morphism_mutants(mutant_file, text):
    # a broken morphism file is an input error (exit 2), never a traceback;
    # the small budget stops a mutant that is still a morphism early (exit 1)
    mutant_file.write_text(text, encoding="utf-8")
    overlap, charts, right = (str(DATA / f) for f in GLUE_FILES)
    for argv in (
        ("coeq", overlap, charts, str(mutant_file), right),
        ("pushout", overlap, charts, charts, str(mutant_file), right),
    ):
        assert quiet_run(*argv, "--budget", "50") in (0, 1, 2), argv


def test_partial_morphism_file_is_an_input_error(tmp_path, capsys):
    # glue_left.map without its first map_edges line
    lines = list(GLUE_LEFT_LINES)
    lines.remove("  1>1 -> 0.1>1")
    partial = tmp_path / "partial.map"
    partial.write_text("\n".join(lines) + "\n", encoding="utf-8")
    overlap, charts, right = (str(DATA / f) for f in GLUE_FILES)
    for argv in (
        ["coeq", overlap, charts, str(partial), right],
        ["pushout", overlap, charts, charts, str(partial), right],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {partial}: map_edges has no entry for '1>1'\n"


def test_coeq_and_pushout_reject_a_model_without_identities(tmp_path, capsys):
    # one object, one loop and no tables, glued along its identity map
    model = tmp_path / "bare.dgc"
    model.write_text("kind groupoid\nobjects\n  o\nedges\n  e o o\n", encoding="utf-8")
    identity = tmp_path / "identity.map"
    identity.write_text("map_objects\n  o -> o\nmap_edges\n  e -> e\nmap_squares\n", encoding="utf-8")
    a, m = str(model), str(identity)
    for argv in (["coeq", a, a, m, m], ["pushout", a, a, a, m, m]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: model fails the axiom suite: "), captured.err


def test_coeq_rejects_a_map_that_breaks_square_faces(zz2, zz2_file, tmp_path, capsys):
    # the identity of box(z2) with two squares of different shells swapped
    swap = {"q0|0|0|0": "q0|0|1|1", "q0|0|1|1": "q0|0|0|0"}

    def write_map(name, squares):
        lines = ["map_objects", *(f"  {o} -> {o}" for o in sorted(zz2.objects))]
        lines += ["map_edges", *(f"  {e} -> {e}" for e in sorted(zz2.edges))]
        lines += ["map_squares", *(f"  {s} -> {squares.get(s, s)}" for s in sorted(zz2.squares))]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    identity, swapped = write_map("identity.map", {}), write_map("swapped.map", swap)
    assert run(["coeq", zz2_file, zz2_file, swapped, identity]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {swapped}: morphism fails square-faces q0|0|0|0\n"


def test_harness_command_names_the_failed_axiom(tmp_path, capsys):
    # zz2 without the unit square's self-composites: exit 2, first violation on stderr
    lines = [l for l in ZZ2_LINES if l.strip() != "q0|0|0|0 q0|0|0|0 -> q0|0|0|0"]
    assert len(lines) == len(ZZ2_LINES) - 2  # one entry in compose1, one in compose2
    bad = tmp_path / "bad.dgc"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["validate", str(bad)]) == 1
    capsys.readouterr()
    model, script = str(bad), str(resources.files("cubal.data") / "cancellation.script")
    for argv in (
        ["thin", model],
        ["hcl", model, "--exhaustive"],
        ["theorem25", model],
        ["eval", model, script],
        ["replay", model, script],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: model fails the axiom suite: "), argv


def test_theorem25_and_hcl_exit_zero(zz2_file, capsys):
    assert run(["theorem25", zz2_file, "--exhaustive"]) == 0
    assert run(["hcl", zz2_file, "--exhaustive"]) == 0


def test_theorem25_without_flags_follows_the_harness_default(tmp_path, capsys):
    # box(z2 x z2): 64 squares, but 4,194,304 composable commutative pairs
    # per direction, so the default samples
    path = str(tmp_path / "box_z2xz2.dgc")
    assert run(["gen", "box(prod(z2,z2))", "-o", path]) == 0
    capsys.readouterr()
    assert run(["theorem25", path]) == 0
    out = capsys.readouterr().out
    for d in (1, 2, 3):
        assert f"note: dir {d}: sampled 10000 composable commutative pairs" in out
    assert "(exhaustive)" not in out


def test_sampled_family_that_never_ran_fails(zz2_file, monkeypatch, capsys):
    monkeypatch.setattr(shells.CubeIndex, "random_cube", lambda self, rng, fixed=None: None)
    assert run(["theorem25", zz2_file, "--samples", "5"]) == 1
    out = capsys.readouterr().out
    for d in (1, 2, 3):
        assert f"FAIL closure-dir{d} never checked" in out
        assert f"note: closure-dir{d}: no composable commutative pair in 100 attempts" in out
    assert "ok=no" in out
    assert run(["hcl", zz2_file, "--samples", "5"]) == 1
    out = capsys.readouterr().out
    assert "FAIL hcl-agreement never checked" in out
    assert "FAIL shared-boundary-shell never checked" in out
    assert "note: sampling drew no cube, so neither family was checked" in out


def test_deterministic_output(zz2_file):
    first = run_cli("theorem25", zz2_file, "--exhaustive", hash_seed="1")
    second = run_cli("theorem25", zz2_file, "--exhaustive", hash_seed="2")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_deterministic_sampling(tmp_path):
    big = tmp_path / "ind3.dgc"
    assert run(["gen", "box(indiscrete(3))", "-o", str(big)]) == 0
    args = ("--seed", "3", "theorem25", str(big), "--samples", "50")
    first = run_cli(*args, hash_seed="1")
    second = run_cli(*args, hash_seed="2")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_python_m_cubal_matches_run(capsys):
    shipped = str(DATA / "zz2.dgc")
    assert run(["validate", shipped]) == 0
    assert run_cli("validate", shipped).stdout == capsys.readouterr().out
    assert "invalid choice" in run_cli("no-such-command", returncode=2).stderr


def test_structured_mirrors_text(zz2_file, capsys):
    assert run(["validate", zz2_file]) == 0
    text_out = capsys.readouterr().out
    assert run(["--format", "structured", "validate", zz2_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    # families in the text output appear one-for-one in the structured counts
    text_families = {
        line.split()[1] for line in text_out.splitlines() if line.startswith("PASS")
    }
    assert text_families == set(data["checked_count"])


def test_json_out_written_alongside(zz2_file, tmp_path, capsys):
    sidecar = tmp_path / "report.json"
    assert run(["--json-out", str(sidecar), "thin", zz2_file]) == 0
    data = json.loads(sidecar.read_text())
    assert data["ok"] is True
    assert "T1-unique-thin-filler" in data["checked_count"]


def test_eval_and_replay_shipped_script(zz2_file, capsys):
    script = str(resources.files("cubal.data") / "cancellation.script")
    assert run(["replay", zz2_file, script]) == 0
    out = capsys.readouterr().out
    assert "step-equality" in out
    assert run(["eval", zz2_file, script]) == 0


def test_eval_bounds_array_nesting(zz2_file, tmp_path, capsys):
    script = tmp_path / "deep.script"
    for depth, code in ((100, 0), (101, 2), (250, 2)):
        script.write_text("[" * depth + "q0|0|0|0" + "]" * depth + "\n")
        assert run(["eval", zz2_file, str(script)]) == code, depth
        err = capsys.readouterr().err
        if code:
            assert err == "error: arrays nested deeper than 100 (line 1, col 101)\n"


def test_gen_bounds_category_nesting(capsys):
    for depth, code in ((100, 0), (101, 2), (1200, 2)):
        spec = "box(" + "prod(z1," * depth + "z1" + ")" * depth + ")"
        assert run(["gen", spec]) == code, depth
        err = capsys.readouterr().err
        if code:
            assert err == "error: category expressions nested deeper than 100\n"


def test_replay_failure_exits_one(zz2_file, tmp_path, capsys):
    script = tmp_path / "bad.script"
    script.write_text("[G+(1); G-(1)]\n= e1(1)\n")
    assert run(["replay", zz2_file, str(script)]) == 1


def test_script_family_that_never_ran_fails(zz2_file, tmp_path, capsys):
    # replay checks step equality only along a chain of two or more steps,
    # and eval has nothing to evaluate without a chain: a requested family
    # that ticked zero times fails, so no such script reads as a pass
    never = {
        "replay": ("FAIL step-equality never checked",
                   "note: the script has no chain of two steps or more"),
        "eval": ("FAIL evaluated-chains never checked", "note: the script has no chain"),
    }
    scripts = {
        "lets": "let a = e1(1)\nlet b = [a; a]\n",
        "one-step": "[G+(1), G-(1)]\n",
        "empty": "",
    }
    for name, text in scripts.items():
        script = tmp_path / f"{name}.script"
        script.write_text(text)
        for mode, lines in never.items():
            checked = mode == "eval" and name == "one-step"
            assert run([mode, zz2_file, str(script)]) == (0 if checked else 1), (name, mode)
            out = capsys.readouterr().out
            if checked:
                assert "PASS evaluated-chains (1 checked)" in out and "ok=yes" in out
            else:
                assert all(line in out.splitlines() for line in lines), (name, mode, out)
                assert "ok=no" in out


def test_script_errors_name_the_script_line(zz2_file, tmp_path, capsys):
    # a malformed let, a malformed step and a ragged array are reported at
    # their own line and column of the script, not of the step
    cases = [
        (
            "# cancellation\n\n[G+(1), G-(1)]\n= e1(1)\nlet oops =\n",
            "error: malformed let binding 'let oops =' (line 5, col 1)\n",
        ),
        ("let a = e1(1)\n\n  [a, ]\n= a\n", "error: unexpected ']' (line 3, col 7)\n"),
        ("let a = e1(1)\n[a]\n= [a, ]  # [a, ]\n", "error: unexpected ']' (line 3, col 7)\n"),
        # a ragged array is named at its '['
        ("let x = e1(1)\n[x]\n= [x; x, x]\n", "error: rows of length [1, 2] (line 3, col 3)\n"),
    ]
    for i, (text, err) in enumerate(cases):
        script = tmp_path / f"bad{i}.script"
        script.write_text(text)
        assert run(["replay", zz2_file, str(script)]) == 2, text
        assert capsys.readouterr().err == err


def test_coeq_subcommand_with_shipped_demo(tmp_path, capsys):
    data = resources.files("cubal.data")
    out_file = tmp_path / "glued.dgc"
    code = run(
        [
            "coeq",
            str(data / "overlap.dgc"),
            str(data / "charts.dgc"),
            str(data / "glue_left.map"),
            str(data / "glue_right.map"),
            "-o",
            str(out_file),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "status: finite" in out
    assert run(["validate", str(out_file)]) == 0


def test_pushout_subcommand(tmp_path, capsys):
    triv = tmp_path / "triv.dgc"
    zz2 = tmp_path / "zz2.dgc"
    assert run(["gen", "box(z1)", "-o", str(triv)]) == 0
    assert run(["gen", "box(z2)", "-o", str(zz2)]) == 0
    inc = tmp_path / "inc.map"
    inc.write_text(
        "map_objects\n  o -> o\nmap_edges\n  0 -> 0\nmap_squares\n  q0|0|0|0 -> q0|0|0|0\n"
    )
    code = run(
        [
            "pushout",
            str(triv),
            str(zz2),
            str(zz2),
            str(inc),
            str(inc),
            "--budget",
            "400",
        ]
    )
    assert code == 1  # Z2 * Z2 is infinite: budget_exceeded is a failure exit
    out = capsys.readouterr().out
    assert "budget_exceeded" in out


def test_coeq_and_pushout_name_a_divergence_certificate(tmp_path, capsys):
    # the interval loop, and two intervals glued at both ends: each quotient
    # is proven infinite by a closed path with nonzero phi-sum, named in one
    # note; status-finite still fails, and the exit code is 1
    a, b = _interval_loop_pair()
    files = {
        "point.dgc": write_model(a.source),
        "interval.dgc": write_model(a.target),
        "end0.map": write_morphism(a),
        "end1.map": write_morphism(b),
    }
    ends, _ = _circle_legs()
    files.update({"two_points.dgc": write_model(ends.source), "ends.map": write_morphism(ends)})
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = {name: str(tmp_path / name) for name in files}
    runs = {
        "coeq": (
            ["coeq", paths["point.dgc"], paths["interval.dgc"], paths["end0.map"], paths["end1.map"]],
            "note: proven infinite: the closed path 0>1 has phi-sum 1",
        ),
        "pushout": (
            ["pushout", paths["two_points.dgc"], paths["interval.dgc"], paths["interval.dgc"],
             paths["ends.map"], paths["ends.map"]],
            "note: proven infinite: the closed path 1.0>1 0.0>1^-1 has phi-sum 1",
        ),
    }
    for argv, note in runs.values():
        assert run(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL status-finite budget_exceeded" in lines
        assert note in lines
        assert [line for line in lines if "proven infinite" in line] == [note]
        assert "note: generators added: 0" in lines


def test_coeq_fails_a_quotient_that_fails_the_axiom_suite(monkeypatch, capsys):
    # a quotient that is not a model is reported, not written off: the
    # engine never returns one, so a box(z2) mutant stands in for it
    zz2 = models.square_model(models.cyclic_group(2))
    mutant, _ = _workloads().z2_mutants(zz2)["edge-compose-redirect"]
    monkeypatch.setattr(
        colimits, "coequalise", lambda a, b, budget: colimits.QuotientResult("finite", mutant, None, 0)
    )
    data = resources.files("cubal.data")
    demo = [str(data / f) for f in ("overlap.dgc", "charts.dgc", "glue_left.map", "glue_right.map")]
    assert run(["coeq", *demo]) == 1
    out = capsys.readouterr().out
    # the first three failed families of the axiom suite
    fail = "FAIL result-validates degeneracy-composition edge-inverse square1-composite-faces"
    assert fail in out.splitlines()
    assert "PASS status-finite (1 checked)" in out


def test_vk_subcommand(capsys):
    code = run(["vk", "indiscrete(3)", "--cover", "0,1", "--cover", "1,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "isomorphic to the global square model" in out


def test_vk_subcommand_fails_a_cover_with_no_overlap(capsys):
    # the two charts {0} and {1} miss the arrows between them
    code = run(["vk", "indiscrete(2)", "--cover", "0", "--cover", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL vk-coequaliser-iso the induced map is not a bijection on edges" in out
    assert "PASS vk-coequaliser-finite (1 checked)" in out
    assert "Traceback" not in out


def test_vk_subcommand_notes_the_divergence_certificate(capsys):
    # the three overlaps of a triangle cover glue three intervals into a circle
    code = run(["vk", "indiscrete(3)", "--cover", "0,1", "--cover", "1,2", "--cover", "0,2"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "== finite van Kampen harness",
        "FAIL vk-coequaliser-finite budget_exceeded",
        "note: proven infinite: the closed path 2.0>2 1.1>2^-1 0.0>1^-1 has phi-sum 1",
        "summary: checked=1 families=1 failures=1 ok=no",
    ]


def test_usage_error_exit_code():
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
