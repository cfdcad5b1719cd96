"""Command line: exit codes, determinism, text/structured mirroring."""
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import cubal
from cubal import shells
from cubal.cli import run

# The directory that holds the imported package, so that a child interpreter
# runs the code under test and not some other installed copy.
PACKAGE_ROOT = str(Path(cubal.__file__).resolve().parent.parent)


def run_cli(*argv, hash_seed):
    """Run the CLI in a fresh interpreter with an explicit string-hash seed."""
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
    assert result.returncode == 0, (
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


def test_validate_missing_file_is_usage_error(capsys):
    assert run(["validate", "/nonexistent/missing.dgc"]) == 2


def test_bad_generator_is_usage_error(capsys):
    assert run(["gen", "frobnicate(9)"]) == 2


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


def test_theorem25_and_hcl_exit_zero(zz2_file, capsys):
    assert run(["theorem25", zz2_file, "--exhaustive"]) == 0
    assert run(["hcl", zz2_file, "--exhaustive"]) == 0


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


def test_replay_failure_exits_one(zz2_file, tmp_path, capsys):
    script = tmp_path / "bad.script"
    script.write_text("[G+(1); G-(1)]\n= e1(1)\n")
    assert run(["replay", zz2_file, str(script)]) == 1


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


def test_vk_subcommand(capsys):
    code = run(["vk", "indiscrete(3)", "--cover", "0,1", "--cover", "1,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "isomorphic to the global square model" in out


def test_usage_error_exit_code():
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
