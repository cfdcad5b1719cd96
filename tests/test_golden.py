"""CLI output on the shipped examples, byte for byte, against recorded files.

Each ``golden/<case>.txt`` holds ``exit <code>`` on its first line and the
command's stdout after it; ``golden/coeq_demo.dgc`` is the model file that the
coeq demo writes with ``-o``.  After an intended change of output, re-record
with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

import cubal
from cubal.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(cubal.__file__).resolve().parent / "data"

CASES = {
    "validate_zz2": ["validate", "{data}/zz2.dgc"],
    "validate_zz2_structured": ["--format", "structured", "validate", "{data}/zz2.dgc"],
    "thin_zz2": ["thin", "{data}/zz2.dgc"],
    "hcl_zz2": ["hcl", "{data}/zz2.dgc", "--exhaustive"],
    "theorem25_zz2": ["theorem25", "{data}/zz2.dgc", "--exhaustive"],
    "theorem25_ind3_sampled": ["--seed", "3", "theorem25", "{tmp}/ind3.dgc", "--samples", "50"],
    "eval_cancellation": ["eval", "{data}/zz2.dgc", "{data}/cancellation.script"],
    "replay_cancellation": ["replay", "{data}/zz2.dgc", "{data}/cancellation.script"],
    "coeq_demo": [
        "coeq",
        "{data}/overlap.dgc",
        "{data}/charts.dgc",
        "{data}/glue_left.map",
        "{data}/glue_right.map",
        "-o",
        "{tmp}/coeq_demo.dgc",
    ],
    "vk_ind3": ["vk", "indiscrete(3)", "--cover", "0,1", "--cover", "1,2"],
    "gen_box_z2": ["gen", "box(z2)"],
    "gen_shift_z2": ["gen", "shift(z2)"],
}
# model files written by a case, compared like its stdout
WRITTEN = {"coeq_demo": "coeq_demo.dgc"}


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one case; return its recorded files by name."""
    if not (tmp / "ind3.dgc").exists():
        assert run(["gen", "box(indiscrete(3))", "-o", str(tmp / "ind3.dgc")]) == 0
    argv = [a.format(data=DATA, tmp=tmp) for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    files = {f"{name}.txt": f"exit {code}\n{out.getvalue()}".encode("utf-8")}
    if name in WRITTEN:
        files[WRITTEN[name]] = (tmp / WRITTEN[name]).read_bytes()
    return files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, workdir):
    for fname, got in run_case(name, workdir).items():
        assert got == (GOLDEN / fname).read_bytes(), fname


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fname, content in run_case(case, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(content)
                print(f"wrote {fname}", file=sys.stderr)
