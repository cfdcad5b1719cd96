"""CLI output on the shipped examples, and coequaliser results, against recorded files.

Each ``golden/<case>.txt`` holds ``exit <code>`` on its first line and the
command's stdout after it; ``golden/coeq_demo.dgc`` is the model file that the
coeq demo writes with ``-o``.  ``golden/coeq_fingerprints.json`` pins the
coequaliser engine on larger runs: status, ``generators_added``, stats, and the
sha256 of the written quotient and of the sorted projection maps; it also pins
the first isomorphism ``iso_check`` finds on two of those quotients, as the
sha256 of its sorted maps.  After an
intended change of output, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import cubal
from cubal import colimits, models
from cubal.cli import run
from cubal.modelio import write_model
from cubal.morphisms import DoubleMorphism, compose_morphisms

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(cubal.__file__).resolve().parent / "data"

CASES = {
    "validate_zz2": ["validate", "{data}/zz2.dgc"],
    "validate_zz2_structured": ["--format", "structured", "validate", "{data}/zz2.dgc"],
    "thin_zz2": ["thin", "{data}/zz2.dgc"],
    "hcl_zz2": ["hcl", "{data}/zz2.dgc", "--exhaustive"],
    "theorem25_zz2": ["theorem25", "{data}/zz2.dgc", "--exhaustive"],
    "theorem25_ind3_sampled": ["--seed", "3", "theorem25", "{tmp}/ind3.dgc", "--samples", "50"],
    "hcl_ind3_sampled": ["--seed", "3", "hcl", "{tmp}/ind3.dgc", "--samples", "50"],
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


def _vk_pair(n: int, cover: list[str]):
    a, b, _ = colimits.vk_sequence(models.indiscrete_groupoid(n), [list(u) for u in cover])
    return a, b


def _vk(n: int, cover: list[str], budget: int = colimits.DEFAULT_BUDGET):
    return colimits.coequalise(*_vk_pair(n, cover), budget=budget)


def _keep_legs():
    # the two charts 012 and 123 of indiscrete(4), glued along 12
    full = models.square_model(models.indiscrete_groupoid(4))
    overlap, _ = models.full_sub_double(full, ["1", "2"])

    def keep(objs):
        target, _ = models.full_sub_double(full, objs)
        ident = lambda xs: {x: x for x in xs}
        return DoubleMorphism(
            source=overlap,
            target=target,
            f0=ident(overlap.objects),
            f1=ident(overlap.edges),
            f2=ident(overlap.squares),
        )

    return keep("012"), keep("123")


def pushout_pair(f: DoubleMorphism, g: DoubleMorphism):
    """The parallel pair whose coequaliser ``colimits.pushout`` computes."""
    _, (inj_b, inj_c) = colimits.coproduct([f.target, g.target])
    return compose_morphisms(f, inj_b), compose_morphisms(g, inj_c)


def _keep_pushout():
    return colimits.pushout(*_keep_legs())[0]


def _interval_loop_pair():
    # identifying the two ends of the interval: a free loop, never finite
    box2 = models.square_model(models.indiscrete_groupoid(2))
    point = models.square_model(models.trivial_category())

    def corner(o: str) -> DoubleMorphism:
        e = box2.eps[o]
        return DoubleMorphism(
            source=point, target=box2, f0={"o": o}, f1={"0": e}, f2={"q0|0|0|0": box2.eps1[e]}
        )

    return corner("0"), corner("1")


# each case: the parallel pair, and the budget it is coequalised at
COEQ_PAIRS = {
    "vk_ind3_01_12": (lambda: _vk_pair(3, ["01", "12"]), colimits.DEFAULT_BUDGET),
    "vk_ind4_012_123": (lambda: _vk_pair(4, ["012", "123"]), colimits.DEFAULT_BUDGET),
    "vk_ind4_01_12_23": (lambda: _vk_pair(4, ["01", "12", "23"]), colimits.DEFAULT_BUDGET),
    "pushout_ind4_keep012_keep123": (lambda: pushout_pair(*_keep_legs()), colimits.DEFAULT_BUDGET),
    "interval_loop_default_budget": (_interval_loop_pair, colimits.DEFAULT_BUDGET),
    "vk_ind4_012_123_budget500": (lambda: _vk_pair(4, ["012", "123"]), 500),
}
COEQ_CASES = {
    name: (lambda pair=pair, budget=budget: colimits.coequalise(*pair(), budget=budget))
    for name, (pair, budget) in COEQ_PAIRS.items()
}
COEQ_CASES["pushout_ind4_keep012_keep123"] = _keep_pushout  # through colimits.pushout
# iso_check pairs: the first isomorphism the search returns is part of its contract
ISO_CASES = {
    "iso_vk_ind4_012_123_to_global": lambda: (
        _vk(4, ["012", "123"]).object,
        models.square_model(models.indiscrete_groupoid(4)),
    ),
    "iso_pushout_keep012_keep123_to_vk_ind4": lambda: (
        _keep_pushout().object,
        _vk(4, ["012", "123"]).object,
    ),
}
COEQ_FILE = GOLDEN / "coeq_fingerprints.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(q: colimits.QuotientResult) -> dict:
    p = q.projection
    maps = None if p is None else [sorted(m.items()) for m in (p.f0, p.f1, p.f2)]
    return {
        "status": q.status,
        "generators_added": q.generators_added,
        "stats": q.stats,
        "model_sha256": None if q.object is None else _sha256(write_model(q.object)),
        "projection_sha256": None if maps is None else _sha256(json.dumps(maps)),
    }


def iso_fingerprint(d, e) -> dict:
    iso = colimits.iso_check(d, e)
    maps = None if iso is None else [sorted(m.items()) for m in (iso.f0, iso.f1, iso.f2)]
    return {"iso_sha256": None if maps is None else _sha256(json.dumps(maps))}


@pytest.mark.parametrize("name", sorted(COEQ_CASES))
def test_coequaliser_matches_fingerprint(name):
    recorded = json.loads(COEQ_FILE.read_text(encoding="utf-8"))
    assert fingerprint(COEQ_CASES[name]()) == recorded[name]


@pytest.mark.parametrize("name", sorted(ISO_CASES))
def test_iso_check_matches_fingerprint(name):
    recorded = json.loads(COEQ_FILE.read_text(encoding="utf-8"))
    assert iso_fingerprint(*ISO_CASES[name]()) == recorded[name]


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
    prints = {name: fingerprint(COEQ_CASES[name]()) for name in sorted(COEQ_CASES)}
    prints.update({name: iso_fingerprint(*ISO_CASES[name]()) for name in sorted(ISO_CASES)})
    COEQ_FILE.write_text(json.dumps(prints, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {COEQ_FILE.name}", file=sys.stderr)
