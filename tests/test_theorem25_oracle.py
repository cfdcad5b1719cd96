"""``theorem25_harness`` against its composite-by-composite oracle.

When exhaustive, the harness looks each composite up among the commutative
cubes instead of composing out its odd and even arrays; when sampled, it
reads the draw and the model once per direction.  ``cube_oracle`` keeps the
loop it replaced, which decides every composite by ``_commutes`` and
rebuilds each draw's pins.  Both must give the same ``Report`` (violations,
``checked_count`` and notes) or raise the same exception with the same
message.  The 13 single-entry mutants of box(z2) come from
``perfbench/workloads.py``, read and never edited.
"""
import pytest

from cube_oracle import oracle_theorem25_harness
from test_bench_workloads import _workloads
from test_colimits import xmod_model
from test_replay_compiled import zero_monoid_box

from cubal import models, shells

MODELS = {
    "box(z2)": lambda: models.parse_generator("box(z2)"),
    "klein shift": lambda: models.parse_generator("shift(prod(z2,z2))"),
    "zero-monoid box": zero_monoid_box,
    "xmod(0, factors=1)": lambda: xmod_model(0, factors=1),
}
# every pair of the Klein shift (262,144 per direction) and of the crossed
# module (40,310,784) is too many for the oracle: both are sampled only
EXHAUSTIVE = ("box(z2)", "zero-monoid box")
SEEDS = (0, 1, 2)
SAMPLES = 40


def _outcome(harness, model, exhaustive, seed):
    try:
        return ("value", harness(model, exhaustive, SAMPLES, seed))
    except Exception as exc:  # the outcome under test includes the exception
        return ("raise", type(exc).__name__, str(exc))


def _agree(model, exhaustive, seed=0):
    got = _outcome(shells.theorem25_harness, model, exhaustive, seed)
    assert got == _outcome(oracle_theorem25_harness, model, exhaustive, seed)
    return got


@pytest.mark.parametrize("name", EXHAUSTIVE)
def test_exhaustive_closure_matches_the_oracle(name):
    got = _agree(MODELS[name](), True)
    assert got[0] == "value" and got[1].ok and got[1].checked_count


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_sampled_closure_matches_the_oracle(name, seed):
    got = _agree(MODELS[name](), False, seed)
    assert got[0] == "value" and got[1].ok
    assert got[1].checked_count == {f"closure-dir{d}": SAMPLES for d in (1, 2, 3)}


def test_closure_on_the_mutants_matches_the_oracle():
    # on seven mutants a composite is undefined or not a cube, in both
    # modes; the other six pass
    mutants = _workloads().z2_mutants(models.parse_generator("box(z2)"))
    assert len(mutants) == 13
    kinds = set()
    for model, _ in mutants.values():
        for exhaustive, seed in ((True, 0), *((False, s) for s in SEEDS)):
            got = _agree(model, exhaustive, seed)
            kinds.add(got[1] if got[0] == "raise" else got[1].ok)
    assert kinds == {True, "MalformedModel", "NotComposable"}
