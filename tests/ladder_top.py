"""The top rung of the model ladder: van Kampen on indiscrete(6) with two charts.

pytest does not collect this file.  Run it from a checkout:

    PYTHONPATH=src python tests/ladder_top.py

It coequalises the cover {0123, 2345} at the default budget, asserts a
finite quotient of 6 objects, 36 edges and 1,296 squares that ``iso_check``
finds isomorphic to the global square model, and prints the wall time of
each phase and the engine's counters.
"""
import time

from cubal import colimits, models


def timed(phases: dict, name: str, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    phases[name] = time.perf_counter() - start
    return out


def main() -> None:
    phases: dict[str, float] = {}
    cat = models.indiscrete_groupoid(6)
    cover = [list("0123"), list("2345")]
    a, b, full = timed(phases, "vk_sequence", colimits.vk_sequence, cat, cover)
    q = timed(phases, "coequalise", colimits.coequalise, a, b)
    assert q.status == "finite", q.status
    size = q.object.stats()
    assert (size["objects"], size["edges"], size["squares"]) == (6, 36, 1296), size
    iso = timed(phases, "iso_check", colimits.iso_check, q.object, full)
    assert iso is not None, "quotient not isomorphic to the global square model"
    for name, seconds in phases.items():
        print(f"{name:<12} {seconds:7.2f} s")
    print(f"{'total':<12} {sum(phases.values()):7.2f} s")
    print(f"generators_added {q.generators_added}, stats {q.stats}")
    print("vK indiscrete(6) {0123,2345}: finite, 6/36/1296, isomorphic to the global model")


if __name__ == "__main__":
    main()
