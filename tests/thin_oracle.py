"""``thin_set`` as it stood before it paired squares through a composition index.

A copy of the earlier ``cubal.thin.thin_set``: each new thin square is
paired with a freshly sorted list of every known one.  Kept as the oracle for
``test_thin.py``: the current closure must find the same witnesses in the
same order.  Not used by the library.
"""
from __future__ import annotations

from cubal.core import DoubleGC, SquareFaces
from cubal.thin import ThinSet, Witness


def oracle_thin_set(model: DoubleGC) -> ThinSet:
    witness: dict[str, Witness] = {}
    frontier: list[str] = []

    def seed(square: str, w: Witness) -> None:
        if square not in witness:
            witness[square] = w
            frontier.append(square)

    for e in sorted(model.edges):
        for tag in ("e1", "e2", "gm", "gp"):
            seed(model.table(tag)[e], (tag, e))

    members = set(witness)
    while frontier:
        new = frontier
        frontier = []
        # pair every new member with everything known, both orders, both ways
        for s in new:
            for t in sorted(members):
                for direction, tag in ((1, "c1"), (2, "c2")):
                    table = model.compose_table(direction)
                    for a, b in ((s, t), (t, s)):
                        got = table.get((a, b))
                        if got is not None and got not in witness:
                            witness[got] = (tag, witness[a], witness[b])
                            frontier.append(got)
            members.add(s)
        members.update(frontier)

    by_shell: dict[SquareFaces, list[str]] = {}
    for s in sorted(witness):
        by_shell.setdefault(model.squares[s], []).append(s)
    return ThinSet(
        members=frozenset(witness),
        witness=witness,
        by_shell={k: tuple(v) for k, v in by_shell.items()},
    )
