"""Certificates that a coequaliser of double groupoids is infinite.

A certificate for the coequaliser Q of a parallel pair ``a, b: A => B`` is a
map phi from the edges of B to the integers with

- phi additive on ``edge_compose``, zero on each identity edge and negated
  by ``edge_inverse``;
- phi(a(x)) = phi(b(x)) for every edge x of A;
- phi zero on a spanning forest of the quotient's object classes: B's
  objects under the seeded object pairs a(o) ~ b(o), joined by B's edges;

and a closed path over those classes, one edge with phi nonzero closed
through the forest, whose phi-sum is nonzero.

Soundness.  Under Brown and Spencer's equivalence, a double groupoid with
connections is a crossed module over its edge groupoid, and taking the base
groupoid of a crossed module is left adjoint to P |-> (P -> P), the identity
crossed module on a groupoid P.  A left adjoint preserves colimits, so the
edge groupoid of Q is the groupoid coequaliser of ``a`` and ``b`` on edge
groupoids (the paper's van Kampen theorem at the edge level; Brown,
*Topology and Groupoids*).  The first two conditions make phi a functor from
B's edge groupoid to Z (one object) that ``a`` and ``b`` make equal, so it
factors through Q's edge groupoid as some psi.  The closed path is a loop of
Q's edge groupoid at one object class, and psi sends it to its phi-sum, which
is nonzero; so the loop has infinite order, and Q has infinitely many edges.
No finite quotient exists, and no budget makes the engine finish.  The forest
condition is how the search avoids coboundaries h(tgt) - h(src), which are
zero on every closed path: a coboundary that is zero on a spanning forest is
zero everywhere, so any nonzero phi found is not one.

Incompleteness.  The search finds phi exactly when some vertex group of Q's
edge groupoid maps onto a nonzero subgroup of Z.  An infinite group can have
no such map: gluing two copies of box(Z2) at a point gives Z2 * Z2, the
infinite dihedral group, whose abelianisation Z2 x Z2 is finite.  Such a
gluing gets no certificate, and ``colimits.coequalise`` runs its engine on it
as on every uncertified pair.  Square-level divergence over a finite edge
groupoid is out of reach too.

Checking the witness instead of trusting the search is the
certifying-algorithms method (McConnell, Mehlhorn, Naeher and Schweitzer,
Computer Science Review 5, 2011): ``check_divergence`` re-checks every
condition in one pass over the tables, and shares no code with
``find_divergence``.  The search is one sparse integer elimination; every
row is divided by the gcd of its entries, so no fractions are needed.
"""
from __future__ import annotations

from math import gcd
from typing import Optional

from .morphisms import DoubleMorphism


def find_divergence(a: DoubleMorphism, b: DoubleMorphism) -> Optional[dict]:
    """A certificate that the coequaliser of ``a`` and ``b`` is infinite, or None.

    The certificate is JSON-safe: ``phi`` maps every edge of ``a.target`` to
    an integer, ``path`` lists the closed path as ``[edge, +1 or -1]`` steps
    (-1 walks an edge backwards), and ``sum`` is phi's sum along it.  None
    means only that no such phi exists (see the module docstring).
    """
    base = a.target
    edges = base.edges
    parent = {o: o for o in base.objects}

    def root(x: str) -> str:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    # the quotient's object classes
    for o, ao in a.f0.items():
        ra, rb = root(ao), root(b.f0[o])
        if ra != rb:
            parent[ra] = rb
    cls = {o: root(o) for o in base.objects}
    # a spanning forest of the classes, from B's edges in sorted order; phi
    # is zero on it, so only the other edges are unknowns
    forest: dict[str, list[tuple[str, str, int]]] = {}
    col: dict[str, int] = {}
    for e in sorted(edges):
        s, t = cls[edges[e].src], cls[edges[e].tgt]
        rs, rt = root(s), root(t)
        if rs == rt:
            col[e] = len(col)
        else:
            parent[rs] = rt
            forest.setdefault(s, []).append((t, e, 1))
            forest.setdefault(t, []).append((s, e, -1))
    if not col:
        return None

    def equations():
        # identities and inverses follow from additivity on a lawful model;
        # they are stated too, so that a model that skipped the axiom suite,
        # whose tables the engine reads as a presentation, is not certified
        # by a phi that breaks them
        for (x, y), z in base.edge_compose.items():
            yield ((x, 1), (y, 1), (z, -1))
        for e in base.eps.values():
            yield ((e, 1),)
        for x, y in base.edge_inverse.items():
            yield ((x, 1), (y, 1))
        for x, ax in a.f1.items():
            yield ((ax, 1), (b.f1[x], -1))

    # echelon rows in the order found, each with its pivot column; a later
    # row has no entry in an earlier row's pivot column
    pivots: list[tuple[int, dict[int, int]]] = []
    for terms in equations():
        row: dict[int, int] = {}
        for e, k in terms:
            c = col.get(e)
            if c is not None:
                row[c] = row.get(c, 0) + k
        for c, prow in pivots:
            k = row.get(c)
            if k:
                p = prow[c]
                g = gcd(p, k)
                p, k = p // g, k // g
                if p != 1:
                    row = {d: v * p for d, v in row.items()}
                for d, v in prow.items():
                    w = row.get(d, 0) - k * v
                    if w:
                        row[d] = w
                    else:
                        row.pop(d, None)
        row = {d: v for d, v in row.items() if v}
        if row:
            g = gcd(*row.values())
            pivots.append((max(row), {d: v // g for d, v in row.items()}))
            if len(pivots) == len(col):
                return None  # phi is zero off the forest: no certificate
    # phi is 1 on the least free column and 0 on the others; back-substitute
    taken = {c for c, _ in pivots}
    free = min(c for c in range(len(col)) if c not in taken)
    val = {free: 1}
    for c, prow in reversed(pivots):
        p = prow[c]
        s = sum(k * val.get(d, 0) for d, k in prow.items() if d != c)
        if s % p:
            m = abs(p) // gcd(s, p)
            val = {d: v * m for d, v in val.items()}
            s *= m
        val[c] = -s // p
    g = gcd(*val.values())
    phi = {e: val.get(col[e], 0) // g if e in col else 0 for e in sorted(edges)}
    # close the free edge s -> t through the forest, from t back to s
    edge = next(e for e, c in col.items() if c == free)
    start, end = cls[edges[edge].src], cls[edges[edge].tgt]
    back: dict[str, Optional[tuple[str, str, int]]] = {end: None}
    frontier = [end]
    for x in frontier:
        for y, e, sign in forest.get(x, ()):
            if y not in back:
                back[y] = (x, e, sign)
                frontier.append(y)
    steps = []
    x = start
    while back[x] is not None:
        x, e, sign = back[x]
        steps.append([e, sign])
    return {"path": [[edge, 1], *reversed(steps)], "phi": phi, "sum": phi[edge]}


def describe(divergence: dict) -> str:
    """The report note for a certificate: its closed path and phi-sum."""
    walk = " ".join(e if sign == 1 else f"{e}^-1" for e, sign in divergence["path"])
    return f"proven infinite: the closed path {walk} has phi-sum {divergence['sum']}"


def check_divergence(a: DoubleMorphism, b: DoubleMorphism, divergence: dict) -> Optional[str]:
    """Why ``divergence`` fails to prove the coequaliser of ``a`` and ``b``
    infinite, or None when it proves it.

    Reads each table once and checks every condition of the module
    docstring: phi is an integer on each edge of ``a.target``, additive,
    zero on identities, negated by inverses and equal on each seeded edge
    pair; its zero edges join the object classes as all edges do, so phi is
    zero on some spanning forest; and ``path`` is a closed path over the
    classes whose phi-sum is nonzero and equals ``sum``.  The soundness
    argument needs only the closed path; the forest is re-checked because
    the certificate states it.
    """
    base = a.target
    edges = base.edges
    phi = divergence["phi"]
    if set(phi) != set(edges) or any(type(v) is not int for v in phi.values()):
        return "phi is not an integer on each edge"
    for (x, y), z in base.edge_compose.items():
        if phi[x] + phi[y] != phi[z]:
            return f"phi is not additive at {x} then {y}"
    for e in base.eps.values():
        if phi[e]:
            return f"phi is not zero on the identity {e}"
    for x, y in base.edge_inverse.items():
        if phi[x] + phi[y]:
            return f"phi does not negate the inverse of {x}"
    for x, ax in a.f1.items():
        if phi[ax] != phi[b.f1[x]]:
            return f"phi differs on the seeded pair {ax}, {b.f1[x]}"

    def labels(nodes, links) -> dict:
        """Each node's component under ``links``, named by a walk from its first node."""
        near: dict = {}
        for x, y in links:
            near.setdefault(x, []).append(y)
            near.setdefault(y, []).append(x)
        label: dict = {}
        for x in nodes:
            if x not in label:
                label[x] = x
                todo = [x]
                while todo:
                    for y in near.get(todo.pop(), ()):
                        if y not in label:
                            label[y] = x
                            todo.append(y)
        return label

    cls = labels(base.objects, ((ao, b.f0[o]) for o, ao in a.f0.items()))
    ends = {e: (cls[s], cls[t]) for e, (s, t) in edges.items()}
    # the zero edges join the ends of every edge exactly when they hold a
    # spanning forest of the classes
    by_zero = labels(sorted(set(cls.values())), (ends[e] for e in edges if not phi[e]))
    if any(by_zero[x] != by_zero[y] for x, y in ends.values()):
        return "phi is not zero on a spanning forest of the object classes"
    path = divergence["path"]
    if not path:
        return "the path is empty"
    total, at = 0, None
    for e, sign in path:
        if e not in edges or sign not in (1, -1):
            return f"the path step {e} {sign} is not an edge walked either way"
        s, t = ends[e] if sign == 1 else ends[e][::-1]
        if at is None:
            first = s
        elif s != at:
            return f"the path breaks before {e}"
        at = t
        total += sign * phi[e]
    if at != first:
        return "the path is not closed"
    if not total or total != divergence["sum"]:
        return f"the path's phi-sum is {total}, the certificate says {divergence['sum']}"
    return None
