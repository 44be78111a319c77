"""Relabelling cross-check: the graph invariants must not depend on vertex names.

Symmetry pruning (orbit roots, fixers, first images cut to orbit minima) can
go wrong for some labellings only, so each graph below is relabelled twice and
every answer compared with the unrelabelled one:

- ``hull`` and ``derived_graph`` commute with the relabelling;
- ``count_endomorphisms`` and the automorphism group order are unchanged;
- on hulls with at most 8 vertices, the ``size``, ``minimal`` and
  ``lower_bound`` of the free and of the endomorphic
  ``minimal_generating_set`` are unchanged.

The graphs: the family graphs C5□C5, C5□P4, H(3,3), the rook graph 4×4 and
its complement, Paley 13, T(6), C5□C7 and C7□P3 (each hull takes under 1 s);
then 100 graphs drawn from ``random.Random(3)``, each with ``randint(5, 10)``
vertices and edge probability ``choice((0.3, 0.5, 0.7, 0.9))``. The hull of a
random graph with n <= 8 vertices also runs the generating-set checks. The
relabellings are ``sample(range(n), n)`` from one ``random.Random(7)``, two
per graph in the order listed. About 5 s on 2 cores (Python 3.11).
"""

import random

import pytest

from kernelgraphs.graphs import (
    Graph,
    cartesian_product,
    complement,
    cycle,
    hamming,
    paley,
    path,
    square_lattice,
    triangular,
)
from kernelgraphs.groups import automorphism_group
from kernelgraphs.kernelgraph import derived_graph, hull
from kernelgraphs.mingen import minimal_generating_set
from kernelgraphs.semigroup import count_endomorphisms

pytestmark = pytest.mark.slow

FAMILIES = {
    "C5xC5": cartesian_product(cycle(5), cycle(5)),
    "C5xP4": cartesian_product(cycle(5), path(4)),
    "H(3,3)": hamming(3, 3),
    "rook4x4": square_lattice(4),
    "rook4x4-complement": complement(square_lattice(4)),
    "Paley13": paley(13),
    "T(6)": triangular(6),
    "C5xC7": cartesian_product(cycle(5), cycle(7)),
    "C7xP3": cartesian_product(cycle(7), path(3)),
}


def _random_graphs(count: int) -> list[Graph]:
    rng = random.Random(3)
    graphs = []
    for _ in range(count):
        n = rng.randint(5, 10)
        p = rng.choice((0.3, 0.5, 0.7, 0.9))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(Graph(n, edges))
    return graphs


GRAPHS = list(FAMILIES.values()) + _random_graphs(100)
IDS = list(FAMILIES) + [f"random{i}" for i in range(100)]
_PERMS = random.Random(7)
RELABELLINGS = [[_PERMS.sample(range(g.n), g.n) for _ in range(2)] for g in GRAPHS]


def _answers(g: Graph):
    """The hull, the derived graph, and the label-free numbers of g."""
    h = hull(g)
    numbers = [count_endomorphisms(g), automorphism_group(g).order()]
    if g.n <= 8:
        for endomorphic in (False, True):
            found = minimal_generating_set(h, within_endomorphisms=endomorphic)
            numbers.append((found.size, found.minimal, found.lower_bound))
    return h, derived_graph(g), numbers


@pytest.mark.parametrize("index", range(len(GRAPHS)), ids=IDS)
def test_answers_commute_with_relabelling(index):
    g = GRAPHS[index]
    h, d, numbers = _answers(g)
    for perm in RELABELLINGS[index]:
        h2, d2, numbers2 = _answers(g.relabel(perm))
        assert h2 == h.relabel(perm)
        assert d2 == d.relabel(perm)
        assert numbers2 == numbers
