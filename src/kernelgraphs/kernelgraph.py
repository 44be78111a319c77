"""Kernel graphs of transformation sets, hulls, and derived graphs.

The kernel graph joins two points exactly when no member of the semigroup
maps them to the same point. A graph equal to the kernel graph of its own
endomorphism monoid is called a hull.
"""

from __future__ import annotations

import itertools

from .errors import _Budget
from .graphs import Graph, _ir_search, clique_number, complete
from .groups import PermGroup
from .semigroup import (
    _check_generators,
    _merging_endomorphism,
    _orbit_roots,
    _pair_collapse_table,
    min_rank_of_generators,
)
from .transform import kernel_of_images

__all__ = [
    "KernelGraphResult",
    "kernel_graph",
    "closure_kernel_graph",
    "hull",
    "is_hull",
    "iterated_hull",
    "derived_graph",
]


class KernelGraphResult:
    """Kernel graph plus the rank data that came out of the computation.

    ``kernels`` holds the distinct kernels of the minimal-rank members,
    sorted by blocks, or None when no member list was formed. For
    ``kernel_graph`` they are partitioned on first access.
    """

    __slots__ = ("graph", "min_rank", "_kernels", "_members")

    def __init__(self, graph: Graph, min_rank: int | None, kernels):
        self.graph = graph
        self.min_rank = min_rank
        self._kernels = kernels
        self._members = None  # members whose minimal-rank kernels are not built yet

    @property
    def kernels(self):
        if self._members is not None:
            least = {t.kernel() for t in self._members if t.rank == self.min_rank}
            self._kernels = tuple(sorted(least, key=lambda p: p.blocks))
            self._members = None
        return self._kernels

    def __repr__(self) -> str:
        return f"<KernelGraphResult n={self.graph.n} min_rank={self.min_rank}>"


def kernel_graph(members, n: int | None = None) -> KernelGraphResult:
    """Kernel graph of an explicit set of transformations.

    With no members the graph is complete, so ``n`` is required then.
    """
    members = list(members)
    if not members:
        if n is None:
            raise ValueError("need n when the member list is empty")
        return KernelGraphResult(complete(n), None, ())
    size = members[0].n
    for t in members:
        if t.n != size:
            raise ValueError(f"members act on different point counts: {t.n} vs {size}")
    if n is not None and n != size:
        raise ValueError(f"n={n} disagrees with members on {size} points")
    # start complete, then drop every pair that some member maps to one point
    adj = [((1 << size) - 1) ^ (1 << v) for v in range(size)]
    for t in members:
        preimage = [0] * size
        for v, x in enumerate(t.images):
            preimage[x] |= 1 << v
        for v, x in enumerate(t.images):
            adj[v] &= ~preimage[x]
    result = KernelGraphResult(Graph.from_adj(adj), min(t.rank for t in members), None)
    result._members = members
    return result


def closure_kernel_graph(generators) -> KernelGraphResult:
    """Kernel graph of the semigroup generated by the given transformations.

    Works on pair reachability, never materializing the closure: a pair is a
    non-edge exactly when some product merges it, found by exploring the
    pair graph from every pair. The minimal rank comes from
    ``min_rank_of_generators``, the size of the image left by collapsing
    pairs greedily (omega = chi = rank).
    """
    gens = _check_generators(generators)
    n = gens[0].n
    merged = _pair_collapse_table(gens, n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in merged]
    return KernelGraphResult(Graph(n, edges), min_rank_of_generators(gens), None)


def _uncollapsible_nonedges(g: Graph, node_budget: int | None):
    """Non-adjacent pairs (u, v), u < v, that no endomorphism of g merges, ascending.

    One search settles more than its own pair. Every pair that the
    endomorphism it finds merges is collapsible, and each verdict holds on
    the pair's whole orbit under Aut(G): if f merges u and v and s is an
    automorphism, x -> f(s^-1(x)) merges s(u) and s(v). The automorphism
    search runs only once a second pair search is needed, so a graph that
    one map settles pays for no group; from then on the first image of
    every pair search is pruned to the least vertex of each Aut(G)-orbit.
    ``node_budget`` caps each search on its own.
    """
    orbit: dict[tuple[int, int], tuple[int, int]] = {}  # pair -> least pair of its orbit
    roots = None  # bitset of Aut(G)'s orbit minima, once the automorphism search has run
    verdict: dict[tuple[int, int], bool] = {}  # orbit label -> collapsible
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] >> v & 1:
                continue
            label = orbit.get((u, v), (u, v))
            if label not in verdict and verdict and not orbit:
                # a second search is due: from now on verdicts spread over orbits
                generators = _ir_search(g, _Budget(node_budget, "automorphism search"))[1]
                orbit = PermGroup(g.n, generators).pair_orbits()
                roots = sum(1 << r for r in _orbit_roots(g.n, generators))
                verdict = {orbit[p]: merged for p, merged in verdict.items()}
                label = orbit[(u, v)]
            if label not in verdict:
                images = _merging_endomorphism(g, u, v, node_budget, roots)
                if images is None:
                    verdict[label] = False
                else:
                    for block in kernel_of_images(images):
                        for p in itertools.combinations(block, 2):
                            verdict[orbit.get(p, p)] = True
            if not verdict[label]:
                yield u, v


def hull(g: Graph, *, node_budget: int | None = None) -> Graph:
    """Kernel graph of the endomorphism monoid of g.

    Two vertices are adjacent in the hull exactly when no endomorphism of g
    merges them. The input is always a spanning subgraph of its hull.
    ``node_budget`` caps every search of the call, each on its own: the
    search for an endomorphism merging a pair, and the automorphism search
    that spreads each verdict over the pair's orbit.
    """
    return Graph(g.n, [*g.edges(), *_uncollapsible_nonedges(g, node_budget)])


def is_hull(g: Graph, *, node_budget: int | None = None) -> bool:
    """True when hull(g) == g; stops at the first non-edge no endomorphism merges."""
    return next(_uncollapsible_nonedges(g, node_budget), None) is None


def iterated_hull(g: Graph, *, node_budget: int | None = None) -> tuple[Graph, int]:
    """Apply hull until it stops changing; returns (fixed point, steps used)."""
    steps = 0
    while True:
        h = hull(g, node_budget=node_budget)
        if h == g:
            return g, steps
        g = h
        steps += 1


def derived_graph(g: Graph) -> Graph:
    """Subgraph keeping only the edges that lie in some maximum clique.

    An edge survives exactly when the common neighborhood of its endpoints
    holds a clique two smaller than the maximum.
    """
    if g.edge_count == 0:
        return g
    omega = clique_number(g)
    kept = []
    for u, v in g.edges():
        common = g.adj[u] & g.adj[v]
        members = [w for w in range(g.n) if common >> w & 1]
        if clique_number(g.induced(members)) == omega - 2:
            kept.append((u, v))
    return Graph(g.n, kept)
