"""Kernel graphs of transformation sets, hulls, and derived graphs.

The kernel graph joins two points exactly when no member of the semigroup
maps them to the same point. A graph equal to the kernel graph of its own
endomorphism monoid is called a hull.
"""

from __future__ import annotations

import itertools

from .errors import _Budget
from .graphs import Graph, _ir_search, _max_clique, _orbit_roots, complete
from .semigroup import (
    _check_generators,
    _merging_endomorphism,
    _pair_collapse_table,
    _preimages,
    min_rank_of_generators,
)
from .transform import kernel_of_images

__all__ = [
    "KernelGraphResult",
    "kernel_graph",
    "closure_kernel_graph",
    "hull",
    "is_hull",
    "derived_graph",
]


class KernelGraphResult:
    """Kernel graph plus the minimal rank of its members (None when there are none)."""

    __slots__ = ("graph", "min_rank")

    def __init__(self, graph: Graph, min_rank: int | None):
        self.graph = graph
        self.min_rank = min_rank

    def __repr__(self) -> str:
        return f"<KernelGraphResult n={self.graph.n} min_rank={self.min_rank}>"


def _kernel_adjacency(members, size: int) -> list[int]:
    """Adjacency bitsets of the kernel graph of ``members``, transformations on ``size`` points."""
    # start complete, then drop every pair that some member maps to one point
    adj = [((1 << size) - 1) ^ (1 << v) for v in range(size)]
    for t in members:
        preimage = _preimages(t.images, size)
        for v, x in enumerate(t.images):
            adj[v] &= ~preimage[x]
    return adj


def kernel_graph(members, n: int | None = None) -> KernelGraphResult:
    """Kernel graph of an explicit set of transformations.

    With no members the graph is complete, so ``n`` is required then.
    """
    members = list(members)
    if not members:
        if n is None:
            raise ValueError("need n when the member list is empty")
        return KernelGraphResult(complete(n), None)
    size = members[0].n
    for t in members:
        if t.n != size:
            raise ValueError(f"members act on different point counts: {t.n} vs {size}")
    if n is not None and n != size:
        raise ValueError(f"n={n} disagrees with members on {size} points")
    min_rank = min(t.rank for t in members)
    return KernelGraphResult(Graph.from_adj(_kernel_adjacency(members, size)), min_rank)


def closure_kernel_graph(generators) -> KernelGraphResult:
    """Kernel graph of the semigroup generated by the given transformations.

    Works on pair reachability, never materializing the closure: a pair is a
    non-edge exactly when some product merges it, found by propagating the
    merged pairs backward through the generators' preimages. The minimal
    rank comes from ``min_rank_of_generators``, the size of the image left
    by collapsing pairs greedily (omega = chi = rank).
    """
    gens = _check_generators(generators)
    n = gens[0].n
    full = (1 << n) - 1
    rows = _pair_collapse_table(gens, n, _Budget(None, "pair search"))
    graph = Graph.from_adj([full ^ row ^ (1 << u) for u, row in enumerate(rows)])
    return KernelGraphResult(graph, min_rank_of_generators(gens))


def _nonedge_orbits(g: Graph, generators) -> dict[tuple[int, int], tuple[int, int]]:
    """Each non-edge (u, v), u < v, mapped to the least pair of its orbit under ``generators``.

    The generators are automorphisms of g, so a breadth-first walk from a
    non-edge meets only non-edges; walks start in ascending order.
    """
    label: dict[tuple[int, int], tuple[int, int]] = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] >> v & 1 or (u, v) in label:
                continue
            label[(u, v)] = (u, v)
            queue = [(u, v)]
            for a, b in queue:  # grows while it is read
                for s in generators:
                    qa, qb = s[a], s[b]
                    pair = (qa, qb) if qa < qb else (qb, qa)
                    if pair not in label:
                        label[pair] = (u, v)
                        queue.append(pair)
    return label


def _uncollapsible_nonedges(g: Graph, budget: _Budget):
    """Non-adjacent pairs (u, v), u < v, that no endomorphism of g merges, ascending.

    One search settles more than its own pair. Every pair that the
    endomorphism it finds merges is collapsible, and each verdict holds on
    the pair's whole orbit under Aut(G): if f merges u and v and s is an
    automorphism, x -> f(s^-1(x)) merges s(u) and s(v). The automorphism
    search runs only once a second pair search is needed, so a graph that
    one map settles pays for no group; from then on verdicts are kept per
    ``_nonedge_orbits`` label, and the first image of every pair search is
    pruned to the least vertex of each Aut(G)-orbit. The automorphism search
    and every pair search tick the one ``budget``.
    """
    orbit: dict[tuple[int, int], tuple[int, int]] = {}  # non-edge -> least pair of its orbit
    roots = None  # bitset of Aut(G)'s orbit minima, once the automorphism search has run
    verdict: dict[tuple[int, int], bool] = {}  # orbit label -> collapsible
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] >> v & 1:
                continue
            label = orbit.get((u, v), (u, v))
            if label not in verdict and verdict and not orbit:
                # a second search is due: from now on verdicts spread over orbits
                budget.what = "automorphism search"
                generators = _ir_search(g, budget)[1]
                orbit = _nonedge_orbits(g, generators)
                roots = sum(1 << r for r in _orbit_roots(g.n, generators))
                verdict = {orbit[p]: merged for p, merged in verdict.items()}
                label = orbit[(u, v)]
            if label not in verdict:
                images = _merging_endomorphism(g, u, v, budget, roots)
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
    ``node_budget`` caps the search nodes of the whole call, summed over its
    pair searches and its automorphism search.

    The hull is idempotent. An endomorphism f of g never merges the ends of
    an edge xy of hull(g), nor sends them to a pair that an endomorphism h of
    g merges, since h after f would merge x and y; so f is an endomorphism of
    hull(g), and each pair it merges stays a non-edge.
    """
    budget = _Budget(node_budget, "homomorphism search")
    return Graph(g.n, [*g.edges(), *_uncollapsible_nonedges(g, budget)])


def is_hull(g: Graph, *, node_budget: int | None = None) -> bool:
    """True when hull(g) == g; stops at the first non-edge no endomorphism merges."""
    budget = _Budget(node_budget, "homomorphism search")
    return next(_uncollapsible_nonedges(g, budget), None) is None


def derived_graph(g: Graph) -> Graph:
    """Subgraph keeping only the edges that lie in some maximum clique.

    An edge survives exactly when the common neighborhood of its endpoints
    holds a clique two smaller than the maximum.
    """
    budget = _Budget(None, "clique search")  # one counter for every search of the call
    omega = _max_clique(g, budget)[0]
    common = {(u, v): g.adj[u] & g.adj[v] for u, v in g.edges()}
    return Graph(g.n, [e for e, m in common.items() if _max_clique(g, budget, m)[0] == omega - 2])
