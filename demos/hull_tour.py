"""Hulls of the standard families, ending with the product-graph surprise.

The C5 box C5 section recomputes its hull from scratch: of its 250
non-edges, three are searched, and the endomorphisms found and the graph's
automorphisms settle the rest. The last section takes the larger tori
C6 box C6 and C7 box C7.
"""

import time

from kernelgraphs import (
    are_isomorphic,
    cartesian_product,
    complement,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    hamming,
    hull,
    is_hull,
    path,
    to_graph6,
    union_complete,
)

print("hull(C5) =", to_graph6(hull(cycle(5))), "= K5:", hull(cycle(5)) == complete(5))
print("hull(C6) iso K(3,3):", are_isomorphic(hull(cycle(6)), complete_multipartite([3, 3])))
print("hull(P5) iso K(3,2):", are_isomorphic(hull(path(5)), complete_multipartite([3, 2])))

three_c5 = disjoint_union(cycle(5), 3)
print("hull(3.C5) = 3.K5:", hull(three_c5) == disjoint_union(complete(5), 3))

# One hull application always suffices: the hull is idempotent.
print(f"\nhull(P6) is its own hull: {is_hull(hull(path(6)))}")

# Complete multipartite graphs and unions of cliques are their own hulls.
for parts in ([4, 2, 1], [3, 3, 2]):
    print(f"K{parts} is a hull: {is_hull(complete_multipartite(parts))}")
    print(f"union of cliques {parts} is a hull: {is_hull(union_complete(parts))}")

print("\nC5 box C5:")
product = cartesian_product(cycle(5), cycle(5))
start = time.perf_counter()
h = hull(product)
print(f"  hull computed in {time.perf_counter() - start:.3f}s")
print(f"  equal to the product itself: {h == product}")

rook_complement = complement(hamming(2, 5))
print(f"  equal to the rook complement on product labels: {h == rook_complement}")
print(f"  isomorphic to the rook complement: {are_isomorphic(h, rook_complement)}")

# The isomorphism is the diagonal relabeling (i, j) -> (i + j, i - j) mod 5.
tau = [5 * ((v // 5 + v % 5) % 5) + ((v // 5 - v % 5) % 5) for v in range(25)]
print(f"  diagonal relabeling carries the hull onto it: {h.relabel(tau) == rook_complement}")

# A connected bipartite graph folds onto an edge: the hull joins exactly the
# vertices of opposite sides. Vertex (i, j) of the torus lies on side (i + j) mod 2.
print("\nLarger tori:")
torus = cartesian_product(cycle(6), cycle(6))
by_side = sorted(range(36), key=lambda v: ((v // 6 + v % 6) % 2, v))
k18_18 = complete_multipartite([18, 18]).relabel(by_side)
print("  hull(C6 box C6) = K18,18 on the two sides:", hull(torus, node_budget=2_000_000) == k18_18)
start = time.perf_counter()
h = hull(cartesian_product(cycle(7), cycle(7)), node_budget=2_000_000)
print(f"  hull(C7 box C7) computed in {time.perf_counter() - start:.3f}s: {h.edge_count} edges")
