"""Counting endomorphisms and naming automorphism groups."""

import time

from kernelgraphs import (
    automorphism_group,
    cartesian_product,
    complete,
    count_endomorphisms,
    cycle,
    disjoint_union,
    group_name,
    hamming,
    path,
    square_lattice,
)

for label, g in [
    ("C5", cycle(5)),
    ("P4", path(4)),
    ("K4", complete(4)),
    ("L(3)", square_lattice(3)),
]:
    group = automorphism_group(g)
    print(f"{label}: End count {count_endomorphisms(g)}, Aut {group_name(group)} of order {group.order()}")

# Counts multiply over components of the source, so three disjoint copies
# stay cheap even though the raw numbers get large.
print()
for label, g, expect in [
    ("3.C5", disjoint_union(cycle(5), 3), 30**3),
    ("3.K5", disjoint_union(complete(5), 3), 360**3),
]:
    start = time.perf_counter()
    count = count_endomorphisms(g)
    elapsed = time.perf_counter() - start
    print(f"End({label}) = {count:,} in {elapsed:.3f}s")
    assert count == expect

# Vertex-transitive graphs: the count searches Aut(G) first and roots each
# component only at the least vertex r of each orbit, and its second vertex
# only at the least vertex x of each orbit of the automorphisms found that fix
# r, weighting every map by the size of r's orbit times that of x's, so one
# subtree stands for all of its images. The Q4 figure was computed by the earlier search that
# tried every root, in 12-14 s on 2 shared cores under Python 3.11; this one
# takes about 0.4 s there.
print()
for label, g, expect in [
    ("C5xC5", cartesian_product(cycle(5), cycle(5)), 400),
    ("H(3,3)", hamming(3, 3), 5_832),
    ("Q4", hamming(4, 2), 26_222_848),
]:
    start = time.perf_counter()
    count = count_endomorphisms(g)
    elapsed = time.perf_counter() - start
    print(f"End({label}) = {count:,} in {elapsed:.3f}s")
    assert count == expect
