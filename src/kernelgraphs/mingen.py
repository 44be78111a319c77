"""Smallest transformation sets whose kernel graph is a prescribed graph.

Only kernels matter here: a set of maps has kernel graph G exactly when every
kernel class is independent in G and every non-adjacent pair is merged by some
member. The search space is therefore partitions of the vertices into
independent blocks; chosen partitions are realized as transformations at the
end. Every constructor re-derives the kernel graph of what it built and
refuses to return a set that misses the target.

A partition merges a subset of another's pairs exactly when it refines it,
so a minimum cover needs only partitions whose merged pairs are maximal.
Among partitions into independent blocks those are the complete colourings,
where every two blocks are joined: unjoined blocks could merge, and anything
coarser merges two blocks. A hull has chi = omega (Cameron and Kazanidis,
Cores of symmetric graphs, 2008), and an endomorphism followed by an
omega-colouring sent onto a maximum clique has a coarser kernel with omega
classes; so the maximal endomorphism kernels are the omega-colourings, each
complete with quotient K_omega, and the endomorphic walk opens <= omega blocks.
As endomorphisms they merge every non-edge exactly when g is a hull.

Pair sets on n vertices are integers with pair u < v as bit u*n + v, so bits
run in lexicographic pair order. The partition walk places vertices in order
and keeps, per block, the OR of 1 << u*n over its vertices u; placing v into
a block adds that integer shifted left by v, its pairs with v, to the mask.
"""

from dataclasses import dataclass

from .designs import MAX_FIELD_ORDER, FiniteField, _prime_power, mols_complete
from .errors import (
    KernelGraphsError,
    NotAHullError,
    UnsupportedParameterError,
    _Budget,
)
from .graphs import (
    Graph,
    _bits,
    categorical_power,
    clique_number,
    complement,
    complete,
    hamming,
    square_lattice,
    union_complete,
)
from .kernelgraph import _uncollapsible_nonedges, kernel_graph
from .semigroup import homomorphisms_iter
from .transform import Partition, Transformation


@dataclass(frozen=True)
class GeneratingSet:
    """Transformations whose kernel graph is the requested graph.

    ``minimal`` records whether the cardinality is proved optimal;
    ``lower_bound`` is the best bound established either way.
    """

    transformations: tuple[Transformation, ...]
    minimal: bool
    lower_bound: int
    method: str

    @property
    def size(self) -> int:
        return len(self.transformations)


def _check_regenerates(g: Graph, maps) -> None:
    if kernel_graph(list(maps), n=g.n).graph != g:
        raise KernelGraphsError("generating set does not reproduce the target graph")


# ----------------------------------------------------------- exhaustive search

_EXHAUSTIVE_LIMIT = 10


def _complete_colourings(g: Graph, most: int):
    """Partitions into at most ``most`` independent blocks, each two joined.

    Yields ``(block_of, mask)``: the block index of each vertex, and the
    merged pairs with pair u < v as bit u*n + v. ``block_of`` is live and
    changes after the next item.
    """
    adj = g.adj
    n = g.n
    # per block: its vertices, the OR of 1 << u*n over them, and the OR of
    # their neighbourhoods, all as bitmasks
    state: list[tuple[int, int, int]] = []
    block_of = [0] * n

    def place(v: int, mask: int):
        if v == n:
            if all(r & b for k, (_, _, r) in enumerate(state) for b, _, _ in state[:k]):
                yield block_of, mask
            return
        bit = 1 << v
        a = adj[v]
        for i, (b, s, r) in enumerate(state):
            if not b & a:
                state[i] = (b | bit, s | 1 << v * n, r | a)
                block_of[v] = i
                yield from place(v + 1, mask | s << v)
                state[i] = (b, s, r)
        if len(state) < most:
            block_of[v] = len(state)
            state.append((bit, 1 << v * n, a))
            yield from place(v + 1, mask)
            state.pop()

    yield from place(0, 0)


def _min_cover(masks: list[int], full: int, *, node_budget: int | None = None) -> list[int]:
    """Indices of a minimum subfamily of masks covering all bits of full."""
    covered = 0
    greedy: list[int] = []
    while covered != full:
        i = max(range(len(masks)), key=lambda i: (masks[i] & ~covered).bit_count())
        greedy.append(i)
        covered |= masks[i]
    owners = {b: [i for i, mk in enumerate(masks) if mk >> b & 1] for b in _bits(full)}
    maxpop = max(mk.bit_count() for mk in masks)
    best = greedy
    chosen: list[int] = []
    budget = _Budget(node_budget, "cover search")

    def search(covered: int) -> None:
        nonlocal best
        if covered == full:
            if len(chosen) < len(best):
                best = chosen.copy()
            return
        budget.tick()
        need = (full & ~covered).bit_count()
        if len(chosen) + -(-need // maxpop) >= len(best):
            return
        b = min(_bits(full & ~covered), key=lambda b: len(owners[b]))
        for i in sorted(owners[b], key=lambda i: -(masks[i] & ~covered).bit_count()):
            chosen.append(i)
            search(covered | masks[i])
            chosen.pop()

    search(0)
    return best


def minimal_generating_set(
    g: Graph,
    *,
    within_endomorphisms: bool = False,
    node_budget: int | None = None,
) -> GeneratingSet:
    """A minimum-cardinality transformation set with kernel graph exactly g.

    With ``within_endomorphisms`` every member must additionally be an
    endomorphism of g; that variant is solvable exactly when g is a hull,
    and NotAHullError reports the obstruction otherwise.
    """
    found = _minimum(g, within_endomorphisms, node_budget)
    if found is None:
        pairs = _uncollapsible_nonedges(g, node_budget)
        listed = ", ".join(f"({u + 1},{v + 1})" for u, v in pairs)
        raise NotAHullError(f"no endomorphism merges the pair(s) {listed}")
    return found


def _minimum(g: Graph, within_endomorphisms: bool, node_budget: int | None):
    """``minimal_generating_set``, or None when its omega-colourings show g is no hull."""
    n = g.n
    full = sum(  # the non-edges u < v, as bits u*n + v
        1 << u * n + v for u in range(n) for v in range(u + 1, n) if not g.adj[u] >> v & 1
    )
    if not full:
        return GeneratingSet((), True, 0, "complete")
    if n > _EXHAUSTIVE_LIMIT:
        raise UnsupportedParameterError(
            f"exhaustive search handles at most {_EXHAUSTIVE_LIMIT} vertices; "
            "use a family constructor for larger graphs"
        )
    most = clique_number(g) if within_endomorphisms else n
    cands = [(tuple(block_of), mask) for block_of, mask in _complete_colourings(g, most)]
    cands.sort(key=lambda c: -c[1].bit_count())
    if within_endomorphisms:
        union = 0
        for _, mask in cands:
            union |= mask
        if union != full:
            return None
    chosen = _min_cover([mask for _, mask in cands], full, node_budget=node_budget)
    if within_endomorphisms:
        # every chosen colouring has quotient K_omega: send its blocks onto one clique
        clique = next(homomorphisms_iter(complete(most), g, node_budget=node_budget))
        maps = tuple(Transformation([clique[b] for b in cands[i][0]]) for i in chosen)
        method = "exhaustive-endomorphic"
    else:
        # each vertex to the least vertex of its block, the one that opened it
        maps = tuple(
            Transformation([cands[i][0].index(b) for b in cands[i][0]]) for i in chosen
        )
        method = "exhaustive"
    _check_regenerates(g, maps)
    return GeneratingSet(maps, True, len(chosen), method)


def _counting_lower_bound(n_vertices: int, nonedge_count: int, alpha: int) -> int:
    """ceil(non-edges / best conceivable single-partition coverage)."""
    if alpha < 2:
        raise ValueError("complete graphs have no non-edges to cover")
    whole, rem = divmod(n_vertices, alpha)
    cap = whole * alpha * (alpha - 1) // 2 + rem * (rem - 1) // 2
    return -(-nonedge_count // cap)


# ------------------------------------------------------ disjoint single edges

# the largest anchor whose refutation finishes: 3 partitions at 5 edges take
# 20,721 nodes, while 4 partitions at 9 edges, the next anchor, have never
# finished, even at 2,000,000 nodes
_MATCHING_ANCHOR = 5


def matching_generators(copies: int) -> GeneratingSet:
    """Generators for a disjoint union of edges on vertex pairs (2i, 2i+1).

    Each member splits the vertices into two classes by a row of a binary
    matrix with distinct columns plus an all-ones row; any two edges then see
    both an agreeing and a disagreeing row, which covers all four cross pairs.
    """
    if copies < 1:
        raise ValueError("need at least one edge")
    g = union_complete([2] * copies)
    if copies == 1:
        return GeneratingSet((), True, 0, "complete")
    r = (copies - 1).bit_length()
    maps = []
    for row in range(r + 1):
        images = [0] * (2 * copies)
        for i in range(copies):
            bit = 1 if row == r else i >> row & 1
            images[2 * i] = bit
            images[2 * i + 1] = 1 - bit
        maps.append(Transformation(images))
    _check_regenerates(g, tuple(maps))
    # bounds carry upward: a cover of these edges also covers any fewer of them
    lb = matching_minimum_size(min(copies, _MATCHING_ANCHOR))
    return GeneratingSet(tuple(maps), lb == r + 1, lb, "binary-rows")


_REFUTATION_CACHE: dict[tuple[int, int], bool] = {}


def _matching_refuted(copies: int, k: int, *, node_budget: int | None = None) -> bool:
    """True when no k independent-block partitions cover a copies-edge matching.

    Partitions of the matching correspond exactly to assignments of an ordered
    pair of distinct block labels per edge, so the search runs over abstract
    labels introduced in first-use order. A pair of edges is done once all
    four of its cross pairs are covered; each partition can cover at most two
    of the four, which prunes hopeless prefixes.
    """
    if k < 1:
        return copies >= 2
    cached = _REFUTATION_CACHE.get((copies, k))
    if cached is not None:
        return cached
    budget = _Budget(node_budget, "matching refutation")

    def options(top: int) -> list[tuple[int, int]]:
        out = [(a, b) for a in range(top) for b in range(top) if a != b]
        out += [(a, top) for a in range(top)]
        out += [(top, a) for a in range(top)]
        out.append((top, top + 1))
        return out

    def extend(assigned: list, maxlabs: list[int]) -> bool:
        if len(assigned) == copies:
            return True
        second = len(assigned) == 1

        def place(m: int, tup: tuple, missing: list[int]) -> bool:
            budget.tick()
            if m == k:
                if any(missing):
                    return False
                grown = [
                    max(maxlabs[i], tup[i][0] + 1, tup[i][1] + 1) for i in range(k)
                ]
                return extend(assigned + [tup], grown)
            if any(x.bit_count() > 2 * (k - m) for x in missing):
                return False
            for pair in options(maxlabs[m]):
                if m == 0 and pair[0] > pair[1]:
                    continue  # whole-edge flip symmetry
                if second and m > 0 and pair < tup[m - 1]:
                    continue  # partitions interchangeable until edges diverge
                a0, a1 = pair
                nxt = []
                for j, old in enumerate(assigned):
                    b0, b1 = old[m]
                    hit = (
                        (1 if a0 == b0 else 0)
                        | (2 if a0 == b1 else 0)
                        | (4 if a1 == b0 else 0)
                        | (8 if a1 == b1 else 0)
                    )
                    nxt.append(missing[j] & ~hit)
                if place(m + 1, tup + (pair,), nxt):
                    return True
            return False

        return place(0, (), [15] * len(assigned))

    first = [tuple((0, 1) for _ in range(k))]
    refuted = not extend(first, [2] * k)
    _REFUTATION_CACHE[copies, k] = refuted
    return refuted


def matching_minimum_size(copies: int, *, node_budget: int | None = None) -> int:
    """Exact minimum set size for the disjoint-edges family.

    The binary-rows construction gives the upper bound; the lower bound is a
    refutation at the smallest edge count of the same ceiling, which carries
    upward because dropping edges keeps any cover working. From 9 edges on
    the refutation has not been seen to finish, so pass ``node_budget`` there.
    """
    if copies < 1:
        raise ValueError("need at least one edge")
    if copies == 1:
        return 0
    r = (copies - 1).bit_length()
    anchor = 2 ** (r - 1) + 1 if r > 1 else 2
    if not _matching_refuted(anchor, r, node_budget=node_budget):
        raise KernelGraphsError(f"refutation failed at {anchor} edges, {r} partitions")
    return r + 1


# ------------------------------------------------- disjoint complete subgraphs


def _smallest_field_order(k: int) -> int | None:
    for q in range(max(k, 2), MAX_FIELD_ORDER + 1):
        if _prime_power(q) is not None:
            return q
    return None


def union_complete_generators(copies: int, clique: int) -> GeneratingSet:
    """Generators for ``copies`` disjoint copies of a complete graph.

    Blocks may take at most one vertex per copy, so restricting any cover to
    two copies shows at least ``clique`` members are needed. Field shifts
    meet that bound when a field of the right size exists.
    """
    if copies < 1 or clique < 1:
        raise ValueError("need positive copies and clique size")
    g = union_complete([clique] * copies)
    if copies == 1:
        return GeneratingSet((), True, 0, "complete")
    if clique == 1:
        t = Transformation([0] * copies)
        _check_regenerates(g, (t,))
        return GeneratingSet((t,), True, 1, "construction")
    if clique == 2:
        return matching_generators(copies)
    q = _smallest_field_order(max(copies, clique))
    if clique == 3 and copies >= 3 and (q is None or copies < q):
        maps = _single_bump_maps(copies)
        method = "bump"
    elif q is not None:
        maps = _field_shift_maps(copies, clique, q)
        method = "field-shifts"
    else:
        raise UnsupportedParameterError(
            f"no field of order >= {max(copies, clique)} is tabulated"
        )
    _check_regenerates(g, maps)
    return GeneratingSet(maps, len(maps) == clique, clique, method)


def _field_shift_maps(copies: int, clique: int, q: int) -> tuple[Transformation, ...]:
    # label of vertex (i, s) under shift c is s + c*i; for any two copies and
    # any symbol pair exactly one c aligns them
    field = FiniteField.of_order(q)
    maps = []
    for c in range(q):
        classes: dict[int, list[int]] = {}
        for i in range(copies):
            for s in range(clique):
                label = field.add(s, field.mul(c, i))
                classes.setdefault(label, []).append(i * clique + s)
        maps.append(Partition(classes.values()).as_transformation())
    return tuple(maps)


def _single_bump_maps(copies: int) -> tuple[Transformation, ...]:
    # shift one copy's three symbols by 1 and leave the rest; differences
    # between copies then run through 0, +1 and -1
    maps = []
    for c in range(copies):
        classes: dict[int, list[int]] = {}
        for i in range(copies):
            for s in range(3):
                label = (s + (1 if i == c else 0)) % 3
                classes.setdefault(label, []).append(3 * i + s)
        maps.append(Partition(classes.values()).as_transformation())
    return tuple(maps)


# ------------------------------------------------------------- rook's lattice

_MAX_LATTICE = 16


def lattice_generators(n: int) -> GeneratingSet:
    """Generators for the rook's-move lattice on an n x n grid.

    Kernel classes are partial permutation matrices, so one member merges at
    most n*C(n,2) pairs while (n-1)*n*C(n,2) need merging: n-1 members are
    always necessary. The symbol classes of a complete family of orthogonal
    squares meet that bound; without a field, paired rows give a correct but
    much larger set.
    """
    if not 2 <= n <= _MAX_LATTICE:
        raise UnsupportedParameterError(f"supported grid sizes are 2..{_MAX_LATTICE}")
    g = square_lattice(n)
    lb = n - 1
    if _prime_power(n) is not None:
        maps = tuple(
            sq.symbol_partition().as_transformation() for sq in mols_complete(n)
        )
        _check_regenerates(g, maps)
        return GeneratingSet(maps, True, lb, "orthogonal-squares")
    maps = _paired_row_maps(n)
    _check_regenerates(g, maps)
    return GeneratingSet(maps, False, lb, "paired-rows")


def _row_factors(n: int) -> list[list[tuple[int, int]]]:
    # round-robin pairing of rows; odd n sits one row out per round
    rounds = []
    if n % 2 == 0:
        m = n - 1
        for r in range(m):
            pairs = [(m, r)]
            pairs += [((r + i) % m, (r - i) % m) for i in range(1, n // 2)]
            rounds.append([(min(a, b), max(a, b)) for a, b in pairs])
    else:
        for r in range(n):
            pairs = [((r + i) % n, (r - i) % n) for i in range(1, (n + 1) // 2)]
            rounds.append([(min(a, b), max(a, b)) for a, b in pairs])
    return rounds


def _paired_row_maps(n: int) -> tuple[Transformation, ...]:
    maps = []
    for pairs in _row_factors(n):
        for d in range(1, n):
            images = list(range(n * n))
            for a, b in pairs:
                for j in range(n):
                    images[b * n + (j + d) % n] = a * n + j
            maps.append(Transformation(images))
    return tuple(maps)


# ----------------------------------------------------------- hamming families

_MAX_HAMMING_VERTICES = 128


def hamming_complement_generators(m: int, n: int) -> GeneratingSet:
    """Generators for the complement of the Hamming graph on n^m words.

    Non-adjacent words differ in exactly one coordinate, so merging the lines
    along each of the m axes covers everything.
    """
    if m < 1 or n < 2:
        raise ValueError("need m >= 1 and n >= 2")
    total = n**m
    if total > _MAX_HAMMING_VERTICES:
        raise UnsupportedParameterError(
            f"supported up to {_MAX_HAMMING_VERTICES} vertices, got {total}"
        )
    base = hamming(m, n)
    g = complement(base)
    maps = []
    for c in range(m):
        stride = n ** (m - 1 - c)
        images = [v - v // stride % n * stride for v in range(total)]
        maps.append(Transformation(images))
    _check_regenerates(g, tuple(maps))
    nonedge_count = total * (total - 1) // 2 - g.edge_count
    lb = _counting_lower_bound(total, nonedge_count, clique_number(base, limit=total))
    return GeneratingSet(tuple(maps), lb == m, lb, "axis-lines")


def hamming_distance_generators(m: int, n: int) -> GeneratingSet:
    """Generators for the graph joining words that differ in every coordinate.

    Words agreeing somewhere are non-adjacent; fixing each coordinate in turn
    merges them all. On a binary alphabet the graph degenerates to a perfect
    matching of antipodes, which the matching family handles better.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if n < 3:
        raise UnsupportedParameterError(
            "binary alphabets give a perfect matching; use matching_generators"
        )
    total = n**m
    if total > _MAX_HAMMING_VERTICES:
        raise UnsupportedParameterError(
            f"supported up to {_MAX_HAMMING_VERTICES} vertices, got {total}"
        )
    g = categorical_power(n, m)
    maps = []
    for c in range(m):
        stride = n ** (m - 1 - c)
        images = [v // stride % n * stride for v in range(total)]
        maps.append(Transformation(images))
    _check_regenerates(g, tuple(maps))
    nonedge_count = total * (total - 1) // 2 - g.edge_count
    alpha = clique_number(complement(g), limit=total)
    lb = _counting_lower_bound(total, nonedge_count, alpha)
    return GeneratingSet(tuple(maps), lb == m, lb, "coordinate-values")
