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
complete with quotient K_omega, one maximum clique vertex in each block. The
endomorphic walk pins such a clique and sends each block to its clique vertex.
As endomorphisms they merge every non-edge exactly when g is a hull.

Pair sets on n vertices are integers with pair u < v as bit u*n + v, so bits
run in lexicographic pair order. The partition walk keeps each block as a
vertex bitmask and builds a leaf's pairs from them, one shift per vertex.
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
    _color_sort,
    _k_color,
    _max_clique,
    categorical_power,
    complement,
    hamming,
    independence_number,
    square_lattice,
    union_complete,
)
from .kernelgraph import _kernel_adjacency, _uncollapsible_nonedges
from .transform import Transformation

__all__ = [
    "GeneratingSet",
    "minimal_generating_set",
    "matching_generators",
    "matching_minimum_size",
    "union_complete_generators",
    "lattice_generators",
    "hamming_complement_generators",
    "hamming_distance_generators",
]


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
    if Graph.from_adj(_kernel_adjacency(maps, g.n)) != g:
        raise KernelGraphsError("generating set does not reproduce the target graph")


# ----------------------------------------------------------- exhaustive search

_EXHAUSTIVE_LIMIT = 10


def _complete_colourings(g: Graph, budget: _Budget, clique: int = 0) -> list:
    """Partitions into independent blocks, each two joined.

    Returns ``(block_of, mask)`` pairs in walk order: each vertex's block, named by
    the vertex that opened it, and the merged pairs with pair u < v as bit u*n + v.
    Vertices are placed in index order, into each open block and then into one of
    their own. Given a maximum clique as a bitset, its vertices open the blocks and
    the others only join them: the omega-colourings, whose blocks the clique joins.
    ``budget`` ticks once per vertex placed.
    """
    budget.what = "colouring walk"
    adj = g.adj
    n = g.n
    heads = list(_bits(clique))  # the vertices that opened blocks, in order
    blocks = [1 << v for v in range(n)]  # the block v opened, as a bitmask
    reach = list(adj)  # the OR of that block's neighbourhoods
    block_of = list(range(n))
    rest = [v for v in range(n) if not clique >> v & 1]
    found: list[tuple[tuple[int, ...], int]] = []

    def place(k: int) -> None:
        budget.tick()
        if k == len(rest):
            if clique or all(reach[h] & blocks[o] for i, h in enumerate(heads) for o in heads[:i]):
                mask = 0
                for u in range(n):  # the pairs u < v of u's block
                    mask |= (blocks[block_of[u]] & -(2 << u)) << u * n
                found.append((tuple(block_of), mask))
            return
        v = rest[k]
        a = adj[v]
        for h in heads:
            b = blocks[h]
            if not b & a:
                r = reach[h]
                blocks[h], reach[h], block_of[v] = b | 1 << v, r | a, h
                place(k + 1)
                blocks[h], reach[h] = b, r
        if not clique:
            block_of[v] = v
            heads.append(v)
            place(k + 1)
            heads.pop()

    place(0)
    return found


def _needs(g: Graph, k: int, budget: _Budget) -> bool:
    """True when some vertex's non-neighbours need k colours, so g needs k generators."""
    adj = g.adj
    for a in range(g.n):  # a's kernel classes are independent and merge a with each of them
        others = (1 << g.n) - 1 & ~adj[a] & ~(1 << a)
        if others.bit_count() < k or _color_sort(adj, others)[1][-1] < k:
            continue
        what, budget.what = budget.what, "cover bound"
        if _max_clique(g, budget, others)[0] >= k or _k_color(g, k - 1, {}, budget, others) is None:
            return True
        budget.what = what
    return False


def _min_cover(masks: list[int], full: int, budget: _Budget, optimal) -> list[int]:
    """Indices of a minimum subfamily of masks covering full; stops once ``optimal`` holds."""
    budget.what = "cover search"
    covered = 0
    greedy: list[int] = []
    while covered != full:
        i = max(range(len(masks)), key=lambda i: (masks[i] & ~covered).bit_count())
        greedy.append(i)
        covered |= masks[i]
    if optimal(len(greedy)):
        return greedy
    owners = {b: [i for i, mk in enumerate(masks) if mk >> b & 1] for b in _bits(full)}
    maxpop = max(mk.bit_count() for mk in masks)
    best = greedy
    chosen: list[int] = []

    def search(covered: int) -> bool:  # True once ``best`` is proved minimum
        nonlocal best
        if covered == full:
            if len(chosen) < len(best):
                best = chosen.copy()
                return optimal(len(best))
            return False
        budget.tick()
        need = (full & ~covered).bit_count()
        if len(chosen) + -(-need // maxpop) >= len(best):
            return False
        b = min(_bits(full & ~covered), key=lambda b: len(owners[b]))
        for i in sorted(owners[b], key=lambda i: -(masks[i] & ~covered).bit_count()):
            chosen.append(i)
            if search(covered | masks[i]):
                return True
            chosen.pop()
        return False

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
    and NotAHullError reports the obstruction otherwise. ``node_budget`` caps
    the search nodes of the whole call, summed over its stages.
    """
    budget = _Budget(node_budget, "clique search")  # the endomorphic search's first stage
    found = _minimum(g, within_endomorphisms, budget)
    if found is None:
        pairs = _uncollapsible_nonedges(g, budget)
        listed = ", ".join(f"({u + 1},{v + 1})" for u, v in pairs)
        raise NotAHullError(f"no endomorphism merges the pair(s) {listed}")
    return found


def _minimum(g: Graph, within_endomorphisms: bool, budget: _Budget):
    """``minimal_generating_set``, or None when the clique-pinned walk shows g is no hull."""
    n = g.n
    # the non-edges u < v, as bits u*n + v
    full = sum((~a & (1 << n) - (2 << u)) << u * n for u, a in enumerate(g.adj))
    if not full:
        return GeneratingSet((), True, 0, "complete")
    if n > _EXHAUSTIVE_LIMIT:
        raise UnsupportedParameterError(
            f"exhaustive search handles at most {_EXHAUSTIVE_LIMIT} vertices; "
            "use a family constructor for larger graphs"
        )
    clique = _max_clique(g, budget)[1] if within_endomorphisms else 0
    cands = _complete_colourings(g, budget, clique)
    cands.sort(key=lambda c: -c[1].bit_count())
    if within_endomorphisms:
        union = 0
        for _, mask in cands:
            union |= mask
        if union != full:
            return None
    chosen = _min_cover([mask for _, mask in cands], full, budget, lambda k: _needs(g, k, budget))
    # each vertex to the vertex that opened its block: the least one, or the
    # clique's, so that endomorphic members send every edge onto the clique
    maps = tuple(Transformation(cands[i][0]) for i in chosen)
    _check_regenerates(g, maps)
    method = "exhaustive-endomorphic" if within_endomorphisms else "exhaustive"
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


def _matching_refuted(copies: int, k: int, budget: _Budget) -> bool:
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
    tick = budget.tick

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
            tick()
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
    if not _matching_refuted(anchor, r, _Budget(node_budget, "matching refutation")):
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


def _by_label(labels) -> Transformation:
    """The map sending each point to the least point with the same label."""
    least: dict = {}
    return Transformation([least.setdefault(label, x) for x, label in enumerate(labels)])


def _field_shift_maps(copies: int, clique: int, q: int) -> tuple[Transformation, ...]:
    # label of vertex (i, s) = i*clique + s under shift c is s + c*i; for any
    # two copies and any symbol pair exactly one c aligns them
    field = FiniteField.of_order(q)
    return tuple(
        _by_label([field.add(s, field.mul(c, i)) for i in range(copies) for s in range(clique)])
        for c in range(q)
    )


def _single_bump_maps(copies: int) -> tuple[Transformation, ...]:
    # shift one copy's three symbols by 1 and leave the rest; differences
    # between copies then run through 0, +1 and -1
    return tuple(
        _by_label([(s + (i == c)) % 3 for i in range(copies) for s in range(3)])
        for c in range(copies)
    )


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
    if _prime_power(n) is not None:  # cell i*n + j to the least cell holding its symbol
        maps = tuple(_by_label([s for row in sq.rows for s in row]) for sq in mols_complete(n))
        _check_regenerates(g, maps)
        return GeneratingSet(maps, True, n - 1, "orthogonal-squares")
    maps = _paired_row_maps(n)
    _check_regenerates(g, maps)
    return GeneratingSet(maps, False, n - 1, "paired-rows")


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
    return _coordinate_maps(
        m, n, lambda: complement(hamming(m, n)), lambda v, part: v - part, "axis-lines"
    )


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
    return _coordinate_maps(
        m, n, lambda: categorical_power(n, m), lambda v, part: part, "coordinate-values"
    )


def _coordinate_maps(m: int, n: int, graph, image, method: str) -> GeneratingSet:
    """One map per coordinate of the n^m words, checked against ``graph()``.

    The map for coordinate c sends word v to ``image(v, part)``, where part is
    v's symbol at c times that coordinate's place value.
    """
    total = n**m
    if total > _MAX_HAMMING_VERTICES:
        raise UnsupportedParameterError(
            f"supported up to {_MAX_HAMMING_VERTICES} vertices, got {total}"
        )
    g = graph()
    strides = [n ** (m - 1 - c) for c in range(m)]
    maps = tuple(Transformation([image(v, v // s % n * s) for v in range(total)]) for s in strides)
    _check_regenerates(g, maps)
    nonedge_count = total * (total - 1) // 2 - g.edge_count
    alpha = independence_number(g)
    lb = _counting_lower_bound(total, nonedge_count, alpha)
    return GeneratingSet(maps, lb == m, lb, method)
