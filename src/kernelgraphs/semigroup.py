"""Transformation semigroups: closures, synchronization tests, homomorphisms.

Products are left to right throughout: a word [i, j] means apply generator i
first, then generator j.
"""

from __future__ import annotations

from collections import deque

from .errors import ClosureCapExceededError, _Budget
from .graphs import Graph, _bits
from .transform import Transformation

__all__ = [
    "SemigroupClosure",
    "close",
    "is_synchronizing",
    "collapsible_pairs",
    "synchronizing_word",
    "transformation_of_word",
    "min_rank_of_generators",
    "count_homomorphisms",
    "exists_homomorphism",
    "homomorphisms_iter",
    "count_endomorphisms",
    "endomorphisms_iter",
    "quotient_by_pair",
    "collapsible",
    "monogenic_index_period",
    "idempotents",
    "minimal_ideal",
    "left_zero_semigroup",
]

DEFAULT_CLOSURE_CAP = 5_000_000


def _check_generators(generators) -> tuple[Transformation, ...]:
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError(f"generators act on different point counts: {g.n} vs {n}")
    return gens


class SemigroupClosure:
    """All products of the generators, with word recovery."""

    def __init__(self, generators, elements, parents):
        self.generators = generators
        self.elements = elements
        self.element_set = frozenset(elements)
        self.n = generators[0].n
        self._parents = parents

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, t) -> bool:
        return t in self.element_set

    @property
    def min_rank(self) -> int:
        return min(t.rank for t in self.elements)

    @property
    def contains_constant(self) -> bool:
        return self.min_rank == 1

    def word_of(self, t: Transformation) -> list[int]:
        """Generator indices whose left-to-right product equals t."""
        if t not in self._parents:
            raise KeyError(f"{t} is not in the closure")
        word: list[int] = []
        cur = t
        while cur is not None:
            prev, gen_index = self._parents[cur]
            word.append(gen_index)
            cur = prev
        word.reverse()
        return word

    def idempotents(self) -> list[Transformation]:
        return [t for t in self.elements if t.is_idempotent()]


def close(generators, *, cap: int = DEFAULT_CLOSURE_CAP) -> SemigroupClosure:
    """Breadth-first closure of the generators under composition."""
    gens = _check_generators(generators)
    parents: dict[Transformation, tuple[Transformation | None, int]] = {}
    elements: list[Transformation] = []
    queue: deque[Transformation] = deque()
    for i, g in enumerate(gens):
        if g not in parents:
            parents[g] = (None, i)
            elements.append(g)
            queue.append(g)
    while queue:
        t = queue.popleft()
        for i, g in enumerate(gens):
            new = t * g
            if new not in parents:
                parents[new] = (t, i)
                elements.append(new)
                queue.append(new)
                if len(elements) > cap:
                    raise ClosureCapExceededError(cap, len(elements))
    return SemigroupClosure(gens, elements, parents)


def transformation_of_word(generators, word) -> Transformation:
    gens = _check_generators(generators)
    result = Transformation.identity(gens[0].n)
    for i in word:
        result = result * gens[i]
    return result


# ----------------------------------------------------------- synchronization

def _pair_collapse_table(gens, n: int):
    """For each unordered pair (u, v), u < v, that some product merges, a first step.

    Returns the step map: step[p] = (gen index, next pair or None) along a
    shortest path to a collapse. Its keys are the collapsible pairs.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    reverse: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {p: [] for p in pairs}
    step: dict[tuple[int, int], tuple[int, tuple[int, int] | None]] = {}
    seeds: deque[tuple[int, int]] = deque()
    for p in pairs:
        u, v = p
        for i, g in enumerate(gens):
            gu, gv = g.images[u], g.images[v]
            if gu == gv:
                if p not in step:
                    step[p] = (i, None)
                    seeds.append(p)
            else:
                q = (gu, gv) if gu < gv else (gv, gu)
                reverse[q].append((p, i))
    while seeds:
        q = seeds.popleft()
        for p, i in reverse[q]:
            if p not in step:
                step[p] = (i, q)
                seeds.append(p)
    return step


def _collapse(gens, step, n: int) -> tuple[list[int], set[int]]:
    """Collapse pairs of the image greedily; return the word and the final image.

    Starting from all points, follow the step chain of the image's first
    collapsible pair (lexicographic over the sorted image) until no pair of
    the image is collapsible. The final image is a clique of the kernel graph,
    so it meets each kernel class of a minimal-rank product at most once: its
    size is the minimal rank.
    """
    word: list[int] = []
    image = set(range(n))
    while True:
        pts = sorted(image)
        pair = next(
            ((u, v) for i, u in enumerate(pts) for v in pts[i + 1 :] if (u, v) in step), None
        )
        if pair is None:
            return word, image
        while pair is not None:
            gen_index, pair = step[pair]
            word.append(gen_index)
            image = {gens[gen_index].images[x] for x in image}


def collapsible_pairs(generators) -> set[tuple[int, int]]:
    """Pairs (u,v), u<v, merged by some product of the generators."""
    gens = _check_generators(generators)
    return set(_pair_collapse_table(gens, gens[0].n))


def is_synchronizing(generators) -> bool:
    """True when some product of the generators is a constant map.

    Equivalent to every point pair being collapsible: collapsing pairs one at
    a time drives any image set down to a single point.
    """
    gens = tuple(generators)
    if not gens:
        return False
    gens = _check_generators(gens)
    n = gens[0].n
    return len(_pair_collapse_table(gens, n)) == n * (n - 1) // 2


def synchronizing_word(generators) -> list[int] | None:
    """Generator indices whose product has rank 1, or None if impossible."""
    gens = tuple(generators)
    if not gens:
        return None
    gens = _check_generators(gens)
    n = gens[0].n
    step = _pair_collapse_table(gens, n)
    if len(step) < n * (n - 1) // 2:
        return None
    return _collapse(gens, step, n)[0]


def min_rank_of_generators(generators) -> int:
    """Minimum rank over all nonempty products, by greedy pair collapse."""
    gens = _check_generators(generators)
    n = gens[0].n
    return len(_collapse(gens, _pair_collapse_table(gens, n), n)[1])


# ----------------------------------------------------- homomorphism searching

def _bfs_order(g: Graph, component) -> list[int]:
    start = max(component, key=lambda v: g.adj[v].bit_count())
    order = [start]
    seen = 1 << start
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in _bits(g.adj[v]):
            if not seen >> u & 1:
                seen |= 1 << u
                order.append(u)
                queue.append(u)
    return order


def _earlier_neighbors(g: Graph, order) -> list[list[int]]:
    # each vertex's neighbors that come earlier in order
    pos = {v: i for i, v in enumerate(order)}
    result = []
    for i, v in enumerate(order):
        result.append([u for u in _bits(g.adj[v]) if pos[u] < i])
    return result


def _maps(g: Graph, h: Graph, order, budget: _Budget):
    """Every homomorphism from the vertices in ``order`` into h.

    Assigns vertices in order, lowest candidate first, ticking the budget
    once per inner search node. Yields one shared list indexed by g's
    vertices, overwritten as the search goes on; vertices outside ``order``
    keep image 0.
    """
    images = [0] * g.n
    depth = len(order)
    if depth == 0:
        yield images
        return
    earlier = _earlier_neighbors(g, order)
    hadj = h.adj
    full = (1 << h.n) - 1
    stack = [0] * depth  # candidates not yet tried at each level
    budget.tick()
    stack[0] = full
    i = 0
    while i >= 0:
        cand = stack[i]
        if not cand:
            i -= 1
            continue
        low = cand & -cand
        stack[i] = cand ^ low
        images[order[i]] = low.bit_length() - 1
        if i + 1 == depth:
            yield images
            continue
        i += 1
        budget.tick()
        cand = full
        for u in earlier[i]:
            cand &= hadj[images[u]]
            if not cand:
                break
        stack[i] = cand


def count_homomorphisms(g: Graph, h: Graph, *, node_budget: int | None = None) -> int:
    """Number of edge-preserving maps from g into h.

    Multiplicative over the components of g, so large disconnected counts
    stay cheap.
    """
    if g.n == 0:
        return 1
    budget = _Budget(node_budget, "homomorphism count")
    total = 1
    for comp in g.components():
        total *= sum(1 for _ in _maps(g, h, _bfs_order(g, comp), budget))
        if total == 0:
            return 0
    return total


def _first_map(g: Graph, h: Graph, budget: _Budget) -> list[int] | None:
    """A homomorphism g -> h as an image list over g's vertices, or None.

    Searches each component of g on its own and joins the first map of each,
    so a component that has no map fails without backtracking through the
    others.
    """
    images = [0] * g.n
    for comp in g.components():
        order = _bfs_order(g, comp)
        found = next(_maps(g, h, order, budget), None)
        if found is None:
            return None
        for w in order:
            images[w] = found[w]
    return images


def exists_homomorphism(g: Graph, h: Graph, *, node_budget: int | None = None) -> bool:
    return _first_map(g, h, _Budget(node_budget, "homomorphism search")) is not None


def homomorphisms_iter(g: Graph, h: Graph, *, node_budget: int | None = None):
    """Yield every homomorphism g -> h as an image tuple over g's vertices."""
    order: list[int] = []
    for comp in g.components():
        order.extend(_bfs_order(g, comp))
    budget = _Budget(node_budget, "homomorphism enumeration")
    for images in _maps(g, h, order, budget):
        yield tuple(images)


def count_endomorphisms(g: Graph, *, node_budget: int | None = None) -> int:
    return count_homomorphisms(g, g, node_budget=node_budget)


def endomorphisms_iter(g: Graph, *, node_budget: int | None = None):
    for images in homomorphisms_iter(g, g, node_budget=node_budget):
        yield Transformation(images)


def _quotient(g: Graph, block_of, k: int) -> Graph:
    """The graph on blocks 0..k-1 joining blocks that hold adjacent vertices.

    ``block_of[v]`` is the block of vertex v; blocks must be independent in g.
    """
    adj = [0] * k
    for v in range(g.n):
        for u in _bits(g.adj[v]):
            adj[block_of[v]] |= 1 << block_of[u]
    return Graph.from_adj(adj)


def quotient_by_pair(g: Graph, u: int, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Merge non-adjacent v into u; returns (quotient, old->new vertex map)."""
    if g.has_edge(u, v):
        raise ValueError(f"cannot merge adjacent vertices {u} and {v}")
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"bad vertex pair ({u},{v})")
    if u > v:
        u, v = v, u
    mapping = []
    for w in range(g.n):
        if w == v:
            mapping.append(u)
        elif w > v:
            mapping.append(w - 1)
        else:
            mapping.append(w)
    return _quotient(g, mapping, g.n - 1), tuple(mapping)


def _merging_endomorphism(
    g: Graph, u: int, v: int, node_budget: int | None
) -> tuple[int, ...] | None:
    """An endomorphism of g that maps non-adjacent u and v together, or None.

    Such an endomorphism is a homomorphism from the quotient that merges u and
    v back into g; the first one ``_first_map`` finds is returned as an image
    tuple over g's vertices.
    """
    quotient, mapping = quotient_by_pair(g, u, v)
    images = _first_map(quotient, g, _Budget(node_budget, "homomorphism search"))
    return None if images is None else tuple(images[w] for w in mapping)


def collapsible(g: Graph, u: int, v: int, *, node_budget: int | None = None) -> bool:
    """True when some endomorphism of g maps u and v to the same vertex.

    Adjacent pairs are never collapsible.
    """
    return not g.has_edge(u, v) and _merging_endomorphism(g, u, v, node_budget) is not None


# ------------------------------------------------------------ ideal structure

def monogenic_index_period(t: Transformation) -> tuple[int, int]:
    """Least (i, p) with t^(i+p) = t^i, powers counted from 1."""
    seen = {t: 1}
    cur = t
    k = 1
    while True:
        cur = cur * t
        k += 1
        if cur in seen:
            i = seen[cur]
            return i, k - i
        seen[cur] = k


def idempotents(elements) -> list[Transformation]:
    return [t for t in elements if t.is_idempotent()]


def minimal_ideal(closure: SemigroupClosure) -> list[Transformation]:
    """The unique minimal two-sided ideal: all elements of minimal rank."""
    r = closure.min_rank
    return [t for t in closure.elements if t.rank == r]


def left_zero_semigroup(closure: SemigroupClosure) -> list[Transformation]:
    """A maximal left-zero subsemigroup: x * y = x for all members.

    Takes the idempotents of the minimal ideal that share one image set; each
    fixes that image pointwise, so composing two of them keeps the first.
    """
    ideal = minimal_ideal(closure)
    by_image: dict[frozenset[int], list[Transformation]] = {}
    for t in ideal:
        if t.is_idempotent():
            by_image.setdefault(t.image_set, []).append(t)
    if not by_image:
        raise AssertionError("minimal ideal always contains idempotents")
    best_image = sorted(by_image, key=lambda img: (-len(by_image[img]), sorted(img)))[0]
    return sorted(by_image[best_image], key=lambda t: t.images)
