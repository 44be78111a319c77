"""Transformation semigroups: closures, synchronization tests, homomorphisms.

Products are left to right throughout: a word [i, j] means apply generator i
first, then generator j.
"""

from __future__ import annotations

import functools
from array import array

from .errors import ClosureCapExceededError, UnsupportedParameterError, _Budget
from .graphs import Graph, _bits, _ir_search, _orbit_roots
from .transform import Transformation, _mul

__all__ = [
    "SemigroupClosure",
    "close",
    "is_synchronizing",
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
    """All products of the generators, with word recovery.

    ``images`` holds each element's image tuple in the order the closure
    found it. Element k is element ``back[k]`` followed by generator
    ``via[k]``, or generator ``via[k]`` itself when ``back[k]`` is -1, so
    following ``back`` spells a word (Froidure & Pin, 1997). Elements are
    wrapped as Transformations only when they are read.
    """

    def __init__(self, generators, images, back, via):
        self.generators = generators
        self.images = images
        self.back = back
        self.via = via
        self.n = generators[0].n

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self):
        return map(Transformation._of, self.images)

    def __contains__(self, t) -> bool:
        return isinstance(t, Transformation) and t.images in self._index

    @functools.cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {images: k for k, images in enumerate(self.images)}

    @functools.cached_property
    def elements(self) -> list[Transformation]:
        return list(self)

    @functools.cached_property
    def element_set(self) -> frozenset[Transformation]:
        return frozenset(self)

    @property
    def min_rank(self) -> int:
        return min(len(set(images)) for images in self.images)

    def word_of(self, t: Transformation) -> list[int]:
        """Generator indices whose left-to-right product equals t."""
        if t not in self:
            raise KeyError(f"{t} is not in the closure")
        back, via = self.back, self.via
        word: list[int] = []
        k = self._index[t.images]
        while k >= 0:
            word.append(via[k])
            k = back[k]
        word.reverse()
        return word


def close(generators, *, cap: int = DEFAULT_CLOSURE_CAP) -> SemigroupClosure:
    """Breadth-first closure of the generators under composition.

    The search runs on image tuples: ``found`` is the queue, never popped,
    and a set of the same tuples, dropped on return, tests membership. Each
    new element records the queue index of its prefix and its last
    generator in two flat arrays.
    """
    gens = _check_generators(generators)
    images = [g.images for g in gens]
    seen: set[tuple[int, ...]] = set()
    found: list[tuple[int, ...]] = []
    back, via = array("i"), array("i")
    for i, g in enumerate(images):
        if g not in seen:
            seen.add(g)
            found.append(g)
            back.append(-1)
            via.append(i)
    for k, t in enumerate(found):  # grows while it is read
        for i, g in enumerate(images):
            new = _mul(t, g)
            if new not in seen:
                seen.add(new)
                found.append(new)
                back.append(k)
                via.append(i)
                if len(found) > cap:
                    raise ClosureCapExceededError(cap, len(found))
    return SemigroupClosure(gens, found, back, via)


def transformation_of_word(generators, word) -> Transformation:
    gens = _check_generators(generators)
    result = tuple(range(gens[0].n))
    for i in word:
        result = _mul(result, gens[i].images)
    return Transformation._of(result)


# ----------------------------------------------------------- synchronization

class _PairGraph:
    """The pair graph of the generators, explored forward on demand.

    A pair u < v is coded u*n + v, and generator i sends it to the pair of
    its images or merges it. A pair is marked once a merging word is known:
    ``step[p]`` is the pair that the first generator doing so sends p to, or
    -1 when it merges p, so following the steps spells a merging word.
    Queued pairs are expanded in BFS order, each at most once (one tick of
    ``budget``). A pair is marked while it is expanded, when a generator
    merges it or sends it to a marked pair, and the mark spreads backward
    over the edges explored so far (``into[q]``: the expanded pairs sent to
    q while it was unmarked), so only expanded pairs are ever marked. An
    expansion stops at the first generator that marks its pair.
    """

    def __init__(self, gens, n: int, budget: _Budget):
        self.images = [g.images for g in gens]
        self.n = n
        self.step: list[int | None] = [None] * (n * n)  # None while unmarked
        self.into: list[list[int] | None] = [None] * (n * n)  # None until seen
        self.queue: list[int] = []
        self.head = 0  # queue[head:] is still to be expanded
        self.budget = budget

    def explore(self, pairs: list[int], need: int) -> bool:
        """Expand queued pairs until ``need`` of ``pairs`` are marked.

        None of ``pairs`` may be marked yet; those not seen before are queued
        first, as roots. Returns False when the queue runs dry first: then
        every pair seen and still unmarked has no merging word.
        """
        n, images, step, into, queue = self.n, self.images, self.step, self.into, self.queue
        for p in pairs:
            if into[p] is None:
                into[p] = []
                queue.append(p)
        targets = set(pairs)
        tick = self.budget.tick
        head = self.head
        while need > 0 and head < len(queue):
            p = queue[head]
            head += 1
            tick()
            u, v = divmod(p, n)
            for g in images:
                a, b = g[u], g[v]
                q = -1
                if a != b:
                    q = a * n + b if a < b else b * n + a
                    if step[q] is None:
                        edges = into[q]
                        if edges is None:
                            into[q] = [p]
                            queue.append(q)
                        else:
                            edges.append(p)
                        continue
                step[p] = q
                wave = [p]
                for x in wave:
                    if x in targets:
                        need -= 1
                    for r in into[x]:
                        if step[r] is None:
                            step[r] = x
                            wave.append(r)
                break
        self.head = head
        return need <= 0


def _pair_collapse_table(gens, n: int, budget: _Budget) -> list[int]:
    """``rows[u]``: the bitset of the points v != u that some product merges with u.

    Backward propagation over each generator's preimage bitsets ``pre[x]``,
    the points it sends to x: a pair (u, v) is mergeable when a generator
    sends u into ``pre[a]`` and v into ``pre[b]`` for a mergeable pair (a, b)
    or a = b. The diagonal pairs (x, x) are queued first, so they seed the
    pairs merged at once; each mergeable pair is then queued and popped
    once, one tick of ``budget``.
    """
    tick = budget.tick
    pres = []
    for g in gens:
        pre = [0] * n
        for v, x in enumerate(g.images):
            pre[x] |= 1 << v
        pres.append(pre)
    rows = [1 << u for u in range(n)]  # diagonal included until the end
    queue = [(x, x) for x in range(n)]
    for a, b in queue:  # grows while it is read
        if a != b:
            tick()
        for pre in pres:
            pa, pb = pre[a], pre[b]
            if pa and pb:
                for u in _bits(pa):
                    new = pb & ~rows[u]
                    if new:
                        rows[u] |= new
                        bit = 1 << u
                        for v in _bits(new):
                            rows[v] |= bit
                            queue.append((u, v))
    return [row ^ (1 << u) for u, row in enumerate(rows)]


def _shrink(images, image: set[int], word: list[int]) -> set[int]:
    """Apply the first generator that is not injective on the image, while there is one."""
    while len(image) > 1:
        for i, g in enumerate(images):
            shrunk = {g[x] for x in image}
            if len(shrunk) < len(image):
                word.append(i)
                image = shrunk
                break
        else:
            break
    return image


def _collapse(gens, n: int, budget: _Budget) -> tuple[list[int], set[int]]:
    """Collapse the image greedily; return the word and the final image.

    Starting from all points, ``_shrink`` the image. Then explore the pair
    graph from the pairs of the image until one of them is marked, follow
    the steps of the first marked pair (lexicographic), and repeat. Stop
    when no pair of the image can be marked. The final image is a clique of
    the kernel graph, so it meets each kernel class of a minimal-rank
    product at most once: its size is the minimal rank.
    """
    graph = _PairGraph(gens, n, budget)
    images, step = graph.images, graph.step

    def first_marked(pts):
        pairs = (u * n + v for k, u in enumerate(pts) for v in pts[k + 1 :])
        return next((p for p in pairs if step[p] is not None), None)

    word: list[int] = []
    image = set(range(n))
    while len(image := _shrink(images, image, word)) > 1:
        pts = sorted(image)
        pair = first_marked(pts)
        if pair is None:
            if not graph.explore([u * n + v for k, u in enumerate(pts) for v in pts[k + 1 :]], 1):
                break
            pair = first_marked(pts)
        while pair >= 0:
            u, v = divmod(pair, n)
            pair = step[pair]
            for i, g in enumerate(images):  # the first one merging (u, v) or sending it to pair
                a, b = g[u], g[v]
                if (a * n + b if a < b else b * n + a if a > b else -1) == pair:
                    break
            word.append(i)
            image = {g[x] for x in image}
    return word, image


def is_synchronizing(generators) -> bool:
    """True when some product of the generators is a constant map.

    Each generator is an endomorphism of the kernel graph, so a word w maps
    an edge {x, y} to the edge {xw, yw} inside the image of w: the set
    synchronizes iff all pairs of one image merge. The image is shrunk
    greedily (``_shrink``), and one exploration checks that all its pairs
    get marked; random sets shrink to a few points, so few pairs are seen.
    """
    gens = tuple(generators)
    if not gens:
        return False
    gens = _check_generators(gens)
    n = gens[0].n
    graph = _PairGraph(gens, n, _Budget(None, "pair search"))
    pts = sorted(_shrink(graph.images, set(range(n)), []))
    pairs = [u * n + v for k, u in enumerate(pts) for v in pts[k + 1 :]]
    return graph.explore(pairs, len(pairs))


def synchronizing_word(generators) -> list[int] | None:
    """Generator indices whose product has rank 1, or None if impossible.

    The word is built greedily: a generator that is not injective on the
    current image is applied at once; otherwise the pair graph is explored
    forward from the image's pairs, each pair expanded at most once, until
    one of them has a known merging word, and that word is applied for the
    lexicographically first such pair. The words are not shortest; on the
    Cerny automaton C_n they have (n-1)^2 letters.
    """
    gens = tuple(generators)
    if not gens:
        return None
    gens = _check_generators(gens)
    word, image = _collapse(gens, gens[0].n, _Budget(None, "pair search"))
    return word if len(image) == 1 else None


def min_rank_of_generators(generators) -> int:
    """Minimum rank over all nonempty products, by greedy pair collapse.

    The image left when no pair of it has a merging word is a clique of the
    kernel graph of minimal-rank size (omega = chi = minimal rank).
    """
    gens = _check_generators(generators)
    return len(_collapse(gens, gens[0].n, _Budget(None, "pair search"))[1])


# ----------------------------------------------------- homomorphism searching

def _order(g: Graph, component) -> list[int]:
    """The component's vertices, most-connected first.

    Starts at a vertex of maximum degree, then repeatedly takes the vertex
    with the most neighbors already placed, breaking ties by higher degree,
    then by lower index. So every vertex after the first has a placed
    neighbor; in particular the second is a neighbor of the first.
    """
    adj = g.adj
    degree = {v: adj[v].bit_count() for v in component}
    placed = dict.fromkeys(component, 0)  # unplaced vertex -> its placed neighbors
    order = []
    while placed:
        v = max(placed, key=lambda u: (placed[u], degree[u], -u))
        del placed[v]
        order.append(v)
        for u in _bits(adj[v]):
            if u in placed:
                placed[u] += 1
    return order


def _maps(g: Graph, h: Graph, order, budget: _Budget, roots: int | None = None, seconds=None):
    """Every homomorphism from the vertices in ``order`` into h, by forward checking.

    Each vertex in ``order`` keeps a bitset domain over h. Assigning a vertex
    an image x ANDs x's neighborhood into the domain of each later neighbor,
    and the image is dropped at once when one of those domains runs empty;
    so every image a vertex is offered agrees with all its earlier neighbors.
    Each level works on a copy of the domains of the level above; an undo
    trail in their place was slower in a trial, on Q4's count and on the hull
    of C5 box C7. The last vertex's images are read off its domain with no
    copy, since a count such as Q4's has about as many leaves as inner nodes.
    Vertices take their images in order, lowest first, and the budget ticks
    once per inner search node entered. ``roots`` is the first vertex's
    domain, all of h by default. ``seconds``, when given, maps each first
    image to a bitset that also limits the second vertex's images. Yields one
    shared list indexed by g's vertices, changed in place as the search goes
    on; vertices outside ``order`` keep image 0.
    """
    images = [0] * g.n
    depth = len(order)
    if depth == 0:
        yield images
        return
    tick = budget.tick
    tick()
    full = (1 << h.n) - 1
    first = full if roots is None else roots
    if depth == 1:
        for images[order[0]] in _bits(first):
            yield images
        return
    position = {v: i for i, v in enumerate(order)}
    later = [
        [position[u] for u in _bits(g.adj[v]) if position[u] > i] for i, v in enumerate(order)
    ]
    hadj = h.adj
    last, leaf = depth - 2, order[-1]
    domains = [None] * depth  # each level's domains, as they stood when it was entered
    domains[0] = [first] + [full] * (depth - 1)
    stack = [0] * depth  # candidates not yet tried at each level
    stack[0] = first
    i = 0
    while i >= 0:
        cand = stack[i]
        if not cand:
            i -= 1
            continue
        low = cand & -cand
        stack[i] = cand ^ low
        x = low.bit_length() - 1
        images[order[i]] = x
        near = hadj[x]
        if i == last:  # only the leaf is left, and each image in its domain is a map
            cand = domains[i][-1]
            if later[i]:
                cand &= near
            if not i and seconds is not None:
                cand &= seconds[x]
            if cand:
                tick()
                while cand:
                    low = cand & -cand
                    cand ^= low
                    images[leaf] = low.bit_length() - 1
                    yield images
            continue
        domain = domains[i][:]
        for j in later[i]:
            if not (d := domain[j] & near):
                break
            domain[j] = d
        else:
            if not i and seconds is not None:
                domain[1] &= seconds[x]
                if not domain[1]:
                    continue
            tick()
            i += 1
            domains[i] = domain
            stack[i] = domain[i]


def count_homomorphisms(g: Graph, h: Graph, *, node_budget: int | None = None) -> int:
    """Number of edge-preserving maps from g into h.

    Multiplicative over the components of g, so large disconnected counts
    stay cheap. Every vertex of h is tried as the first image of each
    component: for a general target, searching Aut(h) first to skip the
    repeated root subtrees costs more than it saves (K3 -> K60 went about
    ten times slower in a trial). ``count_endomorphisms`` skips them, prunes
    the second image by the automorphisms found that fix the root, and counts
    one component of each isomorphism class.
    """
    budget = _Budget(node_budget, "homomorphism count")
    total = 1
    for comp in g.components():
        total *= sum(1 for _ in _maps(g, h, _order(g, comp), budget))
        if total == 0:
            return 0
    return total


def _first_map(g: Graph, h: Graph, budget: _Budget, roots=None) -> list[int] | None:
    """A homomorphism g -> h as an image list over g's vertices, or None.

    Searches each component of g on its own and joins the first map of each,
    so a component that has no map fails without backtracking through the
    others. ``roots`` is the bitset of the least vertex of each orbit of a
    group of automorphisms of h; with it each component's first vertex tries
    only those. The map found is the same: if a map sends the first vertex
    to x, composing it with an automorphism that takes x to the least vertex
    m of its orbit gives one that sends it to m, and m is tried before x.
    """
    images = [0] * g.n
    for comp in g.components():
        order = _order(g, comp)
        found = next(_maps(g, h, order, budget, roots), None)
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
        order.extend(_order(g, comp))
    budget = _Budget(node_budget, "homomorphism enumeration")
    for images in _maps(g, h, order, budget):
        yield tuple(images)


def count_endomorphisms(g: Graph, *, node_budget: int | None = None) -> int:
    """Number of endomorphisms of g, searched from one root per Aut(G)-orbit.

    An automorphism s maps the endomorphisms that send a component's first
    vertex to x one-to-one onto those that send it to s(x). So after one
    automorphism search, each component's first vertex in ``_order`` tries
    only the least vertex r of each orbit, and its second, a neighbor of the
    first, only the least vertex x of each orbit on N(r) of the group H that
    the found automorphisms fixing r span; each map weighs the size of r's
    orbit times that of x's H-orbit, exact for any subgroup H of r's
    stabilizer. ``_maps`` searches the rest with forward checking.
    Components whose vertices share an orbit are isomorphic: one per class
    is counted, and the counts multiply as in ``count_homomorphisms``.
    ``node_budget`` caps both searches together; the error names the stage.
    """
    if g.n == 0:
        return 1
    budget = _Budget(node_budget, "automorphism search")
    generators = _ir_search(g, budget)[1]
    budget.what = "homomorphism count"
    orbits = _orbit_roots(g.n, generators)
    label = {v: r for r, orbit in orbits.items() for v in _bits(orbit)}
    weight, seconds = {}, {}  # root r -> weight of each second image x, and the bitset of those x
    for r, orbit in orbits.items():
        fixed = _orbit_roots(g.n, [s for s in generators if s[r] == r], g.adj[r])
        weight[r] = w = [orbit.bit_count()] * g.n
        for x, o in fixed.items():
            w[x] *= o.bit_count()
        seconds[r] = sum(1 << x for x in fixed)
    classes: dict[int, list[tuple[int, ...]]] = {}  # least orbit label -> isomorphic components
    for comp in g.components():
        classes.setdefault(min(map(label.__getitem__, comp)), []).append(comp)
    total = 1
    for comps in classes.values():
        order = _order(g, comps[0])
        a, b = order[0], order[len(order) > 1]  # a lone vertex weighs weight[r][r], r's orbit size
        maps = _maps(g, g, order, budget, sum(1 << r for r in orbits), seconds)
        total *= sum(weight[m[a]][m[b]] for m in maps) ** len(comps)
    return total


def endomorphisms_iter(g: Graph, *, node_budget: int | None = None):
    """Yield every endomorphism of g as a Transformation.

    On the graph with no vertices this raises UnsupportedParameterError: its
    one endomorphism, the empty map, is not a Transformation.
    """
    if g.n == 0:
        raise UnsupportedParameterError("the empty map is not a Transformation")
    for images in homomorphisms_iter(g, g, node_budget=node_budget):
        yield Transformation._of(images)


def quotient_by_pair(g: Graph, u: int, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Merge non-adjacent v into u; returns (quotient, old->new vertex map)."""
    if g.has_edge(u, v):
        raise ValueError(f"cannot merge adjacent vertices {u} and {v}")
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"bad vertex pair ({u},{v})")
    if u > v:
        u, v = v, u
    mapping = tuple(u if w == v else w - (w > v) for w in range(g.n))
    adj = [0] * (g.n - 1)
    for w in range(g.n):
        for x in _bits(g.adj[w]):
            adj[mapping[w]] |= 1 << mapping[x]
    return Graph.from_adj(adj), mapping


def _merging_endomorphism(
    g: Graph, u: int, v: int, budget: _Budget, roots: int | None = None
) -> tuple[int, ...] | None:
    """An endomorphism of g that maps non-adjacent u and v together, or None.

    Such an endomorphism is a homomorphism from the quotient that merges u and
    v back into g; the first one ``_first_map`` finds is returned as an image
    tuple over g's vertices. Orbit minima of automorphisms of g in ``roots``
    prune the search without changing the answer.
    """
    quotient, mapping = quotient_by_pair(g, u, v)
    budget.what = "homomorphism search"
    images = _first_map(quotient, g, budget, roots)
    return None if images is None else _mul(mapping, images)


def collapsible(g: Graph, u: int, v: int, *, node_budget: int | None = None) -> bool:
    """True when some endomorphism of g maps u and v to the same vertex.

    Adjacent pairs are never collapsible.
    """
    budget = _Budget(node_budget, "homomorphism search")
    return not g.has_edge(u, v) and _merging_endomorphism(g, u, v, budget) is not None


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
    return [t for t in closure if t.rank == r]


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
