"""Simple undirected graphs on {0..n-1} as per-vertex adjacency bitsets.

Graph equality and hashing are LABELED (same vertex names, same edges).
Isomorphism-aware comparison goes through canonical_form / are_isomorphic.

The graph6 text format is the interchange format throughout the package.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache, reduce

from .errors import ParseError, UnsupportedParameterError, _Budget

__all__ = [
    "Graph",
    "null_graph",
    "complete",
    "cycle",
    "path",
    "complete_multipartite",
    "union_complete",
    "disjoint_union",
    "hamming",
    "categorical_power",
    "cartesian_product",
    "categorical_product",
    "square_lattice",
    "triangular",
    "paley",
    "complement",
    "clique_number",
    "max_clique",
    "chromatic_number",
    "k_color",
    "independence_number",
    "to_graph6",
    "from_graph6",
    "canonical_permutation",
    "canonical_graph",
    "canonical_form",
    "are_isomorphic",
    "generate_all",
]


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitset of v."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("negative vertex count")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_adj(cls, adj) -> "Graph":
        g = cls.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", tuple(adj))
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self):
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1) << (u + 1)
            for v in _bits(higher):
                yield (u, v)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(a.bit_count() for a in self.adj))

    def with_vertex(self, neighbor_mask: int) -> "Graph":
        """Append vertex n adjacent to the bitset over the old vertices."""
        n = self.n
        if not 0 <= neighbor_mask < 1 << n:
            raise ValueError(f"neighbor mask {neighbor_mask} outside vertices 0..{n - 1}")
        adj = list(self.adj)
        adj.append(neighbor_mask)
        for v in _bits(neighbor_mask):
            adj[v] |= 1 << n
        return Graph.from_adj(adj)

    def relabel(self, perm) -> "Graph":
        """perm maps old vertex -> new vertex."""
        n = self.n
        if len(perm) != n or set(perm) != set(range(n)):
            raise ValueError(f"relabeling is not a permutation of 0..{n - 1}")
        adj = [0] * n
        for u in range(n):
            pu = perm[u]
            for v in _bits(self.adj[u]):
                adj[pu] |= 1 << perm[v]
        return Graph.from_adj(adj)

    def induced(self, vertices) -> "Graph":
        vs = list(vertices)
        index = {v: i for i, v in enumerate(vs)}
        if len(index) < len(vs) or not all(0 <= v < self.n for v in vs):
            raise ValueError(f"induced vertices repeat or fall outside 0..{self.n - 1}")
        edges = [
            (index[u], index[v])
            for u in vs
            for v in _bits(self.adj[u])
            if v in index and u < v
        ]
        return Graph(len(vs), edges)

    def components(self) -> list[tuple[int, ...]]:
        seen = 0
        result = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp = 1 << start
            frontier = 1 << start
            while frontier:
                nxt = 0
                for v in _bits(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
                comp |= nxt
            seen |= comp
            result.append(tuple(_bits(comp)))
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"<Graph n={self.n} edges={self.edge_count} {to_graph6(self)!r}>"


# ---------------------------------------------------------------- constructors

def null_graph(n: int) -> Graph:
    return Graph(n)


def complete(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_multipartite(parts) -> Graph:
    """Parts are consecutive vertex blocks; edges join distinct parts."""
    return complement(union_complete(parts))


def union_complete(parts) -> Graph:
    """Disjoint union of complete graphs with the given sizes."""
    sizes = list(parts)
    edges = []
    offset = 0
    for s in sizes:
        edges.extend((offset + i, offset + j) for i, j in itertools.combinations(range(s), 2))
        offset += s
    return Graph(offset, edges)


def disjoint_union(g: Graph, copies: int) -> Graph:
    if copies < 1:
        raise ValueError("need at least one copy")
    edges = []
    for c in range(copies):
        off = c * g.n
        edges.extend((off + u, off + v) for u, v in g.edges())
    return Graph(copies * g.n, edges)


def hamming(m: int, n: int) -> Graph:
    """H(m,n): words of length m over n symbols, adjacent at Hamming distance 1.

    The m-fold Cartesian power of K_n, first coordinate most significant.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return reduce(cartesian_product, [complete(n)] * m)


def categorical_power(r: int, m: int) -> Graph:
    """m-fold categorical power of K_r: adjacent iff all coordinates differ."""
    if r < 2 or m < 1:
        raise ValueError("need r >= 2 and m >= 1")
    return reduce(categorical_product, [complete(r)] * m)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Vertex (u,v) -> u*h.n + v; move along one factor at a time."""
    edges = []
    for u in range(g.n):
        for v in range(h.n):
            a = u * h.n + v
            for v2 in _bits(h.adj[v]):
                if v2 > v:
                    edges.append((a, u * h.n + v2))
            for u2 in _bits(g.adj[u]):
                if u2 > u:
                    edges.append((a, u2 * h.n + v))
    return Graph(g.n * h.n, edges)


def categorical_product(g: Graph, h: Graph) -> Graph:
    edges = []
    for u in range(g.n):
        for u2 in _bits(g.adj[u]):
            if u2 < u:
                continue
            for v in range(h.n):
                for v2 in _bits(h.adj[v]):
                    a, b = u * h.n + v, u2 * h.n + v2
                    if a < b:
                        edges.append((a, b))
    return Graph(g.n * h.n, edges)


def square_lattice(n: int) -> Graph:
    """Rook's graph on the n x n grid: same row or same column."""
    return hamming(2, n)


def triangular(n: int) -> Graph:
    """Johnson-style graph on 2-subsets of [n], adjacent when they intersect."""
    if n < 2:
        raise ValueError("need n >= 2")
    verts = list(itertools.combinations(range(n), 2))
    edges = []
    for i, a in enumerate(verts):
        for j in range(i + 1, len(verts)):
            if set(a) & set(verts[j]):
                edges.append((i, j))
    return Graph(len(verts), edges)


def paley(q: int) -> Graph:
    """Paley graph on a field of order q = 1 mod 4: x ~ y iff x - y is a square."""
    from .designs import FiniteField

    if q % 4 != 1:
        raise UnsupportedParameterError(f"Paley graph needs q = 1 mod 4, got {q}")
    field = FiniteField.of_order(q)
    squares = {field.mul(x, x) for x in range(1, q)}
    edges = [
        (x, y) for x in range(q) for y in range(x + 1, q) if field.sub(x, y) in squares
    ]
    return Graph(q, edges)


def complement(g: Graph) -> Graph:
    n = g.n
    full = (1 << n) - 1
    return Graph.from_adj([full & ~g.adj[v] & ~(1 << v) for v in range(n)])


# ---------------------------------------------------------- clique / coloring

def _color_sort(adj, cand_mask: int) -> tuple[list[int], list[int]]:
    """Greedy colouring of cand_mask, lowest vertex first: the vertices and their colours."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = cand_mask
    while rest:
        color += 1
        avail = rest
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            order.append(v)
            bounds.append(color)
            avail &= ~adj[v]
            rest ^= b
            avail &= rest
    return order, bounds


def _max_clique(g: Graph, budget: _Budget, within: int | None = None) -> tuple[int, int]:
    """``max_clique`` by branch and bound with greedy-coloring bounds; ``budget`` ticks per node.

    Searches the vertex bitset ``within`` (default all) node for node as on its induced
    copy, which keeps the vertices in order, since every tie breaks by lowest vertex.
    """
    adj = g.adj
    within = (1 << g.n) - 1 if within is None else within
    best = [0, 0]

    def expand(size: int, mask: int, cand: int):
        budget.tick()
        order, bounds = _color_sort(adj, cand)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best[0]:
                return
            v = order[i]
            bit = 1 << v
            new_cand = cand & adj[v]
            if size + 1 > best[0]:
                best[:] = size + 1, mask | bit
            if new_cand:
                expand(size + 1, mask | bit, new_cand)
            cand ^= bit

    try:
        expand(0, 0, within)
    except RecursionError:
        raise _too_deep("clique", within.bit_count()) from None
    return best[0], best[1]


def max_clique(g: Graph) -> tuple[int, int]:
    """Exact maximum clique: returns (size, vertex bitset witness)."""
    return _max_clique(g, _Budget(None, "clique search"))


def clique_number(g: Graph) -> int:
    return max_clique(g)[0]


def independence_number(g: Graph) -> int:
    return clique_number(complement(g))


def k_color(
    g: Graph,
    k: int,
    *,
    precolor: dict[int, int] | None = None,
    node_budget: int | None = None,
) -> list[int] | None:
    """Find a proper coloring with colors 0..k-1, or None if impossible.

    Exact DSATUR-ordered backtracking; new colors are introduced in index
    order, which prunes color permutations. ``precolor`` pins vertices.
    """
    return _k_color(g, k, precolor or {}, _Budget(node_budget, "coloring search"))


def _too_deep(what: str, n: int) -> UnsupportedParameterError:
    """The error for a search that recursed past Python's limit."""
    return UnsupportedParameterError(f"{what} search on {n} vertices passed the recursion limit")


def _k_color(g: Graph, k: int, precolor: dict[int, int], budget: _Budget, within=None):
    """``k_color`` on the vertex bitset ``within`` (default all, ``precolor`` inside it).

    Ticks ``budget`` once per node of the search on the induced copy, as
    ``_max_clique`` does; the vertices outside ``within`` keep colour -1.
    """
    n = g.n
    if k < 0:
        raise ValueError("negative color count")
    within = (1 << n) - 1 if within is None else within
    adj = [a & within for a in g.adj]
    vertices = list(_bits(within))
    color = [-1] * n
    forbidden = [0] * n  # bitset of colors used by neighbors
    used_colors = 0
    for v, c in precolor.items():
        if not (0 <= v < n and 0 <= c < k):
            raise ValueError(f"precolor {v}: {c} outside vertices 0..{n - 1} or colors 0..{k - 1}")
        color[v] = c
        used_colors = max(used_colors, c + 1)
    for v, c in precolor.items():
        for u in _bits(adj[v]):
            if color[u] == c:
                return None
            forbidden[u] |= 1 << c
    degree = [a.bit_count() for a in adj]

    def choose() -> int:
        bestv, key = -1, (-1, -1)
        for v in vertices:
            if color[v] < 0:
                rank = (forbidden[v].bit_count(), degree[v])
                if rank > key:
                    key = rank
                    bestv = v
        return bestv

    def assign(v: int, c: int) -> list[int]:
        color[v] = c
        touched = []
        bit = 1 << c
        for u in _bits(adj[v]):
            if color[u] < 0 and not forbidden[u] & bit:
                forbidden[u] |= bit
                touched.append(u)
        return touched

    def undo(v: int, c: int, touched: list[int]):
        color[v] = -1
        bit = 1 << c
        for u in touched:
            forbidden[u] &= ~bit

    def search(remaining: int, used: int) -> bool:
        if remaining == 0:
            return True
        budget.tick()
        v = choose()
        limit_c = min(k, used + 1)
        options = ~forbidden[v] & ((1 << limit_c) - 1)
        for c in _bits(options):
            touched = assign(v, c)
            if search(remaining - 1, max(used, c + 1)):
                return True
            undo(v, c, touched)
        return False

    try:
        return color if search(len(vertices) - len(precolor), used_colors) else None
    except RecursionError:
        raise _too_deep("coloring", len(vertices)) from None


def chromatic_number(g: Graph, *, node_budget: int | None = None) -> int:
    """Exact chromatic number: a maximum clique, then k-colorings upward from omega, one budget."""
    budget = _Budget(node_budget, "clique search")
    size, witness = _max_clique(g, budget)
    precolor = {v: i for i, v in enumerate(_bits(witness))}
    budget.what = "coloring search"
    for k in range(size, g.n + 1):
        if _k_color(g, k, precolor, budget) is not None:
            return k
    raise AssertionError("unreachable: n colors always suffice")


# ------------------------------------------------------------------- graph6

_G6_MAX = 258047


def to_graph6(g: Graph) -> str:
    n = g.n
    if n > _G6_MAX:
        raise UnsupportedParameterError(f"graph6 supports at most {_G6_MAX} vertices")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> sh) & 63) + 63) for sh in (12, 6, 0))
    bits = []
    for col in range(1, n):
        column = g.adj[col]
        for row in range(col):
            bits.append(column >> row & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        body.append(chr(val + 63))
    return head + "".join(body)


def from_graph6(text: str, *, line: int | None = None) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise ParseError("empty graph6 string", line=line, column=1)
    pos = 0
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ParseError("unsupported graph6 size header", line=line, column=1)
        n = 0
        for pos in range(1, 4):
            c = ord(s[pos]) - 63
            if not 0 <= c <= 63:
                raise ParseError(f"bad graph6 byte {s[pos]!r}", line=line, column=pos + 1)
            n = n << 6 | c
        pos = 4
    else:
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise ParseError(f"bad graph6 size byte {s[0]!r}", line=line, column=1)
        pos = 1
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[pos:]
    if len(body) != need:
        raise ParseError(
            f"graph6 body for n={n} needs {need} bytes, got {len(body)}",
            line=line,
            column=pos + 1,
        )
    bits = []
    for i, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ParseError(f"bad graph6 byte {ch!r}", line=line, column=pos + i + 1)
        bits.extend((val >> sh) & 1 for sh in (5, 4, 3, 2, 1, 0))
    edges = []
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bits[idx]:
                edges.append((row, col))
            idx += 1
    for b in bits[idx:]:
        if b:
            raise ParseError("nonzero padding bits in graph6 body", line=line, column=len(s))
    return Graph(n, edges)


# ------------------------------------------------- canonical form & isomorphism

def _orbit(points, generators) -> int:
    """Bitset of the orbit of ``points`` under the group the generators span."""
    frontier = list(points)
    orbit = 0
    for p in frontier:
        orbit |= 1 << p
    for p in frontier:
        for gen in generators:
            q = gen[p]
            if not orbit >> q & 1:
                orbit |= 1 << q
                frontier.append(q)
    return orbit


def _orbit_roots(n: int, generators, within: int | None = None) -> dict[int, int]:
    """The least point of each orbit in ``within`` (all points by default), mapped to the orbit."""
    roots: dict[int, int] = {}
    left = (1 << n) - 1 if within is None else within
    while left:
        v = (left & -left).bit_length() - 1
        roots[v] = orbit = _orbit([v], generators)
        left &= ~orbit
    return roots


def _refine(adj, order: list[int], color: list[int], ends: list[int], keys, live: int) -> int:
    """Refine an ordered partition in place until it is equitable.

    ``order`` lists the vertices cell by cell.  A cell's colour is the
    position of its first vertex: ``color[v]`` is v's and ``ends[p]`` is
    where the cell at p ends, so a split renumbers no other cell.  Each
    synchronous round splits the cells that ``keys`` (vertex -> key) touch
    in place, by descending key, then keys the next round by the pieces
    made, each split cell's last piece left out: members of one cell agree
    on every older cell, so their counts in it follow from the others.  A
    vertex's key lists |N(u) & piece| - p * (n + 1) over the pieces at
    positions p next to it, ascending in p, so descending keys put a cell's
    members in ascending order of their sorted neighbour colours (McKay &
    Piperno, 2014).  ``live`` holds the vertices of non-singleton cells; the
    updated set is returned.
    """
    stride = len(order) + 1
    while keys:
        pieces = []
        for s in sorted({color[u] for u in keys}):
            e = ends[s]
            members = sorted(order[s:e], key=keys.__getitem__, reverse=True)
            last = keys[members[0]]
            if last == keys[members[-1]]:
                continue
            order[s:e] = members
            start = s
            for i, u in enumerate(members, s):
                if keys[u] != last:
                    if i - start == 1:
                        live ^= 1 << members[start - s]
                    pieces.append(start)
                    ends[start] = start = i
                    last = keys[u]
                color[u] = start
            if e - start == 1:
                live ^= 1 << members[-1]
            ends[start] = e
        keys = defaultdict(list)  # a member next to no piece keys as []
        for p in pieces:
            mask = reach = 0
            for w in order[p : ends[p]]:
                mask |= 1 << w
                reach |= adj[w]
            reach &= live
            base = -p * stride
            while reach:
                b = reach & -reach
                reach ^= b
                u = b.bit_length() - 1
                keys[u].append(base + (adj[u] & mask).bit_count())
    return live


def _ir_search(g: Graph, budget: _Budget, last: int | None = None):
    """Individualization-refinement search (McKay & Piperno, 2014).

    Returns ``(labelling, generators, rows)``: the labelling old->new of the
    leaf with the largest certificate, automorphisms (old->new) that generate
    Aut(G), and that leaf's certificate: the adjacency rows of G relabeled
    by it.  The root splits the vertices by ascending degree and refines; a
    child individualizes v, putting v first in its cell, and refines.  Each
    node branches on every vertex of its first smallest non-singleton cell,
    except those in the orbit of an explored sibling under the automorphisms
    known that fix the node's path, from the start the transpositions of twins
    (equal open or closed neighbourhoods).  A leaf whose certificate equals
    the first or the best leaf's gives an automorphism; the search then
    resumes at the deepest node the two leaves share, whose branch into the
    new leaf is the image of an explored one.  ``budget`` ticks once per node.
    Cells keep their order, so leaves label n - 1 a vertex of the last root
    cell; a ``last`` outside it stops the search at the root, returning None.
    """
    n = g.n
    order, color, ends = list(range(n)), [0] * n, [n] * n
    degrees = {v: -a.bit_count() for v, a in enumerate(g.adj)}
    live = _refine(g.adj, order, color, ends, degrees, (1 << n) - 1)
    if last is not None and ends[color[last]] < n:
        budget.tick()  # the root, the one node searched
        return None
    neighbors = [tuple(_bits(a)) for a in g.adj]
    latest, swaps = {}, []  # the last vertex seen with each open or closed neighbourhood
    for v, a in enumerate(g.adj):
        for key in (a, a | 1 << v):  # an open neighbourhood never equals a closed one
            if key in latest:
                swaps.append((latest[key], v))
            latest[key] = v
    generators = [tuple(v if w == u else u if w == v else w for w in range(n)) for u, v in swaps]
    first = best = None  # (certificate, labelling, path) of a leaf

    def visit(order, color, ends, keys, live: int, path: list[int]) -> int:
        # returns the depth at which the search resumes
        nonlocal first, best
        budget.tick()
        live = _refine(g.adj, order, color, ends, keys, live)
        depth = len(path)
        s, size, p = 0, n + 1, 0
        while p < n:
            e = ends[p]
            if 1 < e - p < size:
                s, size = p, e - p
            p = e
        if size > n:
            rows = [0] * n  # the adjacency rows relabeled by the leaf
            for v, nv in enumerate(neighbors):
                row = 0
                for u in nv:
                    row |= 1 << color[u]
                rows[color[v]] = row
            leaf = (tuple(rows), color, path)
            if first is None:
                first = best = leaf
                return depth
            for ref in (first, best):
                if leaf[0] == ref[0]:
                    generators.append(tuple(order[c] for c in ref[1]))
                    shared = 0
                    while path[shared] == ref[2][shared]:
                        shared += 1
                    return shared
            if leaf[0] > best[0]:
                best = leaf
            return depth
        target = sorted(order[s : s + size])
        explored: list[int] = []
        pruned = 0
        for v in target:
            if pruned >> v & 1:
                continue
            keys = {u: u == v for u in target}
            resume = visit(order[:], color[:], ends[:], keys, live, path + [v])
            if resume < depth:
                return resume
            explored.append(v)
            fixing = [gen for gen in generators if all(gen[p] == p for p in path)]
            pruned = _orbit(explored, fixing)
        return depth

    try:
        visit(order, color, ends, {}, live, [])
    except RecursionError:
        raise _too_deep("individualization-refinement", n) from None
    return tuple(best[1]), generators, best[0]


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """A labeling old->new such that isomorphic graphs relabel identically."""
    return _ir_search(g, _Budget(None, "canonical labelling search"))[0]


def canonical_graph(g: Graph) -> Graph:
    return Graph.from_adj(_ir_search(g, _Budget(None, "canonical labelling search"))[2])


def canonical_form(g: Graph) -> bytes:
    """Certificate: graph6 of the canonically relabeled graph."""
    return to_graph6(canonical_graph(g)).encode("ascii")


def are_isomorphic(g: Graph, h: Graph, *, node_budget: int | None = None) -> bool:
    """Compare canonical forms; ``node_budget`` caps both searches together."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    budget = _Budget(node_budget, "isomorphism search")
    return _ir_search(g, budget)[2] == _ir_search(h, budget)[2]


def automorphisms(g: Graph, *, node_budget: int | None = None) -> list[tuple[int, ...]]:
    """Every automorphism as an old->new tuple, sorted; past ``DEFAULT_ELEMENT_CAP`` it raises."""
    from .groups import automorphism_group

    return automorphism_group(g, node_budget=node_budget).elements()


# -------------------------------------------------------- exhaustive generation

_GENERATE_LIMIT = 9


@lru_cache(maxsize=None)
def _all_graphs_level(
    n: int,
) -> tuple[tuple[Graph, ...], tuple[tuple[bytes, ...], ...], tuple[str, ...]]:
    """The graphs on n vertices up to isomorphism, generators of their groups, and their graph6.

    Canonical augmentation (McKay, *Isomorph-free exhaustive generation*, 1998):
    a parent gains a vertex of maximum degree for one mask per Aut(parent) orbit,
    kept when one search on the child puts it in the orbit of the vertex labelled
    last (of maximum degree, as the root cells ascend in degree).  That orbit lies
    in the last cell of the refined root partition, so a child whose new vertex
    is outside that cell is rejected there, before any branching.  The graphs are
    canonical, in graph6 order; parallel tuples hold their generators in
    canonical labels, one bytes each, equal lists shared, so n = 9 fits, and
    the graph6 strings they were sorted by.
    """
    if n == 1:
        return (Graph(1),), ((),), ("@",)
    children = []
    shared: dict[tuple[bytes, ...], tuple[bytes, ...]] = {}
    for parent, generators in zip(*_all_graphs_level(n - 1)[:2]):
        top = max(a.bit_count() for a in parent.adj)
        tops = sum(1 << v for v, a in enumerate(parent.adj) if a.bit_count() == top)
        seen: set[int] = set()
        for mask in range(1 << (n - 1)):
            size = mask.bit_count()  # the new vertex's degree, which must be the maximum
            if mask in seen or size < top or size == top and mask & tops:
                continue
            frontier = [mask]
            while frontier:
                m = frontier.pop()
                if m not in seen:
                    seen.add(m)
                    frontier.extend(sum(1 << gen[v] for v in _bits(m)) for gen in generators)
            child = parent.with_vertex(mask)
            searched = _ir_search(child, _Budget(None, "canonical labelling search"), n - 1)
            if searched and _orbit([searched[0].index(n - 1)], searched[1]) >> (n - 1) & 1:
                lab, found, rows = searched
                vertex_of = sorted(range(n), key=lab.__getitem__)
                canon = tuple(bytes(lab[gen[v]] for v in vertex_of) for gen in found)
                graph = Graph.from_adj(rows)
                children.append((graph, shared.setdefault(canon, canon), to_graph6(graph)))
    children.sort(key=lambda child: child[2])
    return tuple(zip(*children))


def generate_all(n: int):
    """All graphs on n vertices up to isomorphism, canonical, in certificate order."""
    if not 1 <= n <= _GENERATE_LIMIT:
        raise UnsupportedParameterError(
            f"exhaustive generation supports 1..{_GENERATE_LIMIT} vertices, got {n}"
        )
    yield from _all_graphs_level(n)[0]
