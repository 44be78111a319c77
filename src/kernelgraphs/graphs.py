"""Simple undirected graphs on {0..n-1} as per-vertex adjacency bitsets.

Graph equality and hashing are LABELED (same vertex names, same edges).
Isomorphism-aware comparison goes through canonical_form / are_isomorphic.

The graph6 text format is the interchange format throughout the package.
"""

from __future__ import annotations

import itertools
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
    "automorphisms",
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
        adj = list(self.adj)
        adj.append(neighbor_mask)
        for v in _bits(neighbor_mask):
            adj[v] |= 1 << n
        return Graph.from_adj(adj)

    def relabel(self, perm) -> "Graph":
        """perm maps old vertex -> new vertex."""
        n = self.n
        adj = [0] * n
        for u in range(n):
            pu = perm[u]
            for v in _bits(self.adj[u]):
                adj[pu] |= 1 << perm[v]
        return Graph.from_adj(adj)

    def induced(self, vertices) -> "Graph":
        vs = list(vertices)
        index = {v: i for i, v in enumerate(vs)}
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

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

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

DEFAULT_EXACT_LIMIT = 64


def max_clique(g: Graph, *, limit: int = DEFAULT_EXACT_LIMIT) -> tuple[int, int]:
    """Exact maximum clique: returns (size, vertex bitset witness).

    Branch and bound with a greedy-coloring bound at each node.
    """
    n = g.n
    if limit is not None and n > limit:
        raise UnsupportedParameterError(f"exact clique limited to {limit} vertices, got {n}")
    if n == 0:
        return 0, 0
    adj = g.adj
    best = [0, 0]

    def color_sort(cand_mask: int):
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

    def expand(size: int, mask: int, cand: int):
        order, bounds = color_sort(cand)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best[0]:
                return
            v = order[i]
            bit = 1 << v
            new_cand = cand & adj[v]
            if size + 1 > best[0]:
                best[0] = size + 1
                best[1] = mask | bit
            if new_cand:
                expand(size + 1, mask | bit, new_cand)
            cand ^= bit

    expand(0, 0, (1 << n) - 1)
    return best[0], best[1]


def clique_number(g: Graph, *, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    return max_clique(g, limit=limit)[0]


def independence_number(g: Graph, *, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    return clique_number(complement(g), limit=limit)


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
    n = g.n
    if k < 0:
        raise ValueError("negative color count")
    if n == 0:
        return []
    adj = g.adj
    color = [-1] * n
    forbidden = [0] * n  # bitset of colors used by neighbors
    used_colors = 0
    if precolor:
        for v, c in precolor.items():
            if not 0 <= c < k:
                raise ValueError(f"precolor {c} outside 0..{k - 1}")
            color[v] = c
            used_colors = max(used_colors, c + 1)
        for v, c in precolor.items():
            for u in _bits(adj[v]):
                if color[u] == c:
                    return None
                forbidden[u] |= 1 << c
    budget = _Budget(node_budget, "coloring search")

    def choose() -> int:
        bestv, key = -1, (-1, -1)
        for v in range(n):
            if color[v] < 0:
                sat = forbidden[v].bit_count()
                deg = adj[v].bit_count()
                if (sat, deg) > key:
                    key = (sat, deg)
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

    remaining = sum(1 for c in color if c < 0)
    if search(remaining, used_colors):
        return color
    return None


def chromatic_number(
    g: Graph, *, limit: int = DEFAULT_EXACT_LIMIT, node_budget: int | None = None
) -> int:
    """Exact chromatic number: try k-colorings upward from the clique number."""
    n = g.n
    if limit is not None and n > limit:
        raise UnsupportedParameterError(f"exact coloring limited to {limit} vertices, got {n}")
    if n == 0:
        return 0
    size, witness = max_clique(g, limit=limit)
    clique_vertices = list(_bits(witness))
    for k in range(size, n + 1):
        precolor = {v: i for i, v in enumerate(clique_vertices)}
        if k_color(g, k, precolor=precolor, node_budget=node_budget) is not None:
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

def _wl_colors(neighbors, colors: list[int]) -> list[int]:
    """Signature-sorted equitable refinement from the given coloring."""
    count = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[u] for u in nv])))
            for v, nv in enumerate(neighbors)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ranking[s] for s in sigs]
        new_count = len(ranking)
        if new_count == count:
            return colors
        count = new_count


def _orbit(points, generators) -> int:
    """Bitset of the orbit of ``points`` under the group the generators span."""
    orbit = 0
    frontier = list(points)
    while frontier:
        p = frontier.pop()
        if orbit >> p & 1:
            continue
        orbit |= 1 << p
        frontier.extend(gen[p] for gen in generators)
    return orbit


def _ir_search(g: Graph, budget: _Budget):
    """Individualization-refinement search (McKay & Piperno, 2014).

    Returns ``(labelling, generators)``: the labelling old->new of the leaf
    with the largest certificate, and automorphisms (old->new) that generate
    Aut(G).  Each node refines its coloring and branches on every vertex of
    its first smallest non-singleton cell, except those in the orbit of an
    explored sibling under the automorphisms found so far that fix the
    node's path.  A leaf whose certificate equals the first or the best
    leaf's gives an automorphism; the search then resumes at the deepest
    node the two leaves share, whose branch into the new leaf is the image
    of an explored one.  ``budget`` ticks once per node.
    """
    n = g.n
    neighbors = [tuple(_bits(a)) for a in g.adj]
    generators: list[tuple[int, ...]] = []
    first = best = None  # (certificate, labelling, path) of a leaf

    def visit(colors: list[int], path: list[int]) -> int:
        # returns the depth at which the search resumes
        nonlocal first, best
        budget.tick()
        colors = _wl_colors(neighbors, colors)
        depth = len(path)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        if len(cells) == n:
            rows = [0] * n  # the adjacency rows relabeled by the leaf
            for v, nv in enumerate(neighbors):
                row = 0
                for u in nv:
                    row |= 1 << colors[u]
                rows[colors[v]] = row
            leaf = (tuple(rows), colors, path)
            if first is None:
                first = best = leaf
                return depth
            for ref in (first, best):
                if leaf[0] == ref[0]:
                    position = [0] * n
                    for v, c in enumerate(colors):
                        position[c] = v
                    generators.append(tuple(position[c] for c in ref[1]))
                    shared = 0
                    while path[shared] == ref[2][shared]:
                        shared += 1
                    return shared
            if leaf[0] > best[0]:
                best = leaf
            return depth
        target = min((cells[c] for c in sorted(cells) if len(cells[c]) > 1), key=len)
        explored: list[int] = []
        pruned = 0
        for v in target:
            if pruned >> v & 1:
                continue
            branched = [c * 2 for c in colors]
            branched[v] -= 1
            resume = visit(branched, path + [v])
            if resume < depth:
                return resume
            explored.append(v)
            fixing = [gen for gen in generators if all(gen[p] == p for p in path)]
            pruned = _orbit(explored, fixing)
        return depth

    visit([0] * n, [])
    return tuple(best[1]), generators


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """A labeling old->new such that isomorphic graphs relabel identically."""
    return _ir_search(g, _Budget(None, "canonical labelling search"))[0]


def canonical_graph(g: Graph) -> Graph:
    return g.relabel(canonical_permutation(g))


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
    return g.relabel(_ir_search(g, budget)[0]) == h.relabel(_ir_search(h, budget)[0])


def automorphisms(g: Graph, *, node_budget: int | None = None) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, as sorted old->new tuples."""
    from .groups import automorphism_group

    group = automorphism_group(g, node_budget=node_budget)
    return group.elements(limit=group.order())


# -------------------------------------------------------- exhaustive generation

_GENERATE_LIMIT = 9


@lru_cache(maxsize=None)
def _all_graphs_level(n: int) -> tuple[Graph, ...]:
    """Canonicalize the one-vertex extensions of each graph on n - 1 vertices.

    Every graph G arises from G - w for a vertex w of maximum degree, so an
    extension mask is kept only when the new vertex has maximum degree in
    the child.  Masks in one orbit of Aut(parent) give isomorphic children,
    so one mask per orbit is kept (McKay, *Isomorph-free exhaustive
    generation*, 1998).  The certificate dictionary removes what is left.
    """
    if n == 1:
        return (Graph(1),)
    reps: dict[bytes, Graph] = {}
    for parent in _all_graphs_level(n - 1):
        degrees = [a.bit_count() for a in parent.adj]
        generators = _ir_search(parent, _Budget(None, "automorphism search"))[1]
        seen: set[int] = set()
        for mask in range(1 << (n - 1)):
            size = mask.bit_count()
            if mask in seen or any(size < d + (mask >> v & 1) for v, d in enumerate(degrees)):
                continue
            frontier = [mask]
            while frontier:
                m = frontier.pop()
                if m not in seen:
                    seen.add(m)
                    frontier.extend(sum(1 << gen[v] for v in _bits(m)) for gen in generators)
            cert = canonical_form(parent.with_vertex(mask))
            if cert not in reps:
                reps[cert] = from_graph6(cert.decode("ascii"))
    return tuple(reps[key] for key in sorted(reps))


def generate_all(n: int):
    """All graphs on n vertices up to isomorphism, canonical, in certificate order."""
    if not 1 <= n <= _GENERATE_LIMIT:
        raise UnsupportedParameterError(
            f"exhaustive generation supports 1..{_GENERATE_LIMIT} vertices, got {n}"
        )
    yield from _all_graphs_level(n)
