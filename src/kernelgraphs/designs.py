"""Finite fields, Latin squares, MOLS, and orthogonal arrays.

Field elements are integers 0..q-1, read as base-p digit vectors against a
fixed irreducible polynomial per order. Latin square and orthogonal array
symbols are 1-based, matching the text formats used elsewhere.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import UnsupportedParameterError
from .graphs import Graph, k_color
from .transform import Partition

__all__ = [
    "FiniteField",
    "LatinSquare",
    "mols_complete",
    "are_orthogonal",
    "cyclic_square",
    "OrthogonalArray",
    "oa_from_mols",
    "oa_graph",
    "oa_extendible",
    "max_mols_available",
]

MAX_FIELD_ORDER = 49

# fixed irreducible polynomials, coefficients by ascending degree, monic
_POLYNOMIALS = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (1, 1, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (3, 1, 1),
}


def _prime_power(q: int) -> tuple[int, int] | None:
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
    return q, 1  # q itself is prime


class FiniteField:
    """Arithmetic tables for GF(q), q a prime power up to 49."""

    __slots__ = ("q", "p", "e", "_add", "_mul", "_inv")

    def __init__(self, q: int, p: int, e: int, add, mul, inv):
        self.q = q
        self.p = p
        self.e = e
        self._add = add
        self._mul = mul
        self._inv = inv

    @classmethod
    def of_order(cls, q: int) -> "FiniteField":
        return _make_field(q)

    @property
    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        row = self._add[a]
        return row.index(0)

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self.neg(b)]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def __repr__(self) -> str:
        return f"FiniteField.of_order({self.q})"


def _digits(x: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds, p: int) -> int:
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


def _check_field(q: int, p: int, e: int, add, mul) -> None:
    """Raise ValueError unless the tables make a field with identities 0 and 1.

    Associativity is Light's test over generating sets, O(e q^2): the a with
    (xa)y = x(ay) for all x, y are closed under the operation. The digit
    basis p^i generates +; 0 and a primitive element g generate *. The a
    that distribute over + are closed under products once * is associative.
    """
    bad = f"the GF({q}) tables are not a field"
    add, mul = [list(row) for row in add], [list(row) for row in mul]

    def reached(table, start, gens):  # start, then start times each product of gens
        seen, new = set(), {start}
        while new:
            seen |= new
            new = {table[x][a] for x in new for a in gens} - seen
        return seen

    for a in range(q):
        if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0 or sorted(add[a]) != [*range(q)]:
            raise ValueError(f"{bad}: row {a} breaks an identity or repeats a sum")
        if any(add[a][b] != add[b][a] or mul[a][b] != mul[b][a] for b in range(a)):
            raise ValueError(f"{bad}: {a} does not commute")
    basis = [p**i for i in range(e)]
    g = next((g for g in range(1, q) if reached(mul, 1, [g]) == {*range(1, q)}), None)
    if g is None or len(reached(add, 0, basis)) < q:
        raise ValueError(f"{bad}: no primitive element, or the digits do not generate +")
    for table, gens in ((add, basis), (mul, [0, g])):
        if any(table[row[a]] != [row[y] for y in table[a]] for a in gens for row in table):
            raise ValueError(f"{bad}: not associative")
    rows = (mul[0], mul[g])
    if any([m[y] for y in add[b]] != [add[m[b]][y] for y in m] for m in rows for b in range(q)):
        raise ValueError(f"{bad}: not distributive")


@lru_cache(maxsize=None)
def _make_field(q: int) -> FiniteField:
    pe = _prime_power(q)
    if pe is None:
        raise UnsupportedParameterError(f"{q} is not a prime power")
    if q > MAX_FIELD_ORDER:
        raise UnsupportedParameterError(
            f"fields are tabulated up to order {MAX_FIELD_ORDER}, got {q}"
        )
    p, e = pe
    digits = [_digits(a, p, e) for a in range(q)]
    add = [[_undigits([(x + y) % p for x, y in zip(da, db)], p) for db in digits] for da in digits]
    mul = []
    for s in digits:  # s runs through a * x^i, reduced by the modulus
        row = [0]  # a * b for b < p^i: digit d of b at position i adds d copies of a * x^i
        for i in range(e):
            if i:
                s = [(y - s[-1] * m) % p for y, m in zip([0, *s[:-1]], _POLYNOMIALS[q])]
            multiples = [0]
            for _ in range(p - 1):
                multiples.append(add[multiples[-1]][_undigits(s, p)])
            row = [add[r][m] for m in multiples for r in row]
        mul.append(row)
    _check_field(q, p, e, add, mul)
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    return FiniteField(q, p, e, tuple(map(tuple, add)), tuple(map(tuple, mul)), tuple(inv))


# -------------------------------------------------------------- latin squares

class LatinSquare:
    """n x n array over symbols 1..n, each once per row and column."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        symbols = set(range(1, n + 1))
        for r in rows:
            if len(r) != n or set(r) != symbols:
                raise ValueError(f"row {r} is not a permutation of 1..{n}")
        for j, col in enumerate(zip(*rows)):
            if set(col) != symbols:
                raise ValueError(f"column {j + 1} is not a permutation of 1..{n}")
        self.n = n
        self.rows = rows

    def symbol_partition(self) -> Partition:
        """Partition of the n*n cell grid into the n symbol position classes.

        Cell (i,j) is point i*n+j; each block is a transversal of the grid.
        """
        blocks: dict[int, list[int]] = {}
        for i, row in enumerate(self.rows):
            for j, s in enumerate(row):
                blocks.setdefault(s, []).append(i * self.n + j)
        return Partition(list(blocks.values()))

    def __eq__(self, other) -> bool:
        return isinstance(other, LatinSquare) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"<LatinSquare n={self.n}>"


def mols_complete(q: int) -> list[LatinSquare]:
    """The standard complete family of q-1 mutually orthogonal squares.

    Square m has cell (i,j) = m*i + j in GF(q). Any two squares of the family
    agree on exactly one cell per symbol pair.
    """
    field = FiniteField.of_order(q)
    squares = []
    for m in range(1, q):
        rows = [[x + 1 for x in field._add[field._mul[m][i]]] for i in range(q)]
        squares.append(LatinSquare(rows))
    return squares


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    if a.n != b.n:
        raise ValueError("squares have different sizes")
    pairs = {
        (a.rows[i][j], b.rows[i][j]) for i in range(a.n) for j in range(a.n)
    }
    return len(pairs) == a.n * a.n


def cyclic_square(n: int) -> LatinSquare:
    """Latin square with cell (i,j) = ((j - i) mod n) + 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return LatinSquare([[(j - i) % n + 1 for j in range(n)] for i in range(n)])


# ---------------------------------------------------------- orthogonal arrays

class OrthogonalArray:
    """Strength-2, index-1 array: k rows of n*n entries over symbols 1..n.

    Every ordered symbol pair appears exactly once across any two rows.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        rows = tuple(tuple(r) for r in rows)
        if n < 1:
            raise ValueError("need n >= 1")
        if len(rows) < 2:
            raise ValueError("need at least 2 rows")
        width = n * n
        for r in rows:
            if len(r) != width:
                raise ValueError(f"row length {len(r)} != {width}")
            counts = [0] * (n + 1)
            for s in r:
                if not 1 <= s <= n:
                    raise ValueError(f"symbol {s} outside 1..{n}")
                counts[s] += 1
            if any(c != n for c in counts[1:]):
                raise ValueError("each symbol must appear exactly n times per row")
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                pairs = set(zip(rows[a], rows[b]))
                if len(pairs) != width:
                    raise ValueError(f"rows {a} and {b} repeat a symbol pair")
        self.n = n
        self.rows = rows

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def columns(self) -> int:
        return self.n * self.n

    def with_row(self, row) -> "OrthogonalArray":
        return OrthogonalArray(self.n, self.rows + (tuple(row),))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrthogonalArray)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"<OrthogonalArray k={self.k} n={self.n}>"


def oa_from_mols(squares, n: int | None = None) -> OrthogonalArray:
    """Row-index row, column-index row, then one row per square.

    Columns run over cells (i,j) in order i*n+j. With no squares this is the
    trivial two-row array, so ``n`` is required then.
    """
    squares = list(squares)
    if squares:
        size = squares[0].n
        if any(sq.n != size for sq in squares):
            raise ValueError("squares have different sizes")
        if n is not None and n != size:
            raise ValueError(f"n={n} disagrees with squares of size {size}")
        n = size
        for a in range(len(squares)):
            for b in range(a + 1, len(squares)):
                if not are_orthogonal(squares[a], squares[b]):
                    raise ValueError(f"squares {a} and {b} are not orthogonal")
    elif n is None:
        raise ValueError("need n when no squares are given")
    cells = [(i, j) for i in range(n) for j in range(n)]
    rows = [
        tuple(i + 1 for i, _ in cells),
        tuple(j + 1 for _, j in cells),
    ]
    for sq in squares:
        rows.append(tuple(sq.rows[i][j] for i, j in cells))
    return OrthogonalArray(n, rows)


def oa_graph(oa: OrthogonalArray) -> Graph:
    """Columns as vertices, adjacent when they agree in some row."""
    width = oa.columns
    edges = []
    for u in range(width):
        for v in range(u + 1, width):
            if any(r[u] == r[v] for r in oa.rows):
                edges.append((u, v))
    return Graph(width, edges)


def oa_extendible(
    oa: OrthogonalArray, *, node_budget: int | None = None
) -> tuple[int, ...] | None:
    """A row extending the array by one constraint, or None if none exists.

    An extending row is exactly a proper n-coloring of the column graph: color
    classes may never repeat a symbol in any existing row.
    """
    g = oa_graph(oa)
    n = oa.n
    first = oa.rows[0]
    anchor = first[0]
    clique = [c for c in range(oa.columns) if first[c] == anchor]
    precolor = {c: i for i, c in enumerate(clique)}
    coloring = k_color(g, n, precolor=precolor, node_budget=node_budget)
    if coloring is None:
        return None
    row = tuple(c + 1 for c in coloring)
    oa.with_row(row)  # validates
    return row


def max_mols_available(n: int) -> int:
    """Size of the largest family this package can construct."""
    if _prime_power(n) is not None and n <= MAX_FIELD_ORDER:
        return n - 1
    raise UnsupportedParameterError(
        f"no construction tabulated for order {n}; prime powers up to "
        f"{MAX_FIELD_ORDER} are supported"
    )

