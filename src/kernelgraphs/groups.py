"""Permutation groups, automorphism groups of graphs, and group naming.

Permutations are tuples mapping position -> image, composed left to right
like transformations.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

try:  # the SHA-1 of opaque group labels, without hashlib, which loads OpenSSL
    from _sha1 import sha1
except ImportError:  # an interpreter built without it
    from hashlib import sha1

from .errors import BudgetExceededError, _Budget
from .graphs import Graph, _ir_search, _orbit_roots
from .transform import _mul

__all__ = [
    "PermGroup",
    "automorphism_group",
    "group_name",
]

DEFAULT_ELEMENT_CAP = 200_000


def _inv(a):
    r = [0] * len(a)
    for i, x in enumerate(a):
        r[x] = i
    return tuple(r)


def _sift(chain, g):
    """Strip g through the chain: the residual and the level where it stopped."""
    for level, (beta, table, _gens) in enumerate(chain):
        p = g[beta]
        if p not in table:
            return g, level
        if p != beta:
            g = _mul(g, _inv(table[p]))
    return g, len(chain)


def _perm_order(a) -> int:
    n = len(a)
    seen = [False] * n
    result = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = a[x]
            length += 1
        result = math.lcm(result, length)
    return result


class PermGroup:
    """Group generated by permutations of {0..degree-1}."""

    __slots__ = ("degree", "generators", "_chain")

    def __init__(self, degree: int, generators):
        identity = tuple(range(degree))
        gens = set()
        for g in generators:
            g = tuple(g)
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
            if g != identity:
                gens.add(g)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(sorted(gens)))
        object.__setattr__(self, "_chain", None)

    def __setattr__(self, name, value):
        raise AttributeError("PermGroup is immutable")

    # --------------------------------------------------------- Schreier-Sims

    def _stabilizer_chain(self):
        """Base and strong generators by one incremental Schreier-Sims pass.

        Each level is (base point, transversal, level generators).  The level
        generators are the strong generators fixing every earlier base point;
        the transversal maps each point of the base point's orbit under them
        to a product of them sending the base point there.  A generator that
        does not sift through the chain joins every level it fixes, deepest
        first.  Each such level's orbit grows by its new points only, and
        only the new (point, generator) Schreier generators are sifted.  A
        nontrivial residual of level k's Schreier generators lies in the
        span of level k's generators, and so of every level above, so it
        joins only the levels below k that it fixes.  Transversal entries
        never change, so a Schreier generator that sifted to the identity
        once stays settled (Sims 1970; Seress, *Permutation Group
        Algorithms*, 2003, section 4.2).
        """
        if self._chain is not None:
            return self._chain
        identity = tuple(range(self.degree))
        chain: list[tuple[int, dict, list]] = []
        queue = [(g, -1) for g in self.generators]  # (element, the level it came from)
        for g, origin in queue:  # grows while it is read: residuals join it
            g, depth = _sift(chain, g)
            if g == identity:
                continue
            if depth == len(chain):
                beta = next(x for x in identity if g[x] != x)
                chain.append((beta, {beta: identity}, []))
            for level in range(depth, origin, -1):
                _beta, table, gens = chain[level]
                gens.append(g)
                pairs = [(p, g) for p in table]
                for p, s in pairs:  # grows while it is read: a new point with each generator
                    q = s[p]
                    if q not in table:
                        table[q] = _mul(table[p], s)
                        pairs.extend((q, t) for t in gens)
                        continue
                    residual = _sift(chain, _mul(_mul(table[p], s), _inv(table[q])))[0]
                    if residual != identity:
                        queue.append((residual, level))
        object.__setattr__(self, "_chain", chain)
        return chain

    def order(self) -> int:
        result = 1
        for _beta, table, _gens in self._stabilizer_chain():
            result *= len(table)
        return result

    def contains(self, perm) -> bool:
        g = tuple(perm)
        if sorted(g) != list(range(self.degree)):
            return False
        return _sift(self._stabilizer_chain(), g)[0] == tuple(range(self.degree))

    # ------------------------------------------------------------ enumeration

    def elements(self, limit: int = DEFAULT_ELEMENT_CAP) -> list[tuple[int, ...]]:
        """Every element, sorted: the products g*u down the chain, deepest level first."""
        if self.order() > limit:
            raise BudgetExceededError("closure", limit, "group elements")
        result = [tuple(range(self.degree))]
        for _beta, table, _gens in reversed(self._stabilizer_chain()):
            result = [_mul(g, u) for u in table.values() for g in result]
        return sorted(result)

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            _mul(a, b) == _mul(b, a)
            for i, a in enumerate(gens)
            for b in gens[i + 1 :]
        )

    def derived_subgroup_order(self) -> int:
        identity = tuple(range(self.degree))
        gens = self.generators
        inverses = {g: _inv(g) for g in gens}
        commutators = set()
        for a in gens:
            for b in gens:
                c = _mul(_mul(_mul(_inv(a), _inv(b)), a), b)
                if c != identity:
                    commutators.add(c)
        # normal closure: conjugating each generator keeps the set generating
        queue = list(commutators)
        for h in queue:  # grows while it is read
            for g in gens:
                conj = _mul(_mul(inverses[g], h), g)
                if conj != identity and conj not in commutators:
                    commutators.add(conj)
                    queue.append(conj)
        if not commutators:
            return 1
        return PermGroup(self.degree, commutators).order()

    def fingerprint(self) -> tuple:
        """Abstract-isomorphism invariants used for catalog lookup.

        The tuple is (order, element-order counts, abelian flag, centre
        order, derived-subgroup order).  It is read from the orbit
        constituents: the generators restricted to each orbit.  G embeds in
        the product of its constituents, so G is that direct product when
        the orders agree, and then every invariant combines from the
        constituents' (Seress, *Permutation Group Algorithms*, 2003).  A
        transitive group of degree k and order k! is Sym(k), counted by
        cycle type.  Any other group is enumerated.
        """
        constituents = self._constituents()
        if math.prod(c.order() for c in constituents) != self.order():
            return self._enumerated_fingerprint()
        return _product_fingerprint(
            _symmetric_fingerprint(c.degree)
            if c.order() == math.factorial(c.degree)
            else c._enumerated_fingerprint()
            for c in constituents
        )

    def _constituents(self) -> list[PermGroup]:
        """The group restricted to each orbit of two or more points, relabelled."""
        gens = self.generators
        result = []
        for orbit in _orbit_roots(self.degree, gens).values():
            if orbit & (orbit - 1) == 0:
                continue  # a fixed point
            if orbit == (1 << self.degree) - 1:
                return [self]  # transitive: its own constituent
            points = [q for q in range(self.degree) if orbit >> q & 1]
            index = {q: i for i, q in enumerate(points)}
            restricted = [tuple(index[g[q]] for q in points) for g in gens]
            result.append(PermGroup(len(points), restricted))
        return result

    def _enumerated_fingerprint(self) -> tuple:
        """The fingerprint from one enumeration of the elements.

        The centre is the set of elements that commute with every generator.
        """
        elements = self.elements()
        gens = self.generators
        orders = Counter(map(_perm_order, elements))
        center = sum(all(_mul(t, g) == _mul(g, t) for g in gens) for t in elements)
        return (
            len(elements),
            tuple(sorted(orders.items())),
            self.is_abelian(),
            center,
            self.derived_subgroup_order(),
        )

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} generators={len(self.generators)}>"


def _partitions(k: int, most: int):
    """Partitions of k into parts of at most ``most``, largest part first."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, most), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first, *rest)


@functools.cache
def _symmetric_fingerprint(k: int) -> tuple:
    """Fingerprint of Sym(k) from its cycle types.

    Cycle type 1^m1 2^m2 ... has k! / prod(i^mi mi!) elements, each of
    order lcm of the parts.  The centre is trivial except in Sym(2), and
    the derived subgroup is Alt(k).
    """
    orders: Counter = Counter()
    for parts in _partitions(k, k):
        size = math.factorial(k)
        for part, mult in Counter(parts).items():
            size //= part**mult * math.factorial(mult)
        orders[math.lcm(*parts)] += size
    order = math.factorial(k)
    return (order, tuple(sorted(orders.items())), k <= 2, 2 if k == 2 else 1, max(1, order // 2))


def _product_fingerprint(fingerprints) -> tuple:
    """Fingerprint of the direct product of groups with these fingerprints.

    Orders, centres and derived subgroups multiply; the product is abelian
    when every factor is; element orders combine by lcm.
    """
    order, orders, abelian, center, derived = 1, {1: 1}, True, 1, 1
    for f_order, f_orders, f_abelian, f_center, f_derived in fingerprints:
        combined: Counter = Counter()
        for a, x in orders.items():
            for b, y in f_orders:
                combined[math.lcm(a, b)] += x * y
        order *= f_order
        orders = combined
        abelian = abelian and f_abelian
        center *= f_center
        derived *= f_derived
    return (order, tuple(sorted(orders.items())), abelian, center, derived)


# ------------------------------------------------------- automorphism groups

def automorphism_group(g: Graph, *, node_budget: int | None = None) -> PermGroup:
    """Automorphism group of g, spanned by the generators the search finds.

    ``node_budget`` caps the search nodes of the whole call.
    """
    return PermGroup(g.n, _ir_search(g, _Budget(node_budget, "automorphism search"))[1])


# ------------------------------------------------------------------- catalog

def _perm(n: int, *cycles) -> tuple[int, ...]:
    p = list(range(n))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            p[x] = cyc[(i + 1) % len(cyc)]
    return tuple(p)


def _catalog_specs() -> list[tuple[str, int, list, int]]:
    # (name, degree, generators, expected order)
    return [
        ("1", 1, [], 1),
        ("C2", 2, [_perm(2, (0, 1))], 2),
        ("C2xC2", 4, [_perm(4, (0, 1)), _perm(4, (2, 3))], 4),
        ("C2xC2xC2", 6, [_perm(6, (0, 1)), _perm(6, (2, 3)), _perm(6, (4, 5))], 8),
        ("C3", 3, [_perm(3, (0, 1, 2))], 3),
        ("C4", 4, [_perm(4, (0, 1, 2, 3))], 4),
        ("C5", 5, [_perm(5, (0, 1, 2, 3, 4))], 5),
        ("C6", 6, [_perm(6, (0, 1, 2, 3, 4, 5))], 6),
        ("C7", 7, [_perm(7, (0, 1, 2, 3, 4, 5, 6))], 7),
        ("S3", 3, [_perm(3, (0, 1)), _perm(3, (0, 1, 2))], 6),
        ("D8", 4, [_perm(4, (0, 1, 2, 3)), _perm(4, (1, 3))], 8),
        ("D10", 5, [_perm(5, (0, 1, 2, 3, 4)), _perm(5, (1, 4), (2, 3))], 10),
        ("D12", 6, [_perm(6, (0, 1, 2, 3, 4, 5)), _perm(6, (1, 5), (2, 4))], 12),
        ("D14", 7, [_perm(7, (0, 1, 2, 3, 4, 5, 6)), _perm(7, (1, 6), (2, 5), (3, 4))], 14),
        ("A4", 4, [_perm(4, (0, 1, 2)), _perm(4, (1, 2, 3))], 12),
        ("C2xD8", 6, [_perm(6, (0, 1, 2, 3)), _perm(6, (1, 3)), _perm(6, (4, 5))], 16),
        (
            "C2xC2xS3",
            7,
            [_perm(7, (0, 1)), _perm(7, (2, 3)), _perm(7, (4, 5)), _perm(7, (4, 5, 6))],
            24,
        ),
        (
            "S3xS3",
            6,
            [_perm(6, (0, 1)), _perm(6, (0, 1, 2)), _perm(6, (3, 4)), _perm(6, (3, 4, 5))],
            36,
        ),
        (
            "S3xS3:C2",
            6,
            [_perm(6, (0, 1)), _perm(6, (0, 1, 2)), _perm(6, (0, 3), (1, 4), (2, 5))],
            72,
        ),
        (
            "D8xS3",
            7,
            [_perm(7, (0, 1, 2, 3)), _perm(7, (1, 3)), _perm(7, (4, 5)), _perm(7, (4, 5, 6))],
            48,
        ),
        ("S4", 4, [_perm(4, (0, 1)), _perm(4, (0, 1, 2, 3))], 24),
        ("C2xS4", 6, [_perm(6, (0, 1)), _perm(6, (0, 1, 2, 3)), _perm(6, (4, 5))], 48),
        (
            "S3xS4",
            7,
            [_perm(7, (0, 1)), _perm(7, (0, 1, 2)), _perm(7, (3, 4)), _perm(7, (3, 4, 5, 6))],
            144,
        ),
        ("S5", 5, [_perm(5, (0, 1)), _perm(5, (0, 1, 2, 3, 4))], 120),
        ("C2xS5", 7, [_perm(7, (0, 1)), _perm(7, (0, 1, 2, 3, 4)), _perm(7, (5, 6))], 240),
        ("S6", 6, [_perm(6, (0, 1)), _perm(6, (0, 1, 2, 3, 4, 5))], 720),
        ("S7", 7, [_perm(7, (0, 1)), _perm(7, (0, 1, 2, 3, 4, 5, 6))], 5040),
    ]


@functools.cache
def _catalog(order: int) -> dict[tuple, str]:
    """Fingerprint -> name for the catalog groups of one order, built on first use."""
    table: dict[tuple, str] = {}
    for name, degree, gens, expected_order in _catalog_specs():
        if expected_order != order:
            continue
        group = PermGroup(degree, gens)
        if group.order() != expected_order:
            raise RuntimeError(
                f"catalog group {name} has order {group.order()}, not {expected_order}"
            )
        fp = group.fingerprint()
        if fp in table:
            raise RuntimeError(f"catalog groups {table[fp]} and {name} share a fingerprint")
        table[fp] = name
    return table


def group_name(group: PermGroup) -> str:
    """Catalog name for small groups, a generic order-based label otherwise."""
    order = group.order()
    if order > DEFAULT_ELEMENT_CAP:
        # the fingerprint may enumerate every element; testing the cap here
        # instead of catching its error lets a wall-clock alarm through
        return f"G{order}"
    fp = group.fingerprint()
    known = _catalog(order).get(fp)
    if known is not None:
        return known
    digest = sha1(repr(fp).encode("ascii")).hexdigest()[:6]
    return f"G{order}#{digest}"
