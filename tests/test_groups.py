import hashlib
import itertools
import math
import random

import pytest

from kernelgraphs import groups
from kernelgraphs.errors import BudgetExceededError
from kernelgraphs.groups import (
    PermGroup,
    _catalog,
    _catalog_specs,
    _perm,
    _symmetric_fingerprint,
    automorphism_group,
    group_name,
)
from kernelgraphs.graphs import (
    cartesian_product,
    complement,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    generate_all,
    hamming,
    null_graph,
    path,
    union_complete,
)
from kernelgraphs.kernelgraph import _nonedge_orbits


def closure_oracle(degree: int, gens) -> set:
    identity = tuple(range(degree))
    seen = {identity}
    queue = [identity]
    while queue:
        t = queue.pop()
        for g in gens:
            new = tuple(g[x] for x in t)
            if new not in seen:
                seen.add(new)
                queue.append(new)
    return seen


def test_permgroup_basics():
    s4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert s4.order() == 24
    assert len(s4.elements()) == 24
    assert s4.contains((3, 2, 1, 0))
    assert not s4.contains((0, 1, 2))
    trivial = PermGroup(3, [])
    assert trivial.order() == 1
    assert trivial.elements() == [(0, 1, 2)]
    with pytest.raises(ValueError):
        PermGroup(3, [(0, 0, 1)])


def test_order_matches_enumeration_oracle():
    rng = random.Random(173)
    for _ in range(100):
        degree = rng.randrange(1, 7)
        count = rng.randrange(1, 4)
        gens = []
        for _ in range(count):
            p = list(range(degree))
            rng.shuffle(p)
            gens.append(tuple(p))
        group = PermGroup(degree, gens)
        assert group.order() == len(closure_oracle(degree, gens))


def random_generators(rng, degree):
    """One to three permutations, each shuffling a random subset of the points."""
    gens = []
    for _ in range(rng.randrange(1, 4)):
        points = rng.sample(range(degree), rng.randrange(min(2, degree), degree + 1))
        images = points[:]
        rng.shuffle(images)
        p = list(range(degree))
        for a, b in zip(points, images):
            p[a] = b
        gens.append(tuple(p))
    return gens


def test_order_elements_and_membership_match_the_closure():
    rng = random.Random(24)
    for _ in range(150):
        degree = rng.randrange(0, 9)
        gens = random_generators(rng, degree)
        group = PermGroup(degree, gens)
        closure = closure_oracle(degree, gens)
        assert group.order() == len(closure), gens
        assert group.elements() == sorted(closure), gens
        if degree <= 5:
            for p in itertools.permutations(range(degree)):
                assert group.contains(p) == (p in closure), (gens, p)


def test_stabilizer_chain_invariants():
    rng = random.Random(25)
    cases = [PermGroup(d, random_generators(rng, d)) for d in rng.choices(range(9), k=60)]
    cases += [
        automorphism_group(g)
        for g in (complete(9), hamming(4, 2), cartesian_product(cycle(5), cycle(5)))
    ]
    for group in cases:
        chain = group._stabilizer_chain()
        base = [beta for beta, _table, _gens in chain]
        assert len(set(base)) == len(base)
        for level, (beta, table, gens) in enumerate(chain):
            earlier = base[:level]
            assert table[beta] == tuple(range(group.degree))
            for point, rep in table.items():
                assert rep[beta] == point
                assert all(rep[b] == b for b in earlier)
            assert gens
            for g in gens:
                assert all(g[b] == b for b in earlier)
                assert g[beta] in table


def test_elements_cap():
    s7 = PermGroup(7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)])
    with pytest.raises(BudgetExceededError):
        s7.elements(limit=100)
    with pytest.raises(BudgetExceededError):
        s7.elements(limit=5039)
    assert len(s7.elements(limit=5040)) == 5040
    # the order decides: a group of order 20! fails at once, without enumerating
    with pytest.raises(BudgetExceededError, match="closure"):
        automorphism_group(complete(20)).elements()


def test_complete_graph_group_order():
    assert automorphism_group(complete(20)).order() == math.factorial(20)


def test_residuals_join_only_the_levels_below_their_origin(monkeypatch):
    # adding each residual to every level it fixes took 4,785 sifts on K20
    calls = 0
    sift = groups._sift

    def counting(chain, g):
        nonlocal calls
        calls += 1
        return sift(chain, g)

    monkeypatch.setattr(groups, "_sift", counting)
    assert automorphism_group(complete(20)).order() == math.factorial(20)
    assert calls <= 2_700


def test_abelian_and_center():
    klein = PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
    assert klein.is_abelian()
    assert klein.fingerprint()[3] == 4  # centre order
    assert klein.derived_subgroup_order() == 1
    s3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    assert not s3.is_abelian()
    assert s3.fingerprint()[3] == 1
    assert s3.derived_subgroup_order() == 3


def test_catalog_builds_with_distinct_fingerprints():
    # each per-order table rejects clashes itself; merging them checks across orders
    table = {}
    for order in {spec[3] for spec in _catalog_specs()}:
        for fp, name in _catalog(order).items():
            assert fp not in table, (name, table[fp])
            table[fp] = name
    assert len(table) == 27
    assert sorted(table.values()) == sorted(
        [
            "1",
            "C2",
            "C2xC2",
            "C2xC2xC2",
            "C3",
            "C4",
            "C5",
            "C6",
            "C7",
            "D10",
            "D14",
            "A4",
            "S3",
            "D8",
            "D12",
            "C2xD8",
            "C2xC2xS3",
            "S3xS3",
            "S3xS3:C2",
            "D8xS3",
            "S4",
            "C2xS4",
            "S3xS4",
            "S5",
            "C2xS5",
            "S6",
            "S7",
        ]
    )


def test_catalog_checks_itself(monkeypatch):
    c3 = ("C3", 3, [_perm(3, (0, 1, 2))], 3)
    monkeypatch.setattr(groups, "_catalog_specs", lambda: [c3[:3] + (6,)])
    _catalog.cache_clear()
    with pytest.raises(RuntimeError, match="C3 has order 3, not 6"):
        _catalog(6)
    monkeypatch.setattr(groups, "_catalog_specs", lambda: [c3, ("C3 again",) + c3[1:]])
    _catalog.cache_clear()
    with pytest.raises(RuntimeError, match="share a fingerprint"):
        _catalog(3)
    _catalog.cache_clear()


def test_group_name_fingerprints_only_the_catalog_entries_of_its_order(monkeypatch):
    calls = []
    fingerprint = PermGroup.fingerprint

    def counted(self):
        calls.append(self)
        return fingerprint(self)

    monkeypatch.setattr(PermGroup, "fingerprint", counted)
    _catalog.cache_clear()
    assert group_name(automorphism_group(complete(1))) == "1"
    assert len(calls) == 2  # the group and the catalog's one group of order 1
    _catalog.cache_clear()
    calls.clear()
    q4 = automorphism_group(hamming(4, 2))
    assert q4.order() == 384
    assert group_name(q4).startswith("G384#")
    assert len(calls) == 1  # no catalog group has order 384


def test_automorphism_groups_of_named_graphs():
    cases = [
        (cycle(5), 10),
        (cycle(6), 12),
        (path(4), 2),
        (complete(5), 120),
        (null_graph(4), 24),
        (cycle(4), 8),
        (complete_multipartite([3, 3]), 72),
        (union_complete([3, 3]), 72),
        (complete_multipartite([2, 2, 2]), 48),
        (union_complete([3, 2]), 12),
        (complete_multipartite([1, 3]), 6),
    ]
    for g, order in cases:
        assert automorphism_group(g).order() == order


def test_automorphism_group_elements_preserve_adjacency():
    rng = random.Random(179)
    for _ in range(40):
        n = rng.randrange(1, 7)
        g = complement(null_graph(n)) if rng.random() < 0.1 else None
        if g is None:
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            from kernelgraphs.graphs import Graph

            g = Graph(n, edges)
        group = automorphism_group(g)
        brute = sum(
            1
            for p in itertools.permutations(range(n))
            if all(
                g.has_edge(u, v) == g.has_edge(p[u], p[v])
                for u in range(n)
                for v in range(u + 1, n)
            )
        )
        assert group.order() == brute
        for a in group.generators:
            assert g.relabel(a) == g


def test_group_names():
    assert group_name(automorphism_group(cycle(6))) == "D12"
    assert group_name(automorphism_group(cycle(4))) == "D8"
    assert group_name(automorphism_group(complete(4))) == "S4"
    assert group_name(automorphism_group(complete(7))) == "S7"
    assert group_name(automorphism_group(complete_multipartite([3, 3]))) == "S3xS3:C2"
    assert group_name(automorphism_group(complete_multipartite([2, 2, 2]))) == "C2xS4"
    assert group_name(automorphism_group(path(4))) == "C2"
    assert group_name(automorphism_group(path(2))) == "C2"
    assert group_name(automorphism_group(complete(1))) == "1"
    assert group_name(automorphism_group(disjoint_union(complete(3), 2))) == "S3xS3:C2"
    assert group_name(automorphism_group(cycle(5))) == "D10"
    assert group_name(automorphism_group(cycle(7))) == "D14"
    assert group_name(PermGroup(3, [(1, 2, 0)])) == "C3"
    assert group_name(PermGroup(4, [(1, 2, 0, 3), (0, 2, 3, 1)])) == "A4"


def test_triple_clique_group_order():
    group = automorphism_group(union_complete([5, 5, 5]))
    assert group.order() == 10_368_000
    assert group_name(group) == "G10368000"


def test_group_name_lets_a_wall_clock_alarm_through(monkeypatch):
    # a --time-limit alarm raised while the fingerprint runs must stop the
    # caller, not turn into a G<order> label written to a census row
    def alarm(self, limit=None):
        raise BudgetExceededError("time", 0.05, "wall clock limit hit")

    monkeypatch.setattr(PermGroup, "fingerprint", alarm)
    with pytest.raises(BudgetExceededError, match="time"):
        group_name(automorphism_group(cycle(5)))


def test_rook_complement_group_order():
    g = complement(hamming(2, 4))
    group = automorphism_group(g)
    assert group.order() == 1152
    assert len(_nonedge_orbits(g, group.generators)) == 48  # the rook graph's edges


def test_constituent_fingerprint_matches_enumeration_on_every_small_graph():
    for n in range(1, 8):
        for g in generate_all(n):
            group = automorphism_group(g)
            assert group.fingerprint() == group._enumerated_fingerprint(), g


def test_constituent_fingerprint_matches_enumeration_on_named_graphs():
    cases = [
        (cartesian_product(cycle(5), cycle(5)), 200),  # transitive: enumerated
        (hamming(4, 2), 384),  # transitive: enumerated
        (union_complete([2] * 5), 3840),  # transitive: enumerated
        (union_complete([3, 4]), 144),  # S3 x S4
        (complete_multipartite([2, 2, 3]), 48),  # D8 (enumerated) x S3
    ]
    for g, order in cases:
        group = automorphism_group(g)
        fp = group.fingerprint()
        assert fp[0] == order
        assert fp == group._enumerated_fingerprint(), g


def test_symmetric_fingerprint_matches_enumeration():
    for k in range(1, 8):
        sym = PermGroup(k, [_perm(k, (0, 1 % k)), _perm(k, tuple(range(k)))])
        assert sym.order() == math.factorial(k)
        assert _symmetric_fingerprint(k) == sym._enumerated_fingerprint(), k


def test_products_of_symmetric_groups_are_fingerprinted_without_enumeration(monkeypatch):
    def refuse(self, limit=None):
        raise AssertionError("enumerated")

    monkeypatch.setattr(PermGroup, "elements", refuse)
    assert group_name(automorphism_group(complete(8))) == "G40320#c8c451"
    assert group_name(automorphism_group(union_complete([3, 4]))) == "S3xS4"
    assert group_name(automorphism_group(union_complete([1, 2, 6]))) == "G1440#0d74f7"


def name_order_digest(ns) -> str:
    lines = []
    for n in ns:
        for g in generate_all(n):
            group = automorphism_group(g)
            lines.append(f"{group_name(group)} {group.order()}\n")
    return hashlib.sha256("".join(lines).encode("ascii")).hexdigest()


def test_group_names_and_orders_pinned_up_to_seven_vertices():
    assert name_order_digest(range(1, 8)) == (
        "69aa69142414d6c0a41ed98a73ee7e43eace5a6fb304526908f6eb45afb12819"
    )


@pytest.mark.slow
def test_group_names_and_orders_pinned_on_eight_vertices():
    assert name_order_digest([8]) == (
        "902dd181bee0232609fcdfd58b2ee32e7157d9bf56caa458fe50e47642399e31"
    )
