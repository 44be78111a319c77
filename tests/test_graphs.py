import hashlib
import itertools
import math
import random

import pytest

from kernelgraphs.errors import BudgetExceededError, ParseError, UnsupportedParameterError, _Budget
from kernelgraphs.graphs import (
    Graph,
    _all_graphs_level,
    _ir_search,
    _orbit,
    are_isomorphic,
    automorphisms,
    canonical_form,
    canonical_graph,
    canonical_permutation,
    cartesian_product,
    categorical_power,
    chromatic_number,
    clique_number,
    complement,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    from_graph6,
    generate_all,
    hamming,
    independence_number,
    k_color,
    max_clique,
    null_graph,
    paley,
    path,
    square_lattice,
    to_graph6,
    triangular,
    union_complete,
)
from kernelgraphs.groups import DEFAULT_ELEMENT_CAP, PermGroup, automorphism_group, group_name
from kernelgraphs.semigroup import count_endomorphisms


def shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set +-(1,0), +-(0,1), +-(1,1)."""
    steps = [(1, 0), (0, 1), (1, 1)]
    edges = [
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4)
        for b in range(4)
        for da, db in steps
    ]
    return Graph(16, edges)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def brute_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return size
    return best


def brute_chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    raise AssertionError


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


# ------------------------------------------------------------------ structure


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.edge_count == 2
    assert g.degree(1) == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert g.degree_sequence() == (0, 1, 1, 2)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(AttributeError):
        g.n = 5


def test_constructors_counts():
    assert complete(5).edge_count == 10
    assert null_graph(4).edge_count == 0
    assert cycle(5).degree_sequence() == (2,) * 5
    assert path(4).edge_count == 3
    assert union_complete([3, 2]).edge_count == 4
    k22 = complete_multipartite([2, 2])
    assert k22.edge_count == 4
    assert are_isomorphic(k22, cycle(4))
    rook3 = hamming(2, 3)
    assert rook3.n == 9 and rook3.degree_sequence() == (4,) * 9
    assert square_lattice(3) == rook3
    t5 = triangular(5)
    assert t5.n == 10 and t5.degree_sequence() == (6,) * 10
    torus = cartesian_product(cycle(5), cycle(5))
    assert torus.n == 25 and torus.degree_sequence() == (4,) * 25
    pw = categorical_power(3, 2)
    assert pw.n == 9 and pw.degree_sequence() == (4,) * 9
    du = disjoint_union(cycle(5), 3)
    assert du.n == 15
    comps = du.components()
    assert len(comps) == 3
    assert all(are_isomorphic(du.induced(c), cycle(5)) for c in comps)


def _word_graph(symbols, length, adjacent):
    """Words over range(symbols), first letter most significant, joined by adjacent."""
    words = list(itertools.product(range(symbols), repeat=length))
    pairs = itertools.combinations(range(len(words)), 2)
    return Graph(len(words), [(i, j) for i, j in pairs if adjacent(words[i], words[j])])


def test_product_families_match_their_definitions():
    def distance_one(a, b):
        return sum(x != y for x, y in zip(a, b)) == 1

    def all_differ(a, b):
        return all(x != y for x, y in zip(a, b))

    for m in range(1, 5):
        for n in range(1, 6):
            assert hamming(m, n) == _word_graph(n, m, distance_one)
    for r in range(2, 6):
        for m in range(1, 4):
            assert categorical_power(r, m) == _word_graph(r, m, all_differ)
    for parts in ([], [1], [3], [2, 2], [1, 2, 3], [3, 1, 1], [2, 0, 2], [1] * 5):
        part_of = [i for i, s in enumerate(parts) for _ in range(s)]
        pairs = itertools.combinations(range(len(part_of)), 2)
        want = Graph(len(part_of), [(u, v) for u, v in pairs if part_of[u] != part_of[v]])
        assert complete_multipartite(parts) == want


def test_complement_involution():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(0, 9))
        assert complement(complement(g)) == g
    assert complement(complete(4)) == null_graph(4)


def test_components_and_connectivity():
    g = union_complete([3, 1, 2])
    assert g.components() == [(0, 1, 2), (3,), (4, 5)]
    assert len(cycle(6).components()) == 1
    assert null_graph(0).components() == []
    assert null_graph(1).components() == [(0,)]


def test_relabel_and_induced():
    g = path(4)  # 0-1-2-3
    h = g.relabel((3, 2, 1, 0))
    assert are_isomorphic(g, h)
    assert h.has_edge(3, 2)
    sub = g.induced([1, 2, 3])
    assert sub == path(3)


def test_builders_refuse_arguments_that_make_no_simple_graph():
    # a repeated image makes a loop, a short one an IndexError; a repeated
    # induced vertex a phantom vertex, -1 the last vertex; a mask bit past
    # the old vertices a loop at the new one
    calls = [
        lambda: path(3).relabel([0, 0, 1]),
        lambda: path(3).relabel([0, 1]),
        lambda: path(3).relabel([0, 1, 3]),
        lambda: path(3).induced([0, 0, 1]),
        lambda: path(3).induced([-1, 0]),
        lambda: path(3).induced([3]),
        lambda: Graph(2).with_vertex(0b100),
        lambda: Graph(2).with_vertex(-1),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert Graph(2).with_vertex(0b11).adj == (4, 4, 3)


# --------------------------------------------------------------------- graph6


def test_graph6_known_values():
    assert to_graph6(complete(3)) == "Bw"
    assert to_graph6(null_graph(2)) == "A?"
    assert to_graph6(null_graph(0)) == "?"
    assert from_graph6("Bw") == complete(3)
    assert from_graph6("A?") == null_graph(2)
    assert from_graph6(">>graph6<<Bw") == complete(3)


def test_graph6_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 14))
        assert from_graph6(to_graph6(g)) == g
    big = random_graph(rng, 70, 0.3)  # exercises the multi-byte size header
    assert from_graph6(to_graph6(big)) == big


def test_graph6_errors():
    with pytest.raises(ParseError):
        from_graph6("")
    with pytest.raises(ParseError):
        from_graph6("B")  # body too short for n=3
    with pytest.raises(ParseError):
        from_graph6("Bww")  # body too long
    with pytest.raises(ParseError):
        from_graph6("A@")  # nonzero padding for n=2
    err = None
    try:
        from_graph6("B\x19", line=4)
    except ParseError as e:
        err = e
    assert err is not None and "line 4" in str(err)


# ------------------------------------------------------------ clique/coloring


def test_clique_known_values():
    assert clique_number(complete(6)) == 6
    assert clique_number(null_graph(5)) == 1
    assert clique_number(null_graph(0)) == 0
    assert clique_number(cycle(5)) == 2
    assert clique_number(cycle(6)) == 2
    assert clique_number(hamming(2, 3)) == 3
    assert clique_number(union_complete([4, 2])) == 4
    assert clique_number(cycle(65)) == 2  # the clique search has no vertex cap
    size, witness = max_clique(hamming(2, 4))
    members = [v for v in range(16) if witness >> v & 1]
    assert size == 4 == len(members)
    assert all(
        hamming(2, 4).has_edge(u, v) for u, v in itertools.combinations(members, 2)
    )


def test_chromatic_known_values():
    assert chromatic_number(null_graph(6)) == 1
    assert chromatic_number(complete(5)) == 5
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(cycle(6)) == 2
    assert chromatic_number(hamming(2, 3)) == 3
    assert chromatic_number(hamming(2, 4)) == 4
    assert chromatic_number(complete_multipartite([2, 3, 2])) == 3


def test_clique_chromatic_against_brute_force():
    rng = random.Random(23)
    for _ in range(120):
        g = random_graph(rng, rng.randrange(0, 7), rng.choice([0.2, 0.5, 0.8]))
        assert clique_number(g) == brute_clique_number(g)
        assert chromatic_number(g) == brute_chromatic_number(g)


def test_independence_number():
    assert independence_number(cycle(5)) == 2
    assert independence_number(complete_multipartite([3, 3])) == 3
    assert independence_number(complete(4)) == 1
    assert independence_number(null_graph(70)) == 70


def test_k_color_precolor_and_budget():
    rook = hamming(2, 3)
    pre = {0: 0, 1: 1, 2: 2}  # first row pinned to distinct colors
    coloring = k_color(rook, 3, precolor=pre)
    assert coloring is not None
    for u, v in rook.edges():
        assert coloring[u] != coloring[v]
    assert coloring[0] == 0 and coloring[1] == 1 and coloring[2] == 2
    assert k_color(cycle(5), 2) is None
    # conflicting precolor on an edge is detected up front
    assert k_color(complete(3), 3, precolor={0: 1, 1: 1}) is None
    with pytest.raises(BudgetExceededError):
        k_color(cycle(5), 3, node_budget=0)


def test_k_color_rejects_precolor_vertices_outside_the_graph():
    # -1 would otherwise pin the last vertex, and 7 index past the end; a
    # color out of range is refused the same way
    with pytest.raises(ValueError, match="precolor 0: 3 outside"):
        k_color(cycle(5), 3, precolor={0: 3})
    for vertex in (-1, 5, 7):
        with pytest.raises(ValueError, match="outside vertices"):
            k_color(cycle(5), 3, precolor={vertex: 0})


def test_chromatic_number_budget_covers_every_k():
    # one budget for the call: the clique search, then each k tried from the
    # clique number up; K40's 40 clique nodes leave a coloring fully pinned
    cases = [(cycle(5), 8, "coloring"), (cycle(7), 12, "coloring"), (paley(13), 77, "coloring"),
             (complete(40), 40, "clique")]
    for g, need, stage in cases:
        with pytest.raises(BudgetExceededError, match=f"{stage} search"):
            chromatic_number(g, node_budget=need - 1)
        assert chromatic_number(g, node_budget=need) == chromatic_number(g)


def test_automorphism_budget_is_exact():
    # node count of the individualization-refinement search
    g = cartesian_product(cycle(5), path(3))
    with pytest.raises(BudgetExceededError):
        automorphisms(g, node_budget=9)
    assert len(automorphisms(g, node_budget=10)) == 20


# ------------------------------------------------------- canonical forms / iso


def test_canonical_form_agrees_with_brute_force_on_all_4_vertex_graphs():
    labeled = []
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(1 << 6):
        edges = [pairs[i] for i in range(6) if bits >> i & 1]
        labeled.append(Graph(4, edges))
    forms = [canonical_form(g) for g in labeled]
    assert len(set(forms)) == 11
    for _ in range(300):
        rng = random.Random(_)
        i, j = rng.randrange(64), rng.randrange(64)
        assert (forms[i] == forms[j]) == brute_isomorphic(labeled[i], labeled[j])


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_canonical_graph_is_isomorphic_to_input():
    rng = random.Random(37)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 7))
        cg = canonical_graph(g)
        assert cg == g.relabel(canonical_permutation(g))
        assert brute_isomorphic(g, cg)
        assert canonical_form(cg) == canonical_form(g)
        assert to_graph6(cg).encode("ascii") == canonical_form(g)


def test_are_isomorphic_matches_brute_force():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randrange(1, 7)
        g = random_graph(rng, n)
        h = random_graph(rng, n)
        assert are_isomorphic(g, h) == brute_isomorphic(g, h)


def test_are_isomorphic_on_larger_graphs():
    torus = cartesian_product(cycle(5), cycle(5))
    rng = random.Random(43)
    perm = list(range(25))
    rng.shuffle(perm)
    assert are_isomorphic(torus, torus.relabel(perm))
    # same degree sequence, different structure: circulant with triangles
    circ = Graph(
        25,
        [(i, (i + 1) % 25) for i in range(25)] + [(i, (i + 2) % 25) for i in range(25)],
    )
    assert circ.degree_sequence() == torus.degree_sequence()
    assert not are_isomorphic(torus, circ)


def test_canonical_form_on_highly_symmetric_graphs():
    assert canonical_form(complete(8)) == canonical_form(complete(8).relabel((3, 1, 4, 0, 5, 2, 7, 6)))
    assert canonical_form(complete_multipartite([3, 3])) == canonical_form(
        complete_multipartite([3, 3]).relabel((5, 3, 1, 4, 2, 0))
    )
    a = disjoint_union(complete(5), 3)
    perm = list(range(15))
    random.Random(5).shuffle(perm)
    assert canonical_form(a) == canonical_form(a.relabel(perm))


def test_automorphism_counts():
    assert len(automorphisms(complete(4))) == 24
    assert len(automorphisms(cycle(4))) == 8
    assert len(automorphisms(path(3))) == 2
    assert len(automorphisms(cycle(5))) == 10
    assert len(automorphisms(null_graph(3))) == 6
    for a in automorphisms(cycle(6)):
        g = cycle(6)
        assert g.relabel(a) == g


def test_automorphisms_honours_the_element_cap():
    # |Aut(K9)| = 362,880: the order is checked before any element is listed
    with pytest.raises(BudgetExceededError, match="group elements") as info:
        automorphisms(complete(9))
    assert info.value.limit == DEFAULT_ELEMENT_CAP


def test_searches_deeper_than_the_recursion_limit_raise_a_package_error():
    g = null_graph(1000)
    calls = (canonical_form, automorphism_group, count_endomorphisms, lambda g: are_isomorphic(g, g))
    for call in calls:
        with pytest.raises(UnsupportedParameterError, match="on 1000 vertices .* recursion limit"):
            call(g)
    with pytest.raises(UnsupportedParameterError, match="on 1500 vertices .* recursion limit"):
        k_color(null_graph(1500), 1)
    for call, g in ((max_clique, complete(1200)), (independence_number, null_graph(1200))):
        with pytest.raises(UnsupportedParameterError, match="clique search on 1200 .* recursion limit"):
            call(g)


def test_search_generators_span_the_brute_force_group():
    for n in range(1, 7):
        for g in generate_all(n):
            _labelling, gens, _rows = _ir_search(g, _Budget(None, "test"))
            assert all(g.relabel(a) == g for a in gens)
            brute = sum(1 for p in itertools.permutations(range(n)) if g.relabel(p) == g)
            assert PermGroup(n, gens).order() == brute


def test_search_outputs_pinned():
    # SHA-256 over labelling, generators, rows and node count of every search.
    # Re-pinned when the search began with the transpositions of twins: every
    # labelling and certificate stayed, 569 of the 1,360 generator lists
    # changed and the nodes fell from 10,182 to 4,927, none rising
    rng = random.Random(71)
    cases = [g for n in range(1, 8) for g in generate_all(n)]
    cases += [
        cartesian_product(cycle(5), cycle(5)),
        cartesian_product(cycle(5), path(3)),
        hamming(3, 3),
        hamming(4, 2),
        shrikhande(),
        complete(30),
        null_graph(20),
        union_complete([2] * 10),
    ]
    cases += [random_graph(rng, rng.randint(8, 30), rng.random()) for _ in range(100)]
    digest = hashlib.sha256()
    for g in cases:
        budget = _Budget(None, "test")
        labelling, gens, rows = _ir_search(g, budget)
        digest.update(repr((labelling, gens, rows, budget.used)).encode("ascii"))
    assert digest.hexdigest() == (
        "512607048820ff465dda421f4a36e24f203dba06fa5434b7003462c4ac918daf"
    )


def test_search_budget_on_k40():
    # the twin transpositions prune every sibling: one path of 40 nodes, where
    # the search that found its automorphisms leaf by leaf took 820
    budget = _Budget(None, "test")
    _ir_search(complete(40), budget)
    assert budget.used == 40
    with pytest.raises(BudgetExceededError):
        _ir_search(complete(40), _Budget(39, "test"))


def isolated_plus_c5(isolated: int) -> Graph:
    return Graph(isolated + 5, [(isolated + i, isolated + (i + 1) % 5) for i in range(5)])


@pytest.mark.parametrize(
    "g, order",
    [
        (complete(12), math.factorial(12)),
        (complete_multipartite([6, 6]), 2 * math.factorial(6) ** 2),
        (union_complete([2] * 10), 2**10 * math.factorial(10)),
        (null_graph(20), math.factorial(20)),
        (isolated_plus_c5(8), math.factorial(8) * 10),
    ],
    ids=["K12", "K6,6", "10K2", "null20", "8K1+C5"],
)
def test_twin_classes_keep_certificates_and_groups(g, order):
    # the search starts from the transpositions of twins; they are
    # automorphisms, so certificates and groups must not depend on labels
    rng = random.Random(g.n)
    form = canonical_form(g)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        moved = g.relabel(perm)
        assert canonical_form(moved) == form
        assert automorphism_group(moved).order() == order
    assert automorphism_group(g).order() == order


def test_root_cell_rejection_only_drops_rejected_children():
    # a child whose new vertex is outside the last root cell stops at the
    # root; the full search must reject each such child by the orbit test
    stopped = 0
    for n in range(2, 7):
        for parent in _all_graphs_level(n - 1)[0]:
            for mask in range(1 << (n - 1)):
                child = parent.with_vertex(mask)
                if _ir_search(child, _Budget(None, "test"), n - 1) is not None:
                    continue
                stopped += 1
                lab, found, _rows = _ir_search(child, _Budget(None, "test"))
                assert not _orbit([lab.index(n - 1)], found) >> (n - 1) & 1, child
    assert stopped > 0


def test_empty_and_one_vertex_graphs():
    for n, form, labelling in [(0, b"?", ()), (1, b"@", (0,))]:
        g = null_graph(n)
        assert canonical_form(g) == form
        assert canonical_permutation(g) == labelling
        assert automorphism_group(g).order() == 1
        assert are_isomorphic(g, null_graph(n))


def test_automorphism_group_orders_of_paper_families():
    cases = [
        (hamming(4, 2), 384),
        (shrikhande(), 192),
        (cartesian_product(cycle(5), cycle(5)), 200),
        (hamming(3, 3), 1296),
        (square_lattice(5), 28_800),
    ]
    for g, order in cases:
        assert automorphism_group(g).order() == order


def test_canonical_form_invariant_on_paper_families():
    rng = random.Random(61)
    for g in (square_lattice(5), hamming(3, 3), shrikhande()):
        form = canonical_form(g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == form


def test_disconnected_and_co_disconnected_graphs():
    # (k!)^c c! is the order of S_k wr S_c
    cases = [(disjoint_union(cycle(5), 3), 6_000), (union_complete([1, 2, 2, 3]), 48)]
    for c in range(2, 6):
        for k in range(1, 6):
            order = math.factorial(k) ** c * math.factorial(c)
            cases.append((union_complete([k] * c), order))
            cases.append((complete_multipartite([k] * c), order))
    rng = random.Random(67)
    for g, order in cases:
        assert automorphism_group(g).order() == order
        form = canonical_form(g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == form


# ----------------------------------------------------------------- generation


def test_generate_all_counts():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, count in expected.items():
        graphs = list(generate_all(n))
        assert len(graphs) == count
        forms = {canonical_form(g) for g in graphs}
        assert len(forms) == count
        assert all(g.n == n for g in graphs)
        # output is canonical and sorted by certificate
        assert [to_graph6(g).encode("ascii") for g in graphs] == sorted(forms)
        assert all(canonical_graph(g) == g for g in graphs)


def graph6_digest(graphs) -> str:
    return hashlib.sha256("\n".join(to_graph6(g) for g in graphs).encode("ascii")).hexdigest()


def test_generate_all_seven():
    graphs = list(generate_all(7))
    assert len(graphs) == 1044
    # digest of the output of the generator that canonicalized every extension
    assert graph6_digest(graphs) == (
        "6534d87cffdc26a9d1f89ddfae7de1b511a3350fa5327c6abcd943a1d0833652"
    )


@pytest.mark.slow
def test_generate_all_eight():
    graphs = list(generate_all(8))
    assert len(graphs) == 12346
    assert graph6_digest(graphs) == (
        "b630563c5ff2392771c22e9ee5a07b4e3e9ad1528b7b247346e4edaf4c31198f"
    )


@pytest.mark.slow
def test_generate_all_nine():
    graphs = list(generate_all(9))
    # OEIS A000088: graphs on 9 vertices up to isomorphism
    assert len(graphs) == 274668
    # digest of the output of the generator that canonicalized every extension
    assert graph6_digest(graphs) == (
        "5199f135bfc8413b0058898b738fc4e89820fc1912a7be4df2e005bab693371c"
    )


def test_generated_generators_span_each_automorphism_group():
    # generation hands each graph the generators of the search that accepted
    # it, conjugated to its canonical labels, and the graph6 string it was
    # sorted by; the census names groups by the generators
    for n in range(1, 8):
        for g, generators, g6 in zip(*_all_graphs_level(n)):
            assert g6 == to_graph6(g)
            assert all(g.relabel(gen) == g for gen in generators), g6
            handed = PermGroup(n, generators)
            searched = automorphism_group(g)
            assert handed.order() == searched.order(), g6
            assert group_name(handed) == group_name(searched), g6


def test_generate_all_matches_every_labelled_graph():
    # oracle without the extension rules: canonicalize all labelled graphs
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        labelled = {
            canonical_form(Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
            for bits in range(1 << len(pairs))
        }
        assert labelled == {canonical_form(g) for g in generate_all(n)}


def test_generate_all_bounds():
    with pytest.raises(UnsupportedParameterError):
        list(generate_all(0))
    with pytest.raises(UnsupportedParameterError):
        list(generate_all(10))
