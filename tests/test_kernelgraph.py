import random

import pytest

from kernelgraphs import kernelgraph
from kernelgraphs.cli import main
from kernelgraphs.errors import BudgetExceededError, _Budget
from kernelgraphs.graphs import (
    Graph,
    _ir_search,
    cartesian_product,
    chromatic_number,
    clique_number,
    complement,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    generate_all,
    hamming,
    paley,
    path,
    square_lattice,
    triangular,
    union_complete,
)
from kernelgraphs.groups import automorphism_group
from kernelgraphs.kernelgraph import (
    _nonedge_orbits,
    closure_kernel_graph,
    derived_graph,
    hull,
    is_hull,
    kernel_graph,
)
from kernelgraphs.semigroup import (
    close,
    collapsible,
    endomorphisms_iter,
    min_rank_of_generators,
)
from kernelgraphs.transform import Transformation

T = Transformation.parse


def random_transformation(rng: random.Random, n: int) -> Transformation:
    return Transformation([rng.randrange(n) for _ in range(n)])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


# -------------------------------------------------------------- kernel graphs


def test_kernel_graph_worked_pair():
    t1, t2 = T("[3,3,4,3]"), T("[3,3,2,4]")
    result = kernel_graph([t1, t2])
    # one group {1,2,4} never separated, point 3 joined to all of it
    assert result.graph == Graph(4, [(0, 2), (1, 2), (2, 3)])
    assert result.min_rank == 2


def test_kernel_graph_empty_members_is_complete():
    result = kernel_graph([], n=5)
    assert result.graph == complete(5)
    assert result.min_rank is None
    with pytest.raises(ValueError):
        kernel_graph([])


def test_kernel_graph_matches_a_direct_reference_on_random_sets():
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(1, 7)
        members = [random_transformation(rng, n) for _ in range(rng.randint(1, 5))]
        unmerged = [
            (u, v) for u in range(n) for v in range(u + 1, n) if all(t.images[u] != t.images[v] for t in members)
        ]
        result = kernel_graph(members)
        assert result.graph == Graph(n, unmerged)
        assert result.min_rank == min(len(set(t.images)) for t in members)


def test_kernel_graph_of_permutations_is_complete():
    result = kernel_graph([T("[2,3,4,1]"), T("[2,1,3,4]")])
    assert result.graph == complete(4)
    assert result.min_rank == 4


def test_kernel_graph_validates_sizes():
    with pytest.raises(ValueError):
        kernel_graph([T("[1,2]"), T("[1,2,3]")])
    with pytest.raises(ValueError):
        kernel_graph([T("[1,2]")], n=3)


def test_closure_kernel_graph_synchronizing_is_null():
    result = closure_kernel_graph([T("[3,3,4,3]"), T("[3,3,2,4]")])
    assert result.graph.edge_count == 0
    assert result.min_rank == 1


def kernel_shaped_set(rng: random.Random, n: int, r: int) -> list[Transformation]:
    # every point goes into a fixed r-set K, which each map permutes
    core = rng.sample(range(n), r)
    maps = []
    for _ in range(rng.randint(2, 4)):
        images = [rng.choice(core) for _ in range(n)]
        for a, b in zip(core, rng.sample(core, r)):
            images[a] = b
        maps.append(Transformation(images))
    return maps


def test_closure_kernel_graph_matches_materialized_closure():
    rng = random.Random(131)
    cases = []
    for _ in range(150):
        n = rng.randrange(3, 7)
        cases.append(([random_transformation(rng, n) for _ in range(rng.randrange(1, 4))], None))
    for _ in range(200):
        n = rng.randint(3, 9)
        r = rng.randint(1, min(n - 1, 5))
        cases.append((kernel_shaped_set(rng, n, r), r))
    for gens, r in cases:
        c = close(gens)
        direct = kernel_graph(list(c))
        fast = closure_kernel_graph(gens)
        assert fast.graph == direct.graph
        assert fast.min_rank == direct.min_rank == c.min_rank
        assert r is None or fast.min_rank == r


def test_clique_and_chromatic_equal_min_rank_on_closures():
    rng = random.Random(137)
    for _ in range(120):
        n = rng.randrange(3, 7)
        gens = [random_transformation(rng, n) for _ in range(rng.randrange(1, 4))]
        result = closure_kernel_graph(gens)
        w = clique_number(result.graph)
        assert w == chromatic_number(result.graph)
        assert w == result.min_rank


def cerny(n: int) -> list[Transformation]:
    # the n-cycle and the map merging the first two points
    return [Transformation([(i + 1) % n for i in range(n)]), Transformation([1] + list(range(1, n)))]


def test_closure_kernel_graph_of_cerny_automaton(tmp_path, capsys):
    gens = cerny(20)
    assert min_rank_of_generators(gens) == 1
    result = closure_kernel_graph(gens)
    assert result.min_rank == 1
    assert result.graph == Graph(20, [])
    f = tmp_path / "c20.txt"
    f.write_text("".join(f"{t}\n" for t in gens))
    assert main(["kernel-graph", "--closed", str(f)]) == 0
    assert capsys.readouterr().out.endswith("\tmin_rank=1\n")


def test_closure_kernel_graph_group_case():
    # permutation generators: nothing ever collapses
    result = closure_kernel_graph([T("[2,3,1]")])
    assert result.graph == complete(3)
    assert result.min_rank == 3


# ---------------------------------------------------------------------- hulls


def test_hull_known_values():
    assert hull(cycle(5)) == complete(5)
    c6_hull = hull(cycle(6))
    expected = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if (u + v) % 2 == 1])
    assert c6_hull == expected
    p5_hull = hull(path(5))
    assert p5_hull == Graph(
        5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u + v) % 2 == 1]
    )
    assert hull(disjoint_union(cycle(5), 3)) == union_complete([5, 5, 5])
    assert hull(complete(7)) == complete(7)


def test_hull_contains_input_as_spanning_subgraph():
    rng = random.Random(139)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(1, 8))
        h = hull(g)
        assert h.n == g.n
        for u, v in g.edges():
            assert h.has_edge(u, v)


def test_hull_is_idempotent():
    rng = random.Random(149)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 8))
        h = hull(g)
        assert hull(h) == h


def test_hull_equals_kernel_graph_of_endomorphisms():
    rng = random.Random(151)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 6))
        endos = list(endomorphisms_iter(g))
        assert hull(g) == kernel_graph(endos, n=g.n).graph


def test_is_hull_examples():
    assert is_hull(complete(4))
    assert is_hull(cycle(4))  # complete bipartite 2+2
    assert is_hull(complete_multipartite([2, 3]))
    assert is_hull(union_complete([3, 2]))
    assert not is_hull(cycle(5))
    assert not is_hull(path(4))
    assert not is_hull(cycle(6))


def counted_searches(monkeypatch) -> list[tuple[int, int]]:
    """Record the pair of every endomorphism search the hull loop makes."""
    calls = []
    real = kernelgraph._merging_endomorphism

    def counted(g, u, v, *args, **kwargs):
        calls.append((u, v))
        return real(g, u, v, *args, **kwargs)

    monkeypatch.setattr(kernelgraph, "_merging_endomorphism", counted)
    return calls


def test_is_hull_stops_at_the_first_uncollapsible_pair(monkeypatch):
    calls = counted_searches(monkeypatch)
    # an odd cycle is a core: its first non-edge (1,3) already decides
    assert not is_hull(cycle(5))
    assert calls == [(0, 2)]


def hull_by_pairs(g: Graph) -> Graph:
    """The hull from one collapsible test per non-edge, nothing shared."""
    added = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v) and not collapsible(g, u, v)
    ]
    return Graph(g.n, [*g.edges(), *added])


def isolated_plus_c5(isolated: int) -> Graph:
    return Graph(isolated + 5, [(isolated + i, isolated + (i + 1) % 5) for i in range(5)])


def test_hull_equals_one_collapsible_test_per_nonedge():
    graphs = [g for n in range(1, 7) for g in generate_all(n)]
    graphs += [
        cartesian_product(cycle(5), path(3)),
        complement(triangular(5)),  # Petersen
        paley(13),
        hamming(4, 2),  # Q4
        disjoint_union(cycle(5), 3),
        isolated_plus_c5(8),
    ]
    for g in graphs:
        assert hull(g) == hull_by_pairs(g), g


def test_harvesting_and_orbits_leave_few_searches(monkeypatch):
    calls = counted_searches(monkeypatch)
    c5c5 = cartesian_product(cycle(5), cycle(5))
    # (i, j) -> (i + j, i - j) mod 5 carries the hull onto the rook complement
    tau = [5 * ((v // 5 + v % 5) % 5) + ((v // 5 - v % 5) % 5) for v in range(25)]
    assert hull(c5c5).relabel(tau) == complement(square_lattice(5))
    assert len(calls) <= 4  # of 250 non-edges
    calls.clear()
    # the first map sends every vertex to 0 and settles all 1,770 pairs
    assert hull(Graph(60, [])) == Graph(60, [])
    assert calls == [(0, 1)]


def automorphism_generators(g: Graph):
    return _ir_search(g, _Budget(None, "automorphism search"))[1]


def test_nonedge_orbits_label_each_orbit_by_its_least_pair():
    graphs = [g for n in range(1, 7) for g in generate_all(n)]
    graphs += [cartesian_product(cycle(5), cycle(5)), complement(hamming(2, 4))]
    for g in graphs:
        generators = automorphism_generators(g)
        label = _nonedge_orbits(g, generators)
        nonedges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        assert sorted(label) == nonedges, g
        for pair, least in label.items():
            for s in generators:
                a, b = sorted((s[pair[0]], s[pair[1]]))
                assert label[a, b] == least, g
        classes: dict[tuple[int, int], set] = {}
        for pair, least in label.items():
            classes.setdefault(least, set()).add(pair)
        elements = automorphism_group(g).elements()
        for least, members in classes.items():
            assert min(members) == least, g
            assert members == {tuple(sorted((s[least[0]], s[least[1]]))) for s in elements}, g


def test_nonedge_orbit_class_counts():
    for g, count in ((cycle(5), 1), (complement(hamming(2, 4)), 1), (complete(5), 0)):
        label = _nonedge_orbits(g, automorphism_generators(g))
        assert len(set(label.values())) == count
    assert _nonedge_orbits(complete(5), automorphism_generators(complete(5))) == {}


def test_each_component_is_searched_on_its_own():
    # one search order over all components backtracks through the isolated
    # vertices each time the 5-cycle fails, and would not finish this budget
    g = isolated_plus_c5(8)
    assert hull(g, node_budget=10_000) == union_complete([1] * 8 + [5])


def test_hull_of_even_torus_is_complete_bipartite():
    # a connected bipartite graph folds onto an edge, which merges every two
    # vertices of one side; an endomorphism maps an odd walk to an odd walk,
    # which never joins two vertices of one side, so it keeps opposite
    # sides apart
    g = cartesian_product(cycle(6), cycle(6))
    side = [(v // 6 + v % 6) % 2 for v in range(36)]
    sides = Graph(36, [(u, v) for u in range(36) for v in range(u + 1, 36) if side[u] != side[v]])
    assert hull(g, node_budget=2_000_000) == sides


@pytest.mark.slow
def test_hull_of_triangular_7_is_complete():
    # computed by this code; the search that visited vertices breadth-first
    # ran out of this budget
    assert hull(triangular(7), node_budget=2_000_000) == complete(21)


def test_node_budget_caps_the_automorphism_search():
    # one budget for the whole call: the first pair search takes 13 nodes and
    # leaves pairs unsettled, the automorphism search that follows 27, and
    # the pair searches after it 23, 63 in all. The automorphism search took
    # 55 (91 in all) before it began with the transpositions of the twins
    g = isolated_plus_c5(8)
    with pytest.raises(BudgetExceededError, match="homomorphism search"):
        hull(g, node_budget=12)
    with pytest.raises(BudgetExceededError, match="automorphism search"):
        hull(g, node_budget=13)
    with pytest.raises(BudgetExceededError, match="automorphism search"):
        hull(g, node_budget=39)
    with pytest.raises(BudgetExceededError, match="homomorphism search"):
        hull(g, node_budget=62)
    assert hull(g, node_budget=63) == union_complete([1] * 8 + [5])


def test_is_hull_and_collapsible_need_the_budget_hull_needs():
    # is_hull stops at its first uncollapsible pair, (8, 10); the non-edges
    # after it share its orbit, so hull searches no further and both need 63.
    # On the null graph the first pair search settles every pair, so hull
    # needs exactly what collapsible needs for that pair
    g = isolated_plus_c5(8)
    with pytest.raises(BudgetExceededError, match="homomorphism search"):
        is_hull(g, node_budget=62)
    assert is_hull(g, node_budget=63) is False
    null = Graph(60, [])
    for call, want in (
        (lambda b: hull(null, node_budget=b), null),
        (lambda b: is_hull(null, node_budget=b), True),
        (lambda b: collapsible(null, 0, 1, node_budget=b), True),
    ):
        with pytest.raises(BudgetExceededError, match="homomorphism search"):
            call(58)
        assert call(59) == want


def test_is_hull_agrees_with_hull_small():
    for n in range(1, 7):
        for g in generate_all(n):
            assert is_hull(g) == (hull(g) == g)


def test_is_hull_strongly_regular_families():
    assert is_hull(square_lattice(3))
    assert is_hull(square_lattice(4))
    assert is_hull(square_lattice(5))
    assert is_hull(triangular(6))
    assert is_hull(paley(9))
    # T(5) is a core (clique 4, chromatic 5): nothing collapses, hull is complete
    assert hull(triangular(5)) == complete(10)


def test_hull_is_idempotent_up_to_six_vertices():
    graphs = [g for n in range(1, 7) for g in generate_all(n)]
    assert len(graphs) == 208
    for g in graphs:
        h = hull(g)
        assert hull(h) == h and is_hull(h)


def test_hull_counts_small():
    assert sum(is_hull(g) for g in generate_all(3)) == 4
    assert sum(is_hull(g) for g in generate_all(4)) == 10
    assert sum(is_hull(g) for g in generate_all(5)) == 27
    assert sum(is_hull(g) for g in generate_all(6)) == 102


def test_path4_hull_is_four_cycle():
    assert hull(path(4)) == Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


# -------------------------------------------------------------- derived graph


def test_derived_graph_drops_small_component_clique():
    g = union_complete([3, 2])
    d = derived_graph(g)
    assert d == Graph(5, [(0, 1), (0, 2), (1, 2)])


def test_derived_graph_fixed_points():
    assert derived_graph(complete(5)) == complete(5)
    assert derived_graph(cycle(5)) == cycle(5)
    assert derived_graph(Graph(3, [])) == Graph(3, [])
    star = complete_multipartite([1, 3])
    assert derived_graph(star) == star
    # 81 vertices and 648 clique searches, with no vertex cap
    assert derived_graph(square_lattice(9)).edge_count == 648


def test_derived_graph_paw():
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert derived_graph(paw) == Graph(4, [(0, 1), (0, 2), (1, 2)])


def test_derived_graph_keeps_only_maximum_clique_edges():
    rng = random.Random(163)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 7))
        d = derived_graph(g)
        if g.edge_count == 0:
            assert d == g
            continue
        w = clique_number(g)
        # brute force: collect edges of all maximum cliques
        import itertools

        keep = set()
        for sub in itertools.combinations(range(g.n), w):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
                keep.update(itertools.combinations(sub, 2))
        assert set(d.edges()) == keep
        for u, v in d.edges():
            assert g.has_edge(u, v)
