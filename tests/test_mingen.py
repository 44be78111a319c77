import itertools
from collections import Counter

import pytest

from kernelgraphs import mingen, semigroup
from kernelgraphs.errors import (
    BudgetExceededError,
    KernelGraphsError,
    NotAHullError,
    UnsupportedParameterError,
)
from kernelgraphs.graphs import (
    Graph,
    categorical_power,
    complement,
    complete,
    complete_multipartite,
    cycle,
    from_graph6,
    generate_all,
    hamming,
    path,
    square_lattice,
    union_complete,
)
from kernelgraphs.kernelgraph import hull, kernel_graph
from kernelgraphs.mingen import (
    GeneratingSet,
    _matching_refuted,
    hamming_complement_generators,
    hamming_distance_generators,
    lattice_generators,
    matching_generators,
    matching_minimum_size,
    minimal_generating_set,
    union_complete_generators,
)


# ------------------------------------------------------------------- oracles


def set_partitions(n: int):
    """Every partition of range(n), generated independently of the library."""

    def rec(v, blocks):
        if v == n:
            yield [tuple(b) for b in blocks]
            return
        for i in range(len(blocks)):
            blocks[i].append(v)
            yield from rec(v + 1, blocks)
            blocks[i].pop()
        blocks.append([v])
        yield from rec(v + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def admissible_masks(g: Graph) -> list[int]:
    """Coverage masks (over non-edge indices) of independent-block partitions."""
    nonedges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.adj[u] >> v & 1
    ]
    index = {p: i for i, p in enumerate(nonedges)}
    masks = []
    for blocks in set_partitions(g.n):
        mask = 0
        ok = True
        for b in blocks:
            for x, y in itertools.combinations(b, 2):
                if g.adj[x] >> y & 1:
                    ok = False
                    break
                mask |= 1 << index[x, y]
            if not ok:
                break
        if ok:
            masks.append(mask)
    return masks


def assert_no_smaller_cover(g: Graph, claimed: int, *, refute_up_to: int = 3):
    """Check by raw combination search that claimed-1 partitions cannot cover."""
    if claimed == 0:
        return
    k = claimed - 1
    if k > refute_up_to:
        pytest.skip(f"refutation of {k} too large for brute search")
    masks = admissible_masks(g)
    nonedge_count = g.n * (g.n - 1) // 2 - g.edge_count
    full = (1 << nonedge_count) - 1
    if k == 0:
        assert full != 0
        return
    for combo in itertools.combinations(masks, k):
        union = 0
        for m in combo:
            union |= m
        assert union != full, f"{k} partitions suffice, claim of {claimed} is wrong"


def regenerates(g: Graph, gs: GeneratingSet) -> bool:
    if not gs.transformations:
        return g == complete(g.n)
    return kernel_graph(list(gs.transformations)).graph == g


# --------------------------------------------------------- exhaustive search


def test_complete_graphs_need_nothing():
    for n in range(1, 6):
        gs = minimal_generating_set(complete(n))
        assert gs.size == 0 and gs.minimal and gs.method == "complete"


def test_matches_brute_force_on_all_small_graphs():
    for n in [3, 4, 5]:
        for g in generate_all(n):
            gs = minimal_generating_set(g)
            assert regenerates(g, gs)
            assert gs.minimal and gs.lower_bound == gs.size
            assert_no_smaller_cover(g, gs.size)


def test_known_values():
    assert minimal_generating_set(path(4)).size == 2
    assert minimal_generating_set(cycle(5)).size == 3
    assert minimal_generating_set(cycle(4)).size == 1
    assert minimal_generating_set(complete_multipartite([2, 2, 2])).size == 1
    assert minimal_generating_set(union_complete([2, 2, 2])).size == 3
    assert minimal_generating_set(square_lattice(3)).size == 2


def test_near_complete_witness_needs_most():
    # an isolated vertex next to a clique can only merge one pair per member
    for k in range(2, 6):
        g = union_complete([k, 1])
        gs = minimal_generating_set(g)
        assert gs.size == k
        if k <= 4:
            assert_no_smaller_cover(g, gs.size)


def test_size_distribution_n6():
    sizes = Counter(minimal_generating_set(g).size for g in generate_all(6))
    assert sizes == {0: 1, 1: 10, 2: 54, 3: 81, 4: 9, 5: 1}
    assert max(sizes) == 5  # only union_complete([5, 1]) reaches n - 1


def test_brute_refutation_n6_sample():
    graphs = [g for g in generate_all(6)]
    picked = [g for g in graphs if minimal_generating_set(g).size == 3][:6]
    for g in picked:
        assert_no_smaller_cover(g, 3)
    four = next(g for g in graphs if minimal_generating_set(g).size == 4)
    assert_no_smaller_cover(four, 4)


def test_too_large_raises():
    with pytest.raises(UnsupportedParameterError):
        minimal_generating_set(cycle(11))


def test_deterministic():
    a = minimal_generating_set(cycle(5))
    b = minimal_generating_set(cycle(5))
    assert a.transformations == b.transformations


# ------------------------------------------------------ endomorphism variant


def test_endomorphic_needs_a_hull():
    with pytest.raises(NotAHullError):
        minimal_generating_set(path(4), within_endomorphisms=True)
    with pytest.raises(NotAHullError):
        minimal_generating_set(cycle(5), within_endomorphisms=True)


def test_endomorphic_error_names_the_pairs_the_hull_adds():
    # C5 with a pendant vertex has chi 3 > omega 2, so it has no omega-colouring,
    # yet the pendant vertex still collapses onto a neighbour of its anchor
    c5_pendant = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    graphs = [g for n in range(1, 7) for g in generate_all(n)] + [c5_pendant]
    for g in graphs:
        added = [(u, v) for u, v in hull(g).edges() if not g.has_edge(u, v)]
        if not added:
            continue
        pairs = ", ".join(f"({u + 1},{v + 1})" for u, v in added)
        with pytest.raises(NotAHullError) as info:
            minimal_generating_set(g, within_endomorphisms=True)
        assert str(info.value) == f"no endomorphism merges the pair(s) {pairs}", g
    assert 0 < len(added) < 9  # some, not all, of C5-with-pendant's 9 non-edges


def test_endomorphic_search_tests_no_homomorphisms(monkeypatch):
    calls = []
    real = semigroup.exists_homomorphism

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(semigroup, "exists_homomorphism", counted)
    monkeypatch.setattr(mingen, "exists_homomorphism", counted, raising=False)
    gs = minimal_generating_set(union_complete([2] * 5), within_endomorphisms=True)
    assert gs.size == 4 and gs.minimal
    assert calls == []


def test_endomorphic_small_hulls():
    for g, want in [
        (cycle(4), 1),
        (square_lattice(3), 2),
        (union_complete([2, 2]), 2),
        (complete(4), 0),
    ]:
        gs = minimal_generating_set(g, within_endomorphisms=True)
        assert gs.size == want and gs.minimal
        assert regenerates(g, gs)
        # members really are endomorphisms
        for t in gs.transformations:
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if g.adj[u] >> v & 1:
                        assert g.adj[t.images[u]] >> t.images[v] & 1


def test_endomorphic_never_beats_unrestricted():
    for g in generate_all(4):
        free = minimal_generating_set(g).size
        try:
            endo = minimal_generating_set(g, within_endomorphisms=True).size
        except NotAHullError:
            continue
        assert endo >= free


def brute_endomorphic_minimum(g: Graph) -> int | None:
    """Fewest endomorphism kernels covering every non-edge, None if impossible.

    Endomorphisms come from a scan of all n^n maps and the minimum from a
    breadth-first search over covered-pair masks; neither uses the library.
    """
    nonedges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.adj[u] >> v & 1
    ]
    edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1
    ]
    kernels = set()
    for images in itertools.product(range(g.n), repeat=g.n):
        if all(g.adj[images[u]] >> images[v] & 1 for u, v in edges):
            kernels.add(
                sum(1 << i for i, (u, v) in enumerate(nonedges) if images[u] == images[v])
            )
    full = (1 << len(nonedges)) - 1
    seen = {0}
    frontier = [0]
    steps = 0
    while full not in seen:
        frontier = [c | k for c in frontier for k in kernels if c | k not in seen]
        if not frontier:
            return None
        seen.update(frontier)
        steps += 1
    return steps


def test_endomorphic_minimum_against_brute_force():
    for n in range(1, 6):
        for g in generate_all(n):
            want = brute_endomorphic_minimum(g)
            if want is None:
                with pytest.raises(NotAHullError):
                    minimal_generating_set(g, within_endomorphisms=True)
                continue
            gs = minimal_generating_set(g, within_endomorphisms=True)
            assert gs.size == want and gs.minimal and gs.lower_bound == want
            assert regenerates(g, gs)


# ------------------------------------------------------------ matching family


def test_matching_sizes():
    for copies in range(2, 9):
        gs = matching_generators(copies)
        want = (copies - 1).bit_length() + 1
        assert gs.size == want
        assert gs.minimal and gs.lower_bound == want
        assert regenerates(union_complete([2] * copies), gs)
    assert matching_generators(1).size == 0


def test_matching_minimum_matches_exhaustive():
    for copies in [2, 3, 4]:
        g = union_complete([2] * copies)
        assert matching_minimum_size(copies) == minimal_generating_set(g).size


def test_matching_budget_is_exact(monkeypatch):
    # node count recorded before the search counters were shared; a cached
    # refutation would skip the search
    monkeypatch.setattr(mingen, "_REFUTATION_CACHE", {})
    with pytest.raises(BudgetExceededError):
        matching_minimum_size(5, node_budget=20720)
    assert matching_minimum_size(5, node_budget=20721) == 4


def test_matching_refutes_nothing_above_five_edges(monkeypatch):
    # from 9 edges on the bound is carried from 5 edges, never searched for
    refuted = []
    real = mingen._matching_refuted

    def recording(copies, k, *, node_budget=None):
        refuted.append(copies)
        return real(copies, k, node_budget=node_budget)

    monkeypatch.setattr(mingen, "_matching_refuted", recording)
    for copies in (9, 16, 17, 32):
        gs = matching_generators(copies)
        assert gs.size == (copies - 1).bit_length() + 1
        assert gs.lower_bound == 4 and gs.minimal is False
    assert refuted and max(refuted) <= 5


def test_matching_nine_keeps_the_carried_bound():
    # the refutation at 9 edges runs out of budget; 5 edges need 4 members
    gs = matching_generators(9)
    assert gs.size == 5 and gs.lower_bound == 4 and gs.minimal is False


def test_node_budget_caps_cover_search():
    # every other search here needs far fewer nodes than the set cover
    c7 = cycle(7)
    with pytest.raises(BudgetExceededError):
        minimal_generating_set(c7, node_budget=252)
    assert minimal_generating_set(c7, node_budget=253).size == 4
    hull7 = from_graph6("F?CWw")
    with pytest.raises(BudgetExceededError):
        minimal_generating_set(hull7, within_endomorphisms=True, node_budget=100)
    endo = minimal_generating_set(hull7, within_endomorphisms=True, node_budget=1233)
    assert endo.size == minimal_generating_set(hull7, within_endomorphisms=True).size


def test_matching_refutation_engine():
    assert _matching_refuted(2, 1)
    assert _matching_refuted(3, 2)
    assert _matching_refuted(5, 3)
    # feasible cases must be found feasible
    assert not _matching_refuted(2, 2)
    assert not _matching_refuted(4, 3)
    assert not _matching_refuted(8, 4)


# ------------------------------------------------- union-of-cliques family


def test_union_complete_sizes():
    for copies, clique, want_size, want_minimal in [
        (2, 3, 3, True),
        (3, 3, 3, True),
        (4, 3, 4, False),
        (5, 3, 5, False),
        (6, 3, 6, False),
        (2, 4, 4, True),
        (4, 4, 4, True),
        (3, 5, 5, True),
    ]:
        gs = union_complete_generators(copies, clique)
        assert gs.size == want_size
        assert gs.minimal == want_minimal
        assert gs.lower_bound == clique
        assert regenerates(union_complete([clique] * copies), gs)


def test_union_complete_cross_checked():
    assert minimal_generating_set(union_complete([3, 3])).size == 3
    assert minimal_generating_set(union_complete([3, 3, 3])).size == 3
    assert minimal_generating_set(union_complete([4, 4])).size == 4


def test_union_complete_delegations():
    assert union_complete_generators(1, 5).size == 0
    assert union_complete_generators(4, 1).size == 1  # null graph
    assert union_complete_generators(3, 2).size == matching_generators(3).size


# ------------------------------------------------------------ lattice family


def test_lattice_sizes():
    for n, want_size, want_minimal in [
        (2, 1, True),
        (3, 2, True),
        (4, 3, True),
        (5, 4, True),
        (6, 25, False),
        (7, 6, True),
    ]:
        gs = lattice_generators(n)
        assert gs.size == want_size
        assert gs.minimal == want_minimal
        assert gs.lower_bound == n - 1
        assert regenerates(square_lattice(n), gs)


def test_lattice_cross_checked():
    assert minimal_generating_set(square_lattice(3)).size == 2


def test_lattice_rejects_out_of_range():
    with pytest.raises(UnsupportedParameterError):
        lattice_generators(17)
    with pytest.raises(UnsupportedParameterError):
        lattice_generators(1)


# ------------------------------------------------------------ hamming families


def test_hamming_complement_sizes():
    for m, n in [(1, 4), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]:
        gs = hamming_complement_generators(m, n)
        assert gs.size == m and gs.minimal and gs.lower_bound == m
        assert regenerates(complement(hamming(m, n)), gs)


def test_hamming_complement_cross_checked():
    assert minimal_generating_set(complement(hamming(3, 2))).size == 3
    assert minimal_generating_set(complement(hamming(2, 3))).size == 2


def test_hamming_distance_sizes():
    for m, n in [(2, 3), (2, 4), (3, 3)]:
        gs = hamming_distance_generators(m, n)
        assert gs.size == m and gs.minimal and gs.lower_bound == m
        assert regenerates(categorical_power(n, m), gs)
    assert categorical_power(3, 2) == complement(square_lattice(3))


def test_hamming_distance_cross_checked():
    assert minimal_generating_set(categorical_power(3, 2)).size == 2


def test_hamming_rejections():
    with pytest.raises(UnsupportedParameterError):
        hamming_distance_generators(3, 2)  # binary: it is a matching
    with pytest.raises(ValueError):
        hamming_distance_generators(1, 4)
    with pytest.raises(UnsupportedParameterError):
        hamming_complement_generators(4, 4)  # 256 vertices
