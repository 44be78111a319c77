"""Operations of each workload and the checks on their outputs.

Every check compares against ``reference.json`` or against a few lines of
this file's own code (kernel graphs of map sets, synchronization, Latin
squares); nothing here trusts a kernelgraphs function to check another.
Inputs that vary come from the workload seed only.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from operator import add
from pathlib import Path
from typing import Any, Callable

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

SYNC_POINTS, SYNC_TRIALS = 20, 10_000
CERNY_POINTS = 100
KERNEL_SETS = 1000
LATTICE_SIZES = range(2, 17)
MATCHING_COPIES = range(2, 10)
HAMMING_COMPLEMENT = [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (2, 8), (4, 3), (2, 11)]
HAMMING_DISTANCE = [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (2, 8), (4, 3)]
UNION_COMPLETE = [(c, k) for c in range(2, 8) for k in (1, 3, 4, 5, 6, 7)]
MOLS_MAX_ORDER = 49


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """One timed call: ``run`` is timed, ``check`` is not."""

    name: str
    group: str  # the per-operation metric the call counts towards
    run: Callable[[], Any]
    check: Callable[[Any], None]
    cap_s: float  # wall-clock cap; a call over it counts as failed
    work: int = 1  # items done, for the per-second metrics


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- own checks

def edge_set(g) -> set[tuple[int, int]]:
    return {(u, v) for u, v in combinations(range(g.n), 2) if g.has_edge(u, v)}


def kernel_graph_edges(maps, n: int) -> set[tuple[int, int]]:
    """Pairs that no map merges."""
    merged = set()
    for t in maps:
        classes: dict[int, list[int]] = {}
        for v, image in enumerate(t.images):
            classes.setdefault(image, []).append(v)
        for members in classes.values():
            merged.update(combinations(members, 2))
    return set(combinations(range(n), 2)) - merged


def check_generates(gs, n: int, target: set, size: int | None = None) -> None:
    expect(kernel_graph_edges(gs.transformations, n) == target,
           "generating set does not reproduce its target graph")
    if size is not None:
        expect(gs.size == size, f"size {gs.size}, expected {size}")


def words(m: int, q: int) -> list[tuple[int, ...]]:
    """Words over q symbols in index order (first coordinate most significant)."""
    return list(product(range(q), repeat=m))


def graph_by_distance(m: int, q: int, keep) -> set:
    w = words(m, q)
    return {
        (a, b) for a, b in combinations(range(len(w)), 2)
        if keep(sum(x != y for x, y in zip(w[a], w[b])))
    }


def blocks_graph(copies: int, size: int) -> set:
    return {(u, v) for u, v in combinations(range(copies * size), 2) if u // size == v // size}


def synchronizes(maps: list[list[int]], n: int) -> bool:
    """Every pair of points is merged by some word over the maps."""
    preds: dict[int, list[int]] = {}  # pair u < v coded u * n + v
    merged = []
    for u, v in combinations(range(n), 2):
        pair = u * n + v
        for m in maps:
            a, b = m[u], m[v]
            if a == b:
                merged.append(pair)
                break
            preds.setdefault(a * n + b if a < b else b * n + a, []).append(pair)
    seen = set(merged)
    while merged:
        for p in preds.get(merged.pop(), ()):
            if p not in seen:
                seen.add(p)
                merged.append(p)
    return len(seen) == n * (n - 1) // 2


def prime_power(q: int) -> bool:
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]
    return len(primes) == 1


def is_latin(rows, q: int) -> bool:
    symbols = set(range(1, q + 1))
    return all(set(r) == symbols for r in rows) and all(
        {rows[i][j] for i in range(q)} == symbols for j in range(q)
    )




# ------------------------------------------------------------------- setup

def check_setup(payload: dict) -> None:
    ref = REFERENCE["setup"]
    expect(payload == ref, f"aut @ gave {payload}, expected {ref}")


def run_cli(K, argv: list[str]) -> dict:
    """``kernelgraphs.cli.main`` in this process, its JSON output parsed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = K.cli.main(argv + ["--json"])
    expect(code == 0, f"{argv[0]} exited {code}")
    return json.loads(buf.getvalue())


def setup_op(K) -> Op:
    """The CLI's fixed cost past imports: the group-name catalog build."""
    return Op("setup.aut", "setup", lambda: run_cli(K, ["aut", "@"]), check_setup, cap_s=30)


# -------------------------------------------------------------------- probe

def probe_op(K, out_dir: str) -> Op:
    """One call into every traced function on tiny inputs.

    The traced run makes it first, so every per-layer time is measured on
    every workload instead of reading a constant 0 where a workload does not
    reach a layer.
    """
    def run():
        p3, c5, t = K.path(3), K.cycle(5), [K.Transformation([1, 1, 2])]
        census = K.run_census(1, str(Path(out_dir, "probe")))
        return {
            "census_hulls": census.hulls,
            "hull_edges": [K.hull(p3).edge_count, K.hull(c5).edge_count],
            "canonical_equal": K.canonical_form(p3) == K.canonical_form(K.Graph(3, [(0, 2), (2, 1)])),
            "aut_orders": [K.automorphism_group(p3).order(), K.automorphism_group(c5).order()],
            "omega_chi": [K.clique_number(c5), K.chromatic_number(c5)],
            "endomorphisms": [K.count_endomorphisms(p3), sum(1 for _ in K.endomorphisms_iter(p3))],
            "closure": len(K.close(t)),
            "synchronizing": [K.is_synchronizing(t), K.synchronizing_word(t) is not None],
            "min_rank": K.min_rank_of_generators(t),
            "sizes": [K.lattice_generators(2).size, K.matching_generators(2).size,
                      len(K.mols_complete(3))],
        }

    def check(result):
        expect(result == REFERENCE["probe"], f"probe gave {result}")

    return Op("probe", "probe", run, check, cap_s=30)


# ------------------------------------------------------------------ census7

def check_census(summary: dict) -> None:
    ref = REFERENCE["census7"]
    expect(summary.get("graphs") == ref["graphs"], f"graphs {summary.get('graphs')}")
    expect(summary.get("hulls") == ref["hulls"], f"hulls {summary.get('hulls')}")
    expect(summary.get("size_distribution") == ref["sizes"],
           f"size table {summary.get('size_distribution')}")
    groups = summary.get("group_distribution", {})
    off = {k for k in set(groups) | set(ref["groups"]) if groups.get(k, 0) != ref["groups"].get(k, 0)}
    plus_one = {k for k in off if groups.get(k, 0) == ref["groups"].get(k, 0) + 1}
    expect(off == plus_one and len(off) <= ref["group_rows_allowed_plus_one"],
           f"group table differs in rows {sorted(off)}")


def census_ops(K, out_dir: str) -> list[Op]:
    argv = ["census", "7", "--out", out_dir, "--no-resume"]
    return [Op("census7", "census_s", lambda: run_cli(K, argv), check_census, cap_s=150)]


# ----------------------------------------------------------------- families

def shrikhande(K):
    """Cayley graph on Z4 x Z4 with connection set +-(1,0), +-(0,1), +-(1,1)."""
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = {
        tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
        for a in range(4) for b in range(4) for da, db in steps
    }
    return K.Graph(16, sorted(edges))


def families(K, seed: int) -> list[Op]:
    ref = REFERENCE["families"]
    c5c5 = K.cartesian_product(K.cycle(5), K.cycle(5))
    q4 = K.hamming(4, 2)
    sh = shrikhande(K)
    perm = list(range(16))
    random.Random(f"shrikhande-{seed}").shuffle(perm)
    sh_moved = K.Graph(16, [(perm[u], perm[v]) for u, v in edge_set(sh)])
    matching5 = K.union_complete([2] * 5)

    def check_hull(h):
        # C5xC5 vertex 5i+j; the hull drops the pairs on a common diagonal,
        # i.e. offsets (d, d) or (d, -d) mod 5
        def diagonal(u, v):
            di, dj = (v // 5 - u // 5) % 5, (v % 5 - u % 5) % 5
            return di == dj or (di + dj) % 5 == 0
        want = {(u, v) for u, v in combinations(range(25), 2) if not diagonal(u, v)}
        expect(300 - len(want) == ref["hull_c5c5_missing_pairs"], "hull reference is inconsistent")
        expect(edge_set(h) == want, "hull(C5xC5) is not K25 minus the diagonal pairs")

    def run_aut():
        group = K.automorphism_group(q4)
        return group, K.group_name(group)

    def check_aut(result):
        group, _name = result
        expect(group.order() == ref["aut_q4_order"], f"|Aut(Q4)| = {group.order()}")

    def check_mingen(gs):
        target = blocks_graph(5, 2)
        check_generates(gs, 10, target, ref["mingen_matching5_size"])
        for t in gs.transformations:
            expect(all(t.images[u] != t.images[v] and
                       (min(t.images[u], t.images[v]), max(t.images[u], t.images[v])) in target
                       for u, v in target), "a member is not an endomorphism")

    ops = [
        Op("hull.c5c5", "hull_s", lambda: K.hull(c5c5), check_hull, cap_s=90),
        Op("aut.q4", "aut_s", run_aut, check_aut, cap_s=30),
        Op("canon.shrikhande", "canon_s",
           lambda: (K.canonical_form(sh), K.canonical_form(sh_moved)),
           lambda pair: expect(pair[0] == pair[1], "Shrikhande forms differ"), cap_s=30),
        Op("mingen.matching5", "mingen_s",
           lambda: K.minimal_generating_set(matching5, within_endomorphisms=True),
           check_mingen, cap_s=60),
    ]
    for key, g in [
        ("c5c5", c5c5),
        ("c5p3", K.cartesian_product(K.cycle(5), K.path(3))),
        ("h33", K.hamming(3, 3)),
    ]:
        def check_count(count, g=g, key=key):
            listed = sum(1 for _ in K.endomorphisms_iter(g))
            expect(count == listed == ref["endomorphisms"][key],
                   f"{key}: count {count}, listed {listed}")
        ops.append(Op(f"endcount.{key}", "endcount_s",
                      lambda g=g: K.count_endomorphisms(g), check_count, cap_s=20))
    return ops


# --------------------------------------------------------------- semigroups

def kernel_set(rng: random.Random):
    """Maps that each send every point into a fixed r-set K and permute K.

    Products keep rank r and merge exactly what their first factor merges,
    so the closure's kernel graph has omega = chi = min rank = r.
    """
    n = rng.randint(12, 28)
    r = rng.randint(3, 6)
    core = rng.sample(range(n), r)
    maps = []
    for _ in range(rng.randint(2, 4)):
        images = [rng.choice(core) for _ in range(n)]
        for a, b in zip(core, rng.sample(core, r)):
            images[a] = b
        maps.append(images)
    return maps, r


def semigroups(K, seed: int) -> list[Op]:
    ref = REFERENCE["semigroups"]
    T = K.Transformation
    ops = []

    def check_sync(result):
        rng = random.Random(seed)
        hits = sum(
            synchronizes([[rng.randrange(SYNC_POINTS) for _ in range(SYNC_POINTS)]
                          for _ in range(2)], SYNC_POINTS)
            for _ in range(SYNC_TRIALS)
        )
        expect(result["trials"] == SYNC_TRIALS and result["synchronizing"] == hits,
               f"synchronizing {result['synchronizing']} of {result['trials']}, own count {hits}")

    ops.append(Op("sync.trials", "sync_trials_per_s",
                  lambda: K.random_sync_trials(SYNC_POINTS, SYNC_TRIALS, generators=2, seed=seed),
                  check_sync, cap_s=40, work=SYNC_TRIALS))

    t6 = [T([1, 2, 3, 4, 5, 0]), T([1, 0, 2, 3, 4, 5]), T([1, 1, 2, 3, 4, 5])]

    def check_t6(closure):
        images = {t.images for t in closure}
        expect(len(closure) == len(images) == ref["t6_order"]
               and all(len(im) == 6 and set(im) <= set(range(6)) for im in images),
               f"|T6| = {len(closure)}")

    ops.append(Op("closure.t6", "closure_elements_per_s", lambda: K.close(t6), check_t6,
                  cap_s=20, work=ref["t6_order"]))

    rng = random.Random(f"kernel-{seed}")
    for i in range(KERNEL_SETS):
        maps, r = kernel_set(rng)
        gens = [T(m) for m in maps]

        def run_kernel(gens=gens):
            res = K.closure_kernel_graph(gens)
            return res.min_rank, K.clique_number(res.graph), K.chromatic_number(res.graph)

        def check_kernel(result, r=r):
            expect(result == (r, r, r), f"min rank, omega, chi = {result}, expected {r}")

        ops.append(Op(f"kernel.{i}", "kernel_checks_per_s", run_kernel, check_kernel, cap_s=5))

    cerny = [T([(i + 1) % CERNY_POINTS for i in range(CERNY_POINTS)]),
             T([1] + list(range(1, CERNY_POINTS)))]

    def check_cerny(word):
        expect(word is not None and len(word) >= ref["cerny_min_word"], "Cerny word too short")
        current = set(range(CERNY_POINTS))
        for i in word:
            current = {cerny[i].images[x] for x in current}
        expect(len(current) == 1, f"Cerny word leaves rank {len(current)}")

    ops.append(Op("kernel.cerny", "kernel_checks_per_s", lambda: K.synchronizing_word(cerny),
                  check_cerny, cap_s=10))

    for n in LATTICE_SIZES:
        def check_lattice(gs, n=n):
            target = graph_by_distance(2, n, lambda d: d == 1)
            check_generates(gs, n * n, target, n - 1 if prime_power(n) else None)
            expect(gs.minimal or not prime_power(n), "prime-power lattice not proved minimal")

        ops.append(Op(f"lattice.{n}", "constructions_s",
                      lambda n=n: K.lattice_generators(n), check_lattice, cap_s=20))

    for c in MATCHING_COPIES:
        def check_matching(gs, c=c):
            check_generates(gs, 2 * c, blocks_graph(c, 2), (c - 1).bit_length() + 1)
            expect(gs.minimal or c > ref["matching_proved_up_to"], "matching not proved minimal")

        ops.append(Op(f"matching.{c}", "constructions_s",
                      lambda c=c: K.matching_generators(c), check_matching, cap_s=40))

    for m, q in HAMMING_COMPLEMENT:
        ops.append(Op(
            f"hamming_complement.{m}.{q}", "constructions_s",
            lambda m=m, q=q: K.hamming_complement_generators(m, q),
            lambda gs, m=m, q=q: check_generates(gs, q**m, graph_by_distance(m, q, lambda d: d >= 2)),
            cap_s=20))
    for m, q in HAMMING_DISTANCE:
        ops.append(Op(
            f"hamming_distance.{m}.{q}", "constructions_s",
            lambda m=m, q=q: K.hamming_distance_generators(m, q),
            lambda gs, m=m, q=q: check_generates(gs, q**m, graph_by_distance(m, q, lambda d: d == m)),
            cap_s=20))
    for c, k in UNION_COMPLETE:
        ops.append(Op(
            f"union_complete.{c}.{k}", "constructions_s",
            lambda c=c, k=k: K.union_complete_generators(c, k),
            lambda gs, c=c, k=k: check_generates(gs, c * k, blocks_graph(c, k)),
            cap_s=20))

    for q in filter(prime_power, range(2, MOLS_MAX_ORDER + 1)):
        def check_mols(squares, q=q):
            rows = [sq.rows for sq in squares]
            expect(len(rows) == q - 1 and all(is_latin(r, q) for r in rows),
                   f"order {q}: not q-1 Latin squares")
            # orthogonal: the q*q cells show every ordered symbol pair, coded a*64+b
            cells = [[x for row in r for x in row] for r in rows]
            high = [[64 * x for x in c] for c in cells]
            expect(all(len(set(map(add, high[i], cells[j]))) == q * q
                       for i, j in combinations(range(len(cells)), 2)),
                   f"order {q}: squares not orthogonal")

        ops.append(Op(f"mols.{q}", "constructions_s", lambda q=q: K.mols_complete(q),
                      check_mols, cap_s=20))

    ops.append(Op(
        "oa_extendible.cyclic6", "constructions_s",
        lambda: K.oa_extendible(K.oa_from_mols([K.cyclic_square(6)])),
        lambda row: expect((row is not None) == ref["oa_cyclic6_extendible"],
                           f"cyclic order-6 square extension: {row}"),
        cap_s=20))
    return ops


def build(workload: str, K, seed: int, out_dir: str) -> list[Op]:
    if workload == "census7":
        return census_ops(K, out_dir)
    if workload == "families":
        return families(K, seed)
    if workload == "semigroups":
        return semigroups(K, seed)
    raise ValueError(f"unknown workload {workload}")
