import hashlib
import itertools
import json
import random

import pytest

from kernelgraphs import graphs, groups, kernelgraph, semigroup
from kernelgraphs.census import (
    REFERENCE_GROUP_TABLES,
    _census_entry,
    _points,
    hull_preimages,
    random_sync_trials,
    run_census,
)
from kernelgraphs.errors import UnsupportedParameterError
from kernelgraphs.graphs import (
    _all_graphs_level,
    canonical_form,
    complete,
    cycle,
    from_graph6,
    null_graph,
    path,
    to_graph6,
)
from kernelgraphs.groups import automorphism_group
from kernelgraphs.kernelgraph import is_hull
from kernelgraphs.mingen import minimal_generating_set
from kernelgraphs.semigroup import is_synchronizing
from kernelgraphs.transform import Transformation


def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def entry(g6: str) -> dict:
    """The census row of g6, given generators that an automorphism search finds."""
    g = from_graph6(g6)
    return _census_entry(g6, g.adj, automorphism_group(g).generators)


def level_rows(n: int):
    """Each graph on n vertices with its census row, as the census computes it."""
    for g, generators, g6 in zip(*_all_graphs_level(n)):
        assert g6 == to_graph6(g)
        yield g, _census_entry(g6, g.adj, generators)


def test_entry_classifies_hull_and_non_hull():
    row = entry(to_graph6(complete(3)))
    assert row["is_hull"]
    assert row["aut_name"] == "S3"
    assert row["aut_order"] == 6
    # complete graphs are recorded under one generator by table convention
    assert row["min_generators"] == 1
    assert row["min_generators_free"] == 1

    row = entry(to_graph6(path(4)))
    assert row == {"graph6": to_graph6(path(4)), "is_hull": False}


def test_entry_where_endomorphism_restriction_costs_a_member():
    # the one 6-vertex hull whose endomorphism generating sets need an
    # extra member beyond the unrestricted minimum
    row = entry("E`ow")
    assert row["is_hull"]
    assert row["min_generators"] == 4
    assert row["min_generators_free"] == 3


def test_entry_verdict_matches_is_hull():
    for n in range(1, 7):
        for g, row in level_rows(n):
            assert row["is_hull"] == is_hull(g), to_graph6(g)


def count_searches(monkeypatch) -> list:
    """Record (graph, budget, result) of every individualization-refinement search from now on."""
    calls = []
    real = graphs._ir_search

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args[0], args[1], result))
        return result

    for module in (graphs, groups, kernelgraph, semigroup):
        monkeypatch.setattr(module, "_ir_search", counted)
    return calls


def test_entry_runs_no_automorphism_search(monkeypatch):
    # the generators come from generation, so a row, hull or not, runs no search
    _all_graphs_level(5)  # generated before counting: its searches are not the rows'
    calls = count_searches(monkeypatch)
    hulls = sum(row["is_hull"] for _g, row in level_rows(5))
    assert calls == []
    assert hulls == 27


def test_census_n7_searches_each_kept_extension_once(tmp_path, monkeypatch):
    # one search per kept extension mask accepts or rejects the child and
    # hands its generators on; the generator that canonicalized every
    # extension and searched again per parent and per hull row made 2,386.
    # 386 of the 1,639 searches stop at the root, where the new vertex lies
    # outside the last cell; with the transpositions of twins to start from,
    # the searches take 4,640 nodes, where they took 8,830 without either
    _all_graphs_level.cache_clear()
    calls = count_searches(monkeypatch)
    assert run_census(7, tmp_path).hulls == 539
    assert len(calls) == 1639
    assert sum(result is None for _g, _budget, result in calls) == 386
    assert sum(budget.used for _g, budget, _result in calls) == 4640


def test_census_n3(tmp_path):
    summary = run_census(3, tmp_path)
    assert summary.graphs == 4
    assert summary.hulls == 4
    assert summary.group_distribution == {"C2": 2, "S3": 2}
    assert summary.size_distribution == {1: 3, 2: 1}
    assert summary.warnings == ()

    lines = (tmp_path / "hulls_n3.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == {"schema_version": 3, "n": 3}
    assert len(lines) == 1 + 4
    for name in ("summary_n3.json", "groups_n3.csv", "sizes_n3.csv"):
        assert (tmp_path / name).exists()
    on_disk = json.loads((tmp_path / "summary_n3.json").read_text())
    assert on_disk == summary.to_dict()


def test_census_n4_flags_published_size_row(tmp_path):
    summary = run_census(4, tmp_path)
    assert summary.hulls == 10
    assert summary.group_distribution == REFERENCE_GROUP_TABLES[4]
    # the published size row for n=4 does not even sum to the hull count
    # (and lists 6 single-generator hulls where only p(4)=5 complete
    # multipartite graphs exist); the census keeps its own verified
    # numbers and reports the difference
    assert summary.size_distribution == {1: 5, 2: 4, 3: 1}
    assert len(summary.warnings) == 2
    assert all("size table" in w for w in summary.warnings)


def test_census_n5_matches_published(tmp_path):
    summary = run_census(5, tmp_path)
    assert summary.hulls == 27
    assert summary.group_distribution == REFERENCE_GROUP_TABLES[5]
    assert summary.size_distribution == {1: 7, 2: 12, 3: 7, 4: 1}
    assert summary.warnings == ()


def test_census_n6_matches_published(tmp_path):
    summary = run_census(6, tmp_path)
    assert summary.hulls == 102
    assert summary.group_distribution == REFERENCE_GROUP_TABLES[6]
    assert summary.size_distribution == {1: 11, 2: 35, 3: 46, 4: 9, 5: 1}
    assert summary.warnings == ()
    digest = hashlib.sha256((tmp_path / "hulls_n6.jsonl").read_bytes()).hexdigest()
    assert digest == "65586461c60c4824220ce4867433d141f02b231dc441445897b449a4b398d777"


def test_census_n7_pinned(tmp_path):
    summary = run_census(7, tmp_path)
    assert summary.hulls == 539
    digest = hashlib.sha256((tmp_path / "hulls_n7.jsonl").read_bytes()).hexdigest()
    assert digest == "104d2585936defc38514d05896851056b9f7641d45e2b34dddfe8e5fd705d435"


def test_census_free_size_matches_the_free_search():
    # the row skips the free search when the non-neighbourhood bound settles it
    for n in range(1, 7):
        for g, row in level_rows(n):
            if row["is_hull"]:
                assert row["min_generators_free"] == (minimal_generating_set(g).size or 1)


@pytest.mark.slow
def test_census_n8_totals(tmp_path):
    # computed by this code, not published values
    summary = run_census(8, tmp_path, workers=2)
    assert summary.graphs == 12346
    assert summary.hulls == 4783
    assert summary.size_distribution == {1: 22, 2: 275, 3: 2656, 4: 1654, 5: 160, 6: 15, 7: 1}
    digest = hashlib.sha256((tmp_path / "hulls_n8.jsonl").read_bytes()).hexdigest()
    assert digest == "669a17c5a69964d6868a8ba358ea14acd065b99276700333563e0d00f0e8e0e1"


def test_census_size_one_count_is_partition_number(tmp_path):
    # hulls generated by a single member are exactly the complete
    # multipartite graphs, one per integer partition of n
    for n in (3, 4, 5, 6):
        summary = run_census(n, tmp_path / str(n))
        assert summary.size_distribution[1] == partition_count(n)


def test_census_resume_completes_partial_file(tmp_path):
    full = run_census(4, tmp_path / "full")
    src = (tmp_path / "full" / "hulls_n4.jsonl").read_text().splitlines()

    part_dir = tmp_path / "partial"
    part_dir.mkdir()
    (part_dir / "hulls_n4.jsonl").write_text("\n".join(src[:4]) + "\n")
    resumed = run_census(4, part_dir)
    assert resumed == full
    lines = (part_dir / "hulls_n4.jsonl").read_text().splitlines()
    assert len(lines) == len(src)
    assert sorted(lines) == sorted(src)


def test_census_resume_drops_torn_final_row(tmp_path):
    fresh = run_census(5, tmp_path / "fresh")
    text = (tmp_path / "fresh" / "hulls_n5.jsonl").read_text()
    last_row = text.rstrip("\n").rfind("\n") + 1
    torn = tmp_path / "torn" / "hulls_n5.jsonl"
    torn.parent.mkdir()
    torn.write_text(text[: last_row + 10])
    assert run_census(5, torn.parent) == fresh
    assert torn.read_text() == text

    # a torn header leaves nothing to resume: the census starts over
    torn.write_text(text[:10])
    assert run_census(5, torn.parent) == fresh
    assert torn.read_text() == text

    # anywhere else, bad JSON is still an error
    lines = text.splitlines(keepends=True)
    lines[3] = lines[3][:10] + "\n"
    torn.write_text("".join(lines))
    with pytest.raises(ValueError, match="not valid JSON"):
        run_census(5, torn.parent)


def test_census_resume_false_starts_over(tmp_path):
    run_census(3, tmp_path)
    (tmp_path / "hulls_n3.jsonl").write_text('{"n": 3, "schema_version": 1}\n')
    summary = run_census(3, tmp_path, resume=False)
    assert summary.hulls == 4
    lines = (tmp_path / "hulls_n3.jsonl").read_text().splitlines()
    assert len(lines) == 5


def test_census_reruns_write_identical_files(tmp_path):
    run_census(5, tmp_path)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    run_census(5, tmp_path, resume=False)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_census_rejects_foreign_file(tmp_path):
    (tmp_path / "hulls_n4.jsonl").write_text('{"n": 5, "schema_version": 1}\n')
    with pytest.raises(ValueError, match="n=5"):
        run_census(4, tmp_path)
    (tmp_path / "hulls_n3.jsonl").write_text('{"n": 3, "schema_version": 99}\n')
    with pytest.raises(ValueError, match="schema_version"):
        run_census(3, tmp_path)
    (tmp_path / "hulls_n2.jsonl").write_text("not json\n")
    with pytest.raises(ValueError, match="not valid JSON"):
        run_census(2, tmp_path)


def test_census_rejects_malformed_rows(tmp_path):
    path = tmp_path / "hulls_n3.jsonl"
    path.write_text("[3]\n")
    with pytest.raises(ValueError, match=r"hulls_n3\.jsonl:1: expected a JSON object"):
        run_census(3, tmp_path)
    path.write_text('{"n": 3, "schema_version": 3}\n{"is_hull": false}\n')
    with pytest.raises(ValueError, match=r"hulls_n3\.jsonl:2: row has no graph6 field"):
        run_census(3, tmp_path)
    path.write_text('{"n": 3, "schema_version": 3}\n"Bw"\n')
    with pytest.raises(ValueError, match=r"hulls_n3\.jsonl:2: expected a JSON object"):
        run_census(3, tmp_path)


def test_census_worker_count_does_not_change_output(tmp_path):
    one = run_census(4, tmp_path / "w1", workers=1)
    two = run_census(4, tmp_path / "w2", workers=2)
    assert one == two
    assert (tmp_path / "w1" / "hulls_n4.jsonl").read_bytes() == (
        tmp_path / "w2" / "hulls_n4.jsonl"
    ).read_bytes()


def test_census_rejects_bad_parameters(tmp_path):
    with pytest.raises(UnsupportedParameterError):
        run_census(0, tmp_path)
    with pytest.raises(UnsupportedParameterError):
        run_census(9, tmp_path)
    with pytest.raises(ValueError):
        run_census(3, tmp_path, workers=0)


def test_hull_preimages():
    pre = hull_preimages(cycle(4))
    assert len(pre) == 2
    certs = {canonical_form(g) for g in pre}
    assert canonical_form(cycle(4)) in certs
    assert canonical_form(path(4)) in certs

    assert [canonical_form(g) for g in hull_preimages(complete(4))] == [
        canonical_form(complete(4))
    ]
    assert [canonical_form(g) for g in hull_preimages(null_graph(3))] == [
        canonical_form(null_graph(3))
    ]


def test_random_sync_trials_deterministic_and_sampled_correctly():
    a = random_sync_trials(4, 50, generators=2, seed=123)
    b = random_sync_trials(4, 50, generators=2, seed=123)
    assert a == b
    assert a["synchronizing"] + 0 <= a["trials"]
    assert a["fraction"] == a["synchronizing"] / a["trials"]

    # replay the generator stream and re-check each trial independently
    import random as _random

    rng = _random.Random(99)
    expected = 0
    for _ in range(20):
        members = [
            Transformation([rng.randrange(5) for _ in range(5)]) for _ in range(2)
        ]
        if is_synchronizing(members):
            expected += 1
    got = random_sync_trials(5, 20, generators=2, seed=99)
    assert got["synchronizing"] == expected


def test_random_sync_trials_pinned():
    # counts from when every sampled map went through the checked constructor
    for seed, hits in [(1, 9810), (2, 9833), (3, 9843), (20260822, 9828)]:
        assert random_sync_trials(20, 10000, seed=seed) == {
            "n": 20,
            "trials": 10000,
            "generators": 2,
            "synchronizing": hits,
            "fraction": hits / 10000,
        }


def test_points_are_the_randrange_draws():
    for n in (1, 2, 20, 32, 33, 100):
        for seed in (0, 1, 20260822):
            rng = random.Random(seed)
            expected = [rng.randrange(n) for _ in range(500)]
            assert list(itertools.islice(_points(random.Random(seed), n), 500)) == expected


def test_random_sync_trials_rates():
    assert random_sync_trials(1, 10, generators=1, seed=0)["fraction"] == 1.0
    # random pairs on a small point set almost always synchronize
    assert random_sync_trials(4, 300, generators=3, seed=7)["fraction"] > 0.9


def test_random_sync_trials_validation():
    with pytest.raises(ValueError):
        random_sync_trials(0, 5)
    with pytest.raises(ValueError):
        random_sync_trials(3, 0)
    with pytest.raises(ValueError):
        random_sync_trials(3, 5, generators=0)
