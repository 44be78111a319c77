import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import kernelgraphs
from kernelgraphs import census
from kernelgraphs.cli import main
from kernelgraphs.designs import OrthogonalArray, mols_complete, oa_from_mols
from kernelgraphs.errors import _Budget
from kernelgraphs.graphs import (
    _ir_search,
    cartesian_product,
    complete,
    cycle,
    from_graph6,
    hamming,
    null_graph,
    path,
    square_lattice,
    to_graph6,
)
from kernelgraphs.kernelgraph import hull, kernel_graph
from kernelgraphs.transform import Partition, Transformation


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_kernel_graph_text_and_json(tmp_path, capsys):
    f = tmp_path / "maps.txt"
    f.write_text("# a swap and a merge\n[2,1,3]\n[1,1,3]\n")
    code, out, err = run(capsys, "kernel-graph", str(f))
    expected = kernel_graph(
        [Transformation.parse("[2,1,3]"), Transformation.parse("[1,1,3]")]
    )
    g6 = to_graph6(expected.graph)
    assert code == 0
    assert out == f"{g6}\tmin_rank=2\n"

    code, out, _ = run(capsys, "--json", "kernel-graph", str(f))
    assert code == 0
    assert json.loads(out) == {
        "graph6": g6,
        "n": 3,
        "edges": expected.graph.edge_count,
        "min_rank": 2,
        "closed": False,
    }


def test_kernel_graph_closed_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[2,1,3]\n[1,1,3]\n"))
    code, out, _ = run(capsys, "--json", "kernel-graph", "--closed")
    assert code == 0
    assert json.loads(out)["closed"] is True


def test_kernel_graph_closed_json_pinned(tmp_path, capsys):
    # every point goes into {2, 4, 6}, which both maps permute: min rank 3
    f = tmp_path / "maps.txt"
    f.write_text("[2,4,6,6,4,2,2]\n[4,6,2,2,6,4,2]\n")
    code, out, _ = run(capsys, "--json", "kernel-graph", "--closed", str(f))
    assert code == 0
    assert out == '{"closed": true, "edges": 14, "graph6": "F}lyO", "min_rank": 3, "n": 7}\n'


def test_hull_command(capsys):
    p4 = to_graph6(path(4))
    expected = to_graph6(hull(path(4)))
    code, out, _ = run(capsys, "hull", p4)
    assert code == 0
    assert out == f"{expected}\tis_hull=false\n"

    code, out, _ = run(capsys, "--json", "hull", to_graph6(cycle(4)))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_hull"] is True
    assert payload["graph6"] == to_graph6(cycle(4))

    with pytest.raises(SystemExit) as info:
        main(["hull", "--iterate", p4])  # hull is idempotent, so there is nothing to iterate
    assert info.value.code == 1


def test_derived_and_end_count(capsys):
    c4 = to_graph6(cycle(4))
    code, out, _ = run(capsys, "derived", c4)
    assert code == 0
    assert from_graph6(out.strip()).n == 4
    rook = square_lattice(9)  # 81 vertices, each edge in a maximum clique
    code, out, _ = run(capsys, "derived", to_graph6(rook))
    assert code == 0 and from_graph6(out.strip()) == rook

    code, out, _ = run(capsys, "end-count", to_graph6(cycle(5)))
    assert code == 0
    assert out == "10\n"


def test_aut_command(capsys):
    code, out, _ = run(capsys, "aut", to_graph6(cycle(5)))
    assert code == 0
    assert out == "D10\torder=10\n"

    code, out, _ = run(capsys, "--json", "aut", to_graph6(complete(4)))
    payload = json.loads(out)
    assert payload["name"] == "S4"
    assert payload["order"] == 24
    for gen in payload["generators"]:
        assert Transformation.parse(gen).rank == 4

    # K8: S8 is not in the catalog, so it keeps its opaque label
    code, out, _ = run(capsys, "aut", "G~~~~{")
    assert code == 0
    assert out == "G40320#c8c451\torder=40320\n"


def test_mingen_command(capsys):
    code, out, _ = run(capsys, "mingen", to_graph6(cycle(4)))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size=1\tminimal=true\tlower_bound=1\tmethod=exhaustive"
    assert len(lines) == 2
    bracket, blocks = lines[1].split("\t")
    member = Transformation.parse(bracket)
    assert kernel_graph([member]).graph == cycle(4)
    assert Partition.parse(blocks) == member.kernel()

    # a graph that is not a hull has no endomorphic generating set
    code, _, err = run(capsys, "mingen", "--endomorphisms", to_graph6(path(4)))
    assert code == 1
    assert err.startswith("error:")


def test_sync_check_word_is_replayable(tmp_path, capsys):
    f = tmp_path / "maps.txt"
    f.write_text("[2,3,1]\n[1,1,3]\n")
    code, out, _ = run(capsys, "--json", "sync-check", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["synchronizing"] is True
    members = [Transformation.parse("[2,3,1]"), Transformation.parse("[1,1,3]")]
    images = set(range(3))
    for index in payload["word"]:
        images = {members[index - 1].images[x] for x in images}
    assert len(images) == 1

    code, out, _ = run(capsys, "sync-check", "--closure", str(f))
    assert code == 0
    assert out.startswith("synchronizing\tword=")
    assert "closure_size=" in out


def test_sync_check_closure_of_the_full_transformation_monoid(tmp_path, capsys):
    f = tmp_path / "t6.txt"
    f.write_text("[2,3,4,5,6,1]\n[2,1,3,4,5,6]\n[2,2,3,4,5,6]\n")
    code, out, _ = run(capsys, "sync-check", "--closure", str(f))
    assert code == 0
    assert out.startswith("synchronizing\tword=")
    assert out.endswith("\tclosure_size=46656\n")


def test_sync_check_negative(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[2,1,3]\n"))
    code, out, _ = run(capsys, "sync-check")
    assert code == 0
    assert out == "not synchronizing\n"


@pytest.mark.parametrize(
    "argv", [["sync-check"], ["sync-check", "--closure"], ["kernel-graph"]]
)
def test_input_without_transformations_exits_1(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO("# nothing\n\n"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: standard input: no transformation found\n"


def test_empty_transformation_file_is_named(tmp_path, capsys):
    f = tmp_path / "maps.txt"
    f.write_text("# nothing\n")
    code, _, err = run(capsys, "kernel-graph", "--closed", str(f))
    assert code == 1
    assert err == f"error: {f}: no transformation found\n"


def test_census_command(tmp_path, capsys):
    out_dir = tmp_path / "census"
    code, out, _ = run(
        capsys,
        "--json",
        "--seed",
        "5",
        "census",
        "3",
        "--out",
        str(out_dir),
        "--sync-trials",
        "10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hulls"] == 4
    assert payload["sync_trials"]["trials"] == 10
    assert (out_dir / "hulls_n3.jsonl").exists()

    code, out, _ = run(capsys, "census", "3", "--out", str(out_dir))
    assert code == 0
    assert out.startswith("n=3\tgraphs=4\thulls=4\n")


def test_census_rejects_bad_sync_flags_before_any_work(tmp_path, capsys):
    out_dir = tmp_path / "census"
    for flags in (["--sync-trials", "-1"], ["--sync-generators", "0"],
                  ["--sync-trials", "5", "--sync-generators", "0"]):
        with pytest.raises(SystemExit) as info:
            main(["census", "3", "--out", str(out_dir), *flags])
        assert info.value.code == 1, flags
        assert "expected an integer >= " in capsys.readouterr().err
        assert not out_dir.exists(), flags


def test_census_malformed_file_exits_1(tmp_path, capsys):
    path = tmp_path / "hulls_n3.jsonl"
    for text, where in (
        ("[3]\n", ":1: expected a JSON object"),
        ('{"n": 3, "schema_version": 3}\n{"is_hull": false}\n', ":2: row has no graph6"),
    ):
        path.write_text(text)
        code, out, err = run(capsys, "census", "3", "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and where in err
        assert "Traceback" not in err


def test_census_incomplete_row_exits_1(tmp_path, capsys):
    path = tmp_path / "hulls_n3.jsonl"
    path.write_text('{"n": 3, "schema_version": 3}\n{"graph6": "Bw", "is_hull": true}\n')
    code, out, err = run(capsys, "census", "3", "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and ":2: row has no edges or aut_name or " in err
    assert "Traceback" not in err


def test_preimages_command(capsys):
    k4 = to_graph6(complete(4))
    code, out, _ = run(capsys, "preimages", k4)
    assert code == 0
    assert out.splitlines() == [k4]


def test_designs_mols_and_oa(capsys):
    code, out, _ = run(capsys, "--json", "designs", "mols", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert len(payload["squares"][0]) == 4

    code, _, err = run(capsys, "designs", "mols", "6")
    assert code == 1
    assert "error:" in err

    code, out, _ = run(capsys, "--json", "designs", "oa", "4")
    payload = json.loads(out)
    assert payload["k"] == 5
    assert len(payload["rows"]) == 5
    OrthogonalArray(4, payload["rows"])


def test_designs_oa_graph_and_extendible(tmp_path, capsys):
    oa = oa_from_mols(mols_complete(3))
    f = tmp_path / "oa.txt"
    f.write_text("\n".join(" ".join(str(x) for x in row) for row in oa.rows) + "\n")
    code, out, _ = run(capsys, "designs", "oa-graph", str(f))
    assert code == 0
    assert out.endswith("n=3\tk=4\n")

    # the full array admits no further row
    code, out, _ = run(capsys, "designs", "extendible", str(f))
    assert code == 0
    assert out == "none\n"

    two = oa_from_mols([], n=3)
    f2 = tmp_path / "oa2.txt"
    f2.write_text("\n".join(" ".join(str(x) for x in row) for row in two.rows) + "\n")
    code, out, _ = run(capsys, "--json", "designs", "extendible", str(f2))
    payload = json.loads(out)
    assert payload["row"] is not None
    two.with_row(payload["row"])

    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    code, _, err = run(capsys, "designs", "oa-graph", str(bad))
    assert code == 1
    assert "perfect square" in err


def test_bad_input_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "hull", "@@not-a-graph@@")
    assert code == 1
    assert err.startswith("error:")

    f = tmp_path / "maps.txt"
    f.write_text("[2,1,3]\n[9,9]\n")
    code, _, err = run(capsys, "kernel-graph", str(f))
    assert code == 1
    assert "line 2" in err

    code, _, err = run(capsys, "kernel-graph", str(tmp_path / "missing.txt"))
    assert code == 1


def test_array_file_errors_report_line_and_column(tmp_path, capsys):
    f = tmp_path / "oa.txt"
    f.write_text("# rows\n1 1 1 1\n\n  2 x 2 2\n")
    for command in ("oa-graph", "extendible"):
        code, _, err = run(capsys, "designs", command, str(f))
        assert code == 1
        assert err == "error: bad symbol 'x' at line 4, column 5\n"


def test_files_accept_only_ascii_digits(tmp_path, capsys):
    f = tmp_path / "maps.txt"
    f.write_text("[1,2]\n[²,1]\n")
    code, _, err = run(capsys, "kernel-graph", str(f))
    assert (code, err) == (1, "error: bad image entry '²' at line 2, column 2\n")
    oa = tmp_path / "oa.txt"
    for symbol in ("١", "1_0", "+1"):
        oa.write_text(f"1 1 1 1\n1 2 {symbol} 2\n")
        code, _, err = run(capsys, "designs", "oa-graph", str(oa))
        assert (code, err) == (1, f"error: bad symbol {symbol!r} at line 2, column 5\n")


def test_usage_errors_exit_1(tmp_path, capsys):
    f = tmp_path / "maps.txt"
    f.write_text("[2,1,3]\n[1,1,3]\n")
    for argv in [
        ["aut", "--node-budget", "abc", "DUW"],
        ["aut", "--node-budget", "-1", "DUW"],
        ["sync-check", "--closure", "--closure-cap", "-1", str(f)],
        ["census"],
        ["census", "3", "--out", str(tmp_path / "out"), "--threads", "2"],
        ["no-such-command"],
    ]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1, argv
        assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()
    # a zero budget is still valid: K3 is settled without a search
    assert run(capsys, "hull", "--node-budget", "0", "Bw") == (0, "Bw\tis_hull=true\n", "")


def test_budget_exit_codes(tmp_path, capsys):
    big = to_graph6(square_lattice(3))
    code, _, err = run(capsys, "--node-budget", "5", "end-count", big)
    assert code == 2
    assert "budget" in err

    # census 8 cannot finish in 0.05 s, even with the graphs already generated
    code, _, err = run(capsys, "--time-limit", "0.05", "census", "8", "--out", str(tmp_path))
    assert code == 2
    assert "time" in err


def test_end_count_budget_caps_the_automorphism_search(capsys):
    g = cartesian_product(cycle(5), cycle(5))
    search = _Budget(None, "automorphism search")
    _ir_search(g, search)
    code, out, err = run(capsys, "--node-budget", str(search.used - 1), "end-count", to_graph6(g))
    assert code == 2
    assert out == ""
    assert "automorphism search" in err
    assert run(capsys, "--node-budget", "100000", "end-count", to_graph6(g))[:2] == (0, "400\n")


def test_unusable_time_limits_are_rejected(tmp_path, capsys):
    for value in ("0", "-1", "nan", "inf", "-inf", "1e300"):
        code, out, err = run(capsys, f"--time-limit={value}", "census", "7", "--out", str(tmp_path))
        assert code == 1, value
        assert err.startswith("error: --time-limit"), (value, err)
        assert out == ""
    assert not any(tmp_path.iterdir())


def test_time_limit_that_fires_at_once_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "--time-limit", "1e-9", "census", "6", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error:") and "time" in err


def test_census_stops_at_time_limit_and_resumes(tmp_path, capsys, monkeypatch):
    one, two = tmp_path / "one", tmp_path / "two"
    assert run(capsys, "census", "7", "--out", str(one))[0] == 0

    entry = census._census_entry
    calls = 0

    def alarm_after_100_rows(*task):
        nonlocal calls
        calls += 1
        if calls == 100:
            signal.setitimer(signal.ITIMER_REAL, 0.05)  # bring the --time-limit alarm forward
        return entry(*task)

    with monkeypatch.context() as m:
        m.setattr(census, "_census_entry", alarm_after_100_rows)
        code, _, err = run(capsys, "--time-limit", "600", "census", "7", "--out", str(two))
    assert code == 2
    assert "time" in err
    kept = (two / "hulls_n7.jsonl").read_text().count("\n") - 1
    assert 100 <= kept < 1044  # graphs on 7 vertices
    assert run(capsys, "census", "7", "--out", str(two))[0] == 0
    for f in sorted(one.iterdir()):
        assert (two / f.name).read_bytes() == f.read_bytes(), f.name


def test_aut_honours_node_budget(capsys):
    q4 = to_graph6(hamming(4, 2))
    code, _, err = run(capsys, "--node-budget", "3", "aut", q4)
    assert code == 2
    assert "budget" in err
    code, out, _ = run(capsys, "--node-budget", "1000", "aut", q4)
    assert code == 0
    assert "order=384" in out


def test_aut_past_the_recursion_limit_exits_1(capsys):
    code, out, err = run(capsys, "aut", to_graph6(null_graph(1000)))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "recursion limit" in err


def test_unread_budget_flags_are_rejected(tmp_path, capsys):
    g6 = to_graph6(cycle(5))
    f = tmp_path / "maps.txt"
    f.write_text("[2,1,3]\n[1,1,3]\n")
    for argv, flag in [
        (["census", "3", "--out", str(tmp_path), "--node-budget", "5"], "--node-budget"),
        (["--closure-cap", "9", "preimages", g6], "--closure-cap"),
        (["--node-budget", "9", "kernel-graph", str(f)], "--node-budget"),
        (["derived", g6, "--node-budget", "9"], "--node-budget"),
        (["designs", "mols", "3", "--node-budget", "9"], "--node-budget"),
        (["designs", "oa", "3", "--closure-cap", "9"], "--closure-cap"),
        (["designs", "oa-graph", str(f), "--node-budget", "9"], "--node-budget"),
        (["sync-check", str(f), "--closure-cap", "9"], "--closure-cap"),
        (["sync-check", str(f), "--node-budget", "9"], "--node-budget"),
        (["hull", g6, "--closure-cap", "9"], "--closure-cap"),
        (["mingen", g6, "--seed", "1"], "--seed"),
        (["--seed", "1", "designs", "mols", "3"], "--seed"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:") and flag in err
    assert not (tmp_path / "hulls_n3.jsonl").exists()


def test_read_budget_flags_are_unchanged(tmp_path, capsys):
    f = tmp_path / "maps.txt"
    f.write_text("[2,1,3]\n[1,1,3]\n")
    g6 = to_graph6(cycle(5))
    for plain, budget in [
        (["mingen", g6], ["--node-budget", "100000"]),
        (["hull", g6], ["--node-budget", "100000"]),
        (["sync-check", "--closure", str(f)], ["--closure-cap", "100"]),
    ]:
        code, want, _ = run(capsys, *plain)
        assert code == 0
        assert run(capsys, *budget, *plain) == (0, want, "")
        assert run(capsys, *plain, *budget) == (0, want, "")
    code, _, err = run(capsys, "sync-check", "--closure", "--closure-cap", "2", str(f))
    assert code == 2
    assert "closure" in err
    swap = tmp_path / "swap.txt"
    swap.write_text("[1,2]\n[2,1]\n")
    code, out, err = run(capsys, "sync-check", "--closure", "--closure-cap", "1", str(swap))
    assert code == 2
    assert out == ""
    assert "closure" in err


def _loaded_by_cli_import(then: str = "") -> set[str]:
    """The modules a fresh interpreter holds after importing kernelgraphs.cli
    and running ``then``, with any words ``then`` printed."""
    src = str(Path(kernelgraphs.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    probe = f"import sys, kernelgraphs.cli\n{then}\nprint(*sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, timeout=60, capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


def test_cli_import_loads_no_numpy():
    assert "numpy" not in _loaded_by_cli_import()


def test_cli_import_loads_no_multiprocessing():
    # the census computes its rows in the calling process
    assert "multiprocessing" not in _loaded_by_cli_import()


def test_opaque_group_label_loads_no_openssl():
    # Aut(Q4) is in no catalog; its label's SHA-1 comes from _sha1, not hashlib
    pytest.importorskip("_sha1")
    then = "import kernelgraphs as K; print(K.group_name(K.automorphism_group(K.hamming(4, 2))))"
    loaded = _loaded_by_cli_import(then)
    assert "G384#1b2cd5" in loaded
    assert "hashlib" not in loaded and "_hashlib" not in loaded


def test_option_position_is_flexible(capsys):
    g6 = to_graph6(cycle(5))
    code_a, out_a, _ = run(capsys, "--json", "aut", g6)
    code_b, out_b, _ = run(capsys, "aut", "--json", g6)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_pipe_round_trip_is_idempotent(tmp_path, capsys):
    f = tmp_path / "maps.txt"
    f.write_text("[3,3,4,3]\n[3,3,2,4]\n")
    _, out, _ = run(capsys, "kernel-graph", str(f))
    g6 = out.split("\t")[0]
    _, out, _ = run(capsys, "hull", g6)
    h6 = out.split("\t")[0]
    _, out, _ = run(capsys, "hull", h6)
    assert out.split("\t")[0] == h6
    assert out.rstrip().endswith("is_hull=true")


def test_json_output_matches_goldens(capsys):
    golden = {
        ("--json", "hull", "DUW"): '{"graph6": "D~{", "is_hull": false}',
        ("--json", "mingen", "C]"): (
            '{"kernels": ["{{1,2},{3,4}}"], "lower_bound": 1,'
            ' "members": ["[1,1,3,3]"], "method": "exhaustive",'
            ' "minimal": true, "size": 1}'
        ),
        ("--json", "aut", "DUW"): (
            '{"generators": ["[1,5,4,3,2]", "[2,3,4,5,1]"], "name": "D10", "order": 10}'
        ),
        # the members send each kernel class to its vertex of the maximum
        # clique {3,4,6}; before the walk pinned that clique they sent the
        # same four kernels, listed in another order, onto {1,2,5}
        ("--json", "mingen", "E`ow", "--endomorphisms"): (
            '{"kernels": ["{{1,3},{2,6},{4,5}}", "{{1,6},{2,4},{3,5}}",'
            ' "{{1,4},{2,6},{3,5}}", "{{1,6},{2,3},{4,5}}"], "lower_bound": 4,'
            ' "members": ["[3,6,3,4,4,6]", "[6,4,3,4,3,6]", "[4,6,3,4,3,6]",'
            ' "[6,3,3,4,4,6]"], "method": "exhaustive-endomorphic",'
            ' "minimal": true, "size": 4}'
        ),
    }
    for argv, want in golden.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.rstrip("\n") == want
        # byte-stable across repeat runs
        _, again, _ = run(capsys, *argv)
        assert again == out
