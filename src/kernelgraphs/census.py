"""Census of hull graphs on n vertices.

Enumerates all graphs up to isomorphism, keeps the hulls, and tabulates
their automorphism groups and minimal generating set sizes.  The walk over
the omega-colourings in the endomorphic generating-set search decides
hull-ness; a hull row names the group that the generators found by
generation span, and runs no automorphism search.  Results are written as
a resumable JSONL file plus summary JSON/CSV tables, and the distributions
are compared against published desk-check values; any drift is reported
as warnings on the summary, never as a failure.
"""

import csv
import functools
import json
import os
import random
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path

from .errors import UnsupportedParameterError, _Budget
from .graphs import Graph, _all_graphs_level, canonical_form, generate_all
from .groups import PermGroup, group_name
from .kernelgraph import hull
from .mingen import _minimum, _needs, minimal_generating_set
from .semigroup import is_synchronizing
from .transform import Transformation

__all__ = [
    "CensusSummary",
    "run_census",
    "hull_preimages",
    "random_sync_trials",
]

SCHEMA_VERSION = 3
_CENSUS_LIMIT = 8
_CHUNK = 8  # graphs per task of a parallel census

# Size conventions used by the published tables: generating sets are drawn
# from the graph's own endomorphisms, and the complete graph is listed under
# size 1 (a single permutation generator) even though no collapsing member
# is needed at all.  Rows also carry the unrestricted minimum for comparison.
SIZE_CONVENTION = (
    "members are endomorphisms; complete graph counted as one permutation generator"
)

# Published desk-check values.  Keys absent for an n mean no comparison runs.
REFERENCE_GROUP_TABLES: dict[int, dict[str, int]] = {
    3: {"C2": 2, "S3": 2},
    4: {"C2": 2, "C2xC2": 2, "D8": 2, "S3": 2, "S4": 2},
    5: {"C2": 5, "C2xC2": 6, "D8": 4, "D12": 6, "S3": 2, "S4": 2, "S5": 2},
    6: {
        "1": 3,
        "C2": 22,
        "C2xC2": 21,
        "C2xC2xC2": 4,
        "C2xD8": 6,
        "C2xS4": 8,
        "D8": 7,
        "D12": 17,
        "S3": 4,
        "S3xS3": 2,
        "S3xS3:C2": 2,
        "S4": 2,
        "S5": 2,
        "S6": 2,
    },
    7: {
        "1": 49,
        "C2": 142,
        "C2xC2": 133,
        "C2xC2xC2": 29,
        "C2xC2xS3": 18,
        "C2xD8": 20,
        "C2xS4": 20,
        "C2xS5": 6,
        "D8": 21,
        "D8xS3": 8,
        "D12": 47,
        "S3": 21,
        "S3xS3": 6,
        "S3xS3:C2": 4,
        "S3xS4": 6,
        "S4": 2,
        "S5": 2,
        "S6": 2,
        "S7": 2,
    },
}

REFERENCE_SIZE_TABLES: dict[int, dict[int, int]] = {
    4: {1: 6, 2: 2, 3: 1},
    5: {1: 7, 2: 12, 3: 7, 4: 1},
    6: {1: 11, 2: 35, 3: 46, 4: 9, 5: 1},
    7: {1: 15, 2: 97, 3: 316, 4: 100, 5: 10, 6: 1},
}


@dataclass(frozen=True)
class CensusSummary:
    n: int
    graphs: int
    hulls: int
    group_distribution: dict[str, int]
    size_distribution: dict[int, int]
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "graphs": self.graphs,
            "hulls": self.hulls,
            "size_convention": SIZE_CONVENTION,
            "group_distribution": self.group_distribution,
            "size_distribution": {str(k): v for k, v in self.size_distribution.items()},
            "warnings": list(self.warnings),
        }


@functools.cache
def _group_row(degree: int, generators: frozenset) -> tuple[str, int]:
    """Name and order of the group these permutations generate, once per process."""
    group = PermGroup(degree, generators)
    return group_name(group), group.order()


def _census_entry(g6: str, adj: tuple[int, ...], generators) -> dict:
    """Worker unit: the walk decides if g6, rows ``adj``, is a hull; ``generators`` span Aut."""
    g = Graph.from_adj(adj)
    endo = _minimum(g, True, _Budget(None, "clique search"))
    if endo is None:
        return {"graph6": g6, "is_hull": False}
    name, order = _group_row(g.n, frozenset(generators))
    free = endo.size  # free <= endo, and the free search runs only when _needs falls short
    if free and not _needs(g, free, _Budget(None, "cover bound")):
        free = minimal_generating_set(g).size
    return {
        "graph6": g6,
        "is_hull": True,
        "edges": g.edge_count,
        "aut_name": name,
        "aut_order": order,
        "min_generators": endo.size or 1,  # see SIZE_CONVENTION
        "min_generators_free": free or 1,
    }


def _census_task(task: tuple[str, tuple, tuple]) -> dict:
    return _census_entry(*task)  # Pool.imap passes one argument


def _jsonl_path(out_dir: Path, n: int) -> Path:
    return out_dir / f"hulls_n{n}.jsonl"


def _read_rows(path: Path, n: int) -> tuple[dict[str, dict], int]:
    """Rows of a census file, and the byte length of its complete lines.

    An unterminated final line is a row torn by an interrupted write: it is
    left out, and run_census cuts it off before appending.
    """
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    rows: dict[str, dict] = {}
    for lineno, line in enumerate(data[:end].decode().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object, got {line[:40]}")
        if lineno == 1:
            if record.get("n") != n:
                raise ValueError(f"{path}: census file is for n={record.get('n')}, not n={n}")
            if record.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(
                    f"{path}: schema_version {record.get('schema_version')!r}, "
                    f"expected {SCHEMA_VERSION}"
                )
            continue
        if "graph6" not in record:
            raise ValueError(f"{path}:{lineno}: row has no graph6 field")
        rows.setdefault(record["graph6"], record)
    return rows, end


def _compute_rows(batch: list[tuple[str, tuple, tuple]], workers: int):
    if workers <= 1:
        yield from map(_census_task, batch)
        return
    # leaving the pool terminates its workers at once, so an interrupt such as
    # the CLI's --time-limit neither waits for unfinished chunks nor loses
    # rows already yielded; imap yields rows in batch order
    import multiprocessing  # here, so that calls which start no pool never load it

    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        yield from pool.imap(_census_task, batch, chunksize=_CHUNK)


def _table_warnings(n: int, kind: str, computed: dict, reference: dict) -> list[str]:
    ref = reference.get(n)
    if ref is None:
        return []
    out = []
    for key in sorted(set(ref) | set(computed), key=str):
        want = ref.get(key, 0)
        got = computed.get(key, 0)
        if want != got:
            out.append(
                f"n={n}: published {kind} table lists {want} for {key!r}, census found {got}"
            )
    return out


def run_census(n: int, out_dir, *, workers: int = 1, resume: bool = True) -> CensusSummary:
    """Run (or resume) the hull census for n vertices, writing results to out_dir.

    Produces hulls_n{n}.jsonl (one record per isomorphism class, header line
    first), summary_n{n}.json, and per-distribution CSV files.  A partial
    JSONL from an interrupted run is picked up and completed when resume is
    true; resume=False starts over. With workers > 1 the rows are computed by
    spawned worker processes, so a script calling this needs the usual
    ``if __name__ == "__main__":`` guard.
    """
    if not 1 <= n <= _CENSUS_LIMIT:
        raise UnsupportedParameterError(
            f"census supports 1..{_CENSUS_LIMIT} vertices, got {n}"
        )
    if workers < 1:
        raise ValueError("workers must be at least 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = _jsonl_path(out, n)

    done: dict[str, dict] = {}
    end = 0
    if resume and path.exists():
        done, end = _read_rows(path, n)
    if end:
        os.truncate(path, end)
    else:  # nothing complete to resume from: start the file over
        header = {"schema_version": SCHEMA_VERSION, "n": n}
        path.write_text(json.dumps(header, sort_keys=True) + "\n")

    tasks = [(g6, g.adj, gens) for g, gens, g6 in zip(*_all_graphs_level(n))]
    todo = [task for task in tasks if task[0] not in done]
    if todo:
        # closing leaves the pool as soon as an interrupt ends the loop
        with path.open("a") as fh, closing(_compute_rows(todo, workers)) as computed:
            for row in computed:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
                fh.flush()
                done[row["graph6"]] = row

    rows = [done[g6] for g6, _adj, _generators in tasks]
    return _finalize(n, out, rows)


def _finalize(n: int, out: Path, rows: list[dict]) -> CensusSummary:
    hull_rows = [r for r in rows if r["is_hull"]]
    groups = Counter(r["aut_name"] for r in hull_rows)
    sizes = Counter(r["min_generators"] for r in hull_rows)
    warnings = _table_warnings(n, "group", groups, REFERENCE_GROUP_TABLES)
    warnings += _table_warnings(n, "size", sizes, REFERENCE_SIZE_TABLES)

    summary = CensusSummary(
        n=n,
        graphs=len(rows),
        hulls=len(hull_rows),
        group_distribution=dict(sorted(groups.items())),
        size_distribution=dict(sorted(sizes.items())),
        warnings=tuple(warnings),
    )

    summary_path = out / f"summary_n{n}.json"
    summary_path.write_text(json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")

    with (out / f"groups_n{n}.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "count"])
        for name, count in sorted(groups.items()):
            writer.writerow([name, count])
    with (out / f"sizes_n{n}.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "count"])
        for size, count in sorted(sizes.items()):
            writer.writerow([size, count])

    return summary


def hull_preimages(g: Graph) -> list[Graph]:
    """Graphs (one per isomorphism class on g's vertices) whose hull is g.

    This scans every graph on the same vertex count, so it is only practical
    for the exhaustive-generation range.
    """
    target = canonical_form(g)
    return [x for x in generate_all(g.n) if canonical_form(hull(x)) == target]


def _points(rng: random.Random, n: int):
    """The endless stream of ``rng.randrange(n)`` draws.

    ``randrange(n)`` draws ``getrandbits(k)``, k = n.bit_length(), until the
    draw is below n (Python 3.10 to 3.13); filtering one lazy stream of such
    draws gives the same points without the per-call overhead.
    """
    return filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length())))


def random_sync_trials(
    n: int, trials: int, *, generators: int = 2, seed: int | None = None
) -> dict:
    """Sample random transformation tuples and count how many synchronize."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if generators < 1:
        raise ValueError("generators must be at least 1")
    points = _points(random.Random(seed), n)
    hits = 0
    for _ in range(trials):
        members = [Transformation._of(tuple(islice(points, n))) for _ in range(generators)]
        if is_synchronizing(members):
            hits += 1
    return {
        "n": n,
        "trials": trials,
        "generators": generators,
        "synchronizing": hits,
        "fraction": hits / trials,
    }
