"""Command line front end.

Graphs travel as graph6 strings, transformations as 1-based bracket lists
like ``[2,1,1]`` (one per line, ``#`` comments allowed).  ``--json`` switches
any subcommand to a single machine-readable JSON object on stdout.  Exit
codes: 0 success, 1 bad input or usage, 2 exhausted budget or time limit.
"""

import argparse
import json as jsonlib
import math
import re
import signal
import sys
from pathlib import Path

from .census import hull_preimages, random_sync_trials, run_census
from .designs import OrthogonalArray, mols_complete, oa_extendible, oa_from_mols, oa_graph
from .errors import BudgetExceededError, KernelGraphsError, ParseError
from .graphs import from_graph6, to_graph6
from .groups import automorphism_group, group_name
from .kernelgraph import closure_kernel_graph, derived_graph, hull, kernel_graph
from .mingen import minimal_generating_set
from .semigroup import close, count_endomorphisms, synchronizing_word
from .transform import parse_transformation_lines


def _read_lines(path: str) -> list[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    return Path(path).read_text().splitlines()


def _read_members(path: str) -> list:
    """The transformations listed in ``path``, of which there must be at least one."""
    members = parse_transformation_lines(_read_lines(path))
    if not members:
        raise ValueError(f"{'standard input' if path == '-' else path}: no transformation found")
    return members


def _bracket(images) -> str:
    return "[" + ",".join(str(x + 1) for x in images) + "]"


def _emit(args, payload: dict, text: str) -> int:
    if args.json:
        print(jsonlib.dumps(payload, sort_keys=True))
    else:
        print(text)
    return 0


def _cmd_kernel_graph(args) -> int:
    members = _read_members(args.file)
    result = closure_kernel_graph(members) if args.closed else kernel_graph(members)
    g6 = to_graph6(result.graph)
    payload = {
        "graph6": g6,
        "n": result.graph.n,
        "edges": result.graph.edge_count,
        "min_rank": result.min_rank,
        "closed": bool(args.closed),
    }
    return _emit(args, payload, f"{g6}\tmin_rank={result.min_rank}")


def _cmd_hull(args) -> int:
    g = from_graph6(args.graph.strip())
    h = hull(g, node_budget=args.node_budget)
    flag = h == g
    payload = {"graph6": to_graph6(h), "is_hull": flag}
    return _emit(args, payload, f"{to_graph6(h)}\tis_hull={str(flag).lower()}")


def _cmd_derived(args) -> int:
    g = from_graph6(args.graph.strip())
    d = derived_graph(g)
    payload = {"graph6": to_graph6(d), "edges": d.edge_count}
    return _emit(args, payload, to_graph6(d))


def _cmd_end_count(args) -> int:
    g = from_graph6(args.graph.strip())
    count = count_endomorphisms(g, node_budget=args.node_budget)
    return _emit(args, {"count": count}, str(count))


def _cmd_aut(args) -> int:
    g = from_graph6(args.graph.strip())
    group = automorphism_group(g, node_budget=args.node_budget)
    name = group_name(group)
    payload = {
        "name": name,
        "order": group.order(),
        "generators": [_bracket(p) for p in group.generators],
    }
    return _emit(args, payload, f"{name}\torder={group.order()}")


def _cmd_mingen(args) -> int:
    g = from_graph6(args.graph.strip())
    gs = minimal_generating_set(
        g, within_endomorphisms=args.endomorphisms, node_budget=args.node_budget
    )
    members = [str(t) for t in gs.transformations]
    kernels = [str(t.kernel()) for t in gs.transformations]
    payload = {
        "size": gs.size,
        "minimal": gs.minimal,
        "lower_bound": gs.lower_bound,
        "method": gs.method,
        "members": members,
        "kernels": kernels,
    }
    head = (
        f"size={gs.size}\tminimal={str(gs.minimal).lower()}"
        f"\tlower_bound={gs.lower_bound}\tmethod={gs.method}"
    )
    body = [f"{m}\t{k}" for m, k in zip(members, kernels)]
    return _emit(args, payload, "\n".join([head] + body))


def _cmd_sync_check(args) -> int:
    members = _read_members(args.file)
    word = synchronizing_word(members)
    payload: dict = {
        "synchronizing": word is not None,
        "word": None if word is None else [i + 1 for i in word],
    }
    if word is None:
        text = "not synchronizing"
    else:
        text = "synchronizing\tword=" + (",".join(str(i + 1) for i in word) or "-")
    if args.closure:
        closure = (
            close(members, cap=args.closure_cap)
            if args.closure_cap is not None
            else close(members)
        )
        payload["closure_size"] = len(closure)
        text += f"\tclosure_size={len(closure)}"
    return _emit(args, payload, text)


def _cmd_census(args) -> int:
    workers = 1 if args.threads is None else args.threads
    summary = run_census(args.n, args.out, workers=workers, resume=not args.no_resume)
    payload = summary.to_dict()
    lines = [f"n={summary.n}\tgraphs={summary.graphs}\thulls={summary.hulls}"]
    lines.append(
        "groups\t" + " ".join(f"{k}={v}" for k, v in summary.group_distribution.items())
    )
    lines.append(
        "sizes\t" + " ".join(f"{k}={v}" for k, v in summary.size_distribution.items())
    )
    for w in summary.warnings:
        lines.append(f"warning\t{w}")
    if args.sync_trials:
        trials = random_sync_trials(
            args.n, args.sync_trials, generators=args.sync_generators, seed=args.seed
        )
        payload["sync_trials"] = trials
        lines.append(
            f"sync\ttrials={trials['trials']}\tsynchronizing={trials['synchronizing']}"
            f"\tfraction={trials['fraction']:.4f}"
        )
    return _emit(args, payload, "\n".join(lines))


def _cmd_preimages(args) -> int:
    g = from_graph6(args.graph.strip())
    pre = [to_graph6(x) for x in hull_preimages(g)]
    payload = {"count": len(pre), "graphs": pre}
    return _emit(args, payload, "\n".join(pre) if pre else "none")


def _square_rows(square) -> list[list[int]]:
    return [list(row) for row in square.rows]


def _cmd_designs_mols(args) -> int:
    squares = mols_complete(args.n)
    payload = {
        "n": args.n,
        "count": len(squares),
        "squares": [_square_rows(s) for s in squares],
    }
    blocks = []
    for s in squares:
        blocks.append("\n".join(" ".join(str(x) for x in row) for row in s.rows))
    return _emit(args, payload, "\n\n".join(blocks))


def _cmd_designs_oa(args) -> int:
    oa = oa_from_mols(mols_complete(args.n))
    payload = {"n": oa.n, "k": oa.k, "rows": [list(r) for r in oa.rows]}
    text = "\n".join(" ".join(str(x) for x in row) for row in oa.rows)
    return _emit(args, payload, text)


def _read_oa(path: str) -> OrthogonalArray:
    rows = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        row = []
        for tok in re.finditer(r"\S+", raw):
            try:
                row.append(int(tok.group()))
            except ValueError:
                raise ParseError(
                    f"bad symbol {tok.group()!r}", line=lineno, column=tok.start() + 1
                ) from None
        rows.append(row)
    if not rows:
        raise ValueError("no array rows in input")
    n = math.isqrt(len(rows[0]))
    if n * n != len(rows[0]):
        raise ValueError(f"row length {len(rows[0])} is not a perfect square")
    return OrthogonalArray(n, rows)


def _cmd_designs_oa_graph(args) -> int:
    oa = _read_oa(args.file)
    g = oa_graph(oa)
    payload = {"graph6": to_graph6(g), "n": oa.n, "k": oa.k}
    return _emit(args, payload, f"{to_graph6(g)}\tn={oa.n}\tk={oa.k}")


def _cmd_designs_extendible(args) -> int:
    oa = _read_oa(args.file)
    row = oa_extendible(oa, node_budget=args.node_budget)
    payload = {"row": None if row is None else list(row)}
    text = "none" if row is None else " ".join(str(x) for x in row)
    return _emit(args, payload, text)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, leaving 2 for exhausted budgets."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """Type of a flag whose value is an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


def _common_options(*, for_subcommand: bool) -> argparse.ArgumentParser:
    # Subparsers re-apply their own defaults over values the top parser has
    # already set, so the copies attached to subcommands must SUPPRESS theirs.
    def default(value):
        return argparse.SUPPRESS if for_subcommand else value

    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("shared options")
    g.add_argument(
        "--json", action="store_true", default=default(False), help="emit one JSON object"
    )
    g.add_argument(
        "--seed", type=int, default=default(None), help="seed for randomized commands"
    )
    g.add_argument(
        "--threads", type=int, default=default(None), help="census worker processes (default 1)"
    )
    g.add_argument(
        "--closure-cap",
        type=_at_least(0),
        default=default(None),
        help="element cap when a closure is materialized",
    )
    g.add_argument(
        "--node-budget",
        type=_at_least(0),
        default=default(None),
        help="search node cap for the whole call, summed over its searches",
    )
    g.add_argument(
        "--time-limit",
        type=float,
        default=default(None),
        help="wall clock limit in seconds",
    )
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common_options(for_subcommand=True)
    parser = _Parser(
        prog="kernelgraphs",
        description="Kernel graphs of transformation semigroups and their generating sets.",
        epilog=(
            "input formats: graphs are graph6 strings; transformations are "
            "1-based bracket lists like [3,3,4,3], one per line, blank lines "
            "and # comments skipped; composition acts self first, so (fg)(x) "
            "= g(f(x)); Latin squares are whitespace-separated grids of "
            "symbols 1..n; orthogonal arrays are one row of n*n symbols per "
            "line. See FORMATS.md for the full grammar."
        ),
        parents=[_common_options(for_subcommand=False)],
    )
    # subcommands record the budget, seed and thread flags they read; main rejects the rest
    parser.set_defaults(budgets=())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "kernel-graph", parents=[common], help="kernel graph of a transformation set"
    )
    p.add_argument("file", nargs="?", default="-", help="transformation file, - for stdin")
    p.add_argument(
        "--closed",
        action="store_true",
        help="use the generated semigroup instead of just the listed maps",
    )
    p.set_defaults(func=_cmd_kernel_graph)

    p = sub.add_parser("hull", parents=[common], help="hull of a graph")
    p.add_argument("graph", help="graph6 text")
    p.set_defaults(func=_cmd_hull, budgets=("node_budget",))

    p = sub.add_parser("derived", parents=[common], help="derived graph on the same vertices")
    p.add_argument("graph", help="graph6 text")
    p.set_defaults(func=_cmd_derived)

    p = sub.add_parser("end-count", parents=[common], help="number of endomorphisms")
    p.add_argument("graph", help="graph6 text")
    p.set_defaults(func=_cmd_end_count, budgets=("node_budget",))

    p = sub.add_parser("aut", parents=[common], help="automorphism group name and order")
    p.add_argument("graph", help="graph6 text")
    p.set_defaults(func=_cmd_aut, budgets=("node_budget",))

    p = sub.add_parser("mingen", parents=[common], help="minimal generating set for a graph")
    p.add_argument("graph", help="graph6 text")
    p.add_argument(
        "--endomorphisms",
        action="store_true",
        help="restrict members to endomorphisms of the graph",
    )
    p.set_defaults(func=_cmd_mingen, budgets=("node_budget",))

    p = sub.add_parser("sync-check", parents=[common], help="synchronization check")
    p.add_argument("file", nargs="?", default="-", help="transformation file, - for stdin")
    p.add_argument(
        "--closure",
        action="store_true",
        help="also materialize the closure and report its size",
    )
    p.set_defaults(
        func=_cmd_sync_check, budgets=lambda a: ("closure_cap",) if a.closure else ()
    )

    p = sub.add_parser("census", parents=[common], help="hull census for n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-resume", action="store_true", help="ignore any partial run")
    p.add_argument(
        "--sync-trials", type=_at_least(0), default=0, help="random synchronization trials"
    )
    p.add_argument(
        "--sync-generators", type=_at_least(1), default=2, help="maps per synchronization trial"
    )
    p.set_defaults(func=_cmd_census, budgets=("threads", "seed"))

    p = sub.add_parser("preimages", parents=[common], help="graphs whose hull is the input")
    p.add_argument("graph", help="graph6 text")
    p.set_defaults(func=_cmd_preimages)

    p = sub.add_parser("designs", parents=[common], help="Latin square and array tools")
    ds = p.add_subparsers(dest="design_command", required=True)

    q = ds.add_parser("mols", parents=[common], help="complete set of MOLS of prime power order")
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_designs_mols)

    q = ds.add_parser("oa", parents=[common], help="full orthogonal array from the MOLS set")
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_designs_oa)

    q = ds.add_parser("oa-graph", parents=[common], help="column graph of an array")
    q.add_argument("file", nargs="?", default="-", help="array rows, - for stdin")
    q.set_defaults(func=_cmd_designs_oa_graph)

    q = ds.add_parser("extendible", parents=[common], help="find a row extending an array")
    q.add_argument("file", nargs="?", default="-", help="array rows, - for stdin")
    q.set_defaults(func=_cmd_designs_extendible, budgets=("node_budget",))

    return parser


def _reject_unread_budgets(args) -> None:
    read = args.budgets(args) if callable(args.budgets) else args.budgets
    for dest in ("node_budget", "closure_cap", "threads", "seed"):
        if getattr(args, dest) is not None and dest not in read:
            command = " ".join(filter(None, (args.command, getattr(args, "design_command", ""))))
            raise ValueError(f"{command} does not read --{dest.replace('_', '-')}")


def _arm_time_limit(seconds: float) -> None:
    """Raise BudgetExceededError from the SIGALRM handler after ``seconds``."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"--time-limit must be a positive finite number of seconds, not {seconds}")

    def on_alarm(signum, frame):
        raise BudgetExceededError("time", seconds, "wall clock limit hit")

    signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
    except (OverflowError, OSError) as exc:
        raise ValueError(f"--time-limit {seconds} is refused by the platform timer: {exc}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # armed inside the try, so an alarm that fires at once still exits 2
        if args.time_limit is not None:
            _arm_time_limit(args.time_limit)
        _reject_unread_budgets(args)
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KernelGraphsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.time_limit is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)


if __name__ == "__main__":
    sys.exit(main())
