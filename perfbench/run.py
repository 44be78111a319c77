"""Benchmark for kernelgraphs: end-to-end metrics, or per-layer metrics traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload census7 --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``census7``    ``python -m kernelgraphs.cli census 7 --out DIR --no-resume``
* ``families``   hull, Aut, canonical form, minimal generating set and
                 endomorphism counts of the paper's structured families
* ``semigroups`` synchronization trials, the T6 closure, kernel-graph checks
                 and the generating-set and design constructions
* ``all``        the three above in turn, for a person reading the numbers

Every repetition runs in a fresh interpreter with ``PYTHONPATH=src`` and one
worker.  A run first times ``SETUP_CALLS`` fresh ``kernelgraphs.cli aut @``
calls, then repeats the workload until ``--seconds`` have passed and at least
``MIN_REPS`` times, and reports medians.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload once untraced and once traced and
prints the per-layer metrics and the tracing overhead.  Every output is checked against
``perfbench/reference.json`` or the benchmark's own code; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import ops

WORKLOADS = ("census7", "families", "semigroups")
SETUP_CALLS = 3
# a median over one repetition is too noisy on a shared 2-core machine
MIN_REPS = 2
RUN_DEADLINE_S = 170  # a run must end within 180 s

# per-operation metric -> (unit, workload); the *_per_s ones are rates
OP_METRICS = {
    "census_s": ("s", "census7"),
    "hull_s": ("s", "families"),
    "aut_s": ("s", "families"),
    "canon_s": ("s", "families"),
    "mingen_s": ("s", "families"),
    "endcount_s": ("s", "families"),
    "sync_trials_per_s": ("1/s", "semigroups"),
    "closure_elements_per_s": ("1/s", "semigroups"),
    "kernel_checks_per_s": ("1/s", "semigroups"),
    "constructions_s": ("s", "semigroups"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


@dataclass
class Rep:
    """One repetition: per-operation records, and what the parent measured."""

    records: list[dict]
    child_s: float  # wall time of the child process
    rss_mb: float
    import_s: float = 0.0
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Time in the workload's operations, set-up call excluded."""
        return sum(r["seconds"] for r in self.records if r["group"] in OP_METRICS)


class Bench:
    def __init__(self, root: Path):
        self.root = root
        self.work = root / ".perfbench"
        self.work.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def child(self, argv: list[str], timeout: float):
        """Run a fresh interpreter; returns (exit code, stdout, stderr, wall s, peak RSS MB)."""
        with tempfile.TemporaryDirectory(dir=self.work) as tmp:
            out_path, err_path = Path(tmp, "out"), Path(tmp, "err")
            with out_path.open("w") as out, err_path.open("w") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, *argv], stdout=out, stderr=err, env=self.env, cwd=self.root
                )
                timer = threading.Timer(max(timeout, 0.1), proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    timer.cancel()
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            return (proc.returncode, out_path.read_text(), err_path.read_text(),
                    wall, usage.ru_maxrss / 1024)

    def setup_call(self, deadline: float) -> dict:
        code, out, err, wall, _ = self.child(
            ["-m", "kernelgraphs.cli", "aut", "@", "--json"], deadline - time.monotonic())
        return {"name": "setup.cli", "group": "setup", "work": 1, "seconds": wall,
                "error": _checked(code, out, err, ops.check_setup)}

    def census_rep(self, deadline: float) -> Rep:
        with tempfile.TemporaryDirectory(dir=self.work) as out_dir:
            code, out, err, wall, rss = self.child(
                ["-m", "kernelgraphs.cli", "census", "7", "--out", out_dir, "--no-resume", "--json"],
                deadline - time.monotonic())
        record = {"name": "census7", "group": "census_s", "work": 1, "seconds": wall,
                  "error": _checked(code, out, err, ops.check_census)}
        return Rep([record], wall, rss)

    def worker_rep(self, workload: str, seed: int, deadline: float, trace: bool = False) -> Rep:
        with tempfile.TemporaryDirectory(dir=self.work) as out_dir:
            argv = [str(Path(__file__).parent / "worker.py"),
                    "--workload", workload, "--seed", str(seed), "--out", out_dir]
            if trace:
                argv += ["--trace", str(self.work / f"spans-{workload}.jsonl")]
            code, out, err, wall, rss = self.child(argv, deadline - time.monotonic())
        sys.stderr.write(err[-2000:])  # warnings, such as a trace target gone missing
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            reason = "timeout or crash" if code else "no result"
            record = {"name": f"{workload}.worker", "group": None, "work": 1, "seconds": wall,
                      "error": f"worker exit {code}: {reason}"}
            return Rep([record], wall, rss)
        return Rep(result["ops"], wall, rss, result["import_s"], result.get("layers", {}))

    def rep(self, workload: str, seed: int, deadline: float) -> Rep:
        if workload == "census7":
            return self.census_rep(deadline)
        return self.worker_rep(workload, seed, deadline)


def _checked(code: int, out: str, err: str, check) -> str | None:
    """None when the CLI call succeeded and its JSON passes the check."""
    if code < 0:
        return f"killed by signal {-code}: over the run's {RUN_DEADLINE_S} s deadline"
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}"
    try:
        check(json.loads(out.strip().splitlines()[-1]))
    except ops.CheckFailed as exc:
        return f"check: {exc}"
    except (IndexError, ValueError) as exc:
        return f"unreadable output: {exc}"
    return None


def op_metrics(workload: str, reps: list[Rep]) -> dict[str, float]:
    """Median over repetitions of each per-operation metric of the workload."""
    out = {}
    for name, (_unit, owner) in OP_METRICS.items():
        if owner != workload:
            continue
        values = []
        for rep in reps:
            mine = [r for r in rep.records if r["group"] == name]
            seconds = sum(r["seconds"] for r in mine)
            if mine:
                values.append(sum(r["work"] for r in mine) / seconds if name.endswith("_per_s")
                              else seconds)
        if values:
            out[name] = statistics.median(values)
    return out


def counts(records: list[dict]) -> tuple[int, int]:
    failed = [r for r in records if r["error"]]
    for r in failed:
        print(f"FAILED {r['name']}: {r['error']}", file=sys.stderr)
    return len(records), len(failed)


def timed_run(bench: Bench, workload: str, seed: int, seconds: float):
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = [bench.setup_call(deadline) for _ in range(SETUP_CALLS)]
    reps: list[Rep] = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        if reps and time.monotonic() + 1.5 * reps[-1].child_s > deadline:
            break
        reps.append(bench.rep(workload, seed, deadline))
    attempted, failed = counts(setup + [r for rep in reps for r in rep.records])
    per_op = op_metrics(workload, reps)
    metrics = {
        "setup_s": statistics.median(r["seconds"] for r in setup),
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "peak_rss_mb": max(rep.rss_mb for rep in reps),
        "success_rate": 1 - failed / attempted,
    }
    detail = dict(per_op, error_rate=failed / attempted, repetitions=len(reps))
    return metrics, detail, attempted, failed


def traced_run(bench: Bench, workload: str, seed: int):
    deadline = time.monotonic() + RUN_DEADLINE_S
    plain = bench.worker_rep(workload, seed, deadline)
    traced = bench.worker_rep(workload, seed, deadline, trace=True)
    attempted, failed = counts(plain.records + traced.records)
    metrics = dict(traced.layers)
    metrics["setup.import_s"] = traced.import_s
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    detail = dict(op_metrics(workload, [plain]), traced_wall_s=traced.wall_s,
                  untraced_wall_s=plain.wall_s)
    return metrics, detail, attempted, failed


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in OP_METRICS:
        return OP_METRICS[name][0]
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith(("ratio", "rate")) else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "kernelgraphs" / "__init__.py").is_file():
        print("perfbench: no kernelgraphs sources under src/; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(root)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        if args.trace:
            metrics, detail, attempted, failed = traced_run(bench, workload, args.seed)
        else:
            metrics, detail, attempted, failed = timed_run(bench, workload, args.seed, args.seconds)
        print(f"# workload {workload} seed {args.seed} trace {args.trace}")
        for name, value in {**metrics, **detail}.items():
            print(f"{workload}\t{name}\t{value:.6g}\t{unit_of(name)}")
        prefix = f"{workload}." if args.workload == "all" else ""
        total["metrics"].update(
            {prefix + k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()})
        total["attempted"] += attempted
        total["failed"] += failed
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
