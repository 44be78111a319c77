"""One repetition of a workload, in a fresh interpreter.

Run from the checkout root with ``PYTHONPATH=src``::

    python perfbench/worker.py --workload families --seed 1 --out DIR [--trace SPANS]

Runs the CLI set-up call, then every operation of the workload, each under a
wall-clock cap, and prints one JSON line with each operation's time and
outcome.  With ``--trace`` the kernelgraphs layers are wrapped first, a probe
touches every wrapped function after the set-up call, the spans are written
to SPANS, and the line also holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import time


class OpTimeout(Exception):
    pass


class Caps:
    """SIGALRM-based cap; an alarm outside an armed call is ignored."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise OpTimeout()

    def call(self, fn, arg, cap_s):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            return fn(*arg)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def run_ops(ops, tracer, caps) -> list[dict]:
    from ops import CheckFailed

    records = []
    for op in ops:
        record = {"name": op.name, "group": op.group, "work": op.work, "error": None}
        if tracer is not None:
            tracer.request = op.name
            tracer.stack.clear()
        start = time.perf_counter()
        try:
            result = caps.call(op.run, (), op.cap_s)
        except OpTimeout:
            record["error"] = f"timeout: over the {op.cap_s} s cap"
        except Exception as exc:  # a failed operation is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - start
        if record["error"] is None:
            if tracer is not None:
                tracer.paused = True
            try:
                caps.call(op.check, (result,), op.cap_s)
            except CheckFailed as exc:
                record["error"] = f"check: {exc}"
            except OpTimeout:
                record["error"] = f"check timeout: over the {op.cap_s} s cap"
            except Exception as exc:
                record["error"] = f"check raised {type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.paused = False
        records.append(record)
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="fresh directory for census output")
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    args = parser.parse_args()

    start = time.perf_counter()
    import kernelgraphs as K
    import kernelgraphs.cli  # noqa: F401  (the CLI layer, as a user loads it)
    import_s = time.perf_counter() - start

    import ops

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    caps = Caps()
    first = [ops.setup_op(K)] + ([ops.probe_op(K, args.out)] if tracer is not None else [])
    records = run_ops(first, tracer, caps)
    records += run_ops(ops.build(args.workload, K, args.seed, args.out), tracer, caps)
    result = {"import_s": import_s, "ops": records}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
