"""Spans around calls into the kernelgraphs layers, recorded from outside.

The tracer replaces, in every ``kernelgraphs`` module, each binding of a
target function (the defining module's own global and every ``from .x import
f`` copy) with a wrapper that records one span per call: name, start, end,
parent span, request id and a small outcome (a bool or a size).  Spans stay
in memory; ``layer_metrics`` turns them into per-layer self times and
boundary counts at the end of the run.

A target that no longer exists (after a refactor renames or merges it) is
skipped with a warning, and every metric that depends on it is dropped from
the output instead of being reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time


def _found(result):
    return result is not None


def _opaque(name):
    # order-based labels such as G384#1b2cd5 (or plain G384) carry no structure
    return name[:1] == "G" and name[1:2].isdigit()


def _mingen_span(args, kwargs):
    endo = kwargs.get("within_endomorphisms", False)
    return "mingen.minimal_generating_set." + ("endo" if endo else "free")


# (module, attribute, outcome recorded on return).  Methods are given as "Class.method".
TARGETS = [
    ("graphs", "generate_all", None),
    ("graphs", "canonical_form", None),
    ("graphs", "canonical_permutation", None),
    ("graphs", "automorphisms", len),
    ("graphs", "clique_number", None),
    ("graphs", "max_clique", None),
    ("graphs", "chromatic_number", None),
    ("graphs", "k_color", None),
    ("groups", "automorphism_group", None),
    ("groups", "PermGroup._stabilizer_chain", None),
    ("groups", "group_name", _opaque),
    ("groups", "_catalog", None),
    ("semigroup", "exists_homomorphism", bool),
    ("semigroup", "homomorphisms_iter", None),
    ("semigroup", "endomorphisms_iter", None),
    ("semigroup", "count_homomorphisms", None),
    ("semigroup", "count_endomorphisms", None),
    ("semigroup", "close", len),
    ("semigroup", "is_synchronizing", bool),
    ("semigroup", "synchronizing_word", _found),
    ("semigroup", "_pair_collapse_table", None),
    ("semigroup", "min_rank_of_generators", None),
    ("semigroup", "collapsible", bool),
    ("kernelgraph", "hull", None),
    ("kernelgraph", "is_hull", bool),
    ("mingen", "minimal_generating_set", None),
    ("mingen", "lattice_generators", None),
    ("mingen", "matching_generators", None),
    ("mingen", "union_complete_generators", None),
    ("mingen", "hamming_complement_generators", None),
    ("mingen", "hamming_distance_generators", None),
    ("mingen", "matching_minimum_size", None),
    ("mingen", "_matching_refuted", None),
    ("designs", "mols_complete", None),
    ("designs", "cyclic_square", None),
    ("designs", "oa_from_mols", None),
    ("designs", "oa_graph", None),
    ("designs", "oa_extendible", _found),
    ("census", "run_census", None),
    ("census", "_census_entry", None),
]

SPAN_NAMES = {
    ("mingen", "minimal_generating_set"): _mingen_span,
}

# calls that start a sub-request of the current one: one census graph each
REQUESTS = {
    ("census", "_census_entry"): lambda args, kwargs: args[0],
}

# requests left out of the counts and ratios (their time is still measured)
UNCOUNTED = {"setup.aut", "probe"}

# metric -> span names whose self time it sums
SELF_TIME = {
    "graphs.generate_s": ["graphs.generate_all"],
    "graphs.canonical_s": ["graphs.canonical_form", "graphs.canonical_permutation"],
    "graphs.automorphisms_s": ["graphs.automorphisms"],
    "graphs.clique_s": ["graphs.clique_number", "graphs.max_clique"],
    "graphs.coloring_s": ["graphs.chromatic_number", "graphs.k_color"],
    "groups.aut_s": ["groups.automorphism_group", "groups.PermGroup._stabilizer_chain"],
    "groups.name_s": ["groups.group_name"],
    "groups.catalog_s": ["groups._catalog"],
    "semigroup.exists_s": ["semigroup.exists_homomorphism"],
    "semigroup.iter_s": ["semigroup.homomorphisms_iter", "semigroup.endomorphisms_iter"],
    "semigroup.count_s": ["semigroup.count_homomorphisms", "semigroup.count_endomorphisms"],
    "semigroup.closure_s": ["semigroup.close"],
    "semigroup.sync_s": [
        "semigroup.is_synchronizing",
        "semigroup.synchronizing_word",
        "semigroup._pair_collapse_table",
    ],
    "semigroup.min_rank_s": ["semigroup.min_rank_of_generators"],
    "kernelgraph.hull_s": ["kernelgraph.hull", "kernelgraph.is_hull", "semigroup.collapsible"],
    "mingen.endo_s": ["mingen.minimal_generating_set.endo"],
    "mingen.free_s": ["mingen.minimal_generating_set.free"],
    "mingen.construct_s": [
        "mingen.lattice_generators",
        "mingen.matching_generators",
        "mingen.union_complete_generators",
        "mingen.hamming_complement_generators",
        "mingen.hamming_distance_generators",
    ],
    "mingen.refute_s": ["mingen.matching_minimum_size", "mingen._matching_refuted"],
    "designs.s": [
        "designs.mols_complete",
        "designs.cyclic_square",
        "designs.oa_from_mols",
        "designs.oa_graph",
        "designs.oa_extendible",
    ],
    "census.self_s": ["census.run_census", "census._census_entry"],
}

# derived metric -> the spans it reads, for dropping it when one is missing
DERIVED = {
    "graphs.generate_canon_calls": ["graphs.generate_all", "graphs.canonical_form"],
    "graphs.generate_new_ratio": ["graphs.generate_all", "graphs.canonical_form"],
    "graphs.canonical_calls": ["graphs.canonical_form"],
    "graphs.automorphisms_elements": ["graphs.automorphisms"],
    "groups.name_calls": ["groups.group_name"],
    "groups.name_opaque": ["groups.group_name"],
    "semigroup.exists_calls": ["semigroup.exists_homomorphism"],
    "semigroup.exists_true_ratio": ["semigroup.exists_homomorphism"],
    "semigroup.closure_elements": ["semigroup.close"],
    "semigroup.sync_true_ratio": ["semigroup.is_synchronizing", "semigroup.synchronizing_word"],
    "kernelgraph.hull_pairs": ["semigroup.collapsible"],
    "kernelgraph.hull_found_s": ["semigroup.collapsible"],
    "kernelgraph.hull_refuted_s": ["semigroup.collapsible"],
    "kernelgraph.hull_found_ratio": ["semigroup.collapsible"],
    "mingen.endo_filter_calls": ["mingen.minimal_generating_set.endo", "semigroup.exists_homomorphism"],
    "mingen.endo_filter_true_ratio": [
        "mingen.minimal_generating_set.endo",
        "semigroup.exists_homomorphism",
    ],
    "mingen.refute_unproved": ["mingen.matching_minimum_size"],
    "census.rows": ["census.run_census", "kernelgraph.is_hull"],
    "census.hull_rows": ["census.run_census", "kernelgraph.is_hull"],
}

# span fields
NAME, START, END, PARENT, REQUEST, OUTCOME = range(6)


class Tracer:
    """Records spans; ``request`` is set by the caller before each request."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = "setup"
        self.paused = False
        self.missing: list[str] = []

    # -- recording

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, self.request, None]
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, outcome, request=None):
        tracer = self
        namer = name if callable(name) else (lambda args, kwargs: name)

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so time spent by the consumer between
            # items is not charged to the generator

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if tracer.paused:
                    yield from fn(*args, **kwargs)
                    return
                span_name = namer(args, kwargs)
                it = fn(*args, **kwargs)
                while True:
                    span = tracer._open(span_name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    span[OUTCOME] = True
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            outer_request = tracer.request
            if request is not None:
                tracer.request = f"{outer_request}:{request(args, kwargs)}"
            span = tracer._open(namer(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[OUTCOME] = "!" + type(exc).__name__
                raise
            finally:
                tracer._close(span)
                tracer.request = outer_request
            if outcome is not None:
                span[OUTCOME] = outcome(result)
            return result

        return traced

    def install(self):
        """Wrap every target in every kernelgraphs module; warn on misses."""
        package = importlib.import_module("kernelgraphs")
        modules = [package] + [
            importlib.import_module(f"kernelgraphs.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module_name, attr, outcome in TARGETS:
            name = f"{module_name}.{attr}"
            owner = sys.modules.get(f"kernelgraphs.{module_name}")
            cls_name, _, method = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                print(f"perfbench: trace target {name} not found; "
                      "its metrics are dropped", file=sys.stderr)
                continue
            key = (module_name, attr)
            wrapped = self.wrap(original, SPAN_NAMES.get(key, name), outcome, REQUESTS.get(key))
            if cls_name:
                setattr(owner, method, wrapped)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- aggregation

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        self_time: dict[str, float] = {}
        for i, span in enumerate(spans):
            name = span[NAME]
            self_time[name] = self_time.get(name, 0.0) + span[END] - span[START] - child[i]
        # counts and ratios cover the workload's own requests only
        work = [s for s in spans if s[REQUEST].partition(":")[0] not in UNCOUNTED]
        count: dict[str, int] = {}
        true: dict[str, int] = {}
        for span in work:
            name = span[NAME]
            count[name] = count.get(name, 0) + 1
            if span[OUTCOME] is True:
                true[name] = true.get(name, 0) + 1

        def parent_name(span):
            return spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None

        def under(span, name):
            while span[PARENT] >= 0:
                span = spans[span[PARENT]]
                if span[NAME] == name:
                    return True
            return False

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self_time.get(n, 0.0) for n in names)

        generated = true.get("graphs.generate_all", 0)
        gen_canon = sum(
            1 for s in work
            if s[NAME] == "graphs.canonical_form" and parent_name(s) == "graphs.generate_all"
        )
        out["graphs.generate_canon_calls"] = gen_canon
        out["graphs.generate_new_ratio"] = ratio(generated, gen_canon)
        out["graphs.canonical_calls"] = count.get("graphs.canonical_form", 0)
        out["graphs.automorphisms_elements"] = sum(
            s[OUTCOME] for s in work if s[NAME] == "graphs.automorphisms" and
            isinstance(s[OUTCOME], int) and not isinstance(s[OUTCOME], bool)
        )
        out["groups.name_calls"] = count.get("groups.group_name", 0)
        out["groups.name_opaque"] = true.get("groups.group_name", 0)
        exists = count.get("semigroup.exists_homomorphism", 0)
        out["semigroup.exists_calls"] = exists
        out["semigroup.exists_true_ratio"] = ratio(true.get("semigroup.exists_homomorphism", 0), exists)
        out["semigroup.closure_elements"] = sum(
            s[OUTCOME] for s in work if s[NAME] == "semigroup.close" and isinstance(s[OUTCOME], int)
        )
        sync_names = ("semigroup.is_synchronizing", "semigroup.synchronizing_word")
        out["semigroup.sync_true_ratio"] = ratio(
            sum(true.get(n, 0) for n in sync_names), sum(count.get(n, 0) for n in sync_names)
        )
        pairs = [s for s in spans if s[NAME] == "semigroup.collapsible"]
        out["kernelgraph.hull_found_s"] = sum(s[END] - s[START] for s in pairs if s[OUTCOME] is True)
        out["kernelgraph.hull_refuted_s"] = sum(
            s[END] - s[START] for s in pairs if s[OUTCOME] is False
        )
        out["kernelgraph.hull_pairs"] = count.get("semigroup.collapsible", 0)
        out["kernelgraph.hull_found_ratio"] = ratio(
            true.get("semigroup.collapsible", 0), out["kernelgraph.hull_pairs"])
        endo = "mingen.minimal_generating_set.endo"
        filt = [s for s in work
                if s[NAME] == "semigroup.exists_homomorphism" and parent_name(s) == endo]
        out["mingen.endo_filter_calls"] = len(filt)
        out["mingen.endo_filter_true_ratio"] = ratio(sum(s[OUTCOME] is True for s in filt), len(filt))
        out["mingen.refute_unproved"] = sum(
            1 for s in work
            if s[NAME] == "mingen.matching_minimum_size" and s[OUTCOME] == "!BudgetExceededError"
        )
        rows = [s for s in work if s[NAME] == "kernelgraph.is_hull" and under(s, "census.run_census")]
        out["census.rows"] = len(rows)
        out["census.hull_rows"] = sum(s[OUTCOME] is True for s in rows)

        def lost(names):
            return any(n == m or n.startswith(m + ".") for n in names for m in self.missing)

        dropped = {m for m, names in [*SELF_TIME.items(), *DERIVED.items()] if lost(names)}
        return {k: v for k, v in out.items() if k not in dropped}
