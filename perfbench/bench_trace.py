"""Span tracing of semwalk's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper
in the module namespace where callers look it up (for example
`semwalk.inference.query_distances`, which `classify` resolves through
its module globals) and restores the originals on exit.  Spans stay in
memory as (name, start, end, parent) and are written out once, when the
benchmark ends.  Hot leaf functions (`distance`, `related`) are only
counted, because a timing wrapper would cost more than the call.

A traced function that a later version of the program removes or
renames is reported in `absent` and its metrics read 0; the benchmark
does not fail on it.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

SCHEMA = 1
SPAN_KEYS = ("name", "start", "end", "parent")


def _edge_counts(tracer: "Tracer", graph, _args) -> None:
    tracer.counts["graph.nodes"] += len(graph.nodes)
    for _i, _j, _w, tag in graph.undirected_pairs():
        tracer.counts[f"graph.{tag}_edges"] += 1


def _gmm_fit(tracer: "Tracer", model, args) -> None:
    history = model.log_likelihood_history
    converged = getattr(model, "converged", None)
    if converged is None:
        # Without a recorded flag, a fit stopped on `tol` when it ended
        # before `max_iters` or its last gain was below `tol`.
        converged = len(history) < args["max_iters"] or (
            len(history) > 1 and history[-1] - history[-2] < args["tol"]
        )
    tracer.counts["encoding.train_gmm.iters"] += len(history)
    tracer.counts["encoding.train_gmm.fits"] += 1
    tracer.counts["encoding.train_gmm.converged"] += bool(converged)


def _kmeans_fit(tracer: "Tracer", codebook, _args) -> None:
    tracer.counts["encoding.train_kmeans.iters"] += len(codebook.inertia_history)


def _ranked(tracer: "Tracer", pairs, _args) -> None:
    tracer.counts["graph.rank_global.ranked"] += len(pairs)


def _descriptor_bytes(tracer: "Tracer", _result, args) -> None:
    tracer.counts["dataset.descriptor_bytes"] += os.path.getsize(args["path"])


# (module, function, hook reading counts from the return value and the
# bound arguments).  Order does not matter.
TIMED = [
    ("dataset", "parse_manifest", None),
    ("dataset", "read_descriptor_file", _descriptor_bytes),
    ("semantics", "parse_taxonomy", None),
    ("semantics", "semantic_classes", None),
    ("encoding", "subsample", None),
    ("encoding", "train_kmeans", _kmeans_fit),
    ("encoding", "train_gmm", _gmm_fit),
    ("encoding", "encode", None),
    ("encoding", "load_model", None),
    ("graph", "build_svg", _edge_counts),
    ("graph", "distance_matrix", None),
    ("graph", "rank_global", _ranked),
    ("graph", "rank_local", None),
    ("graph", "normalize_transitions", None),
    ("graph", "load_graph", None),
    ("graph", "with_vectors", None),
    ("inference", "classify", None),
    ("inference", "query_distances", None),
    ("inference", "embed_query", None),
    ("inference", "markov_walk", None),
    ("inference", "class_distribution", None),
    ("baselines", "knn_vote", None),
    ("evaluation", "run_lopo", None),
]

# (module where the name is looked up, name): counted, not timed.
COUNTED = [
    ("semantics", "related"),
    ("inference", "distance"),
    ("baselines", "distance"),
]

HOOKS = "trace.hooks"


class Tracer:
    """Collects spans and counts while installed; single-threaded use."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn, hook):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                # Hook time is its own span so it is not charged to the caller.
                hook_index = self._open(HOOKS)
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, result, bound.arguments)
                except (AttributeError, KeyError, TypeError, ValueError):
                    if f"{name} (counts)" not in self.absent:
                        self.absent.append(f"{name} (counts)")
                finally:
                    self._close(hook_index)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, hook in TIMED:
            self._patch(module_name, attr, lambda fn, n: self._timed(n, fn, hook))
        for module_name, attr in COUNTED:
            self._patch(module_name, attr, lambda fn, n: self._counted(n + ".calls", fn))

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"semwalk.{module_name}")
        name = f"{module_name}.{attr}"
        original = getattr(module, attr, None)
        if original is None:
            if name not in self.absent:
                self.absent.append(name)
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for (name, start, end, _parent), covered in zip(self.spans, child):
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - covered
            row["calls"] += 1
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)

    def write(self, path: Path, meta: dict) -> None:
        """Write a header line, then one JSON object per span (times from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": SCHEMA, "span_keys": list(SPAN_KEYS), **meta}) + "\n")
            for name, start, end, parent in self.spans:
                record = dict(zip(SPAN_KEYS, (name, start - origin, end - origin, parent)))
                fh.write(json.dumps(record) + "\n")
