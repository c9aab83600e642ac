"""The benchmark's workloads: generated inputs, timed phases, output checks, metrics.

Each workload drives semwalk's public API from outside, the way the
`evaluate` and `classify` commands do.  A run first generates its inputs
from the seed (untimed), then either

* untraced: after an untimed warm-up set-up, repeats (in a forked child
  process: set up `setups_per_pass` times, run the timed phase once)
  until at least `seconds` of timed phases have been measured;
  `setup_s` is the median set-up, or
* traced: sets up and runs the timed phase once untraced, then once more
  with the tracer installed; per-layer numbers come from the second
  pass and `trace.overhead_s` is the difference of the two wall times.

Every pass is checked: each prediction is a class of the planted
partition, every `sembed` distribution is non-negative and sums to 1,
every query has exactly one record, accuracy clears a planted-data
floor, and the predictions hash the same in every pass.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import multiprocessing
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import bench_data
from bench_trace import Tracer
from semwalk import dataset, encoding, evaluation, graph, inference, semantics

MODE = "as"
# Planted clusters are well separated (chance is 1 in 10 classes); every
# pipeline here scores about 0.88, so a score below this means broken output.
ACCURACY_FLOOR = 0.6
SUM_TOLERANCE = 1e-9
BLOCKS = 10
# A set-up plus one pass takes seconds; a child still busy after this has hung.
CYCLE_TIMEOUT_S = 150
MODULES = ("dataset", "semantics", "encoding", "graph", "inference", "baselines")


@dataclass(frozen=True)
class Scale:
    """Input sizes; the smoke test runs the same code on a tiny scale."""

    bow_videos: int = 480
    fv_videos: int = 320
    stream_train_videos: int = 400
    stream_queries: int = 1000
    setups_per_pass: int = 1
    shape: bench_data.Shape = bench_data.Shape()


FULL = Scale()

# name -> why the workload was chosen (one line, also in BENCHMARK.json)
WORKLOADS = {
    "lopo-sembed-bow": "run_lopo sembed+bow(64) on 480 videos: graph build and per-query walk "
    "dominate and EM never runs; graph/walk changes should show here",
    "lopo-knn-fv": "run_lopo knn+fv(10) on 320 videos: EM dominates and no graph or walk code "
    "runs; encoder changes show here, graph/walk changes must not",
    "classify-stream": "classify 1000 fresh queries one at a time (read, encode, classify) against "
    "a 400-video graph, loaders on the setup path; single-query latency",
}

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"),
]

PER_LAYER = [
    ("dataset.parse_manifest.s", "s"),
    ("dataset.read_descriptor_file.s", "s"),
    ("dataset.read_descriptor_file.calls", "count"),
    ("dataset.descriptor_bytes", "bytes"),
    ("dataset.self_s", "s"),
    ("semantics.parse_taxonomy.s", "s"),
    ("semantics.semantic_classes.s", "s"),
    ("semantics.related.calls", "count"),
    ("semantics.self_s", "s"),
    ("encoding.subsample.s", "s"),
    ("encoding.train_kmeans.self_s", "s"),
    ("encoding.train_kmeans.iters", "count"),
    ("encoding.train_gmm.self_s", "s"),
    ("encoding.train_gmm.iters", "count"),
    ("encoding.train_gmm.converged_ratio", "ratio"),
    ("encoding.encode.s", "s"),
    ("encoding.encode.calls", "count"),
    ("encoding.load_model.s", "s"),
    ("encoding.self_s", "s"),
    ("graph.build_svg.self_s", "s"),
    ("graph.distance_matrix.s", "s"),
    ("graph.rank_global.s", "s"),
    ("graph.rank_global.used_ratio", "ratio"),
    ("graph.rank_local.s", "s"),
    ("graph.nodes", "count"),
    ("graph.semantic_edges", "count"),
    ("graph.visual_edges", "count"),
    ("graph.normalize_transitions.s", "s"),
    ("graph.load_graph.s", "s"),
    ("graph.with_vectors.s", "s"),
    ("graph.self_s", "s"),
    ("inference.classify.self_s", "s"),
    ("inference.classify.calls", "count"),
    ("inference.query_distances.s", "s"),
    ("inference.distance.calls", "count"),
    ("inference.embed_query.s", "s"),
    ("inference.markov_walk.s", "s"),
    ("inference.class_distribution.s", "s"),
    ("inference.self_s", "s"),
    ("baselines.knn_vote.s", "s"),
    ("baselines.distance.calls", "count"),
    ("baselines.self_s", "s"),
    ("evaluation.run_lopo.self_s", "s"),
    ("process.minor_faults", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.hooks_s", "s"),
    ("trace.unattributed_s", "s"),
]


@dataclass
class Run:
    """What one benchmark run measured and what its checks found."""

    prepare_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    ops: list[tuple[float, float, int]] = field(default_factory=list)  # start, end, answered
    accuracy: list[float] = field(default_factory=list)
    digests: list[tuple[str, str]] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


@dataclass
class Workload:
    """A workload once its inputs exist: how to set up and run one pass.

    `setup()` returns the state a pass needs; `one_pass(state, run)`
    returns the pass wall time and rows of (segment_id, predicted class,
    distribution), appending (start, end, queries answered) of each
    operation to `run.ops`.
    """

    setup: Callable[[], object]
    one_pass: Callable[[object, "Run"], tuple[float, list]]
    truth: dict[str, str]
    check_distributions: bool
    classes: frozenset[str]  # the planted partition's class names


def _check_pass(run: Run, work: Workload, rows: list) -> None:
    expected = len(work.truth)
    run.attempted += expected
    seen: set[str] = set()
    correct = 0
    for segment_id, predicted, dist in rows:
        ok = segment_id in work.truth and segment_id not in seen and predicted in work.classes
        seen.add(segment_id)
        if ok and work.check_distributions:
            ok = (
                set(dist) <= work.classes
                and all(p >= 0.0 for p in dist.values())
                and abs(math.fsum(dist.values()) - 1.0) <= SUM_TOLERANCE
            )
        run.failed += not ok
        correct += ok and predicted == work.truth[segment_id]
    # Queries without a record (or a fold that raised) count as failed.
    run.failed += expected - len(seen & work.truth.keys())
    accuracy = correct / expected
    run.accuracy.append(accuracy)
    if accuracy < ACCURACY_FLOOR:
        run.problems.append(f"accuracy {accuracy:.4f} below floor {ACCURACY_FLOOR}")
    ordered = sorted(rows, key=lambda row: row[0])
    predictions = "".join(f"{sid}\t{pred}\n" for sid, pred, _d in ordered)
    distributions = "".join(
        f"{sid}\t{pred}\t" + ",".join(f"{k}:{v!r}" for k, v in sorted(d.items())) + "\n"
        for sid, pred, d in ordered
    )
    run.digests.append(
        (
            hashlib.sha256(predictions.encode()).hexdigest(),
            hashlib.sha256(distributions.encode()).hexdigest(),
        )
    )
    if run.digests[-1] != run.digests[0]:
        run.problems.append("predictions differ between passes of one run")


def _lopo(method: str, config: evaluation.EvalConfig, size: str):
    """A LOPO workload over `getattr(scale, size)` videos."""

    def prepare(work_dir: Path, seed: int, scale: Scale) -> Workload:
        shape = scale.shape
        rng = np.random.default_rng(seed)
        taxonomy_path = bench_data.write_taxonomy(work_dir, shape)
        manifest, meanings = bench_data.write_videos(
            work_dir, "v", getattr(scale, size), shape, rng
        )
        classes = bench_data.synset_classes(shape)

        def setup():
            ds = dataset.parse_manifest(manifest)
            taxonomy = semantics.parse_taxonomy(taxonomy_path)
            for seg in ds.segments:
                ds.load_descriptors(seg)
            return ds, taxonomy

        def one_pass(state, run: Run):
            ds, taxonomy = state
            start = time.perf_counter()
            try:
                report = evaluation.run_lopo(ds, taxonomy, MODE, method, config)
                rows = [
                    (r.segment_id, r.predicted_class, r.distribution)
                    for r in report.records
                ]
            except Exception:  # a failing pass is counted, not fatal
                traceback.print_exc()
                rows = []
            end = time.perf_counter()
            run.ops.append((start, end, len(rows)))
            return end - start, rows

        truth = {sid: classes[m] for sid, m in meanings.items()}
        return Workload(
            setup, one_pass, truth, method == evaluation.SEMBED, frozenset(classes.values())
        )

    return prepare


def _stream(work_dir: Path, seed: int, scale: Scale) -> Workload:
    """Mirror of `semwalk encode`, `build-graph` (untimed), then `classify`."""
    config = evaluation.EvalConfig()  # fv, gamma 10, m 240, z 4, t 8, seed 0
    shape = scale.shape
    rng = np.random.default_rng(seed)
    taxonomy_path = bench_data.write_taxonomy(work_dir, shape)
    train_manifest, _train = bench_data.write_videos(
        work_dir, "train", scale.stream_train_videos, shape, rng
    )
    query_manifest, meanings = bench_data.write_videos(
        work_dir, "query", scale.stream_queries, shape, rng, person="q0"
    )
    model_path, graph_path = work_dir / "model.txt", work_dir / "graph.txt"

    # Untimed preparation, redone by every run of the code under test.
    train = dataset.parse_manifest(train_manifest)
    taxonomy = semantics.parse_taxonomy(taxonomy_path)
    sets = [train.load_descriptors(seg).values for seg in train.segments]
    pool = encoding.subsample(sets, config.fraction, config.seed)
    model = encoding.train_gmm(pool, config.gamma, config.seed)
    encoding.save_model(model, model_path)
    nodes = [
        graph.SvgNode(
            segment_id=seg.segment_id,
            annotation=dataset.annotation_for(seg, MODE),
            vector=encoding.encode(model, values),
        )
        for seg, values in zip(train.segments, sets)
    ]
    graph.save_graph(graph.build_svg(nodes, taxonomy, MODE, config.m), graph_path)
    del train, sets, pool, model, nodes

    def setup():
        structure = graph.load_graph(graph_path)
        taxonomy = semantics.parse_taxonomy(taxonomy_path)
        model = encoding.load_model(model_path)
        train = dataset.parse_manifest(train_manifest)
        encoded = {
            seg.segment_id: encoding.encode(model, train.load_descriptors(seg).values)
            for seg in train.segments
        }
        svg = graph.with_vectors(structure, encoded)
        transitions = graph.normalize_transitions(svg)
        queries = dataset.parse_manifest(query_manifest)
        known = {dataset.annotation_for(seg, MODE) for seg in queries.segments}
        known = {ann for ann in known if ann in taxonomy}
        annotations = {node.annotation for node in svg.nodes}
        classes = semantics.semantic_classes(taxonomy, annotations | known, MODE)
        return {
            "svg": svg,
            "transitions": transitions,
            "taxonomy": taxonomy,
            "model": model,
            "queries": queries,
            "classes": classes,
        }

    walk = inference.WalkConfig(z=config.z, t=config.t)

    def one_pass(state, run: Run):
        queries, svg, transitions = state["queries"], state["svg"], state["transitions"]
        taxonomy, model, classes = state["taxonomy"], state["model"], state["classes"]
        rows = []
        answered = 0
        reported = False
        start = time.perf_counter()
        for seg in queries.segments:
            sent = time.perf_counter()
            try:
                vector = encoding.encode(model, queries.load_descriptors(seg).values)
                label, dist = inference.classify(
                    svg, transitions, taxonomy, MODE, vector, walk, classes=classes
                )
                rows.append((seg.segment_id, label, dist))
            except Exception:  # a failing query is counted, the stream goes on
                if not reported:
                    traceback.print_exc()
                    reported = True
            run.ops.append((sent, time.perf_counter(), len(rows) - answered))
            answered = len(rows)
        return time.perf_counter() - start, rows

    classes = bench_data.synset_classes(shape)
    truth = {sid: classes[m] for sid, m in meanings.items()}
    return Workload(setup, one_pass, truth, True, frozenset(classes.values()))


PREPARE = {
    "lopo-sembed-bow": _lopo(
        evaluation.SEMBED, evaluation.EvalConfig(encoding=encoding.BOW, gamma=64), "bow_videos"
    ),
    "lopo-knn-fv": _lopo(
        evaluation.KNN, evaluation.EvalConfig(encoding=encoding.FV, gamma=10), "fv_videos"
    ),
    "classify-stream": _stream,
}


def _timed_setup(work: Workload):
    gc.collect()
    start = time.perf_counter()
    state = work.setup()
    return state, time.perf_counter() - start


def _cycle(work: Workload, setups_per_pass: int) -> Run:
    """Timed set-up(s), then one checked pass."""
    run = Run()
    state = None
    for _ in range(setups_per_pass):
        state = None  # free the previous setup's data before the next one
        state, elapsed = _timed_setup(work)
        run.setup_s.append(elapsed)
    gc.collect()
    elapsed, rows = work.one_pass(state, run)
    run.pass_s.append(elapsed)
    _check_pass(run, work, rows)
    return run


def _cycle_in_child(work: Workload, setups_per_pass: int, conn) -> None:
    try:
        conn.send(_cycle(work, setups_per_pass))
    finally:
        conn.close()


def _cycle_in_fresh_process(work: Workload, setups_per_pass: int) -> Run | None:
    """`_cycle` in a forked child; None if the child died without a result.

    Each pass then allocates its memory afresh: on a virtual machine the
    speed of the same pass differs more between processes than between
    passes of one process, so the median over several processes is the
    steadier figure.
    """
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_cycle_in_child, args=(work, setups_per_pass, send))
    child.start()
    send.close()
    try:
        return receive.recv() if receive.poll(CYCLE_TIMEOUT_S) else None
    except EOFError:
        return None
    finally:
        receive.close()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()


def _untraced(work: Workload, run: Run, seconds: float, setups_per_pass: int) -> None:
    # The first set-up is a warm-up (lazy imports, first touch of the
    # input files), is not timed, and is inherited by every pass process.
    state, _elapsed = _timed_setup(work)
    del state
    while not run.pass_s or sum(run.pass_s) < seconds:
        # Set-ups are timed before every pass, so their median spans the
        # same stretch of the run as the passes do.
        cycle = _cycle_in_fresh_process(work, setups_per_pass)
        if cycle is None:
            run.attempted += len(work.truth)
            run.failed += len(work.truth)
            run.problems.append("a pass process died without a result")
            break
        for name in ("setup_s", "pass_s", "ops", "accuracy", "digests", "problems"):
            getattr(run, name).extend(getattr(cycle, name))
        run.attempted += cycle.attempted
        run.failed += cycle.failed
    if any(digest != run.digests[0] for digest in run.digests):
        run.problems.append("predictions differ between passes of one run")
    if not run.ops:
        run.metrics = {name: (0.0, unit) for name, unit in END_TO_END}
        return
    # Tail and throughput are medians over consecutive blocks of operations,
    # so a few seconds of contention from other processes on the host move
    # one block, not the result.
    size = math.ceil(len(run.ops) / BLOCKS)
    blocks = [run.ops[i : i + size] for i in range(0, len(run.ops), size)]
    run.metrics = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "latency_p50_ms": (statistics.median(latencies_ms(run.ops)), "ms"),
        "latency_p90_ms": (
            statistics.median(percentile(latencies_ms(b), 0.90) for b in blocks), "ms"
        ),
        "queries_per_s": (
            statistics.median(sum(n for *_t, n in b) / (b[-1][1] - b[0][0]) for b in blocks),
            "1/s",
        ),
        "peak_rss_mb": (
            max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            / 1024.0,
            "MB",
        ),
        "accuracy": (run.accuracy[-1], "fraction"),
    }


def latencies_ms(ops: list[tuple[float, float, int]]) -> list[float]:
    return [(end - start) * 1000.0 for start, end, _n in ops]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of all at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _traced(work: Workload, run: Run) -> None:
    walls, faults = [], []
    for tracer in (None, Tracer()):
        gc.collect()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        start = time.perf_counter()
        with tracer or contextlib.nullcontext():
            state = work.setup()
            _elapsed, rows = work.one_pass(state, run)
        walls.append(time.perf_counter() - start)
        del state
        _check_pass(run, work, rows)
    run.tracer = tracer
    values = layer_values(tracer, traced_wall=walls[1], untraced_wall=walls[0])
    # Page faults of the untraced set-up and pass: memory the program
    # touches afresh, mostly large temporaries allocated and freed again.
    values["process.minor_faults"] = faults[1] - faults[0]
    units = dict(PER_LAYER)
    run.metrics = {name: (values.get(name, 0.0), units[name]) for name, _u in PER_LAYER}


def layer_values(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every per-layer number the trace yields, keyed by metric name."""
    totals = tracer.totals()
    values: dict[str, float] = dict(tracer.counts)
    for name, row in totals.items():
        for key, value in row.items():
            values[f"{name}.{key}"] = value
    for module in MODULES:
        values[f"{module}.self_s"] = math.fsum(
            row["self_s"] for name, row in totals.items() if name.startswith(module + ".")
        )
    fits = tracer.counts.get("encoding.train_gmm.fits", 0)
    if fits:
        values["encoding.train_gmm.converged_ratio"] = (
            tracer.counts["encoding.train_gmm.converged"] / fits
        )
    ranked = tracer.counts.get("graph.rank_global.ranked", 0)
    if ranked:
        values["graph.rank_global.used_ratio"] = tracer.counts["graph.visual_edges"] / ranked
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.hooks_s"] = totals["trace.hooks"]["s"] if "trace.hooks" in totals else 0.0
    values["trace.unattributed_s"] = traced_wall - tracer.root_seconds()
    return values


def _flush(work_dir: Path) -> None:
    """Write the generated inputs to disk now, not during the timed phase.

    Otherwise the kernel writes them back some 30 s after they were made,
    in the middle of a measurement.
    """
    for path in work_dir.rglob("*"):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def run_workload(
    name: str, work_dir: Path, seed: int, seconds: float, traced: bool, scale: Scale = FULL
) -> Run:
    """Generate the inputs in `work_dir`, measure, check; never raises on bad output."""
    start = time.perf_counter()
    work = PREPARE[name](work_dir, seed, scale)
    _flush(work_dir)
    run = Run(prepare_s=time.perf_counter() - start)
    if traced:
        _traced(work, run)
    else:
        _untraced(work, run, seconds, scale.setups_per_pass)
    return run
