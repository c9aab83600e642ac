"""Smoke test of the benchmark at a tiny size.

Checks that every end-to-end and per-layer metric named in
BENCHMARK.json is reported with its unit, that the output checks run
and catch bad output, and that the span file schema stays stable.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_data  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402

TINY = bw.Scale(
    bow_videos=160, fv_videos=40, stream_train_videos=160, stream_queries=40, setups_per_pass=2
)


def test_benchmark_json_names_what_the_benchmark_reports():
    s = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert s["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in s["workloads"]] == list(bw.WORKLOADS.items())
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == bw.END_TO_END
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == bw.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(bw.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    run = bw.run_workload(name, tmp_path, seed=5, seconds=0, traced=False, scale=TINY)
    assert [(n, u) for n, (_v, u) in run.metrics.items()] == bw.END_TO_END
    assert all(v > 0 for v, _u in run.metrics.values())
    assert len(run.pass_s) == 1 and len(run.setup_s) == TINY.setups_per_pass
    assert run.attempted == len(run.accuracy) * (
        TINY.stream_queries if name == "classify-stream" else getattr(
            TINY, "bow_videos" if "bow" in name else "fv_videos")
    )
    assert run.correct, run.problems
    assert run.tracer is None


@pytest.mark.parametrize("name", list(bw.WORKLOADS))
def test_traced_run_accounts_for_its_wall_time(name, tmp_path):
    originals = {
        (m, f): getattr(__import__(f"semwalk.{m}", fromlist=[f]), f)
        for m, f, _hook in bench_trace.TIMED
    }
    run = bw.run_workload(name, tmp_path, seed=5, seconds=0, traced=True, scale=TINY)
    for (m, f), fn in originals.items():
        assert getattr(__import__(f"semwalk.{m}", fromlist=[f]), f) is fn
    assert [(n, u) for n, (_v, u) in run.metrics.items()] == bw.PER_LAYER
    assert run.correct, run.problems
    assert len(run.digests) == 2 and run.tracer.absent == []
    values = {n: v for n, (v, _u) in run.metrics.items()}
    parts = sum(values[f"{m}.self_s"] for m in bw.MODULES) + sum(
        values[k] for k in ("evaluation.run_lopo.self_s", "trace.hooks_s", "trace.unattributed_s")
    )
    assert math.isclose(parts, values["trace.wall_s"], rel_tol=1e-9)
    assert values["dataset.read_descriptor_file.calls"] > 0
    assert values["dataset.descriptor_bytes"] > 0
    if name == "lopo-knn-fv":
        assert values["encoding.train_gmm.iters"] > 0
        assert values["baselines.distance.calls"] > 0 and values["graph.nodes"] == 0
    else:
        assert values["inference.distance.calls"] > 0
    if name == "lopo-sembed-bow":
        assert 0 < values["graph.rank_global.used_ratio"] < 1
        assert values["graph.visual_edges"] > 0 and values["graph.semantic_edges"] > 0

    out = tmp_path / "spans.jsonl"
    run.tracer.write(out, {"workload": name})
    header, *spans = [json.loads(line) for line in out.read_text().splitlines()]
    assert header["schema"] == bench_trace.SCHEMA
    assert header["span_keys"] == ["name", "start", "end", "parent"]
    assert spans and all(list(s) == header["span_keys"] for s in spans)
    assert all(s["start"] <= s["end"] and s["parent"] < i for i, s in enumerate(spans))


def test_checks_count_bad_output_as_failed():
    truth = {"a": "put.v.1", "b": "put.v.1", "c": "stir.v.1", "d": "stir.v.1"}
    work = bw.Workload(setup=None, one_pass=None, truth=truth, check_distributions=True,
                       classes=frozenset(truth.values()))
    run = bw.Run()
    good = {"put.v.1": 0.75, "stir.v.1": 0.25}
    bw._check_pass(run, work, [
        ("a", "put.v.1", good),
        ("b", "nope.v.1", good),  # not a class of the partition
        ("c", "stir.v.1", {"stir.v.1": 0.5}),  # does not sum to 1
    ])  # "d" has no record
    assert (run.attempted, run.failed) == (4, 3)
    assert run.accuracy == [0.25] and run.problems  # below the accuracy floor
    bw._check_pass(run, work, [(k, v, {v: 1.0}) for k, v in truth.items()])
    assert (run.attempted, run.failed) == (8, 3)
    assert "predictions differ between passes of one run" in run.problems


def test_absent_function_is_reported_not_fatal(monkeypatch):
    import semwalk.graph

    original = semwalk.graph.distance_matrix
    monkeypatch.delattr(semwalk.graph, "rank_local")
    tracer = bench_trace.Tracer()
    with tracer:
        assert semwalk.graph.distance_matrix is not original
        assert not hasattr(semwalk.graph, "rank_local")
    assert semwalk.graph.distance_matrix is original
    assert tracer.absent == ["graph.rank_local"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    shape = bench_data.Shape(rows_per_video=3)
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        manifest, _ = bench_data.write_videos(
            out, "v", 16, shape, np.random.default_rng(9)
        )
        texts.append(manifest.read_text() + (out / "v-descriptors" / "v00007.txt").read_text())
    assert texts[0] == texts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lopo-knn-fv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
