"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance and runtime budget and prints a
PASS line (visible with `pytest -s`).  Runtime limits are generous
wall-clock budgets, not benchmarks.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from semwalk.baselines import class_weights
from semwalk.cli import dispatch
from semwalk.dataset import parse_manifest
from semwalk.encoding import (
    GmmModel,
    encode_bow,
    encode_fisher,
    fisher_gradients,
    subsample,
    train_gmm,
    train_kmeans,
)
from semwalk.evaluation import EvalConfig, SyntheticSpec, gen_synthetic, run_lopo
from semwalk.graph import (
    SEMANTIC,
    VISUAL,
    SvgNode,
    build_svg,
    distance_matrix,
    normalize_transitions,
)
from semwalk.inference import embed_query, markov_walk
from semwalk.semantics import (
    AH,
    AM,
    AS,
    parse_taxonomy,
    related,
    semantic_classes,
)

from _oracles import brute_force_edges, enumerate_walk, random_taxonomy_lines
from conftest import TAXONOMY_TEXT, vec


def _random_nodes(rng, n, n_labels, dim=4):
    points = rng.standard_normal((n, dim))
    return [
        SvgNode(
            segment_id=f"s{i}",
            annotation=f"l{int(rng.integers(n_labels))}",
            vector=vec(points[i]),
        )
        for i in range(n)
    ]


class _Timer:
    def __init__(self, limit):
        self.limit = limit
        self.start = time.monotonic()

    def check(self, name):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"{name} took {elapsed:.1f}s >= {self.limit}s"
        print(f"[acceptance] {name}: PASS ({elapsed:.2f}s < {self.limit}s)")


PLANTED = SyntheticSpec(
    clusters=4,
    points_per_cluster=40,
    dim=16,
    separation=10.0,  # 10 sigma
    sigma=1.0,
    persons=3,
    seed=42,
    rows_per_video=10,
    synonym_clusters=2,
)

PLANTED_CONFIG = EvalConfig(
    encoding="bow", gamma=8, m=240, z=4, t=8, k=1, fraction=0.25, seed=42
)


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted")
    manifest_path, taxonomy_path = gen_synthetic(PLANTED, out)
    dataset = parse_manifest(manifest_path)
    taxonomy = parse_taxonomy(taxonomy_path)
    return out, dataset, taxonomy


@pytest.fixture(scope="module")
def planted_as_report(planted):
    _out, dataset, taxonomy = planted
    return run_lopo(dataset, taxonomy, AS, "sembed", PLANTED_CONFIG)


def test_transition_matrix_stochasticity():
    timer = _Timer(10.0)
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        nodes = _random_nodes(rng, n, int(rng.integers(1, 7)))
        m = int(rng.integers(0, 3 * n))
        svg = build_svg(nodes, None, "verb", m)
        A = normalize_transitions(svg)
        row_sums = np.asarray(A.sum(axis=1)).ravel()
        assert np.all(np.abs(row_sums - 1.0) <= 1e-9)
        coo = A.tocoo()
        assert np.all(coo.data > 0.0)
        mirrored = {
            pair for i, j, _w, _tag in svg.undirected_pairs() for pair in ((i, j), (j, i))
        }
        assert set(zip(coo.row.tolist(), coo.col.tolist())) == mirrored
    timer.check("transition-matrix stochasticity (100 random graphs)")


def test_walk_matches_path_enumeration():
    timer = _Timer(30.0)
    rng = np.random.default_rng(200)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        nodes = _random_nodes(rng, n, int(rng.integers(1, 4)))
        svg = build_svg(nodes, None, "verb", int(rng.integers(0, 5)))
        A = normalize_transitions(svg)
        dense = A.toarray()
        q = rng.uniform(0.0, 1.0, size=n)
        q /= q.sum()
        for t in range(5):
            got = markov_walk(A, q, t)
            expected = enumerate_walk(dense, q, t)
            assert np.max(np.abs(got - expected)) <= 1e-9
    timer.check("markov walk vs exhaustive path enumeration (50 instances, t <= 4)")


def test_graph_construction_matches_brute_force():
    timer = _Timer(10.0)
    rng = np.random.default_rng(300)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        nodes = _random_nodes(rng, n, int(rng.integers(1, 5)))
        m = int(rng.integers(0, 10))
        svg = build_svg(nodes, None, "verb", m)
        labels = [node.annotation for node in nodes]
        distances = distance_matrix([node.vector for node in nodes])
        semantic, visual = brute_force_edges(
            distances, lambda i, j: labels[i] == labels[j], m
        )
        got_semantic = {
            (i, j) for i, j, _w, tag in svg.undirected_pairs() if tag == SEMANTIC
        }
        got_visual = {
            (i, j) for i, j, _w, tag in svg.undirected_pairs() if tag == VISUAL
        }
        assert got_semantic == semantic
        assert got_visual == visual
    timer.check("graph construction vs brute-force rules (50 instances)")


def test_semantic_relations_and_class_counts(tmp_path):
    timer = _Timer(5.0)
    path = tmp_path / "taxonomy.tsv"
    path.write_text(TAXONOMY_TEXT, encoding="utf-8")
    taxonomy = parse_taxonomy(path)
    assert related(taxonomy, AS, "put.v.1", "place.v.1")
    assert related(taxonomy, AH, "rinse.v.1", "wash.v.3")
    wash_family = ["wash.v.3", "wash_up.v.3", "rinse.v.1"]
    for i, a in enumerate(wash_family):
        for b in wash_family[i + 1 :]:
            assert not related(taxonomy, AM, a, b)
    rng = np.random.default_rng(400)
    for trial in range(100):
        lines, ids = random_taxonomy_lines(rng, int(rng.integers(2, 16)))
        tpath = tmp_path / f"random{trial}.tsv"
        tpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tax = parse_taxonomy(tpath)
        subset = [i for i in ids if rng.random() < 0.8] or ids[:1]
        counts = [len(semantic_classes(tax, subset, mode)) for mode in (AM, AS, AH)]
        assert counts[0] >= counts[1] >= counts[2]
    timer.check("semantic relations + class-count monotonicity (100 taxonomies)")


def test_encoder_numerics():
    timer = _Timer(60.0)
    rng = np.random.default_rng(500)
    for _ in range(20):
        rows = int(rng.integers(30, 120))
        dim = int(rng.integers(2, 7))
        pool = rng.standard_normal((rows, dim)) * rng.uniform(0.5, 3.0)
        components = int(rng.integers(1, 6))
        gmm = train_gmm(pool, components, seed=int(rng.integers(1000)))
        ll_steps = np.diff(gmm.log_likelihood_history)
        assert np.all(ll_steps >= -1e-9)
        book = train_kmeans(pool, int(rng.integers(2, 7)), seed=int(rng.integers(1000)))
        inertia_steps = np.diff(book.inertia_history)
        assert np.all(inertia_steps <= 1e-9)

        video = rng.standard_normal((12, dim))
        bow = encode_bow(book, video)
        assert abs(bow.values.sum() - 1.0) <= 1e-9
        assert np.all(bow.values >= 0.0)
        fv = encode_fisher(gmm, video)
        assert abs(np.linalg.norm(fv.values) - 1.0) <= 1e-9

    # Descriptors placed exactly at the mixture means: the mean-gradient
    # block vanishes before normalization.
    single = train_gmm(rng.standard_normal((40, 3)), 1, seed=1)
    grad_means, _ = fisher_gradients(single, np.tile(single.means[0], (6, 1)))
    assert np.max(np.abs(grad_means)) <= 1e-9
    far_apart = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0, 0.0], [1000.0, 0.0]]),
        variances=np.ones((2, 2)),
        log_likelihood_history=[],
    )
    at_means = np.array([[0.0, 0.0], [1000.0, 0.0], [0.0, 0.0]])
    grad_means, _ = fisher_gradients(far_apart, at_means)
    assert np.max(np.abs(grad_means)) <= 1e-9
    timer.check("encoder numerics (EM/k-means monotone, FV/BoW invariants)")


def test_planted_label_recovery(planted, planted_as_report):
    timer = _Timer(60.0)
    _out, dataset, taxonomy = planted
    as_report = planted_as_report
    am_report = run_lopo(dataset, taxonomy, AM, "sembed", PLANTED_CONFIG)
    knn_report = run_lopo(dataset, taxonomy, AS, "knn", PLANTED_CONFIG)
    assert as_report.accuracy >= 0.95
    assert as_report.accuracy >= am_report.accuracy
    assert knn_report.accuracy >= 0.95
    timer.check(
        "planted-label recovery (AS {:.3f} >= 0.95, AS >= AM {:.3f}, KNN {:.3f})".format(
            as_report.accuracy, am_report.accuracy, knn_report.accuracy
        )
    )


def test_fold_hygiene(planted, planted_as_report):
    timer = _Timer(60.0)
    _out, dataset, _tax = planted
    report = planted_as_report
    person_of = {seg.segment_id: seg.person_id for seg in dataset.segments}
    fold_of = {fold.person: fold for fold in report.folds}
    violations = 0
    for rec in report.records:
        fold = fold_of[rec.person_id]
        for sid in fold.train_segment_ids:
            violations += person_of[sid] == rec.person_id
        for sid in fold.encoder_segment_ids:
            violations += person_of[sid] == rec.person_id
        violations += rec.segment_id in fold.train_segment_ids
        violations += rec.segment_id in fold.encoder_segment_ids
    assert violations == 0
    timer.check("fold hygiene (zero leaks across all records)")


def test_end_to_end_determinism(planted, tmp_path):
    timer = _Timer(60.0)
    out_dir, _ds, _tax = planted
    argv_common = [
        "evaluate",
        "--manifest", str(out_dir / "manifest.tsv"),
        "--taxonomy", str(out_dir / "taxonomy.tsv"),
        "--mode", "as", "--method", "sembed", "--encoding", "bow",
        "--gamma", "8", "--fraction", "0.25", "--seed", "42",
    ]
    first, second = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert dispatch(argv_common + ["--out", str(first)]) == 0
    assert dispatch(argv_common + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    timer.check("end-to-end evaluate determinism (byte-identical reports)")


def test_class_weighting_formula():
    timer = _Timer(5.0)
    weights = class_weights({"a": 0.5, "b": 0.25, "c": 0.25}, 1.0)
    assert weights == {"a": 2.0, "b": 4.0, "c": 4.0}
    flat = class_weights({"a": 0.5, "b": 0.25, "c": 0.25}, 0.0)
    assert flat == {"a": 1.0, "b": 1.0, "c": 1.0}
    timer.check("class weighting w(c) = 1/prior^lambda")


def test_m_insensitivity_direction(planted, planted_as_report):
    timer = _Timer(60.0)
    _out, dataset, taxonomy = planted
    accuracies = {240: planted_as_report.accuracy}
    for m in (180, 400):
        report = run_lopo(
            dataset, taxonomy, AS, "sembed", replace(PLANTED_CONFIG, m=m)
        )
        accuracies[m] = report.accuracy
    spread = max(accuracies.values()) - min(accuracies.values())
    assert spread <= 0.05, f"accuracy spread {spread:.3f} over m in (180, 240, 400)"
    timer.check(
        "m-insensitivity (spread {:.3f} <= 0.05 over m in 180/240/400)".format(spread)
    )
