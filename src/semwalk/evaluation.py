"""Leave-one-person-out experiments, parameter sweeps, synthetic data.

One fold per person: that person's segments become the queries and
every other segment is training data.  Encoders (codebook or mixture)
are retrained inside each fold on training descriptors only, so the
held-out person never leaks into model fitting.  Correctness is judged
at the semantic-class level of the active relation mode: predicting a
synonym of the truth counts as correct under "as", for example.  The
class partition is computed once over every annotation in the dataset
(train and test alike) so the true class is always well defined.

One fold loop, `sweep`, evaluates a list of configs; `run_lopo` is its
one-config case.  Within a fold, configs with the same encoding, gamma,
fraction and seed share one encoder and one encoding of every segment,
and sembed configs that also share m share one graph; z, t, k, lambda,
epochs and step apply per config.  All randomness derives from
per-fold seed sequences keyed by the person's rank among the dataset's
sorted persons.  The CLI's staged commands and each fold share the
stage functions `train_encoder`, `encode_segments` and `graph_nodes`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import baselines, encoding, graph, inference, semantics
from .dataset import (
    Dataset,
    annotation_for,
    atomic_write_text,
    split_lopo,
    write_descriptor_file,
)

SEMBED = "sembed"
KNN = "knn"
LINEAR = "linear"
METHODS = (SEMBED, KNN, LINEAR)
ENCODINGS = (encoding.BOW, encoding.FV)
SWEEP_KEYS = ("z", "t", "m", "gamma", "k")
# Option names that differ from the config field they set; every other
# option is named after its field.  Report headers use the same names.
OPTION_NAMES = {"lam": "lambda", "points_per_cluster": "points"}


@dataclass(frozen=True)
class EvalConfig:
    """Numeric knobs shared by every method.

    `gamma` left as None takes the encoding's default codebook or
    mixture size, set in `__post_init__`, which also rejects a size,
    edge budget, neighbor count, walk setting, class-weight exponent,
    sample fraction or SGD setting no run can use.  The CLI builds its
    config from these fields, so both share every default, and a
    report's header lists them in this order.
    """

    encoding: str = encoding.FV
    gamma: int | None = None
    m: int = 240
    z: int = inference.WalkConfig.z
    t: int = inference.WalkConfig.t
    k: int = 5
    lam: float = 0.5
    fraction: float = 0.25
    epochs: int = 100
    step: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.encoding not in ENCODINGS:
            raise ValueError(
                f"unknown encoding {self.encoding!r}; choose from {'|'.join(ENCODINGS)}"
            )
        if self.gamma is None:
            object.__setattr__(self, "gamma", 256 if self.encoding == encoding.BOW else 10)
        for name, low in (("gamma", 1), ("m", 0), ("k", 1), ("epochs", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.step > 0.0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        inference.WalkConfig(z=self.z, t=self.t)


@dataclass(frozen=True)
class QueryRecord:
    segment_id: str
    person_id: str
    true_class: str
    predicted_class: str
    p_predicted: float
    distribution: dict[str, float]


@dataclass(frozen=True)
class FoldInfo:
    """Provenance needed to audit fold hygiene."""

    person: str
    train_segment_ids: tuple[str, ...]
    train_persons: tuple[str, ...]
    encoder_segment_ids: tuple[str, ...]


@dataclass(frozen=True)
class EvalReport:
    records: list[QueryRecord]
    accuracy: float
    classes: tuple[str, ...]
    confusion: np.ndarray
    config: dict[str, object]
    folds: list[FoldInfo]


def _fold_seed(base_seed: int, fold_index: int) -> int:
    """Stable per-fold seed, independent of execution order."""
    return int(np.random.SeedSequence([base_seed, fold_index]).generate_state(1)[0])


def train_encoder(dataset: Dataset, config: EvalConfig, seed: int):
    """A k-means codebook (bow) or a mixture (fv) of `config.gamma` parts,
    fit on a seeded `config.fraction` of each of the dataset's videos."""
    sets = [dataset.load_descriptors(seg).values for seg in dataset.segments]
    pool = encoding.subsample(sets, config.fraction, seed)
    train = encoding.train_kmeans if config.encoding == encoding.BOW else encoding.train_gmm
    return train(pool, config.gamma, seed)


def encode_segments(dataset: Dataset, model) -> dict[str, encoding.EncodedVector]:
    """Segment id -> the encoding of that segment's descriptors under `model`."""
    return {
        seg.segment_id: encoding.encode(model, dataset.load_descriptors(seg).values)
        for seg in dataset.segments
    }


def graph_nodes(
    dataset: Dataset, encoded: dict[str, encoding.EncodedVector], mode: str
) -> list[graph.SvgNode]:
    """One graph node per segment, labelled with its annotation under `mode`."""
    return [
        graph.SvgNode(
            segment_id=seg.segment_id,
            annotation=annotation_for(seg, mode),
            vector=encoded[seg.segment_id],
        )
        for seg in dataset.segments
    ]


def _classify_fold(
    train: Dataset,
    test: Dataset,
    encoded: dict[str, encoding.EncodedVector],
    walk_graph: tuple[graph.SvgGraph, graph.csr_array] | None,
    taxonomy: semantics.Taxonomy | None,
    mode: str,
    method: str,
    config: EvalConfig,
    classes: list[tuple[str, ...]],
    cmap: dict[str, str],
    seed: int,
) -> list[QueryRecord]:
    train_vectors = [encoded[seg.segment_id] for seg in train.segments]
    train_classes = [cmap[annotation_for(seg, mode)] for seg in train.segments]

    queries = [encoded[seg.segment_id] for seg in test.segments]
    if method == SEMBED:
        walk = inference.WalkConfig(z=config.z, t=config.t)
        results = inference.classify_batch(
            *walk_graph, taxonomy, mode, queries, walk, classes=classes
        )
    elif method == KNN:
        stacked = encoding.stack(train_vectors)
        results = [
            baselines.knn_vote(stacked, train_classes, query, config.k)
            for query in queries
        ]
    else:
        priors = baselines.class_priors(train_classes)
        weights = baselines.class_weights(priors, config.lam)
        model = baselines.train_weighted_linear(
            encoding.stack(train_vectors),
            train_classes,
            weights,
            epochs=config.epochs,
            step=config.step,
            seed=seed,
        )
        labels = [baselines.predict_linear(model, query) for query in queries]
        results = [(label, {label: 1.0}) for label in labels]
    return [
        QueryRecord(
            segment_id=seg.segment_id,
            person_id=seg.person_id,
            true_class=cmap[annotation_for(seg, mode)],
            predicted_class=label,
            p_predicted=float(dist.get(label, 0.0)),
            distribution=dist,
        )
        for seg, (label, dist) in zip(test.segments, results)
    ]


def sweep(
    dataset: Dataset,
    taxonomy: semantics.Taxonomy | None,
    mode: str,
    method: str,
    configs: list[EvalConfig],
) -> list[EvalReport]:
    """Leave-one-person-out evaluation of each config, from one pass over
    the folds; one report per config, in order.

    Within a fold, configs with the same encoding, gamma, fraction and
    seed share one encoder and one encoding of every segment, and sembed
    configs that also share m share one graph and transition matrix.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    persons = sorted(dataset.persons())
    if len(persons) < 2:
        raise ValueError("leave-one-person-out needs at least 2 persons")

    partition = semantics.semantic_classes(
        taxonomy, {annotation_for(seg, mode) for seg in dataset.segments}, mode
    )
    cmap = semantics.class_map(partition)

    records: list[list[QueryRecord]] = [[] for _ in configs]
    folds: list[FoldInfo] = []
    for rank, person in enumerate(persons):
        train, test = split_lopo(dataset, person)
        train_persons = set(train.persons())
        if person in train_persons:
            raise RuntimeError(f"fold hygiene violated for person {person!r}")
        encodings: dict[tuple, dict[str, encoding.EncodedVector]] = {}
        graphs: dict[tuple, tuple[graph.SvgGraph, graph.csr_array]] = {}
        for config, config_records in zip(configs, records):
            seed = _fold_seed(config.seed, rank)
            key = (config.encoding, config.gamma, config.fraction, config.seed)
            if key not in encodings:
                # Only training descriptors fit the encoder; every segment is encoded.
                encodings[key] = encode_segments(dataset, train_encoder(train, config, seed))
            encoded = encodings[key]
            if method == SEMBED and (key, config.m) not in graphs:
                svg = graph.build_svg(graph_nodes(train, encoded, mode), taxonomy, mode, config.m)
                graphs[key, config.m] = (svg, graph.normalize_transitions(svg))
                del svg  # held by `graphs` alone, so the next fold frees it
            config_records += _classify_fold(
                train, test, encoded, graphs.get((key, config.m)), taxonomy, mode, method,
                config, partition, cmap, seed,
            )
        train_ids = tuple(seg.segment_id for seg in train.segments)
        folds.append(
            FoldInfo(
                person=person,
                train_segment_ids=train_ids,
                train_persons=tuple(sorted(train_persons)),
                encoder_segment_ids=train_ids,
            )
        )

    position = {seg.segment_id: i for i, seg in enumerate(dataset.segments)}
    class_names = tuple(component[0] for component in partition)
    index = {name: i for i, name in enumerate(class_names)}
    reports = []
    for config, config_records in zip(configs, records):
        config_records.sort(key=lambda rec: position[rec.segment_id])
        confusion = np.zeros((len(class_names), len(class_names)), dtype=np.int64)
        for rec in config_records:
            confusion[index[rec.true_class], index[rec.predicted_class]] += 1
        correct = sum(rec.true_class == rec.predicted_class for rec in config_records)
        header: dict[str, object] = {"method": method, "mode": mode} | {
            OPTION_NAMES.get(f.name, f.name): getattr(config, f.name) for f in fields(config)
        }
        reports.append(
            EvalReport(
                records=config_records,
                accuracy=correct / len(config_records) if config_records else 0.0,
                classes=class_names,
                confusion=confusion,
                config=header,
                folds=list(folds),
            )
        )
    return reports


def run_lopo(
    dataset: Dataset,
    taxonomy: semantics.Taxonomy | None,
    mode: str,
    method: str,
    config: EvalConfig,
) -> EvalReport:
    """Leave-one-person-out evaluation of one config: `sweep` of `[config]`."""
    return sweep(dataset, taxonomy, mode, method, [config])[0]


def sweep_configs(grid: dict[str, list], base: EvalConfig) -> list[EvalConfig]:
    """One config per point of the grid's product, in deterministic order.

    Grid keys are any of `SWEEP_KEYS`, each with a non-empty list;
    missing keys keep the base config's value.  Building each config
    checks its values, so a bad grid value fails before any fold runs.
    """
    for key, values in grid.items():
        if key not in SWEEP_KEYS:
            raise ValueError(f"unknown sweep key {key!r}")
        if not values:
            raise ValueError(f"empty sweep list for {key!r}")
    if not grid:
        raise ValueError("empty sweep grid")
    axes = [list(grid.get(key, [getattr(base, key)])) for key in SWEEP_KEYS]
    return [replace(base, **dict(zip(SWEEP_KEYS, v))) for v in itertools.product(*axes)]


def format_sweep(reports: list[EvalReport]) -> str:
    """Tab-separated sweep table: the `SWEEP_KEYS` columns, then accuracy."""
    lines = ["\t".join((*SWEEP_KEYS, "accuracy"))]
    for report in reports:
        cells = [str(report.config[key]) for key in SWEEP_KEYS]
        lines.append("\t".join((*cells, repr(report.accuracy))))
    return "\n".join(lines) + "\n"


def format_distribution(dist: dict[str, float]) -> str:
    """Nonzero `class:prob` pairs, highest probability first."""
    entries = sorted(
        ((p, name) for name, p in dist.items() if p > 0.0),
        key=lambda ip: (-ip[0], ip[1]),
    )
    return ",".join(f"{name}:{p!r}" for p, name in entries)


def format_report(report: EvalReport) -> str:
    """Serialize a report: config header, records, accuracy, confusion."""
    lines = [f"{key}={value}" for key, value in report.config.items()]
    for rec in report.records:
        lines.append(
            "record\t{id}\t{pred}\t{true}\t{p}\t{dist}".format(
                id=rec.segment_id,
                pred=rec.predicted_class,
                true=rec.true_class,
                p=repr(rec.p_predicted),
                dist=format_distribution(rec.distribution),
            )
        )
    lines.append(f"accuracy={report.accuracy!r}")
    lines.append("classes\t" + "\t".join(report.classes))
    for i, name in enumerate(report.classes):
        counts = "\t".join(str(int(c)) for c in report.confusion[i])
        lines.append(f"confusion\t{name}\t{counts}")
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, path: str | Path) -> None:
    atomic_write_text(path, format_report(report))


# Small built-in verb vocabulary for synthetic data.  Synonym pairs
# share a synset; hyponym pairs link child -> parent.
_SYNONYM_PAIRS = [
    ("put", "place"),
    ("take", "grab"),
    ("switch", "flip"),
    ("start", "begin"),
    ("close", "shut"),
]
_HYPONYM_PAIRS = [
    ("wash", "rinse"),
    ("open", "unlock"),
    ("move", "push"),
    ("turn", "rotate"),
    ("cut", "slice"),
]
_SINGLE_VERBS = [
    "stir", "pour", "press", "scan", "fill", "hold",
    "pull", "spray", "shake", "wipe", "plug", "drink",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Plan for a planted-cluster dataset with ambiguous labels.

    The first `synonym_clusters` clusters carry two labels sharing a
    synset, the next `hyponym_clusters` carry a parent/child label
    pair, and remaining clusters carry a single label.  Labels are
    assigned to segments uniformly at random within a cluster; persons
    rotate round-robin over all segments.
    """

    clusters: int = 4
    points_per_cluster: int = 40
    dim: int = 16
    separation: float = 10.0
    sigma: float = 1.0
    persons: int = 3
    seed: int = 0
    rows_per_video: int = 10
    synonym_clusters: int = 2
    hyponym_clusters: int = 0

    def __post_init__(self) -> None:
        if self.clusters < 1:
            raise ValueError("need at least 1 cluster")
        if self.points_per_cluster < 1 or self.dim < 1 or self.rows_per_video < 1:
            raise ValueError("points, dim and rows_per_video must be >= 1")
        if self.separation <= 0.0:
            raise ValueError("separation must be > 0")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if self.persons < 2:
            raise ValueError("need at least 2 persons")
        if self.synonym_clusters + self.hyponym_clusters > self.clusters:
            raise ValueError("synonym + hyponym clusters exceed cluster count")


def _synthetic_labels(spec: SyntheticSpec) -> tuple[list[str], list[list[str]]]:
    """Taxonomy lines and the meaning-id choices for each cluster."""
    taxonomy_lines = []
    per_cluster: list[list[str]] = []
    singles = iter(_SINGLE_VERBS)
    for c in range(spec.clusters):
        if c < spec.synonym_clusters:
            if c < len(_SYNONYM_PAIRS):
                a, b = _SYNONYM_PAIRS[c]
            else:
                a, b = f"verb{c}a", f"verb{c}b"
            taxonomy_lines.append(f"{a}.v.1\tsyn.{a}\t-")
            taxonomy_lines.append(f"{b}.v.1\tsyn.{a}\t-")
            per_cluster.append([f"{a}.v.1", f"{b}.v.1"])
        elif c < spec.synonym_clusters + spec.hyponym_clusters:
            h = c - spec.synonym_clusters
            if h < len(_HYPONYM_PAIRS):
                parent, child = _HYPONYM_PAIRS[h]
            else:
                parent, child = f"verb{c}a", f"verb{c}b"
            taxonomy_lines.append(f"{parent}.v.1\tsyn.{parent}\t-")
            taxonomy_lines.append(f"{child}.v.1\tsyn.{child}\t{parent}.v.1")
            per_cluster.append([f"{parent}.v.1", f"{child}.v.1"])
        else:
            verb = next(singles, None) or f"verb{c}"
            taxonomy_lines.append(f"{verb}.v.1\tsyn.{verb}\t-")
            per_cluster.append([f"{verb}.v.1"])
    return taxonomy_lines, per_cluster


def gen_synthetic(spec: SyntheticSpec, out_dir: str | Path) -> tuple[Path, Path]:
    """Write a planted dataset; returns (manifest path, taxonomy path).

    Cluster means sit on scaled coordinate axes (random directions if
    there are more clusters than dimensions), every descriptor row is
    its cluster mean plus isotropic noise, and all output bytes are
    deterministic for a fixed spec.
    """
    out_dir = Path(out_dir)
    descriptor_dir = out_dir / "descriptors"
    descriptor_dir.mkdir(parents=True, exist_ok=True)
    taxonomy_lines, per_cluster = _synthetic_labels(spec)
    rng = np.random.default_rng(spec.seed)
    if spec.clusters <= spec.dim:
        means = np.zeros((spec.clusters, spec.dim))
        for c in range(spec.clusters):
            means[c, c] = spec.separation
    else:
        directions = rng.standard_normal((spec.clusters, spec.dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        means = directions * spec.separation

    manifest_lines = []
    index = 0
    for c in range(spec.clusters):
        labels = per_cluster[c]
        for _ in range(spec.points_per_cluster):
            segment_id = f"seg{index:04d}"
            person = f"p{index % spec.persons}"
            meaning = labels[int(rng.integers(len(labels)))]
            verb = meaning.split(".v.")[0]
            values = means[c] + spec.sigma * rng.standard_normal(
                (spec.rows_per_video, spec.dim)
            )
            rel_path = f"descriptors/{segment_id}.txt"
            write_descriptor_file(out_dir / rel_path, values)
            manifest_lines.append(
                f"{segment_id}\t{person}\t{verb}\t{meaning}\t{rel_path}"
            )
            index += 1

    manifest_path = out_dir / "manifest.tsv"
    taxonomy_path = out_dir / "taxonomy.tsv"
    atomic_write_text(manifest_path, "\n".join(manifest_lines) + "\n")
    atomic_write_text(taxonomy_path, "\n".join(taxonomy_lines) + "\n")
    return manifest_path, taxonomy_path
