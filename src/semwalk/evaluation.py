"""Leave-one-person-out experiments, parameter sweeps, synthetic data.

One fold per person: that person's segments become the queries and
every other segment is training data.  Encoders (codebook or mixture)
are retrained inside each fold on training descriptors only, so the
held-out person never leaks into model fitting.  Correctness is judged
at the semantic-class level of the active relation mode: predicting a
synonym of the truth counts as correct under "as", for example.  The
class partition is computed once over every annotation in the dataset
(train and test alike) so the true class is always well defined.

All randomness derives from per-fold seed sequences keyed by the
person's rank in the dataset, so a fold's report is identical whether
or not other folds were requested.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace
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

logger = logging.getLogger(__name__)

SEMBED = "sembed"
KNN = "knn"
LINEAR = "linear"
METHODS = (SEMBED, KNN, LINEAR)
ENCODINGS = (encoding.BOW, encoding.FV)
SWEEP_KEYS = ("z", "t", "m", "gamma", "k")


@dataclass(frozen=True)
class EvalConfig:
    """Numeric knobs shared by every method.

    `gamma` left as None takes the encoding's default codebook or
    mixture size, set in `__post_init__`.  The CLI builds its config
    from these fields, so both share every default.
    """

    encoding: str = encoding.FV
    gamma: int | None = None
    m: int = 240
    z: int = inference.WalkConfig.z
    t: int = inference.WalkConfig.t
    k: int = 5
    lam: float = 0.5
    fraction: float = 0.25
    seed: int = 0
    epochs: int = 100
    step: float = 0.1

    def __post_init__(self) -> None:
        if self.encoding not in ENCODINGS:
            raise ValueError(
                f"unknown encoding {self.encoding!r}; choose from {'|'.join(ENCODINGS)}"
            )
        if self.gamma is None:
            object.__setattr__(self, "gamma", 256 if self.encoding == encoding.BOW else 10)


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


@dataclass(frozen=True)
class SweepPoint:
    z: int
    t: int
    m: int
    gamma: int
    k: int
    accuracy: float


def _fold_seed(base_seed: int, fold_index: int) -> int:
    """Stable per-fold seed, independent of execution order."""
    return int(np.random.SeedSequence([base_seed, fold_index]).generate_state(1)[0])


def train_encoder(pool: np.ndarray, config: EvalConfig, seed: int):
    """A k-means codebook (bow) or a mixture (fv) of `config.gamma` parts."""
    train = encoding.train_kmeans if config.encoding == encoding.BOW else encoding.train_gmm
    return train(pool, config.gamma, seed)


def _fold_encodings(
    dataset: Dataset,
    train: Dataset,
    config: EvalConfig,
    seed: int,
) -> tuple[dict[str, encoding.EncodedVector], tuple[str, ...]]:
    """Train the fold's encoder and encode every segment in the dataset.

    Only training descriptors feed the subsampled pool; test segments
    are merely encoded with the resulting model.  Returns the encodings
    and the segment ids whose descriptors entered the pool.
    """
    train_sets = [dataset.load_descriptors(seg).values for seg in train.segments]
    pool = encoding.subsample(train_sets, config.fraction, seed)
    model = train_encoder(pool, config, seed)
    encoded = {
        seg.segment_id: encoding.encode(model, dataset.load_descriptors(seg).values)
        for seg in dataset.segments
    }
    return encoded, tuple(seg.segment_id for seg in train.segments)


def _classify_fold(
    train: Dataset,
    test: Dataset,
    encoded: dict[str, encoding.EncodedVector],
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
        nodes = [
            graph.SvgNode(
                segment_id=seg.segment_id,
                annotation=annotation_for(seg, mode),
                vector=encoded[seg.segment_id],
            )
            for seg in train.segments
        ]
        svg = graph.build_svg(nodes, taxonomy, mode, config.m)
        transitions = graph.normalize_transitions(svg)
        walk = inference.WalkConfig(z=config.z, t=config.t)
        results = inference.classify_batch(
            svg, transitions, taxonomy, mode, queries, walk, classes=classes
        )
    elif method == KNN:
        stacked = encoding.stack(train_vectors)
        results = [
            baselines.knn_vote(stacked, train_classes, query, config.k)
            for query in queries
        ]
    elif method == LINEAR:
        priors = baselines.class_priors(train_classes)
        weights = baselines.class_weights(priors, config.lam)
        model = baselines.train_weighted_linear(
            train_vectors,
            train_classes,
            weights,
            epochs=config.epochs,
            step=config.step,
            seed=seed,
        )
        labels = [baselines.predict_linear(model, query) for query in queries]
        results = [(label, {label: 1.0}) for label in labels]
    else:
        raise ValueError(f"unknown method {method!r}")
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


def run_lopo(
    dataset: Dataset,
    taxonomy: semantics.Taxonomy | None,
    mode: str,
    method: str,
    config: EvalConfig,
    persons: list[str] | None = None,
    encoder_cache: dict | None = None,
) -> EvalReport:
    """Leave-one-person-out evaluation over the whole dataset.

    `encoder_cache` lets sweep runs reuse per-fold encoders across grid
    points that share gamma; pass a dict and keep it alive between
    calls.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    present = dataset.persons()
    if persons is None:
        persons = present
    else:
        for person in persons:
            if person not in present:
                logger.warning("person %r has zero segments; skipped", person)
        persons = [p for p in persons if p in present]
    persons = sorted(set(persons))
    if len(present) < 2:
        raise ValueError("leave-one-person-out needs at least 2 persons")
    # Seeds key off the person's rank among all dataset persons, so a
    # fold trains identically whether or not other folds were requested.
    person_rank = {p: i for i, p in enumerate(sorted(present))}

    partition = semantics.semantic_classes(
        taxonomy, {annotation_for(seg, mode) for seg in dataset.segments}, mode
    )
    cmap = semantics.class_map(partition)

    records: list[QueryRecord] = []
    folds: list[FoldInfo] = []
    for person in persons:
        seed = _fold_seed(config.seed, person_rank[person])
        train, test = split_lopo(dataset, person)
        train_persons = set(train.persons())
        if person in train_persons or any(
            seg.person_id == person for seg in train.segments
        ):
            raise RuntimeError(f"fold hygiene violated for person {person!r}")
        cache_key = (person, config.encoding, config.gamma, config.fraction, config.seed)
        if encoder_cache is not None and cache_key in encoder_cache:
            encoded, encoder_ids = encoder_cache[cache_key]
        else:
            encoded, encoder_ids = _fold_encodings(dataset, train, config, seed)
            if encoder_cache is not None:
                encoder_cache[cache_key] = (encoded, encoder_ids)
        records += _classify_fold(
            train, test, encoded, taxonomy, mode, method, config, partition, cmap, seed
        )
        folds.append(
            FoldInfo(
                person=person,
                train_segment_ids=tuple(seg.segment_id for seg in train.segments),
                train_persons=tuple(sorted(train_persons)),
                encoder_segment_ids=encoder_ids,
            )
        )

    position = {seg.segment_id: i for i, seg in enumerate(dataset.segments)}
    records.sort(key=lambda rec: position[rec.segment_id])
    class_names = tuple(component[0] for component in partition)
    index = {name: i for i, name in enumerate(class_names)}
    confusion = np.zeros((len(class_names), len(class_names)), dtype=np.int64)
    correct = 0
    for rec in records:
        confusion[index[rec.true_class], index[rec.predicted_class]] += 1
        correct += rec.true_class == rec.predicted_class
    snapshot: dict[str, object] = {"method": method, "mode": mode}
    snapshot.update(
        {
            "encoding": config.encoding,
            "gamma": config.gamma,
            "m": config.m,
            "z": config.z,
            "t": config.t,
            "k": config.k,
            "lambda": config.lam,
            "fraction": config.fraction,
            "epochs": config.epochs,
            "step": config.step,
            "seed": config.seed,
        }
    )
    return EvalReport(
        records=records,
        accuracy=correct / len(records) if records else 0.0,
        classes=class_names,
        confusion=confusion,
        config=snapshot,
        folds=folds,
    )


def sweep(
    dataset: Dataset,
    taxonomy: semantics.Taxonomy | None,
    mode: str,
    method: str,
    grid: dict[str, list],
    base: EvalConfig,
) -> list[SweepPoint]:
    """One LOPO run per grid point, in deterministic product order.

    Grid keys are any of z, t, m, gamma, k; missing keys fall back to
    the base config's value.  Fold encoders are cached per gamma so
    walk-parameter points do not retrain models.
    """
    for key in grid:
        if key not in SWEEP_KEYS:
            raise ValueError(f"unknown sweep key {key!r}")
    if not grid:
        raise ValueError("empty sweep grid")
    axes = [list(grid.get(key, [getattr(base, key)])) for key in SWEEP_KEYS]
    cache: dict = {}
    points = []
    for z, t, m, gamma, k in itertools.product(*axes):
        config = replace(base, z=z, t=t, m=m, gamma=gamma, k=k)
        report = run_lopo(
            dataset, taxonomy, mode, method, config, encoder_cache=cache
        )
        points.append(
            SweepPoint(z=z, t=t, m=m, gamma=gamma, k=k, accuracy=report.accuracy)
        )
    return points


def format_sweep(points: list[SweepPoint]) -> str:
    """Tab-separated sweep table with a stable column order."""
    lines = ["z\tt\tm\tgamma\tk\taccuracy"]
    for p in points:
        lines.append(f"{p.z}\t{p.t}\t{p.m}\t{p.gamma}\t{p.k}\t{p.accuracy!r}")
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
