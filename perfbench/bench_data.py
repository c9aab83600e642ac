"""Seeded planted-cluster inputs for the benchmark, written in the documented formats.

The generator is the benchmark's own: it does not call
``semwalk.gen_synthetic`` or ``semwalk.write_descriptor_file``, so a change
to the program cannot change the inputs it is measured on.  Every byte
written depends only on the arguments, above all ``seed``.

Data shape (the ROADMAP baseline): Gaussian clusters whose means sit on
scaled coordinate axes; the first clusters carry a synonym label pair
(one synset), the next a hypernym/hyponym pair, the rest one label.
Every descriptor row is its cluster mean plus isotropic noise.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SYNONYMS = [("put", "place"), ("take", "grab"), ("switch", "flip"), ("start", "begin")]
_HYPONYMS = [("wash", "rinse"), ("open", "unlock"), ("move", "push")]
_SINGLES = ["stir", "pour", "press", "scan", "fill", "hold"]


@dataclass(frozen=True)
class Shape:
    """Planted data shape shared by every workload."""

    clusters: int = 8
    synonym_clusters: int = 3
    hyponym_clusters: int = 2
    dim: int = 32
    separation: float = 6.0
    sigma: float = 3.0
    rows_per_video: int = 50
    persons: int = 5


def cluster_labels(shape: Shape) -> tuple[list[str], list[list[str]]]:
    """Taxonomy lines and each cluster's meaning ids."""
    taxonomy: list[str] = []
    labels: list[list[str]] = []
    for c in range(shape.clusters):
        if c < shape.synonym_clusters:
            a, b = _SYNONYMS[c]
            taxonomy += [f"{a}.v.1\tsyn.{a}\t-", f"{b}.v.1\tsyn.{a}\t-"]
            labels.append([f"{a}.v.1", f"{b}.v.1"])
        elif c < shape.synonym_clusters + shape.hyponym_clusters:
            parent, child = _HYPONYMS[c - shape.synonym_clusters]
            taxonomy += [
                f"{parent}.v.1\tsyn.{parent}\t-",
                f"{child}.v.1\tsyn.{child}\t{parent}.v.1",
            ]
            labels.append([f"{parent}.v.1", f"{child}.v.1"])
        else:
            verb = _SINGLES[c - shape.synonym_clusters - shape.hyponym_clusters]
            taxonomy.append(f"{verb}.v.1\tsyn.{verb}\t-")
            labels.append([f"{verb}.v.1"])
    return taxonomy, labels


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_descriptors(path: Path, values: np.ndarray) -> None:
    lines = [f"{values.shape[0]} {values.shape[1]}"]
    lines += [" ".join(map(repr, row)) for row in values.tolist()]
    _write_text(path, "\n".join(lines) + "\n")


def write_videos(
    out_dir: Path,
    name: str,
    videos: int,
    shape: Shape,
    rng: np.random.Generator,
    person: str | None = None,
) -> tuple[Path, dict[str, str]]:
    """Write `videos` descriptor files plus a manifest.

    Returns the manifest path and each segment's planted meaning id.

    Videos cycle over the clusters so every cluster gets videos/clusters
    of them.  Every video belongs to `person` when given, otherwise
    persons rotate round-robin over `shape.persons`.  Segment ids are prefixed with
    `name`, so manifests written into one directory never collide.
    """
    if videos % shape.clusters:
        raise ValueError(f"{videos} videos do not split over {shape.clusters} clusters")
    _taxonomy, labels = cluster_labels(shape)
    means = np.zeros((shape.clusters, shape.dim))
    means[np.arange(shape.clusters), np.arange(shape.clusters)] = shape.separation
    desc_dir = out_dir / f"{name}-descriptors"
    desc_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    meanings: dict[str, str] = {}
    for index in range(videos):
        c = index % shape.clusters
        meaning = labels[c][int(rng.integers(len(labels[c])))]
        values = means[c] + shape.sigma * rng.standard_normal(
            (shape.rows_per_video, shape.dim)
        )
        segment_id = f"{name}{index:05d}"
        rel = f"{desc_dir.name}/{segment_id}.txt"
        _write_descriptors(out_dir / rel, values)
        meanings[segment_id] = meaning
        verb = meaning.split(".v.")[0]
        owner = person or f"p{index % shape.persons}"
        lines.append(f"{segment_id}\t{owner}\t{verb}\t{meaning}\t{rel}")
    manifest = out_dir / f"{name}.tsv"
    _write_text(manifest, "\n".join(lines) + "\n")
    return manifest, meanings


def synset_classes(shape: Shape) -> dict[str, str]:
    """Meaning id -> class name under relation mode `as`.

    Synonym pairs form one class; hypernym/hyponym pairs do not relate
    under `as`.  A class is named by its smallest member, as the
    program's reports name it.
    """
    out: dict[str, str] = {}
    for c, labels in enumerate(cluster_labels(shape)[1]):
        if c < shape.synonym_clusters:
            out.update({label: min(labels) for label in labels})
        else:
            out.update({label: label for label in labels})
    return out


def write_taxonomy(out_dir: Path, shape: Shape) -> Path:
    taxonomy, _labels = cluster_labels(shape)
    path = out_dir / "taxonomy.tsv"
    _write_text(path, "\n".join(taxonomy) + "\n")
    return path

