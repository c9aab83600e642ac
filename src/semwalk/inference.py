"""Embedding a query into the graph and walking to a label distribution.

A query video is never inserted into the transition matrix.  Instead,
its distances to all training nodes seed a start vector q: the z
visually closest nodes receive reciprocal-distance-normalized mass and
everything else zero.  Multiplying q by the transition matrix t times
gives the probability of standing on each training node after t steps;
summing node mass per semantic class gives the label distribution, and
the argmax is the predicted class.

With t = 0 the pipeline degenerates to reciprocal-distance-weighted
z-nearest-neighbor voting over classes.

Many queries are classified as one block: each is embedded on its own,
then one walk moves all start vectors at once as the columns of an
n x k matrix.  Each column gets exactly the floats it would get alone.
A walk takes the transpose of the transition matrix once and applies
it t times; the node -> class index comes from the graph's annotation
codes, so each call maps only the graph's distinct annotations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_array

from . import semantics
from .encoding import DISTANCE_EPSILON, EncodedVector, distance
from .graph import SvgGraph


@dataclass(frozen=True)
class WalkConfig:
    """Walk knobs: z start neighbors, t steps."""

    z: int = 4
    t: int = 8

    def __post_init__(self) -> None:
        if self.z < 1:
            raise ValueError(f"z must be >= 1, got {self.z}")
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")


def embed_query(
    graph: SvgGraph, distances_to_nodes: np.ndarray, z: int
) -> np.ndarray:
    """The start vector q over nodes, from query-to-node distances.

    The z smallest distances pick the neighbor set (ties to the lowest
    node index, z clamped to the node count), the nodes where q is
    positive; their mass is the same reciprocal normalization the
    transition matrix uses, over epsilon-floored distances.
    """
    distances_to_nodes = np.asarray(distances_to_nodes, dtype=np.float64)
    n = distances_to_nodes.shape[0]
    if n == 0:
        raise ValueError("cannot embed a query into an empty graph")
    if len(graph.nodes) != n:
        raise ValueError(
            f"distance vector length {n} != node count {len(graph.nodes)}"
        )
    if not np.all(np.isfinite(distances_to_nodes)):
        raise ValueError("query distances must be finite")
    neighbors = np.argsort(distances_to_nodes, kind="stable")[: min(z, n)]
    recip = 1.0 / (distances_to_nodes[neighbors] + DISTANCE_EPSILON)
    q = np.zeros(n)
    q[neighbors] = recip / recip.sum()
    return q


def markov_walk(A: csr_array, q: np.ndarray, t: int) -> np.ndarray:
    """Distribution over nodes after t steps: q multiplied by A t times.

    q is one start vector or an n x k block of them, one per column.
    t = 0 returns q itself; each column sums to one whenever q's does.
    """
    q = np.asarray(q, dtype=np.float64)
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    if A.shape[0] != A.shape[1] or A.shape[0] != q.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, q has {q.shape[0]}")
    out = q.copy()
    AT = A.T
    for _ in range(t):
        out = AT @ out
    return out


def class_distribution(
    node_dists: np.ndarray,
    graph: SvgGraph,
    classes: list[tuple[str, ...]],
) -> list[dict[str, float]]:
    """Accumulate node mass into semantic classes, one column at a time.

    `node_dists` is an n x k block of node distributions, one per
    column; the result is their k class distributions.  Every class in
    the partition appears in each (possibly with zero mass), and its
    probabilities sum to one when the column does.
    """
    node_dists = np.asarray(node_dists, dtype=np.float64)
    mapping = semantics.class_map(classes)
    names = [component[0] for component in classes]
    position = {name: c for c, name in enumerate(names)}
    # Annotations in first-appearance order, so the first one missing is
    # the first node's in node order.
    annotations, codes = graph.annotation_codes
    annotation_class = np.empty(len(annotations), dtype=np.intp)
    for c, annotation in enumerate(annotations):
        name = mapping.get(annotation)
        if name is None:
            raise ValueError(
                f"node annotation {annotation!r} missing from class partition"
            )
        annotation_class[c] = position[name]
    node_class = annotation_class[codes]
    # bincount adds each class's nodes in index order, starting from 0.
    out = []
    for column in node_dists.T:
        sums = np.bincount(node_class, weights=column, minlength=len(names))
        out.append(dict(zip(names, sums.tolist())))
    return out


def argmax_class(distribution: dict[str, float]) -> str:
    """Highest-probability class; exact ties go to the smallest name."""
    if not distribution:
        raise ValueError("empty class distribution")
    best = max(distribution.values())
    return min(name for name, p in distribution.items() if p == best)


def query_distances(graph: SvgGraph, query_vector: EncodedVector) -> np.ndarray:
    """Distances from a query encoding to every node vector."""
    return distance(query_vector, graph.vector_matrix)


def classify_batch(
    graph: SvgGraph,
    A: csr_array,
    taxonomy: semantics.Taxonomy | None,
    mode: str,
    query_vectors: Sequence[EncodedVector],
    config: WalkConfig,
    classes: list[tuple[str, ...]] | None = None,
) -> list[tuple[str, dict[str, float]]]:
    """Embed, walk, aggregate and argmax each query, walking them as one block.

    `classes` defaults to the partition of the graph's own annotations;
    an evaluation harness may pass a wider partition (for example one
    covering annotations that only occur in test data) as long as it
    covers every node annotation.  Results are in query order.
    """
    if classes is None:
        classes = semantics.semantic_classes(
            taxonomy, graph.annotation_codes[0], mode
        )
    if not query_vectors:
        return []
    starts = np.empty((len(graph.nodes), len(query_vectors)))
    for k, query_vector in enumerate(query_vectors):
        dists = query_distances(graph, query_vector)
        starts[:, k] = embed_query(graph, dists, config.z)
    node_dists = markov_walk(A, starts, config.t)
    return [
        (argmax_class(dist), dist)
        for dist in class_distribution(node_dists, graph, classes)
    ]


def classify(
    graph: SvgGraph,
    A: csr_array,
    taxonomy: semantics.Taxonomy | None,
    mode: str,
    query_vector: EncodedVector,
    config: WalkConfig,
    classes: list[tuple[str, ...]] | None = None,
) -> tuple[str, dict[str, float]]:
    """Embed, walk, aggregate, argmax: `classify_batch` of one query."""
    return classify_batch(
        graph, A, taxonomy, mode, [query_vector], config, classes
    )[0]
