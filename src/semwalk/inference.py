"""Embedding a query into the graph and walking to a label distribution.

A query video is never inserted into the transition matrix.  Instead,
its distances to the training nodes seed a start vector q: the z
visually closest nodes receive reciprocal-distance-normalized mass and
everything else zero.  Multiplying q by the transition matrix t times
gives the probability of standing on each training node after t steps;
summing node mass per semantic class gives the label distribution, and
the argmax is the predicted class (`argmax_class`: masses within a
rounding allowance of the top tie, and ties go to the smallest name).

With t = 0 the pipeline degenerates to reciprocal-distance-weighted
z-nearest-neighbor voting over classes.

The walk is read backwards (Szummer & Jaakkola, NIPS 2002): with M the
nodes x classes indicator of the class partition, row i of the class
mass table C = A^t M is the class distribution of a walk of t steps
started at node i.  A query's distribution q A^t M is then the
start-mass-weighted sum of C's rows at its z nearest nodes.  C depends
only on the graph, the transition matrix, t and the partition, so
`class_distribution` walks it once and `classify_batch` keeps it on the
graph (`SvgGraph.class_mass_tables`); every later query reads z rows of
it.  Rows are added in ascending node order, so a query's distribution
does not depend on the batch it arrives in, and at t = 0 (C = M) it has
the bits of summing its start mass per class in node order.

The z closest nodes come from `encoding.shortlist`, which bounds every
query's candidates with queries x nodes products of a bounded size; exact
distances are taken on those nodes only, so the neighbors and their
distances are those of a stable sort over every node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array

from . import semantics
from .encoding import DISTANCE_EPSILON, EncodedVector, distance, shortlist
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
    transition matrix uses, over epsilon-floored distances.  z must be
    >= 1, as in `WalkConfig`.
    """
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")
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
    q = np.zeros(n)
    q[neighbors] = _start_mass(distances_to_nodes[neighbors])
    return q


def _start_mass(distances: np.ndarray) -> np.ndarray:
    """Start mass of the chosen neighbors, in the order given: the
    transition matrix's reciprocal normalization over epsilon-floored
    distances."""
    recip = 1.0 / (distances + DISTANCE_EPSILON)
    return recip / recip.sum()


def markov_walk(A: csc_array, q: np.ndarray, t: int) -> np.ndarray:
    """Distribution over nodes after t steps: q multiplied by A t times.

    q is one start vector or an n x k block of them, one per column.
    t = 0 returns q itself; each column sums to one whenever q's does.
    Each step applies A.T, adding every node's incoming mass in
    ascending source order.  `markov_walk(A.T, M, t)` walks backwards
    and returns A^t M: with A from `normalize_transitions` (stored by
    columns) that applies A itself, and with M a nodes x classes
    indicator its rows are per-node class masses, each summing to one.
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


def argmax_class(distribution: dict[str, float], t: int = 0, z: int = 1) -> str:
    """Highest-probability class of a walk of t steps from z start nodes;
    ties go to the smallest name.

    Classes whose mass is within 4 (t + z) ulps of the top mass (ulps at
    the top mass) tie.  Masses equal in exact arithmetic come out a few
    ulps apart, by amounts that depend on the order of the walk's sums
    (forward, q A^t M, or backward, the rows of C = A^t M) and grow
    with t and z; the allowance makes them tie in either order.  It is
    a rounding allowance, not a worst-case error bound, which would
    also grow with the nodes' degrees.
    """
    if not distribution:
        raise ValueError("empty class distribution")
    best = max(distribution.values())
    floor = best - 4 * (t + z) * np.spacing(best)
    return min(name for name, p in distribution.items() if p >= floor)


def query_distances(
    graph: SvgGraph, queries: EncodedVector, z: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The z nodes nearest each row of a stack of query encodings, and
    their distances; one (nodes, distances) pair per query, in order.

    Nodes come in (distance, index) order, z clamped to the node count.
    `distance` is taken only on the nodes one `shortlist` of every query
    keeps, so nodes and distances are bit for bit those of a stable
    sort of the distances to every node.  A distance that is not finite
    is rejected.
    """
    nodes = graph.vector_matrix
    out = []
    for values, rows in zip(queries.values, shortlist(queries, nodes, z)):
        query = EncodedVector(values, queries.kind)
        dists = distance(query, EncodedVector(nodes.values[rows], nodes.kind))
        if not np.all(np.isfinite(dists)):
            raise ValueError("query distances must be finite")
        order = np.argsort(dists, kind="stable")[:z]
        out.append((rows[order], dists[order]))
    return out


def class_distribution(
    graph: SvgGraph, A: csc_array, t: int, classes: list[tuple[str, ...]]
) -> np.ndarray:
    """Each node's class distribution after t steps: the nodes x classes
    table C = A^t M.

    M is the indicator of each node's class in `classes`; row i of C is
    the class mass of a walk started at node i, in the order of
    `classes`, and sums to one.  A node annotation the partition lacks
    is rejected, the first node's first.
    """
    mapping = semantics.class_map(classes)
    position = {component[0]: c for c, component in enumerate(classes)}
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
    indicator = np.zeros((len(graph.nodes), len(classes)))
    indicator[np.arange(len(graph.nodes)), annotation_class[codes]] = 1.0
    return markov_walk(A.T, indicator, t)


def classify_batch(
    graph: SvgGraph,
    A: csc_array,
    taxonomy: semantics.Taxonomy | None,
    mode: str,
    queries: EncodedVector,
    config: WalkConfig,
    classes: list[tuple[str, ...]] | None = None,
) -> list[tuple[str, dict[str, float]]]:
    """Embed, walk, aggregate and argmax each query of a stack.

    `queries` is the query encodings stacked (`encoding.stack`).  Each
    query's distribution is the start-mass-weighted sum of the
    `class_distribution` rows at its z nearest nodes, added in ascending
    node order, so it is the same alone or in any batch; one
    `query_distances` call finds the nearest nodes of all.  The table is
    walked once per (graph, A, t, classes) and kept on the graph, so A
    must not be changed in place once it has been walked.  `classes`
    defaults to the partition of the graph's own annotations; an
    evaluation harness may pass a wider partition (for example one
    covering annotations that only occur in test data) as long as it
    covers every node annotation.  Results are in query order.
    """
    if classes is None:
        classes = semantics.semantic_classes(
            taxonomy, graph.annotation_codes[0], mode
        )
    if not len(queries.values):
        return []
    key = (id(A), config.t, tuple(classes))
    entry = graph.class_mass_tables.get(key)
    # The entry holds A, so no other matrix can take its id meanwhile.
    if entry is None or entry[0] is not A:
        table = class_distribution(graph, A, config.t, classes)
        table.flags.writeable = False
        entry = graph.class_mass_tables[key] = (A, table)
    table = entry[1]
    names = [component[0] for component in classes]
    out = []
    for nearest, dists in query_distances(graph, queries, config.z):
        mass = _start_mass(dists)
        order = np.argsort(nearest)
        # A sum over axis 0 adds the rows one after another, in order.
        sums = (mass[order, None] * table[nearest[order]]).sum(axis=0)
        dist = dict(zip(names, sums.tolist()))
        out.append((argmax_class(dist, config.t, config.z), dist))
    return out


def classify(
    graph: SvgGraph,
    A: csc_array,
    taxonomy: semantics.Taxonomy | None,
    mode: str,
    query_vector: EncodedVector,
    config: WalkConfig,
    classes: list[tuple[str, ...]] | None = None,
) -> tuple[str, dict[str, float]]:
    """Embed, walk, aggregate, argmax: `classify_batch` of a one-row stack
    of the query."""
    queries = EncodedVector(query_vector.values[None], query_vector.kind)
    return classify_batch(graph, A, taxonomy, mode, queries, config, classes)[0]
