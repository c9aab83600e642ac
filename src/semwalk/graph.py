"""The semantic-visual graph over labelled training videos.

Nodes are training videos.  An undirected edge links two nodes when
their annotations are semantically related under the active mode, and
additional "visual ambiguity" edges link semantically unrelated nodes
that look alike:

* the m globally closest unrelated pairs, ranked over all such pairs,
* plus, for every node, its single closest unrelated node.

Each undirected edge is stored once, with ends i < j, and carries the
visual distance between its endpoints (epsilon-floored so duplicates
stay normalizable).  Row-normalizing reciprocal weights over both
directions of every edge yields the transition matrix: short edges get
high traversal probability, and rows sum to one.  The matrix is
asymmetric in general because the two endpoints normalize over
different neighborhoods.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.sparse import csr_array

from . import semantics
from .dataset import atomic_write_text
from .encoding import DISTANCE_EPSILON, EncodedVector, stack
from .encoding import _point_terms, _squared_distances

SEMANTIC = "semantic"
VISUAL = "visual"


@dataclass(frozen=True, eq=False)
class SvgNode:
    segment_id: str
    annotation: str
    vector: EncodedVector | None


@dataclass(frozen=True, eq=False)
class SvgGraph:
    """Nodes and undirected edges, each edge stored once with i < j.

    Edge k joins `ends[k, 0]` < `ends[k, 1]` (an E x 2 intp array whose
    rows are unique and in ascending (i, j) order) with weight
    `weights[k]` > 0; `semantic[k]` is True for a semantic edge and
    False for a visual one.  The three arrays are made read-only here.
    """

    nodes: list[SvgNode]
    ends: np.ndarray
    weights: np.ndarray
    semantic: np.ndarray
    mode: str
    m: int

    def __post_init__(self) -> None:
        for array in (self.ends, self.weights, self.semantic):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.nodes)

    def undirected_pairs(self) -> list[tuple[int, int, float, str]]:
        """Each edge once as (i, j, weight, tag) with i < j, in (i, j) order."""
        tags = [SEMANTIC if s else VISUAL for s in self.semantic.tolist()]
        i, j = self.ends.T.tolist()
        return list(zip(i, j, self.weights.tolist(), tags))

    @cached_property
    def vector_matrix(self) -> EncodedVector:
        """Node vectors stacked row-wise, built on first use.

        Requires vectors to be attached; the stack is read-only.
        """
        if any(node.vector is None for node in self.nodes):
            raise ValueError("graph nodes carry no vectors")
        stacked = stack([node.vector for node in self.nodes])
        stacked.values.flags.writeable = False
        return stacked

    @cached_property
    def annotation_codes(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Distinct node annotations in first-appearance order, and each
        node's index into them (read-only), built on first use."""
        index: dict[str, int] = {}
        codes = np.fromiter(
            (index.setdefault(node.annotation, len(index)) for node in self.nodes),
            dtype=np.intp,
            count=len(self.nodes),
        )
        codes.flags.writeable = False
        return tuple(index), codes


def distance_matrix(vectors: Sequence[EncodedVector]) -> np.ndarray:
    """Symmetric pairwise Euclidean distances with a zero diagonal."""
    if len(vectors) < 2:
        raise ValueError("need at least 2 vectors")
    stacked = stack(vectors).values
    dist = np.sqrt(_squared_distances(_point_terms(stacked), stacked))
    np.fill_diagonal(dist, 0.0)
    return (dist + dist.T) / 2.0


def rank_global(distances: np.ndarray, related_pair: np.ndarray) -> np.ndarray:
    """All semantically unrelated pairs, closest first, as an E x 2 intp array.

    Row k is a pair (i, j) with i < j; rows ascend by distance with ties
    broken by (i, j).  Related pairs never appear; if every pair is
    related the array has no rows.
    """
    i, j = np.nonzero(np.triu(~related_pair, k=1))
    # nonzero lists pairs in (i, j) order, and a stable sort keeps it on ties.
    order = np.argsort(distances[i, j], kind="stable")
    return np.column_stack((i[order], j[order]))


def rank_local(distances: np.ndarray, related_pair: np.ndarray) -> np.ndarray:
    """Each node's closest semantically unrelated node, as an intp array.

    Ties go to the lowest index; a node related to every other node gets
    -1 (no local visual edge is needed then).
    """
    unrelated = ~related_pair
    np.fill_diagonal(unrelated, False)
    # argmin returns the first minimum, so ties go to the lowest index.
    partner = np.argmin(np.where(unrelated, distances, np.inf), axis=1)
    partner[~unrelated.any(axis=1)] = -1
    return partner


def build_svg(
    nodes: Sequence[SvgNode],
    taxonomy: semantics.Taxonomy | None,
    mode: str,
    m: int,
) -> SvgGraph:
    """Construct the semantic-visual graph over training nodes.

    The undirected edge set is the union of all related pairs, the top
    m unrelated pairs by global distance rank, and each node's closest
    unrelated node.  Edge weights are the pairwise distances plus a
    floor epsilon; an edge is semantic exactly when its ends are related.
    """
    if len(nodes) < 2:
        raise ValueError(f"graph needs at least 2 training videos, got {len(nodes)}")
    if m < 0:
        raise ValueError(f"visual edge budget m must be >= 0, got {m}")
    annotations = [node.annotation for node in nodes]
    vectors = [node.vector for node in nodes]
    if any(v is None for v in vectors):
        raise ValueError("all nodes must carry encoded vectors")
    distances = distance_matrix(vectors)
    related_pair = semantics.relation_table(taxonomy, annotations, mode)

    # Edges are marked in the upper triangle, so nonzero lists them in
    # canonical (i, j) order.
    marked = np.triu(related_pair, k=1)
    top = rank_global(distances, related_pair)[:m]
    marked[top[:, 0], top[:, 1]] = True
    partner = rank_local(distances, related_pair)
    node = np.flatnonzero(partner >= 0)
    marked[np.minimum(node, partner[node]), np.maximum(node, partner[node])] = True
    i, j = np.nonzero(marked)
    return SvgGraph(
        nodes=list(nodes), ends=np.column_stack((i, j)),
        weights=distances[i, j] + DISTANCE_EPSILON, semantic=related_pair[i, j],
        mode=mode, m=m,
    )


def normalize_transitions(graph: SvgGraph) -> csr_array:
    """Row-stochastic transition matrix from reciprocal edge weights.

    A[i, j] = (1 / w_ij) / sum_k (1 / w_ik): the shortest edge out of a
    node gets the largest probability, and each row sums to one.
    """
    n = len(graph.nodes)
    ends = np.concatenate((graph.ends, graph.ends[:, ::-1]))
    weights = np.concatenate((graph.weights, graph.weights))
    # Row sums accumulate over both directions in (i, j) order, the
    # order of `tests/_oracles.py::loop_normalize_transitions`.
    order = np.lexsort((ends[:, 1], ends[:, 0]))
    rows, cols, weights = ends[order, 0], ends[order, 1], weights[order]
    bad = np.flatnonzero(weights <= 0.0)
    if bad.size:
        raise ValueError(
            f"non-positive edge weight {float(weights[bad[0]])} "
            f"out of node {int(rows[bad[0]])}"
        )
    # A tiny weight overflows its reciprocal, or the row's sum, to inf;
    # that row is rejected below instead of turning into NaN or zeros.
    with np.errstate(over="ignore"):
        recip = 1.0 / weights
    recip_sums = np.bincount(rows, weights=recip, minlength=n)
    if np.any(recip_sums == 0.0):
        missing = int(np.argmax(recip_sums == 0.0))
        raise ValueError(f"node {missing} has no outgoing edges")
    overflow = np.flatnonzero(~np.isfinite(recip_sums))
    if overflow.size:
        raise ValueError(
            f"reciprocal edge weights out of node {int(overflow[0])} sum to "
            f"{float(recip_sums[overflow[0]])}, not a finite number"
        )
    return csr_array((recip / recip_sums[rows], (rows, cols)), shape=(n, n))


def save_graph(graph: SvgGraph, path: str | Path) -> None:
    """Dump the graph as text: a node section then an edge section.

    Nodes are written as `index segment_id annotation` in index order;
    undirected edges as `i j weight tag` sorted by (i, j).  The dump is
    deterministic, diffable, and sufficient to rebuild the structure
    (vectors are not stored; re-encode to re-attach them).
    """
    lines = [f"nodes {len(graph.nodes)} mode {graph.mode} m {graph.m}"]
    for idx, node in enumerate(graph.nodes):
        lines.append(f"{idx} {node.segment_id} {node.annotation}")
    pairs = graph.undirected_pairs()
    lines.append(f"edges {len(pairs)}")
    for i, j, w, tag in pairs:
        lines.append(f"{i} {j} {w!r} {tag}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _header_count(path: Path, lineno: int, field: str, what: str) -> int:
    """A non-negative integer from a graph-dump header."""
    try:
        value = int(field)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: non-integer {what} {field!r}") from None
    if value < 0:
        raise ValueError(f"{path}: line {lineno}: {what} must be >= 0, got {value}")
    return value


def load_graph(path: str | Path) -> SvgGraph:
    """Rebuild graph structure from a save_graph dump (vectors are None).

    The node and edge counts the dump declares must match its lines
    exactly: a truncated dump or one with trailing lines is rejected.
    So are a non-integer count, node index or edge end, an edge whose
    ends are not two distinct nodes, a weight that is not a finite
    number > 0, and an edge listed twice in either direction.  Every
    error is a ValueError naming the file and, where there is one, the
    line.  Edge lines may come in any order and with either end first:
    the graph holds each edge once, in canonical (i, j) order.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "nodes" or header[2] != "mode" or header[4] != "m":
        raise ValueError(f"{path}: bad graph header {lines[0]!r}")
    count = _header_count(path, 1, header[1], "node count")
    mode, m = header[3], _header_count(path, 1, header[5], "m")
    if len(lines) < 2 + count:
        raise ValueError(
            f"{path}: truncated: {min(len(lines) - 1, count)} of {count} node lines "
            "and no edge header"
        )
    nodes: list[SvgNode] = []
    for lineno, line in enumerate(lines[1 : 1 + count], start=2):
        # Annotation comes last and may contain spaces (e.g. "wash up.v.3").
        fields = line.split(" ", 2)
        if len(fields) != 3:
            raise ValueError(f"{path}: line {lineno}: bad node line {line!r}")
        idx, segment_id, annotation = fields
        if idx != str(len(nodes)):
            raise ValueError(
                f"{path}: line {lineno}: node index {idx!r}, expected {len(nodes)}"
            )
        nodes.append(SvgNode(segment_id=segment_id, annotation=annotation, vector=None))
    edge_header = lines[1 + count].split()
    if len(edge_header) != 2 or edge_header[0] != "edges":
        raise ValueError(f"{path}: bad edge header {lines[1 + count]!r}")
    edge_count = _header_count(path, 2 + count, edge_header[1], "edge count")
    edge_lines = lines[2 + count :]
    if len(edge_lines) < edge_count:
        raise ValueError(
            f"{path}: truncated: {len(edge_lines)} of {edge_count} edge lines"
        )
    if len(edge_lines) > edge_count:
        raise ValueError(
            f"{path}: {len(edge_lines) - edge_count} trailing line(s) after "
            f"{edge_count} edges, from line {3 + count + edge_count}"
        )
    edges: dict[tuple[int, int], tuple[float, bool]] = {}
    for lineno, line in enumerate(edge_lines, start=3 + count):
        fields = line.split()
        if len(fields) != 4 or fields[3] not in (SEMANTIC, VISUAL):
            raise ValueError(f"{path}: line {lineno}: bad edge line {line!r}")
        try:
            i, j, w = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad edge line {line!r}") from None
        if not (0 <= i < count and 0 <= j < count and i != j):
            raise ValueError(f"{path}: line {lineno}: bad edge ends {i} {j}")
        if not (w > 0.0 and math.isfinite(w)):
            raise ValueError(
                f"{path}: line {lineno}: edge weight must be finite and > 0, got {w!r}"
            )
        pair = (i, j) if i < j else (j, i)
        if pair in edges:
            raise ValueError(f"{path}: line {lineno}: duplicate edge {i} {j}")
        edges[pair] = (w, fields[3] == SEMANTIC)
    pairs = sorted(edges)
    return SvgGraph(
        nodes=nodes, ends=np.array(pairs, dtype=np.intp).reshape(-1, 2),
        weights=np.array([edges[pair][0] for pair in pairs], dtype=np.float64),
        semantic=np.array([edges[pair][1] for pair in pairs], dtype=bool),
        mode=mode, m=m,
    )


def with_vectors(graph: SvgGraph, vectors: dict[str, EncodedVector]) -> SvgGraph:
    """Attach encoded vectors to a structure-only graph by segment id."""
    for node in graph.nodes:
        if node.segment_id not in vectors:
            raise ValueError(f"no encoded vector for segment {node.segment_id!r}")
    nodes = [replace(node, vector=vectors[node.segment_id]) for node in graph.nodes]
    return replace(graph, nodes=nodes)
