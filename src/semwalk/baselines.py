"""Comparison classifiers: K-NN and a class-weighted linear model.

Both operate on encoded vectors labelled with semantic class names
(annotations already mapped through the active partition).  The linear
model is a one-vs-all hinge-loss classifier trained by seeded
stochastic subgradient descent; each sample's loss is scaled by its
class weight w(c) = 1 / prior(c)^lambda, which upweights rare classes
for lambda > 0 and reduces to plain unweighted training at lambda = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import EncodedVector, distance, shortlist

# L2 shrink applied to the scorers at every SGD step.
REG = 1e-4


def class_priors(labels: Sequence[str]) -> dict[str, float]:
    """Empirical class frequencies; values sum to one."""
    if not labels:
        raise ValueError("empty training set")
    priors: dict[str, float] = {}
    for label in labels:
        priors[label] = priors.get(label, 0.0) + 1.0
    total = float(len(labels))
    return {label: count / total for label, count in sorted(priors.items())}


def class_weights(priors: dict[str, float], lam: float) -> dict[str, float]:
    """Inverse-prior class weights w(c) = 1 / prior(c)^lambda."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    for label, prior in priors.items():
        if prior <= 0.0:
            raise ValueError(f"class {label!r} has non-positive prior {prior}")
    return {label: 1.0 / prior**lam for label, prior in priors.items()}


def knn_vote(
    train_vectors: EncodedVector,
    train_labels: Sequence[str],
    queries: EncodedVector,
    k: int,
) -> list[tuple[str, dict[str, float]]]:
    """Majority vote over each query's k nearest neighbors, with vote
    shares; one (label, shares) per query, in order.

    `train_vectors` is the training set stacked once, and `queries` the
    query encodings stacked (`encoding.stack`).  Neighbor selection
    orders by (distance, index), with `distance` taken only on the rows
    one `encoding.shortlist` of all the queries keeps for each; vote
    ties prefer the tied class with the smaller mean neighbor distance,
    then the lexicographically smaller name.  k is clamped to the
    training size.  A distance that is not finite is rejected.
    """
    size = train_vectors.values.shape[0]
    if size == 0:
        raise ValueError("empty training set")
    if size != len(train_labels):
        raise ValueError("vectors and labels differ in length")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, size)
    out = []
    for values, rows in zip(queries.values, shortlist(queries, train_vectors, k)):
        query = EncodedVector(values, queries.kind)
        near = EncodedVector(train_vectors.values[rows], train_vectors.kind)
        dists = distance(query, near)
        if not np.all(np.isfinite(dists)):
            raise ValueError("query distances must be finite")
        order = np.argsort(dists, kind="stable")[:k]
        votes: dict[str, int] = {}
        dist_sums: dict[str, float] = {}
        for idx, dist in zip(rows[order].tolist(), dists[order].tolist()):
            label = train_labels[idx]
            votes[label] = votes.get(label, 0) + 1
            dist_sums[label] = dist_sums.get(label, 0.0) + dist
        top = max(votes.values())
        tied = [label for label, count in votes.items() if count == top]
        winner = min(tied, key=lambda lb: (dist_sums[lb] / votes[lb], lb))
        shares = {label: count / k for label, count in sorted(votes.items())}
        out.append((winner, shares))
    return out


@dataclass(frozen=True, eq=False)
class LinearModel:
    """One-vs-all linear scorers: a weight row and bias per class."""

    classes: tuple[str, ...]
    weights: np.ndarray
    biases: np.ndarray


def train_weighted_linear(
    train_vectors: EncodedVector,
    train_labels: Sequence[str],
    weights: dict[str, float],
    epochs: int = 100,
    step: float = 0.1,
    seed: int = 0,
) -> LinearModel:
    """Train one-vs-all hinge-loss scorers by seeded SGD.

    `train_vectors` is the training set stacked (`encoding.stack`).
    Each epoch shuffles the samples with the seeded generator and takes
    one subgradient step per sample per class scorer, scaling the hinge
    subgradient by the sample's class weight, and shrinks every scorer
    by the fixed L2 factor `REG` (the encoded inputs are already
    normalized by construction).  Deterministic for a fixed seed.  A
    training vector that is not finite is rejected.
    """
    x = train_vectors.values
    if x.shape[0] != len(train_labels):
        raise ValueError("vectors and labels differ in length")
    if not train_labels:
        raise ValueError("empty training set")
    if not np.all(np.isfinite(x)):
        raise ValueError("training vectors must be finite")
    classes = tuple(sorted(set(train_labels)))
    dim = x.shape[1]
    w = np.zeros((len(classes), dim))
    b = np.zeros(len(classes))
    if len(classes) == 1:
        return LinearModel(classes=classes, weights=w, biases=b)
    for label in classes:
        if label not in weights:
            raise ValueError(f"missing class weight for {label!r}")
    class_index = {label: c for c, label in enumerate(classes)}
    y = np.full((len(classes), len(train_labels)), -1.0)
    for idx, label in enumerate(train_labels):
        y[class_index[label], idx] = 1.0
    sample_weight = np.array([weights[label] for label in train_labels])
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for idx in rng.permutation(len(train_labels)):
            xi = x[idx]
            margins = y[:, idx] * (w @ xi + b)
            active = margins < 1.0
            w *= 1.0 - step * REG
            if np.any(active):
                coef = step * sample_weight[idx] * y[active, idx]
                w[active] += coef[:, None] * xi[None, :]
                b[active] += coef
    return LinearModel(classes=classes, weights=w, biases=b)


def predict_linear(model: LinearModel, query: EncodedVector) -> str:
    """Argmax class score; ties go to the lexicographically first class.

    A query vector that is not finite is rejected.
    """
    if not np.all(np.isfinite(query.values)):
        raise ValueError("query vector must be finite")
    scores = model.weights @ query.values + model.biases
    return model.classes[int(np.argmax(scores))]
