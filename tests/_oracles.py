"""Independent brute-force reference implementations used by tests.

These deliberately avoid the library's vectorized code paths: plain
loops over pairs and paths, element-by-element, so they can disagree
with the implementation if either is wrong.
"""
import itertools

import numpy as np
from scipy.sparse import csr_array

from semwalk.encoding import distance, fisher_gradients, gmm_posteriors


def brute_force_edges(distances, is_related, m):
    """Undirected edge set per the construction rules, built pair by pair.

    Returns (semantic, visual) sets of (i, j) pairs with i < j:
    semantic pairs are all related pairs; visual pairs are the m
    globally closest unrelated pairs plus each node's single closest
    unrelated partner.
    """
    n = distances.shape[0]
    semantic = set()
    unrelated = []
    for i in range(n):
        for j in range(i + 1, n):
            if is_related(i, j):
                semantic.add((i, j))
            else:
                unrelated.append((distances[i, j], i, j))
    unrelated.sort()
    visual = {(i, j) for _, i, j in unrelated[:m]}
    for i in range(n):
        best = None
        for j in range(n):
            if j == i or is_related(i, j):
                continue
            if best is None or (distances[i, j], j) < (distances[i, best], best):
                best = j
        if best is not None:
            visual.add((min(i, best), max(i, best)))
    return semantic, visual


def loop_rank_global(distances, related_pair):
    """`graph.rank_global` pair by pair, by `brute_force_edges`' rule:
    every unrelated (i, j) with i < j, sorted by (distance, i, j), as an
    E x 2 intp array."""
    n = distances.shape[0]
    unrelated = []
    for i in range(n):
        for j in range(i + 1, n):
            if not related_pair[i, j]:
                unrelated.append((distances[i, j], i, j))
    unrelated.sort()
    return np.array([(i, j) for _, i, j in unrelated], dtype=np.intp).reshape(-1, 2)


def loop_rank_local(distances, related_pair):
    """`graph.rank_local` node by node, by `brute_force_edges`' rule: the
    first unrelated partner at the smallest distance, or -1 when a node
    has none."""
    n = distances.shape[0]
    partner = np.full(n, -1, dtype=np.intp)
    for i in range(n):
        for j in range(n):
            if j == i or related_pair[i, j]:
                continue
            if partner[i] < 0 or distances[i, j] < distances[i, partner[i]]:
                partner[i] = j
    return partner


def loop_normalize_transitions(graph):
    """Transition matrix by sorted loops over the directed edges, edge by
    edge, each undirected pair taken in both directions.

    Row sums accumulate in (i, j) order, the order the library's
    array version must reproduce bit for bit.
    """
    n = len(graph.nodes)
    rows, cols, vals = [], [], []
    recip_sums = np.zeros(n)
    directed = []
    for i, j, w, _tag in graph.undirected_pairs():
        directed.append(((i, j), w))
        directed.append(((j, i), w))
    ordered = sorted(directed)
    for (i, _j), w in ordered:
        if w <= 0.0:
            raise ValueError(f"non-positive edge weight {w} out of node {i}")
        recip_sums[i] += 1.0 / w
    if np.any(recip_sums == 0.0):
        missing = int(np.argmax(recip_sums == 0.0))
        raise ValueError(f"node {missing} has no outgoing edges")
    for (i, j), w in ordered:
        rows.append(i)
        cols.append(j)
        vals.append((1.0 / w) / recip_sums[i])
    return csr_array((vals, (rows, cols)), shape=(n, n))


def enumerate_walk(transition, start, steps):
    """Distribution after `steps` moves, summed over every explicit path."""
    n = transition.shape[0]
    out = np.zeros(n)
    for path in itertools.product(range(n), repeat=steps + 1):
        p = start[path[0]]
        for a, b in zip(path, path[1:]):
            p *= transition[a, b]
        out[path[-1]] += p
    return out


def closure_partition(items, are_related):
    """Equivalence classes by repeated pairwise merging (not BFS)."""
    classes = [{a} for a in items]
    merged = True
    while merged:
        merged = False
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                if any(
                    are_related(a, b) for a in classes[i] for b in classes[j]
                ):
                    classes[i] |= classes.pop(j)
                    merged = True
                    break
            if merged:
                break
    return {frozenset(c) for c in classes}


def random_taxonomy_lines(rng, size):
    """Random acyclic taxonomy: lines plus the meaning ids it defines."""
    lines = []
    ids = []
    n_synsets = max(1, size // 2)
    for i in range(size):
        meaning = f"v{i}.v.1"
        synset = f"s{int(rng.integers(n_synsets))}"
        if i > 0 and rng.random() < 0.5:
            parent = f"v{int(rng.integers(i))}.v.1"
        else:
            parent = "-"
        lines.append(f"{meaning}\t{synset}\t{parent}")
        ids.append(meaning)
    return lines, ids


def broadcast_log_gaussians(points, means, variances):
    """log N(x | mean_k, diag var_k) from one points x components x dim
    broadcast, the reference the library's expanded kernel is held to
    within a tolerance.
    """
    log_det = np.sum(np.log(2.0 * np.pi * variances), axis=1)
    diff = points[:, None, :] - means[None, :, :]
    mahalanobis = np.sum(diff**2 / variances[None, :, :], axis=2)
    return -0.5 * (log_det[None, :] + mahalanobis)


def einsum_fisher_gradients(gmm, descriptors):
    """Raw Fisher gradient blocks from one rows x components x dim array
    of whitened differences, the reference the library's
    sufficient-statistics form is held to within a tolerance.  The
    responsibilities come from the library's E-step, so only the
    gradients' assembly is compared.
    """
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.shape[1] != gmm.dim:
        raise ValueError(
            f"descriptor dim {descriptors.shape[1]} != model dim {gmm.dim}"
        )
    t = descriptors.shape[0]
    resp = gmm_posteriors(gmm, descriptors)
    sigma = np.sqrt(gmm.variances)
    diff = (descriptors[:, None, :] - gmm.means[None, :, :]) / sigma[None, :, :]
    root_w = np.sqrt(gmm.weights)[:, None]
    grad_means = np.einsum("tk,tkd->kd", resp, diff) / (t * root_w)
    grad_vars = np.einsum("tk,tkd->kd", resp, diff**2 - 1.0) / (
        t * np.sqrt(2.0) * root_w
    )
    return grad_means, grad_vars


def per_video_fisher_vector(gmm, descriptors):
    """One video's Fisher vector from its own `fisher_gradients`: the two
    blocks concatenated, signed square roots, then divided by
    `np.linalg.norm` unless that is 0, the bits the library's block
    encoding must reproduce.
    """
    grad_means, grad_vars = fisher_gradients(gmm, descriptors)
    raw = np.concatenate([grad_means.ravel(), grad_vars.ravel()])
    powered = np.sign(raw) * np.sqrt(np.abs(raw))
    norm = np.linalg.norm(powered)
    return powered / norm if norm > 0.0 else powered


def expanded_squared_distances(points, centers):
    """|x|^2 - 2x.c + |c|^2 clipped at 0, each term computed afresh,
    the form whose bits the library's k-means kernel must reproduce.
    """
    sq = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def loop_nearest_centers(points, centers):
    """Each point's nearest center and its squared distance, point by
    point: the first index of the smallest `expanded_squared_distances`
    entry in the point's row, and that entry.
    """
    sq = expanded_squared_distances(points, centers)
    labels = np.empty(len(points), dtype=np.intp)
    for i, row in enumerate(sq.tolist()):
        labels[i] = min(range(len(row)), key=row.__getitem__)
    return labels, sq[np.arange(len(points)), labels]


def loop_read_descriptor_file(path):
    """Descriptor matrix parsed line by line and token by token with
    `float()`, the reader whose values and error messages the library's
    one-call parse must reproduce; like the library, it refuses a last
    line without its line end.
    """
    with open(path, encoding="utf-8") as fh:
        raw = list(fh)
    lines = [line.rstrip("\n") for line in raw]
    if raw and not raw[-1].endswith("\n"):
        raise ValueError(f"{path}: line {len(lines)}: no newline after {lines[-1]!r}")
    if not lines:
        raise ValueError(f"{path}: empty descriptor file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: line 1: header must be 'rows dim', got {lines[0]!r}")
    counts = []
    for field, what in zip(header, ("rows", "dim")):
        try:
            counts.append(int(field))
        except ValueError:
            raise ValueError(f"{path}: line 1: non-integer {what} {field!r}") from None
        if counts[-1] < 1:
            raise ValueError(f"{path}: line 1: {what} must be >= 1, got {counts[-1]}")
    rows, dim = counts
    body = [
        (lineno, line.split())
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]
    if len(body) != rows:
        raise ValueError(f"{path}: header declares {rows} rows, body has {len(body)}")
    values = []
    for r, (lineno, tokens) in enumerate(body):
        if len(tokens) != dim:
            raise ValueError(
                f"{path}: line {lineno}: row {r + 1} has {len(tokens)} values, "
                f"expected {dim}"
            )
        row = []
        for token in tokens:
            try:
                row.append(float(token))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: row {r + 1}: non-numeric value {token!r}"
                ) from None
        values.append(row)
    for r, (lineno, _tokens) in enumerate(body):
        if not all(np.isfinite(v) for v in values[r]):
            raise ValueError(f"{path}: line {lineno}: row {r + 1}: non-finite value")
    return np.array(values, dtype=np.float64)


def mask_update_centers(pool, labels, centers):
    """k-means center update with one boolean mask per center, in place,
    the form whose bits the library's bincount update must reproduce.
    """
    for j in range(centers.shape[0]):
        members = pool[labels == j]
        if members.shape[0] > 0:
            centers[j] = members.mean(axis=0)


def sequential_update_centers(pool, labels, centers):
    """k-means center update adding each cluster's members one at a time
    in pool order, then dividing by their count, in place: the sums the
    library's update must reproduce at every dim, dim 1 included, where
    numpy's pairwise `mean` rounds differently.
    """
    sums = np.zeros_like(centers)
    counts = np.zeros(centers.shape[0], dtype=np.int64)
    for point, j in zip(pool, labels):
        sums[j] += point
        counts[j] += 1
    for j in range(centers.shape[0]):
        if counts[j] > 0:
            centers[j] = sums[j] / counts[j]


def loop_markov_walk(transition, start, steps):
    """Walk that transposes the matrix afresh on every step."""
    out = np.array(start, dtype=np.float64)
    for _ in range(steps):
        out = transition.T @ out
    return out


def forward_class_distribution(graph, A, classes, starts, t):
    """Class distributions of an n x k block of start vectors, walked
    forwards: the block moved t steps by `loop_markov_walk`, then each
    column's node mass added per class by `np.bincount`, in node order.
    """
    names = [component[0] for component in classes]
    class_of = {
        annotation: c for c, component in enumerate(classes) for annotation in component
    }
    node_class = [class_of[node.annotation] for node in graph.nodes]
    walked = loop_markov_walk(A, starts, t)
    return [
        dict(zip(names, np.bincount(node_class, weights=column, minlength=len(names)).tolist()))
        for column in walked.T
    ]


def centred_broadcast_log_gaussians(centred, means, variances):
    """`broadcast_log_gaussians` taking the E-step's `_centred` form: the
    shifted points against the means shifted by the same centre, the
    same densities.
    """
    centre, x, _x_sq = centred
    return broadcast_log_gaussians(x, means - centre, variances)


def full_sort_nearest(query, stacked, k):
    """Ascending indices of the k rows nearest `query` in (distance,
    index) order, from one stable sort of `distance` to every row: the
    smallest shortlist, and what any shortlist must contain.
    """
    order = np.argsort(distance(query, stacked), kind="stable")[:k]
    return np.sort(order)
