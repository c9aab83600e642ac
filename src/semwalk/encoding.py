"""Fixed-length video encodings: bag-of-words and Fisher vectors.

Per-video descriptor matrices are turned into comparable vectors in two
ways.  A codebook learned by k-means yields an L1-normalized hard
assignment histogram ("bow").  A diagonal-covariance Gaussian mixture
fitted by EM yields a Fisher vector ("fv"): the concatenated gradients
of the video's average log-likelihood with respect to the component
means and variances, whitened by the mixture parameters, then passed
through signed-square-root power normalization and L2-normalized.

Both trainers are seeded and single-threaded, so a fixed seed produces
bit-identical models and encodings on one platform.  Trained models are
immutable; encoding different videos in parallel is safe.

Memory: training and Fisher encoding share one E-step (`_e_step`)
laid out components x points, so every reduction over the components
runs along contiguous rows of points.  Its Gaussian log-densities come
from the expanded Mahalanobis form, two components x dim @ dim x points
products on data centred once per fit or video and stored transposed,
dim x points (`_centred`), so the largest EM temporaries are
points x dim or components x points; its log-normalizer is scipy's
logsumexp algorithm in plain numpy, reduced over the components axis
(`_logsumexp_columns`).  The M-step and the Fisher gradients take the
responsibilities' sufficient statistics (S0, S1, S2), components x dim
each, as products of the same components x points array.  k-means
builds one points x centers array per fit and reuses it, and each
center update sorts the pool by label once.

Nearest neighbors: `distance` compares one encoding with every row of
a stack.  `shortlist` bounds the rows that can be among the k nearest
with one matrix-vector product and a rounding-error margin, so callers
take `distance` on those rows only and get the same neighbors and
bits as from every row, with no rows x length temporary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import atomic_write_text

BOW = "bow"
FV = "fv"

# Reciprocal-weight normalization downstream cannot take 1/0, so zero
# distances between duplicate vectors are floored by this epsilon.
DISTANCE_EPSILON = 1e-12


@dataclass(frozen=True, eq=False)
class EncodedVector:
    """A fixed-length vector of one kind ("bow" or "fv").

    `values` is one encoding, or, from `stack`, several encodings of
    that kind stacked row-wise: the form `distance` and `shortlist`
    compare against.
    """

    values: np.ndarray
    kind: str

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """Each row's squared Euclidean length, computed on first use and
        read-only; the stack's values must not change after that."""
        norms = np.vecdot(self.values, self.values)
        norms.flags.writeable = False
        return norms


@dataclass(frozen=True, eq=False)
class Codebook:
    """k-means centers for bag-of-words encoding.

    `inertia_history` records the sum of squared distances to the
    nearest center after every assignment step (non-increasing).
    `converged` is True when the fit stopped on stable labels and False
    when it stopped at `max_iters` (or was read back by `load_model`).
    """

    centers: np.ndarray
    inertia_history: list[float]
    converged: bool = False

    @property
    def size(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True, eq=False)
class GmmModel:
    """Diagonal-covariance Gaussian mixture.

    `log_likelihood_history` records the per-point average
    log-likelihood after every EM iteration (non-decreasing up to
    floating-point slack).  `converged` is True when the fit stopped on
    `tol` and False when it stopped at `max_iters` (or was read back by
    `load_model`).
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood_history: list[float]
    converged: bool = False

    @property
    def components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def subsample(
    descriptor_sets: list[np.ndarray], fraction: float, seed: int
) -> np.ndarray:
    """Pool a per-video random sample of descriptors for model training.

    From each video, ceil(fraction * rows) descriptors are drawn
    uniformly without replacement with a generator seeded once, so the
    pool is deterministic for a fixed seed and input order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if not descriptor_sets:
        raise ValueError("no descriptor sets to subsample")
    rng = np.random.default_rng(seed)
    picked = []
    for values in descriptor_sets:
        values = np.asarray(values, dtype=np.float64)
        count = math.ceil(fraction * values.shape[0])
        idx = rng.choice(values.shape[0], size=count, replace=False)
        picked.append(values[np.sort(idx)])
    return np.vstack(picked)


def _point_terms(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-point factors of `_squared_distances`: 2x and |x|^2."""
    return 2.0 * points, np.sum(points**2, axis=1)[:, None]


def _squared_distances(
    terms: tuple[np.ndarray, np.ndarray],
    centers: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise squared Euclidean distances, points x centers.

    |x|^2 - 2x.c + |c|^2, clipped at 0, from the points' `_point_terms`
    (taken once by callers that compare one pool against many centers),
    built in one points x centers array, `out` if given.
    """
    twice, norms = terms
    sq = np.matmul(twice, centers.T, out=out)
    np.subtract(norms, sq, out=sq)
    np.add(sq, np.sum(centers**2, axis=1), out=sq)
    return np.maximum(sq, 0.0, out=sq)


def _kmeans_pp_init(
    pool: np.ndarray,
    k: int,
    rng: np.random.Generator,
    terms: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Seeded k-means++ center selection (D^2 sampling).

    `terms` are the pool's `_point_terms`.
    """
    n = pool.shape[0]
    centers = np.empty((k, pool.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = pool[first]
    closest = _squared_distances(terms, centers[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centers; caller
            # has already verified there are k distinct points.
            raise ValueError("k-means++ exhausted distinct points")
        probs = closest / total
        pick = int(rng.choice(n, p=probs))
        centers[j] = pool[pick]
        closest = np.minimum(closest, _squared_distances(terms, centers[j : j + 1])[:, 0])
    return centers


def train_kmeans(
    pool: np.ndarray, size: int, seed: int, max_iters: int = 100
) -> Codebook:
    """Fit a codebook with k-means++ seeding and Lloyd's iterations.

    Stops when the hard assignments are stable or after `max_iters`.
    The recorded inertia sequence is non-increasing.
    """
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2:
        raise ValueError("pool must be a 2-D matrix of descriptors")
    n = pool.shape[0]
    if size < 1:
        raise ValueError(f"codebook size must be >= 1, got {size}")
    if size > n:
        raise ValueError(f"codebook size {size} exceeds pool size {n}")
    distinct = np.unique(pool, axis=0).shape[0]
    if distinct < size:
        raise ValueError(
            f"pool has only {distinct} distinct descriptors "
            f"(duplicates) for {size} centers"
        )
    rng = np.random.default_rng(seed)
    terms = _point_terms(pool)
    centers = _kmeans_pp_init(pool, size, rng, terms)
    sq = np.empty((n, size))
    inertia_history: list[float] = []
    labels = None
    converged = False
    for _ in range(max_iters):
        sq = _squared_distances(terms, centers, out=sq)
        new_labels = np.argmin(sq, axis=1)
        inertia_history.append(float(sq[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        _update_centers(pool, labels, centers)
    return Codebook(
        centers=centers, inertia_history=inertia_history, converged=converged
    )


def _update_centers(pool: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> None:
    """Move each center to the mean of the points labelled with it, in place.

    One stable sort by label makes each cluster's members, in pool
    order, a contiguous slice: the rows a mask per center would pick,
    so the same means.  An empty cluster keeps its previous center;
    inertia is unaffected since no point is assigned to it.
    """
    order = np.argsort(labels, kind="stable")
    members = pool[order]
    bounds = np.searchsorted(labels[order], np.arange(centers.shape[0] + 1))
    for j in np.flatnonzero(bounds[1:] > bounds[:-1]):
        centers[j] = members[bounds[j] : bounds[j + 1]].mean(axis=0)


def encode_bow(codebook: Codebook, descriptors: np.ndarray) -> EncodedVector:
    """Hard-assignment histogram over codebook centers, L1-normalized.

    Ties in the nearest-center assignment go to the lowest center index.
    """
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.shape[1] != codebook.dim:
        raise ValueError(
            f"descriptor dim {descriptors.shape[1]} != codebook dim {codebook.dim}"
        )
    labels = np.argmin(
        _squared_distances(_point_terms(descriptors), codebook.centers), axis=1
    )
    hist = np.bincount(labels, minlength=codebook.size).astype(np.float64)
    return EncodedVector(values=hist / hist.sum(), kind=BOW)


def _variance_floor(pool: np.ndarray) -> np.ndarray:
    """Per-dimension EM variance floor: 1e-6 * pool variance, min 1e-12."""
    return np.maximum(1e-6 * pool.var(axis=0), 1e-12)


_Centred = tuple[np.ndarray, np.ndarray, np.ndarray]


def _centred(points: np.ndarray) -> _Centred:
    """The points' mean, and the points shifted by it and their squares,
    each stored transposed as a contiguous dim x points array: the form
    the E-step takes, prepared once per set of points."""
    centre = points.mean(axis=0)
    xt = np.subtract(points.T, centre[:, None], order="C")
    return centre, xt, xt * xt


def _log_gaussians(
    centred: _Centred, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """log N(x | mean_k, diag var_k) for every component/point pair, as a
    components x points array.

    The points come `_centred`.  The Mahalanobis term is expanded as
    P.x^2 - (2 mean P).x + mean^2.P with P = 1/var, two matrix products
    with no points x components x dim array.  Points and means are
    shifted by the points' mean, which leaves the term unchanged and
    keeps the expansion's cancellation bounded when the data sit far
    from the origin.
    """
    centre, xt, xt_sq = centred
    mu = means - centre
    precision = 1.0 / variances
    log_det = np.sum(np.log(2.0 * np.pi * variances), axis=1)
    out = precision @ xt_sq
    out -= (2.0 * mu * precision) @ xt
    out += (np.sum(mu * mu * precision, axis=1) + log_det)[:, None]
    out *= -0.5
    return out


def _e_step(
    centred: _Centred,
    weights: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities, components x points (columns sum to 1), and
    per-point log-likelihoods.

    The one E-step shared by EM training and Fisher encoding, on
    `_centred` points; the log-likelihoods come back as a 1 x points row.
    """
    log_joint = _log_gaussians(centred, means, variances)
    log_joint += np.log(weights)[:, None]
    log_norm = _logsumexp_columns(log_joint)
    log_joint -= log_norm
    return np.exp(log_joint, out=log_joint), log_norm


def _logsumexp_columns(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=0)) as a 1 x columns row.

    The algorithm of `scipy.special.logsumexp` (scipy >= 1.15) without
    its array-API dispatch, so the bits are the same: the column maxima
    are taken out of the sum, counted as m, and added back as
    log1p(s / m) + log(m) + max.
    """
    a_max = np.max(a, axis=0, keepdims=True)
    is_max = a == a_max
    shifted = np.subtract(a, a_max)
    np.exp(shifted, out=shifted)
    shifted[is_max] = 0.0
    s = np.sum(shifted, axis=0, keepdims=True)
    m = np.count_nonzero(is_max, axis=0, keepdims=True).astype(np.float64)
    return np.log1p(s / m) + np.log(m) + a_max


def gmm_posteriors(gmm: GmmModel, points: np.ndarray) -> np.ndarray:
    """Component responsibilities for each point, points x components
    (rows sum to 1)."""
    return _e_step(_centred(points), gmm.weights, gmm.means, gmm.variances)[0].T


def train_gmm(
    pool: np.ndarray,
    components: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> GmmModel:
    """Fit a diagonal-covariance mixture by EM.

    Means initialize from an internal k-means run, weights start
    uniform and variances start at the pooled per-dimension variance.
    Iterations stop when the per-point average log-likelihood improves
    by less than `tol`, or at `max_iters`.  Variances are floored every
    step to keep components from collapsing onto duplicate points.  The
    pool is centred once, for every E-step of the fit.
    """
    pool = np.asarray(pool, dtype=np.float64)
    n = pool.shape[0]
    if components < 1:
        raise ValueError(f"component count must be >= 1, got {components}")
    if components > n:
        raise ValueError(f"component count {components} exceeds pool size {n}")
    floor = _variance_floor(pool)
    means = (
        pool.mean(axis=0, keepdims=True).copy()
        if components == 1
        else train_kmeans(pool, components, seed, max_iters=50).centers.copy()
    )
    weights = np.full(components, 1.0 / components)
    variances = np.tile(np.maximum(pool.var(axis=0), floor), (components, 1))
    pool_sq = pool**2
    centred = _centred(pool)
    history: list[float] = []
    converged = False
    for _ in range(max_iters):
        resp, log_norm = _e_step(centred, weights, means, variances)
        history.append(float(log_norm.mean()))
        counts = resp.sum(axis=1)
        safe = np.maximum(counts, 1e-300)
        weights = counts / n
        means = (resp @ pool) / safe[:, None]
        second = (resp @ pool_sq) / safe[:, None]
        variances = np.maximum(second - means**2, floor)
        if weights.min() <= 0.0:
            # A starved component would break the simplex invariant;
            # renormalize away from exact zero.
            weights = np.maximum(weights, 1e-12)
            weights = weights / weights.sum()
        if len(history) > 1 and history[-1] - history[-2] < tol:
            converged = True
            break
    return GmmModel(
        weights=weights,
        means=means,
        variances=variances,
        log_likelihood_history=history,
        converged=converged,
    )


def fisher_gradients(
    gmm: GmmModel, descriptors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Raw (pre-normalization) Fisher gradient blocks for one video.

    Returns the mean-gradient and variance-gradient matrices, each
    components x dim, built from the responsibilities' sufficient
    statistics S0 = sum g, S1 = sum g x and S2 = sum g x^2 (Sanchez et
    al., IJCV 2013), with descriptors and means shifted by the
    descriptors' mean to bound the cancellation in S2 - 2 mean S1 +
    S0 mean^2; the E-step reads the same centred descriptors.  The mean
    block vanishes when every descriptor sits at its component's mean.
    """
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.shape[1] != gmm.dim:
        raise ValueError(
            f"descriptor dim {descriptors.shape[1]} != model dim {gmm.dim}"
        )
    t = descriptors.shape[0]
    centred = _centred(descriptors)
    centre, xt, xt_sq = centred
    resp = _e_step(centred, gmm.weights, gmm.means, gmm.variances)[0]
    mu = gmm.means - centre
    s0 = resp.sum(axis=1)[:, None]
    s1 = resp @ xt.T
    s2 = resp @ xt_sq.T
    root_w = np.sqrt(gmm.weights)[:, None]
    grad_means = (s1 - s0 * mu) / np.sqrt(gmm.variances) / (t * root_w)
    grad_vars = ((s2 - 2.0 * mu * s1 + s0 * mu**2) / gmm.variances - s0) / (
        t * np.sqrt(2.0) * root_w
    )
    return grad_means, grad_vars


def encode_fisher(gmm: GmmModel, descriptors: np.ndarray) -> EncodedVector:
    """Normalized Fisher vector of one video (length 2 * components * dim).

    Concatenates the mean-gradient block and the variance-gradient
    block, applies signed-square-root power normalization, then L2
    normalization.  A video whose raw gradients are identically zero
    encodes to the zero vector (nothing to normalize).
    """
    grad_means, grad_vars = fisher_gradients(gmm, descriptors)
    raw = np.concatenate([grad_means.ravel(), grad_vars.ravel()])
    powered = np.sign(raw) * np.sqrt(np.abs(raw))
    norm = np.linalg.norm(powered)
    if norm > 0.0:
        powered = powered / norm
    return EncodedVector(values=powered, kind=FV)


def stack(vectors: Sequence[EncodedVector]) -> EncodedVector:
    """Encodings of one kind and length stacked row-wise."""
    if not vectors:
        raise ValueError("no encodings to stack")
    kinds = {v.kind for v in vectors}
    if len(kinds) != 1:
        raise ValueError(f"mixed encoding kinds: {sorted(kinds)}")
    lengths = {v.values.shape for v in vectors}
    if len(lengths) != 1:
        raise ValueError(f"mixed encoding lengths: {sorted(lengths)}")
    values = np.vstack([v.values for v in vectors])
    values.flags.writeable = False
    return EncodedVector(values=values, kind=kinds.pop())


def _check_comparable(a: EncodedVector, b: EncodedVector) -> None:
    """Raise unless `b` stacks encodings of `a`'s kind and length."""
    if a.kind != b.kind:
        raise ValueError(f"encoding kind mismatch: {a.kind!r} vs {b.kind!r}")
    if a.values.ndim != 1 or b.values.ndim != 2 or b.values.shape[1:] != a.values.shape:
        raise ValueError(
            f"encoding length mismatch: {a.values.shape} vs {b.values.shape}"
        )


def distance(a: EncodedVector, b: EncodedVector) -> np.ndarray:
    """Euclidean distances from one encoding to each row of a stack.

    `b` is encodings of `a`'s kind stacked row-wise (`stack`); the
    result holds one distance per row, each sqrt(vecdot(a - b, a - b)).
    """
    _check_comparable(a, b)
    diff = a.values - b.values
    return np.sqrt(np.vecdot(diff, diff))


def shortlist(query: EncodedVector, stacked: EncodedVector, k: int) -> np.ndarray:
    """Ascending indices of every row of `stacked` that can be among the
    k nearest to `query`, nearness being `distance` with ties to the
    lower index.

    One matrix-vector product against the stack's cached
    `squared_norms` estimates each row's |b|^2 - 2b.q, its squared
    distance less the |q|^2 every row shares.  Rows whose estimate is
    within 2 delta of the k-th smallest are kept, with delta =
    4 (L + 4) (eps (|q|^2 + max |b|^2) + the smallest subnormal) for
    length L: at least twice the rounding error of the expansion and of
    `distance` itself, by the dot-product bound gamma_L |q| |b| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1), so
    any row left out has k kept rows strictly nearer.  Taking
    `distance` on the kept rows and a stable sort therefore gives the
    indices and bits of sorting every row.  Every row is kept when k
    reaches the row count, or when 4 (|q|^2 + max |b|^2) is not finite
    and no bound holds.
    """
    _check_comparable(query, stacked)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows, length = stacked.values.shape
    if k >= rows:
        return np.arange(rows)
    norms = stacked.squared_norms
    scale = float(query.values @ query.values) + float(norms.max())
    if not np.isfinite(4.0 * scale):
        return np.arange(rows)
    estimate = norms - 2.0 * (stacked.values @ query.values)
    kth = np.partition(estimate, k - 1)[k - 1]
    info = np.finfo(np.float64)
    delta = 4.0 * (length + 4) * (info.eps * scale + info.smallest_subnormal)
    return np.flatnonzero(estimate <= kth + 2.0 * delta)


def _format_row(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in values)


def save_model(model: Codebook | GmmModel, path: str | Path) -> None:
    """Write a codebook or mixture as text; load_model round-trips exactly."""
    lines = []
    if isinstance(model, Codebook):
        lines.append(f"{BOW} {model.size} {model.dim}")
        for row in model.centers:
            lines.append(_format_row(row))
    elif isinstance(model, GmmModel):
        lines.append(f"{FV} {model.components} {model.dim}")
        lines.append(_format_row(model.weights))
        for row in model.means:
            lines.append(_format_row(row))
        for row in model.variances:
            lines.append(_format_row(row))
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_model_row(path: Path, lineno: int, line: str) -> np.ndarray:
    """One body line of a model file as finite floats."""
    fields = line.split()
    row = np.empty(len(fields))
    for c, field in enumerate(fields):
        try:
            row[c] = float(field)
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: non-numeric field {field!r}"
            ) from None
    if not np.all(np.isfinite(row)):
        raise ValueError(f"{path}: line {lineno}: non-finite value")
    return row


def load_model(path: str | Path) -> Codebook | GmmModel:
    """Read a model file written by save_model.

    Raises a ValueError naming the file, and the line where there is
    one, for a last line without its newline (save_model ends every
    line with one, so the file was cut short), a malformed header or
    body, a non-numeric or non-finite value, a variance <= 0, or
    mixture weights that are not all positive or do not sum to 1
    within 1e-9.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if text and not text.endswith("\n"):
        raise ValueError(f"{path}: line {len(lines)}: no newline after {lines[-1]!r}")
    numbered = [(lineno, ln) for lineno, ln in enumerate(lines, 1) if ln.strip()]
    if not numbered:
        raise ValueError(f"{path}: empty model file")
    header_line = numbered[0][1]
    header = header_line.split()
    if len(header) != 3 or header[0] not in (BOW, FV):
        raise ValueError(f"{path}: bad model header {header_line!r}")
    kind = header[0]
    try:
        gamma, dim = int(header[1]), int(header[2])
    except ValueError:
        raise ValueError(f"{path}: non-integer model header {header_line!r}") from None
    if gamma < 1 or dim < 1:
        raise ValueError(f"{path}: model sizes must be >= 1, got {gamma}x{dim}")
    linenos = [lineno for lineno, _ in numbered[1:]]
    body = [_parse_model_row(path, lineno, ln) for lineno, ln in numbered[1:]]
    if kind == BOW:
        if len(body) != gamma or any(row.shape[0] != dim for row in body):
            raise ValueError(f"{path}: codebook body does not match header")
        return Codebook(centers=np.vstack(body), inertia_history=[])
    if len(body) != 1 + 2 * gamma:
        raise ValueError(f"{path}: mixture body does not match header")
    weights = body[0]
    if weights.shape[0] != gamma:
        raise ValueError(f"{path}: expected {gamma} weights, got {weights.shape[0]}")
    if any(row.shape[0] != dim for row in body[1:]):
        raise ValueError(f"{path}: mixture rows do not match header dims")
    if np.any(weights <= 0.0):
        raise ValueError(f"{path}: line {linenos[0]}: mixture weights must be > 0")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"{path}: line {linenos[0]}: mixture weights sum to {total!r}, not 1"
        )
    means = np.vstack(body[1 : 1 + gamma])
    variances = np.vstack(body[1 + gamma :])
    bad_rows = np.flatnonzero(np.any(variances <= 0.0, axis=1))
    if bad_rows.size:
        lineno = linenos[1 + gamma + bad_rows[0]]
        raise ValueError(f"{path}: line {lineno}: variances must be > 0")
    return GmmModel(
        weights=weights, means=means, variances=variances, log_likelihood_history=[]
    )


def encode(model: Codebook | GmmModel, descriptors: np.ndarray) -> EncodedVector:
    """Encode one video with whichever model was trained."""
    if isinstance(model, Codebook):
        return encode_bow(model, descriptors)
    return encode_fisher(model, descriptors)
