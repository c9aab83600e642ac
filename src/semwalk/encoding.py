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
points x dim or components x points; one exponentiation of that
components x points array, shifted by each point's largest term, gives
both the responsibilities and the log-likelihoods.  Every mixture
statistic reads `_centred` points only: the M-step, the variance floor
and the Fisher gradients take the sufficient statistics (S0, S1, S2)
from one `_statistics`, so mixtures and Fisher vectors do not change
when descriptors are shifted.
k-means labels points with one kernel, `_nearest_centers`: the points
are lifted once per fit or block to [x, 1], and one product against
[-2c, |c|^2] scores every center; the argmin of the scores is the
nearest center, since |x|^2 is the same for all of them, and the
point's squared distance to it, which k-means++ samples by and the
inertia sums, is |x|^2 plus its score.  A fit fills one points x
centers array of scores per assignment step and reuses it, and each
center update takes every cluster's sums from one `np.bincount` per
dimension, over the pool stored dim x points.  `encode_many` stacks
videos of equal row count into videos x rows x dim blocks (`_blocks`).
Bag-of-words blocks hold at most `_BLOCK_ROWS` rows, so their largest
temporary, the block's videos x rows x centers scores, is no larger
than the points x centers array of a fit on that many points.  Fisher
blocks hold at most `_FISHER_BLOCK_ROWS` rows and run the one E-step
and `_statistics` on the whole block, so only videos that share their
row count share the per-call costs; a video whose row count no other
video has is encoded alone, as by `encode`.  A block's centred
descriptors and their squares are videos x dim x rows, its
log-densities videos x components x rows, so a block's temporaries are
a small multiple of `_FISHER_BLOCK_ROWS` x max(dim, components) doubles
however many videos are encoded.  `np.matmul` takes one product per
video of a block, so each video gets the bits it gets alone.

Nearest neighbors: `distance` compares one encoding with every row of
a stack.  `shortlist` bounds, for each query of a stack, the rows that
can be among its k nearest with a queries x rows product and the
query's own rounding-error margin, so callers take `distance` on those
rows only and get the same neighbors and bits as from every row.  The
product is its one large temporary, with no rows x length one, and
holds at most `_SHORTLIST_BLOCK` estimates: more queries than that
allows are taken in blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dataset import atomic_write_text, parse_count, parse_reals, read_lines

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

    `inertia_history` records, after every assignment step, the sum of
    the squared distances to the nearest centers that `_nearest_centers`
    returns (non-increasing up to rounding).
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
    pool is deterministic for a fixed seed and input order.  A set that
    is not 2-D, or whose dim differs from the first set's, raises a
    ValueError naming its index.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if not descriptor_sets:
        raise ValueError("no descriptor sets to subsample")
    rng = np.random.default_rng(seed)
    picked = []
    dim = None
    for index, values in enumerate(descriptor_sets):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(
                f"descriptor set {index} must be a 2-D rows x dim matrix, "
                f"got shape {values.shape}"
            )
        if dim is None:
            dim = values.shape[1]
        elif values.shape[1] != dim:
            raise ValueError(
                f"descriptor set {index} has dim {values.shape[1]}, set 0 has {dim}"
            )
        count = math.ceil(fraction * values.shape[0])
        idx = rng.choice(values.shape[0], size=count, replace=False)
        picked.append(values[np.sort(idx)])
    return np.vstack(picked)


def _lifted(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The form `_nearest_centers` takes: the points with a trailing
    column of ones, points x (dim + 1) or a stack of them, and their
    squared norms |x|^2."""
    lifted = np.empty(points.shape[:-1] + (points.shape[-1] + 1,))
    lifted[..., :-1] = points
    lifted[..., -1] = 1.0
    return lifted, np.sum(points**2, axis=-1)


def _nearest_centers(
    lifted: tuple[np.ndarray, np.ndarray],
    centers: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest center, ties to the lowest index, and its
    squared distance to it, for `_lifted` points (one matrix or a stack).

    One product [x, 1].[-2c, |c|^2]^T scores |c|^2 - 2x.c for every
    center, into `out` if given; |x|^2 is the same for every center, so
    the argmin needs no more.  The distance is max(|x|^2 + score, 0).
    A stack gets one matrix product per matrix, so each gets the bits
    it gets alone.
    """
    points, norms = lifted
    lifted_centers = np.empty((centers.shape[1] + 1, centers.shape[0]))
    np.multiply(centers.T, -2.0, out=lifted_centers[:-1])
    lifted_centers[-1] = np.sum(centers**2, axis=-1)
    scores = np.matmul(points, lifted_centers, out=out)
    if centers.shape[0] == 1:
        # Every point's nearest is center 0: the column k-means++ adds
        # per step needs no search.
        labels, nearest = np.zeros(scores.shape[:-1], dtype=np.intp), scores[..., 0]
    else:
        labels = np.argmin(scores, axis=-1)
        nearest = np.take_along_axis(scores, labels[..., None], axis=-1)[..., 0]
    return labels, np.maximum(norms + nearest, 0.0)


def _kmeans_pp_init(
    pool: np.ndarray,
    k: int,
    rng: np.random.Generator,
    lifted: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Seeded k-means++ center selection (D^2 sampling); `lifted` is the
    pool `_lifted`.

    Raises a ValueError when every point left has distance 0 to a
    chosen center before k are chosen.
    """
    n = pool.shape[0]
    centers = np.empty((k, pool.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = pool[first]
    closest = _nearest_centers(lifted, centers[:1])[1]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            raise ValueError("k-means++ exhausted distinct points")
        probs = closest / total
        pick = int(rng.choice(n, p=probs))
        centers[j] = pool[pick]
        closest = np.minimum(closest, _nearest_centers(lifted, centers[j : j + 1])[1])
    return centers


def _checked_pool(pool: np.ndarray) -> np.ndarray:
    """A training pool as a finite float64 points x dim matrix, or a
    ValueError."""
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2:
        raise ValueError("pool must be a 2-D matrix of descriptors")
    if not np.isfinite(pool).all():
        raise ValueError("pool must be finite (no NaN or inf values)")
    return pool


def _require_distinct(pool: np.ndarray, size: int) -> None:
    """Raise unless the pool has at least `size` distinct rows."""
    distinct = np.unique(pool, axis=0).shape[0]
    if distinct < size:
        raise ValueError(
            f"pool has only {distinct} distinct descriptors "
            f"(duplicates) for {size} centers"
        )


def train_kmeans(
    pool: np.ndarray, size: int, seed: int, max_iters: int = 100
) -> Codebook:
    """Fit a codebook with k-means++ seeding and Lloyd's iterations.

    Each assignment step labels every point with its nearest center
    (ties to the lowest index) and records the inertia, the sum of the
    squared distances to those centers, both from one
    `_nearest_centers` product.  Stops when the labels are stable or
    after `max_iters`.  The recorded inertia sequence is non-increasing
    up to rounding.  A pool with fewer than `size` distinct rows raises
    a ValueError; it is counted only when the k-means++ centers are not
    `size` distinct rows, which they are whenever the pool has enough.
    """
    pool = _checked_pool(pool)
    n = pool.shape[0]
    if size < 1:
        raise ValueError(f"codebook size must be >= 1, got {size}")
    if size > n:
        raise ValueError(f"codebook size {size} exceeds pool size {n}")
    rng = np.random.default_rng(seed)
    lifted, columns = _lifted(pool), np.ascontiguousarray(pool.T)
    try:
        centers = _kmeans_pp_init(pool, size, rng, lifted)
    except ValueError:
        _require_distinct(pool, size)
        raise
    if np.unique(centers, axis=0).shape[0] < size:
        _require_distinct(pool, size)
    scores = np.empty((n, size))
    inertia_history: list[float] = []
    labels = None
    converged = False
    for _ in range(max_iters):
        new_labels, sq = _nearest_centers(lifted, centers, out=scores)
        inertia_history.append(float(sq.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        _update_centers(columns, labels, centers)
    return Codebook(
        centers=centers, inertia_history=inertia_history, converged=converged
    )


def _update_centers(columns: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> None:
    """Move each center to the mean of the points labelled with it, in place;
    `columns` is the pool stored dim x points.

    One weighted `np.bincount` per dimension sums every cluster's members
    in pool order, and each sum is divided by its member count.  For
    dim >= 2 that is numpy's `mean(axis=0)` of the members bit for bit,
    which adds rows in order too; at dim 1 numpy sums pairwise, so the
    means differ from it in the last bits.  An empty cluster keeps its
    previous center; inertia is unaffected since no point is assigned to it.
    """
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    sums = np.empty_like(centers)
    for d, column in enumerate(columns):
        sums[:, d] = np.bincount(labels, weights=column, minlength=k)
    filled = counts > 0
    centers[filled] = sums[filled] / counts[filled, None]


def _checked_descriptors(descriptors: np.ndarray, dim: int) -> np.ndarray:
    """One video's descriptors as a float64 rows x dim matrix, or a
    ValueError naming the shape or the problem: not 2-D, no rows, another
    dim than the model's, or a value that is not finite."""
    values = np.asarray(descriptors, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(
            f"descriptors must be a 2-D rows x dim matrix, got shape {values.shape}"
        )
    if values.shape[0] == 0:
        raise ValueError(f"descriptors have no rows (shape {values.shape})")
    if values.shape[1] != dim:
        raise ValueError(f"descriptor dim {values.shape[1]} != model dim {dim}")
    if not np.isfinite(values).all():
        raise ValueError("descriptors must be finite (no NaN or inf values)")
    return values


# Rows per bag-of-words block: its videos x rows x centers distances stay
# at or below the points x centers array of a fit on a pool that large.
_BLOCK_ROWS = 4096
# Rows per Fisher block: its descriptors, their centred copy and squares
# (videos x dim x rows each) and its components x rows log-densities stay
# a few MB at dim 64; larger blocks only grow the process's peak memory.
_FISHER_BLOCK_ROWS = 1024
# Estimates per shortlist product (2 MB): a LOPO fold of 256 queries
# against 1,024 training videos is one product, and a larger batch of
# queries is split rather than held queries x rows at once.
_SHORTLIST_BLOCK = 256 * 1024


def _blocks(sets: list[np.ndarray], block_rows: int) -> Iterator[list[int]]:
    """Indices of the videos of equal row count, in blocks of at most
    `block_rows` rows (one video when it alone has more)."""
    groups: dict[int, list[int]] = {}
    for index, values in enumerate(sets):
        groups.setdefault(values.shape[0], []).append(index)
    for rows, members in groups.items():
        step = max(1, block_rows // rows)
        for start in range(0, len(members), step):
            yield members[start : start + step]


def _bow_histograms(codebook: Codebook, sets: list[np.ndarray]) -> list[EncodedVector]:
    """The bag-of-words histogram (`encode_bow`) of each checked
    descriptor matrix.

    Videos are stacked in `_blocks` of at most `_BLOCK_ROWS` rows; one
    `_nearest_centers` call labels a block's descriptors and one
    `np.bincount` of label + video * k counts every histogram of the
    block.
    """
    k = codebook.size
    hists = np.empty((len(sets), k))
    for chunk in _blocks(sets, _BLOCK_ROWS):
        labels = _nearest_centers(
            _lifted(np.stack([sets[i] for i in chunk])), codebook.centers
        )[0]
        labels += np.arange(len(chunk))[:, None] * k
        counts = np.bincount(labels.ravel(), minlength=len(chunk) * k)
        counts = counts.reshape(len(chunk), k)
        hists[chunk] = counts / counts.sum(axis=1, keepdims=True)
    return [EncodedVector(values=row, kind=BOW) for row in hists]


def encode_bow(codebook: Codebook, descriptors: np.ndarray) -> EncodedVector:
    """Hard-assignment histogram over codebook centers, L1-normalized.

    Ties in the nearest-center assignment go to the lowest center index.
    """
    return _bow_histograms(codebook, [_checked_descriptors(descriptors, codebook.dim)])[0]


_Centred = tuple[np.ndarray, np.ndarray, np.ndarray]


def _centred(points: np.ndarray) -> _Centred:
    """The points' mean, and the points shifted by it and their squares,
    each stored transposed as a contiguous dim x points array: the form
    the E-step takes, prepared once per set of points.  A videos x rows
    x dim stack gives videos x dim means and videos x dim x rows arrays,
    each video's with the bits it gets alone."""
    centre = points.mean(axis=-2)
    xt = np.subtract(points.mT, centre[..., None], order="C")
    return centre, xt, xt * xt


def _log_gaussians(
    centred: _Centred, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """log N(x | mean_k, diag var_k) for every component/point pair, as a
    components x points array (videos x components x rows for a stack).

    The points come `_centred`.  The Mahalanobis term is expanded as
    P.x^2 - (2 mean P).x + mean^2.P with P = 1/var, two matrix products
    with no points x components x dim array.  Points and means are
    shifted by the points' mean, which leaves the term unchanged and
    keeps the expansion's cancellation bounded when the data sit far
    from the origin.  `np.matmul` takes one product per video of a
    stack, so each video gets the bits it gets alone.
    """
    centre, xt, xt_sq = centred
    mu = means - centre[..., None, :]
    precision = 1.0 / variances
    log_det = np.sum(np.log(2.0 * np.pi * variances), axis=1)
    out = precision @ xt_sq
    out -= (2.0 * mu * precision) @ xt
    out += (np.sum(mu * mu * precision, axis=-1) + log_det)[..., None]
    out *= -0.5
    return out


def _e_step(
    centred: _Centred,
    weights: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities, components x points (columns sum to 1), and
    per-point log-likelihoods as a 1 x points row: the one E-step of EM
    training and Fisher encoding, on `_centred` points (one such pair
    per video of a stack).

    The log-joint less its column maxima is exponentiated once, so its
    column sums s lie in [1, components]; the responsibilities are the
    columns over s, and the log-likelihoods max + log(s).
    """
    log_joint = _log_gaussians(centred, means, variances)
    log_joint += np.log(weights)[:, None]
    top = log_joint.max(axis=-2, keepdims=True)
    log_joint -= top
    resp = np.exp(log_joint, out=log_joint)
    total = resp.sum(axis=-2, keepdims=True)
    resp /= total
    return resp, top + np.log(total)


def _statistics(resp: np.ndarray, centred: _Centred) -> tuple[np.ndarray, ...]:
    """S0 = sum g (components x 1), S1 = sum g x and S2 = sum g x^2
    (components x dim) of components x points `resp` on `_centred` points,
    or of each video of a stack."""
    _, xt, xt_sq = centred
    return resp.sum(axis=-1)[..., None], resp @ xt.mT, resp @ xt_sq.mT


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
    uniform and variances start at the pool's per-dimension spread.
    Iterations stop when the per-point average log-likelihood improves
    by less than `tol`, or at `max_iters`.  Variances are floored every
    step at 1e-6 times that spread (min 1e-12) against collapse onto
    duplicate points.  Every statistic is read from the pool centred once.
    """
    pool = _checked_pool(pool)
    n = pool.shape[0]
    if components < 1:
        raise ValueError(f"component count must be >= 1, got {components}")
    if components > n:
        raise ValueError(f"component count {components} exceeds pool size {n}")
    centre, _, xt_sq = centred = _centred(pool)
    spread = xt_sq.mean(axis=1)
    floor = np.maximum(1e-6 * spread, 1e-12)
    means = (
        centre[None, :]
        if components == 1
        else train_kmeans(pool, components, seed, max_iters=50).centers
    )
    weights = np.full(components, 1.0 / components)
    variances = np.tile(np.maximum(spread, floor), (components, 1))
    history: list[float] = []
    converged = False
    for _ in range(max_iters):
        resp, log_norm = _e_step(centred, weights, means, variances)
        history.append(float(log_norm.mean()))
        s0, s1, s2 = _statistics(resp, centred)
        weights = s0[:, 0] / n
        safe = np.maximum(s0, 1e-300)
        shift = s1 / safe
        means = centre + shift
        variances = np.maximum(s2 / safe - shift**2, floor)
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
    return _fisher_gradients(gmm, _checked_descriptors(descriptors, gmm.dim))


def _fisher_gradients(
    gmm: GmmModel, descriptors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`fisher_gradients` of one checked rows x dim matrix, or of every
    video of a videos x rows x dim stack as two videos x components x
    dim arrays: one E-step and one `_statistics` on the stack, each
    video with the bits it gets alone."""
    t = descriptors.shape[-2]
    centred = _centred(descriptors)
    resp = _e_step(centred, gmm.weights, gmm.means, gmm.variances)[0]
    s0, s1, s2 = _statistics(resp, centred)
    mu = gmm.means - centred[0][..., None, :]
    root_w = np.sqrt(gmm.weights)[:, None]
    grad_means = (s1 - s0 * mu) / np.sqrt(gmm.variances) / (t * root_w)
    grad_vars = ((s2 - 2.0 * mu * s1 + s0 * mu**2) / gmm.variances - s0) / (
        t * np.sqrt(2.0) * root_w
    )
    return grad_means, grad_vars


def _fisher_vectors(gmm: GmmModel, sets: list[np.ndarray]) -> list[EncodedVector]:
    """The Fisher vector (`encode_fisher`) of each checked descriptor
    matrix.

    Videos are stacked in `_blocks` of at most `_FISHER_BLOCK_ROWS` rows;
    one `_fisher_gradients` call takes a block's raw gradients, and each
    row's L2 norm is sqrt(vecdot), the bits of `np.linalg.norm`.  A lone
    video is passed as its rows x dim matrix: stacking it would copy it
    and take the batched products, 11-15 us more on a one-video
    `encode` of about 110 us (50 rows, dim 32, 10 components).
    """
    vectors = [None] * len(sets)
    for chunk in _blocks(sets, _FISHER_BLOCK_ROWS):
        block = sets[chunk[0]] if len(chunk) == 1 else np.stack([sets[i] for i in chunk])
        # Mean block then variance block, each components x dim, per video.
        raw = np.concatenate(_fisher_gradients(gmm, block), axis=-2).reshape(len(chunk), -1)
        powered = np.sign(raw) * np.sqrt(np.abs(raw))
        norms = np.sqrt(np.vecdot(powered, powered))[:, None]
        np.divide(powered, norms, out=powered, where=norms > 0.0)
        for index, row in zip(chunk, powered):
            vectors[index] = EncodedVector(values=row, kind=FV)
    return vectors


def encode_fisher(gmm: GmmModel, descriptors: np.ndarray) -> EncodedVector:
    """Normalized Fisher vector of one video (length 2 * components * dim).

    Concatenates the mean-gradient block and the variance-gradient
    block, applies signed-square-root power normalization, then L2
    normalization.  A video whose raw gradients are identically zero
    encodes to the zero vector (nothing to normalize).
    """
    return _fisher_vectors(gmm, [_checked_descriptors(descriptors, gmm.dim)])[0]


def stack(vectors: Sequence[EncodedVector]) -> EncodedVector:
    """1-D encodings of one kind and length, copied row-wise into one
    read-only stack."""
    if not vectors:
        raise ValueError("no encodings to stack")
    kinds = {v.kind for v in vectors}
    if len(kinds) != 1:
        raise ValueError(f"mixed encoding kinds: {sorted(kinds)}")
    lengths = {v.values.shape for v in vectors}
    if any(len(shape) != 1 for shape in lengths):
        raise ValueError(f"only 1-D encodings stack, got shapes {sorted(lengths)}")
    if len(lengths) != 1:
        raise ValueError(f"mixed encoding lengths: {sorted(lengths)}")
    values = np.array([v.values for v in vectors])
    values.flags.writeable = False
    return EncodedVector(values=values, kind=kinds.pop())


def _check_comparable(a: EncodedVector, b: EncodedVector, ndim: int = 1) -> None:
    """Raise unless `b` stacks encodings of `a`'s kind and length; `a` is
    one encoding (ndim 1) or a stack of them (ndim 2)."""
    if a.kind != b.kind:
        raise ValueError(f"encoding kind mismatch: {a.kind!r} vs {b.kind!r}")
    if (
        a.values.ndim != ndim
        or b.values.ndim != 2
        or b.values.shape[1:] != a.values.shape[ndim - 1 :]
    ):
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


def shortlist(
    queries: EncodedVector, stacked: EncodedVector, k: int
) -> list[np.ndarray]:
    """For each row of `queries`, the ascending indices of every row of
    `stacked` that can be among the k nearest to it, nearness being
    `distance` with ties to the lower index.

    `queries` is a stack too (`stack`).  A queries x rows product
    against `stacked`'s cached `squared_norms` estimates every pair's
    |b|^2 - 2b.q, its squared distance less the |q|^2 every row shares.
    A query keeps the rows whose estimate is within 2 delta of its k-th
    smallest, with delta = 4 (L + 4) (eps (|q|^2 + max |b|^2) + the
    smallest subnormal) for length L: at least twice the rounding error
    of the expansion and of `distance` itself, by the dot-product bound
    gamma_L |q| |b| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1), which holds in any summation order; so
    any row left out has k kept rows strictly nearer.  Taking `distance`
    on the kept rows and a stable sort therefore gives the indices and
    bits of sorting every row, whatever queries share the product.
    Every row is kept when k reaches the row count (every query then
    shares one read-only `np.arange(rows)`), and for a query whose
    4 (|q|^2 + max |b|^2) is not finite, where no bound holds.  Queries
    go into the product in blocks of at most `_SHORTLIST_BLOCK`
    estimates, so its temporaries stay a few MB however many queries
    are passed.
    """
    _check_comparable(queries, stacked, ndim=2)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    count = queries.values.shape[0]
    rows = stacked.values.shape[0]
    if k >= rows:
        every = np.arange(rows)
        every.flags.writeable = False
        return [every] * count
    step = max(1, _SHORTLIST_BLOCK // rows)
    return [
        kept
        for start in range(0, count, step)
        for kept in _shortlist_block(queries.values[start : start + step], stacked, k)
    ]


def _shortlist_block(
    values: np.ndarray, stacked: EncodedVector, k: int
) -> list[np.ndarray]:
    """`shortlist` of a block of query rows, k < rows; its estimates and
    their partitioned copy are freed on return."""
    norms = stacked.squared_norms
    info = np.finfo(np.float64)
    scales = np.vecdot(values, values) + norms.max()
    # No bound holds where 4 scale is not finite: such a query keeps every
    # row and stays out of the product, where it could overflow.
    bounded = scales <= info.max / 4.0
    if not bounded.all():
        kept = [np.arange(norms.shape[0]) for _ in values]
        inner = _shortlist_block(values[bounded], stacked, k)
        for index, rows in zip(np.flatnonzero(bounded).tolist(), inner):
            kept[index] = rows
        return kept
    estimate = values @ stacked.values.T
    estimate *= -2.0
    estimate += norms
    kth = np.partition(estimate, k - 1, axis=1)[:, k - 1]
    # The k-th smallest plus 2 delta, 8 (L + 4) (eps scale + tiny).
    length = stacked.values.shape[1]
    limits = kth + 8.0 * (length + 4) * (info.eps * scales + info.smallest_subnormal)
    return [np.flatnonzero(row <= limit) for row, limit in zip(estimate, limits)]


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


def load_model(path: str | Path) -> Codebook | GmmModel:
    """Read a model file written by save_model.

    Raises a ValueError naming the file, and the line where there is
    one, for a last line without its line end (save_model ends every
    line with one, so the file was cut short), a malformed header, a
    body of the wrong size, a bad row of reals (`parse_reals`), a
    variance <= 0, or mixture weights that are not all positive or do
    not sum to 1 within 1e-9.
    """
    path = Path(path)
    lines, ended = read_lines(path)
    if not ended:
        raise ValueError(f"{path}: line {len(lines)}: no newline after {lines[-1]!r}")
    numbered = [(lineno, ln) for lineno, ln in enumerate(lines, 1) if ln.strip()]
    if not numbered:
        raise ValueError(f"{path}: empty model file")
    (first, header_line), body = numbered[0], numbered[1:]
    header = header_line.split()
    if len(header) != 3 or header[0] not in (BOW, FV):
        raise ValueError(f"{path}: line {first}: bad model header {header_line!r}")
    kind = header[0]
    gamma = parse_count(path, first, header[1], "gamma", 1)
    dim = parse_count(path, first, header[2], "dim", 1)
    declared = gamma if kind == BOW else 1 + 2 * gamma
    if len(body) != declared:
        raise ValueError(f"{path}: header declares {declared} rows, body has {len(body)}")
    if kind == BOW:
        return Codebook(centers=parse_reals(path, body, dim), inertia_history=[])
    weights = parse_reals(path, body[:1], gamma)[0]
    means_and_variances = parse_reals(path, body[1:], dim)
    means, variances = means_and_variances[:gamma], means_and_variances[gamma:]
    if np.any(weights <= 0.0):
        raise ValueError(f"{path}: line {body[0][0]}: mixture weights must be > 0")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"{path}: line {body[0][0]}: mixture weights sum to {total!r}, not 1"
        )
    bad_rows = np.flatnonzero(np.any(variances <= 0.0, axis=1))
    if bad_rows.size:
        lineno = body[1 + gamma + bad_rows[0]][0]
        raise ValueError(f"{path}: line {lineno}: variances must be > 0")
    return GmmModel(
        weights=weights, means=means, variances=variances, log_likelihood_history=[]
    )


def encode_many(
    model: Codebook | GmmModel, descriptor_sets: Sequence[np.ndarray]
) -> list[EncodedVector]:
    """Encode each video with whichever model was trained, in order.

    Each encoding has the bits `encode` gives that video alone.  A
    descriptor set that is not a non-empty, finite rows x dim matrix of
    the model's dim raises a ValueError.
    """
    sets = [_checked_descriptors(d, model.dim) for d in descriptor_sets]
    if isinstance(model, Codebook):
        return _bow_histograms(model, sets)
    return _fisher_vectors(model, sets)


def encode(model: Codebook | GmmModel, descriptors: np.ndarray) -> EncodedVector:
    """Encode one video with whichever model was trained."""
    return encode_many(model, [descriptors])[0]
