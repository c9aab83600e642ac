import tracemalloc

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from semwalk import encoding
from semwalk.encoding import (
    BOW,
    FV,
    Codebook,
    EncodedVector,
    GmmModel,
    distance,
    encode_bow,
    encode_fisher,
    fisher_gradients,
    gmm_posteriors,
    load_model,
    save_model,
    shortlist,
    stack,
    subsample,
    train_gmm,
    train_kmeans,
)

from _oracles import (
    broadcast_log_gaussians,
    einsum_fisher_gradients,
    expanded_squared_distances,
    full_sort_nearest,
    mask_update_centers,
)
from conftest import components_major_broadcast, expanded_distances_from_terms, vec


def two_clusters(rng, n_per=50, dim=3, gap=20.0, noise=0.5):
    a = rng.standard_normal((n_per, dim)) * noise
    b = rng.standard_normal((n_per, dim)) * noise + gap
    return a, b


class TestSubsample:
    def test_full_fraction_keeps_everything(self):
        sets = [np.arange(6.0).reshape(3, 2), np.arange(4.0).reshape(2, 2)]
        pool = subsample(sets, 1.0, seed=0)
        assert pool.shape == (5, 2)
        assert sorted(map(tuple, pool)) == sorted(
            map(tuple, np.vstack(sets))
        )

    def test_quarter_of_eight_rows_is_two(self):
        pool = subsample([np.arange(16.0).reshape(8, 2)], 0.25, seed=0)
        assert pool.shape == (2, 2)

    def test_ceil_rounding(self):
        pool = subsample([np.arange(10.0).reshape(5, 2)], 0.5, seed=0)
        assert pool.shape == (3, 2)  # ceil(2.5)

    def test_deterministic(self):
        sets = [np.random.default_rng(1).standard_normal((9, 4))]
        assert np.array_equal(
            subsample(sets, 0.4, seed=11), subsample(sets, 0.4, seed=11)
        )

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            subsample([np.ones((2, 2))], 0.0, seed=0)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no descriptor"):
            subsample([], 0.5, seed=0)


class TestKmeans:
    def test_fixed_point_when_pool_equals_centers(self):
        pool = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        book = train_kmeans(pool, 3, seed=0)
        assert sorted(map(tuple, book.centers)) == sorted(map(tuple, pool))
        assert book.inertia_history[-1] == 0.0

    def test_recovers_cluster_means(self):
        rng = np.random.default_rng(5)
        a, b = two_clusters(rng)
        book = train_kmeans(np.vstack([a, b]), 2, seed=1)
        expected = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
        got = sorted(book.centers, key=lambda m: m[0])
        assert np.allclose(got, expected, atol=1e-6)

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            pool = rng.standard_normal((int(rng.integers(20, 80)), 4))
            book = train_kmeans(pool, int(rng.integers(2, 6)), seed=3)
            diffs = np.diff(book.inertia_history)
            assert np.all(diffs <= 1e-9)

    def test_size_exceeds_pool(self):
        with pytest.raises(ValueError, match="exceeds pool size"):
            train_kmeans(np.ones((2, 2)), 3, seed=0)

    def test_duplicate_pool_rejected(self):
        pool = np.ones((10, 2))
        with pytest.raises(ValueError, match="duplicates"):
            train_kmeans(pool, 2, seed=0)

    def test_deterministic(self):
        pool = np.random.default_rng(2).standard_normal((40, 3))
        one = train_kmeans(pool, 4, seed=7)
        two = train_kmeans(pool, 4, seed=7)
        assert np.array_equal(one.centers, two.centers)

    def test_converged_on_stable_labels_even_at_the_last_iteration(self):
        pool = np.vstack(two_clusters(np.random.default_rng(5)))
        book = train_kmeans(pool, 2, seed=1)
        iters = len(book.inertia_history)
        assert book.converged and iters < 100
        assert train_kmeans(pool, 2, seed=1, max_iters=iters).converged

    def test_not_converged_at_max_iters(self):
        pool = np.vstack(two_clusters(np.random.default_rng(5)))
        iters = len(train_kmeans(pool, 2, seed=1).inertia_history)
        capped = train_kmeans(pool, 2, seed=1, max_iters=iters - 1)
        assert len(capped.inertia_history) == iters - 1
        assert not capped.converged


class TestKmeansKernel:
    @pytest.mark.parametrize("n,k,dim", [(1, 1, 1), (7, 3, 1), (200, 16, 32), (501, 64, 5)])
    def test_squared_distances_match_expanded_form(self, n, k, dim):
        rng = np.random.default_rng(n + k)
        points = rng.standard_normal((n, dim)) * 4.0 + 1.0
        centers = rng.standard_normal((k, dim)) * 4.0
        terms = encoding._point_terms(points)
        want = expanded_squared_distances(points, centers)
        assert np.array_equal(encoding._squared_distances(terms, centers), want)
        out = np.empty((n, k))
        got = encoding._squared_distances(terms, centers, out=out)
        assert got is out
        assert np.array_equal(got, want)
        column = np.empty((n, 1))
        encoding._squared_distances(terms, centers[-1:], out=column)
        assert np.array_equal(column, expanded_squared_distances(points, centers[-1:]))

    def test_training_bit_equal_to_expanded_form(self, monkeypatch):
        pool = np.random.default_rng(12).standard_normal((400, 6)) * 3.0
        fast = train_kmeans(pool, 12, seed=4)
        monkeypatch.setattr(encoding, "_squared_distances", expanded_distances_from_terms)
        slow = train_kmeans(pool, 12, seed=4)
        assert np.array_equal(fast.centers, slow.centers)
        assert fast.inertia_history == slow.inertia_history


class TestKmeansUpdate:
    def test_update_bit_equal_to_mask_per_center(self):
        rng = np.random.default_rng(13)
        pool = rng.standard_normal((500, 7)) * 3.0
        labels = rng.integers(0, 12, size=500)
        labels[labels == 3] = 4  # two empty clusters, one of them the last
        labels[labels == 11] = 0
        centers = rng.standard_normal((12, 7))
        want = centers.copy()
        mask_update_centers(pool, labels, want)
        encoding._update_centers(pool, labels, centers)
        assert centers.tobytes() == want.tobytes()
        assert not np.any(labels == 3) and not np.any(labels == 11)

    def test_training_bit_equal_to_mask_per_center(self, monkeypatch):
        pool = np.random.default_rng(14).standard_normal((900, 8)) * 2.0
        fast = train_kmeans(pool, 24, seed=3)
        monkeypatch.setattr(encoding, "_update_centers", mask_update_centers)
        slow = train_kmeans(pool, 24, seed=3)
        assert fast.centers.tobytes() == slow.centers.tobytes()
        assert fast.inertia_history == slow.inertia_history


class TestBow:
    book = Codebook(
        centers=np.array([[0.0, 0.0], [10.0, 0.0]]), inertia_history=[]
    )

    def test_one_hot_when_all_match_center(self):
        out = encode_bow(self.book, np.zeros((4, 2)))
        assert np.array_equal(out.values, [1.0, 0.0])
        assert out.kind == BOW

    def test_three_one_split(self):
        descriptors = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [10.0, 0.0]]
        )
        out = encode_bow(self.book, descriptors)
        assert np.array_equal(out.values, [0.75, 0.25])

    def test_tie_goes_to_lowest_index(self):
        out = encode_bow(self.book, np.array([[5.0, 0.0]]))
        assert np.array_equal(out.values, [1.0, 0.0])

    def test_histogram_sums_to_one(self):
        rng = np.random.default_rng(0)
        descriptors = rng.standard_normal((30, 2)) * 8
        out = encode_bow(self.book, descriptors)
        assert out.values.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out.values >= 0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            encode_bow(self.book, np.ones((2, 3)))


class TestGmm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(4)
        pool = rng.standard_normal((60, 3)) * 2 + 1
        gmm = train_gmm(pool, 1, seed=0)
        assert np.allclose(gmm.means[0], pool.mean(axis=0), atol=1e-12)
        assert np.allclose(gmm.variances[0], pool.var(axis=0), atol=1e-12)
        assert gmm.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_recovers_cluster_means(self):
        rng = np.random.default_rng(8)
        a, b = two_clusters(rng)
        gmm = train_gmm(np.vstack([a, b]), 2, seed=2)
        expected = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
        got = sorted(gmm.means, key=lambda m: m[0])
        assert np.allclose(got, expected, atol=1e-4)

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            pool = rng.standard_normal((int(rng.integers(30, 100)), 3))
            gmm = train_gmm(pool, int(rng.integers(1, 5)), seed=5)
            diffs = np.diff(gmm.log_likelihood_history)
            assert np.all(diffs >= -1e-9)

    def test_weights_simplex_and_variance_floor(self):
        rng = np.random.default_rng(21)
        pool = rng.standard_normal((50, 4))
        gmm = train_gmm(pool, 3, seed=1)
        assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(gmm.weights > 0)
        floor = np.maximum(1e-6 * pool.var(axis=0), 1e-12)
        assert np.all(gmm.variances >= floor - 1e-15)

    def test_component_count_exceeds_pool(self):
        with pytest.raises(ValueError, match="exceeds pool size"):
            train_gmm(np.ones((2, 2)), 3, seed=0)

    def test_deterministic(self):
        pool = np.random.default_rng(30).standard_normal((60, 3))
        one = train_gmm(pool, 3, seed=6)
        two = train_gmm(pool, 3, seed=6)
        assert np.array_equal(one.weights, two.weights)
        assert np.array_equal(one.means, two.means)
        assert np.array_equal(one.variances, two.variances)

    def test_converged_on_tol_even_at_the_last_iteration(self):
        pool = np.vstack(two_clusters(np.random.default_rng(8)))
        gmm = train_gmm(pool, 2, seed=2, tol=1e-3)
        iters = len(gmm.log_likelihood_history)
        assert gmm.converged and iters < 100
        assert train_gmm(pool, 2, seed=2, max_iters=iters, tol=1e-3).converged

    def test_not_converged_at_max_iters(self):
        pool = np.vstack(two_clusters(np.random.default_rng(8)))
        iters = len(train_gmm(pool, 2, seed=2, tol=1e-3).log_likelihood_history)
        capped = train_gmm(pool, 2, seed=2, max_iters=iters - 1, tol=1e-3)
        assert len(capped.log_likelihood_history) == iters - 1
        assert not capped.converged


class TestLogGaussians:
    """The expanded kernel against the broadcast, to a relative tolerance.

    The expansion reorders the float operations, so the bits are not
    the broadcast's; the test names keep their earlier wording.
    """

    @pytest.mark.parametrize(
        "n,k,dim",
        [(109, 10, 32), (50, 10, 32), (1, 10, 32), (5, 160, 128), (4099, 4, 1)],
    )
    def test_blocked_bit_equal_to_broadcast(self, n, k, dim):
        self._check(n, k, dim, offset=0.0)

    def test_far_from_origin_close_to_broadcast(self):
        # Uncentred, the expansion loses about 1e-4 relative to cancellation here.
        self._check(109, 10, 32, offset=1e6)

    def _check(self, n, k, dim, offset):
        rng = np.random.default_rng(n * k + dim)
        points = rng.standard_normal((n, dim)) * 3.0 + offset
        means = rng.standard_normal((k, dim)) + offset
        variances = rng.random((k, dim)) + 0.05
        got = encoding._log_gaussians(encoding._centred(points), means, variances)
        assert got.shape == (k, n)
        np.testing.assert_allclose(
            got.T, broadcast_log_gaussians(points, means, variances), rtol=1e-12, atol=0
        )

    def test_training_bit_equal_to_broadcast(self, monkeypatch):
        pool = np.random.default_rng(31).standard_normal((700, 8)) * 2.0
        fast = train_gmm(pool, 5, seed=2, max_iters=40)
        monkeypatch.setattr(encoding, "_log_gaussians", components_major_broadcast)
        slow = train_gmm(pool, 5, seed=2, max_iters=40)
        assert len(fast.log_likelihood_history) == len(slow.log_likelihood_history)
        for got, want in (
            (fast.weights, slow.weights),
            (fast.means, slow.means),
            (fast.variances, slow.variances),
            (fast.log_likelihood_history, slow.log_likelihood_history),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_posteriors_are_the_training_e_step(self, monkeypatch):
        pool = np.random.default_rng(32).standard_normal((300, 4))
        seen = []
        e_step = encoding._e_step

        def recording(points, weights, means, variances):
            resp, log_norm = e_step(points, weights, means, variances)
            seen.append((weights, means, variances, resp.copy()))
            return resp, log_norm

        monkeypatch.setattr(encoding, "_e_step", recording)
        train_gmm(pool, 3, seed=1, max_iters=5)
        monkeypatch.undo()
        assert len(seen) == 5
        for weights, means, variances, resp in seen:
            gmm = GmmModel(
                weights=weights,
                means=means,
                variances=variances,
                log_likelihood_history=[],
            )
            assert np.array_equal(gmm_posteriors(gmm, pool), resp.T)


def _scipy_log_norm(points, weights, means, variances):
    log_joint = encoding._log_gaussians(encoding._centred(points), means, variances)
    log_joint += np.log(weights)[:, None]
    return logsumexp(log_joint, axis=0, keepdims=True)


@pytest.mark.skipif(
    tuple(int(part) for part in scipy.__version__.split(".")[:2]) < (1, 15),
    reason="scipy before 1.15 computed logsumexp by another algorithm",
)
class TestLogNormalizer:
    """`_e_step`'s log-normalizer against the installed scipy, bit for bit."""

    def _check(self, points, weights, means, variances):
        _resp, log_norm = encoding._e_step(
            encoding._centred(points), weights, means, variances
        )
        want = _scipy_log_norm(points, weights, means, variances)
        assert log_norm.shape == want.shape == (1, points.shape[0])
        assert log_norm.tobytes() == want.tobytes()

    def test_random_mixture(self):
        rng = np.random.default_rng(40)
        weights = rng.random(10) + 0.1
        self._check(
            rng.standard_normal((300, 32)) * 2.0,
            weights / weights.sum(),
            rng.standard_normal((10, 32)),
            rng.random((10, 32)) + 0.05,
        )

    def test_tied_maxima(self):
        rng = np.random.default_rng(41)
        means = rng.standard_normal((4, 3))
        means[2] = means[0]  # components 0 and 2 tie on every point
        variances = np.ones((4, 3))
        points = rng.standard_normal((50, 3))
        points[:5] = 0.0
        log_joint = encoding._log_gaussians(encoding._centred(points), means, variances)
        tied = np.sum(log_joint == log_joint.max(axis=0, keepdims=True), axis=0) > 1
        assert tied.sum() >= 5
        self._check(points, np.full(4, 0.25), means, variances)

    def test_one_component(self):
        rng = np.random.default_rng(42)
        self._check(
            rng.standard_normal((40, 5)), np.ones(1), rng.standard_normal((1, 5)), np.ones((1, 5))
        )

    def test_tiny_weight(self):
        rng = np.random.default_rng(43)
        weights = np.array([1e-300, 0.5, 0.5])
        self._check(
            rng.standard_normal((60, 4)),
            weights,
            rng.standard_normal((3, 4)),
            rng.random((3, 4)) + 0.1,
        )

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
            elements=st.floats(-800.0, 50.0).map(lambda v: round(v, 1)),
        )
    )
    def test_columns_bit_equal_to_scipy(self, a):
        # Rounded elements make exact ties within a column common.
        want = logsumexp(a, axis=0, keepdims=True)
        assert encoding._logsumexp_columns(a).tobytes() == want.tobytes()


class TestEStepMemory:
    """EM and Fisher encoding peak below a small multiple of
    points x max(dim, components) doubles: the E-step holds no
    points x components x dim temporary, which a broadcast kernel needs."""

    n, dim, k = 3000, 32, 10
    bound = 8.0

    def _peaks(self):
        pool = np.random.default_rng(50).standard_normal((self.n, self.dim))
        gmm = train_gmm(pool, self.k, seed=0, max_iters=5)
        peaks = []
        for run in (
            lambda: train_gmm(pool, self.k, seed=0, max_iters=5),
            lambda: encode_fisher(gmm, pool),
        ):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return [peak / (self.n * max(self.dim, self.k) * 8) for peak in peaks]

    def test_peaks_below_the_bound(self):
        assert max(self._peaks()) < self.bound

    def test_broadcast_kernel_exceeds_the_bound(self, monkeypatch):
        monkeypatch.setattr(encoding, "_log_gaussians", components_major_broadcast)
        assert min(self._peaks()) > self.bound


class TestFisher:
    def _gmm(self, mean, var=1.0, dim=2):
        return GmmModel(
            weights=np.array([1.0]),
            means=np.array([np.full(dim, float(mean))]),
            variances=np.array([np.full(dim, float(var))]),
            log_likelihood_history=[],
        )

    def test_mean_gradient_vanishes_at_means(self):
        gmm = self._gmm(3.0)
        descriptors = np.full((7, 2), 3.0)
        grad_means, _ = fisher_gradients(gmm, descriptors)
        assert np.all(np.abs(grad_means) <= 1e-12)

    def test_length_and_kind(self):
        rng = np.random.default_rng(6)
        pool = rng.standard_normal((40, 3))
        gmm = train_gmm(pool, 4, seed=0)
        out = encode_fisher(gmm, rng.standard_normal((9, 3)))
        assert out.kind == FV
        assert out.values.shape == (2 * 4 * 3,)

    def test_unit_norm(self):
        rng = np.random.default_rng(16)
        gmm = train_gmm(rng.standard_normal((50, 2)), 2, seed=3)
        out = encode_fisher(gmm, rng.standard_normal((5, 2)))
        assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        gmm = train_gmm(rng.standard_normal((50, 2)), 2, seed=3)
        video = rng.standard_normal((5, 2))
        assert np.array_equal(
            encode_fisher(gmm, video).values, encode_fisher(gmm, video).values
        )

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            encode_fisher(self._gmm(0.0), np.ones((2, 3)))

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("rows", [1, 50])
    def test_gradients_close_to_einsum(self, offset, rows):
        rng = np.random.default_rng(18)
        gmm = train_gmm(rng.standard_normal((400, 6)) * 2.0 + offset, 5, seed=1)
        video = rng.standard_normal((rows, 6)) * 2.0 + offset
        for got, want in zip(
            fisher_gradients(gmm, video), einsum_fisher_gradients(gmm, video)
        ):
            assert got.shape == want.shape == (5, 6)
            # Relative to the block's largest entry: entries near zero
            # carry the absolute error of the sums that make them.
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestDistance:
    def test_identity(self):
        v = vec([1.0, 2.0])
        assert distance(v, stack([v]))[0] == 0.0

    def test_pythagorean(self):
        assert distance(vec([0.0, 0.0]), stack([vec([3.0, 4.0])]))[0] == 5.0

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = vec(rng.standard_normal(4)), vec(rng.standard_normal(4))
            assert distance(a, stack([b]))[0] == distance(b, stack([a]))[0]
            assert distance(a, stack([b]))[0] >= 0

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="kind"):
            distance(vec([1.0], kind=BOW), stack([vec([1.0], kind=FV)]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            distance(vec([1.0]), stack([vec([1.0, 2.0])]))
        with pytest.raises(ValueError, match="length"):
            distance(vec([1.0, 2.0]), vec([1.0, 2.0]))  # not a stack

    def test_stacked_rows_equal_one_at_a_time(self):
        rng = np.random.default_rng(4)
        for dim in (1, 2, 33, 64, 640):
            a = vec(rng.standard_normal(dim))
            rows = [vec(rng.standard_normal(dim)) for _ in range(25)]
            got = distance(a, stack(rows))
            assert got.shape == (25,)
            assert got.tolist() == [distance(a, stack([b]))[0] for b in rows]
            assert got.tolist() == [float(np.linalg.norm(a.values - b.values)) for b in rows]

    def test_stacked_mismatch_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            distance(vec([1.0], kind=BOW), stack([vec([1.0]), vec([2.0])]))
        with pytest.raises(ValueError, match="length"):
            distance(vec([1.0]), stack([vec([1.0, 2.0]), vec([2.0, 3.0])]))

    def test_stack_rejects_mixed_or_empty(self):
        with pytest.raises(ValueError, match="mixed encoding kinds"):
            stack([vec([1.0]), vec([1.0], kind=BOW)])
        with pytest.raises(ValueError, match="mixed encoding lengths"):
            stack([vec([1.0]), vec([1.0, 2.0])])
        with pytest.raises(ValueError, match="no encodings"):
            stack([])


def _shortlist_case(kind, rng):
    """A query and a stack on which the expansion's rounding matters."""
    rows, length = int(rng.integers(2, 30)), int(rng.integers(1, 70))
    if kind == "histograms":
        # Bow-like: few draws over many bins, so exact distance ties abound.
        draws = int(rng.integers(1, 12))
        hist = [np.bincount(rng.integers(0, length, draws), minlength=length) / draws
                for _ in range(rows + 1)]
        values = np.array(hist)
    elif kind == "duplicates":
        distinct = rng.standard_normal((max(1, rows // 3), length))
        values = distinct[rng.integers(0, distinct.shape[0], rows + 1)]
    elif kind == "offset":
        values = 1e3 + rng.integers(0, 3, (rows + 1, length)) / 4
    else:
        # Products below the smallest normal, where rounding is absolute.
        grid = rng.integers(-3, 4, (rows + 1, min(length, 5)))
        scale = 10.0 ** rng.uniform(-163, -155)
        values = scale * grid * (1.0 + 1e-3 * rng.standard_normal(grid.shape))
    query, stacked = values[0], values[1:]
    return EncodedVector(query, FV), stack([EncodedVector(row, FV) for row in stacked])


class TestShortlist:
    """`shortlist` against one stable sort of every row's `distance`."""

    @pytest.mark.parametrize(
        "seed,kind", enumerate(["histograms", "duplicates", "offset", "subnormal"])
    )
    def test_keeps_every_full_sort_neighbour(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            query, stacked = _shortlist_case(kind, rng)
            every = distance(query, stacked)
            rows_total = stacked.values.shape[0]
            for k in range(1, rows_total + 1):
                rows = shortlist(query, stacked, k)
                assert np.all(np.diff(rows) > 0)
                assert np.isin(full_sort_nearest(query, stacked, k), rows).all()
                # What callers do: exact distances on the kept rows, a
                # stable sort, the first k: the full sort's indices and bits.
                kept = distance(query, EncodedVector(stacked.values[rows], FV))
                pick = np.argsort(kept, kind="stable")[:k]
                order = np.argsort(every, kind="stable")[:k]
                assert rows[pick].tolist() == order.tolist()
                assert kept[pick].tobytes() == every[order].tobytes()

    def test_far_rows_are_left_out(self):
        stacked = stack([vec([float(i), 0.0]) for i in range(10)])
        assert shortlist(vec([0.1, 0.0]), stacked, 2).tolist() == [0, 1]
        assert shortlist(vec([5.0, 0.0]), stacked, 1).tolist() == [5]

    def test_every_row_when_k_reaches_the_row_count(self):
        stacked = stack([vec([float(i)]) for i in range(4)])
        assert shortlist(vec([0.0]), stacked, 4).tolist() == [0, 1, 2, 3]
        assert shortlist(vec([0.0]), stacked, 9).tolist() == [0, 1, 2, 3]

    def test_every_row_when_no_bound_holds(self):
        stacked = stack([vec([0.0]), vec([1.0]), vec([np.inf])])
        assert shortlist(vec([0.0]), stacked, 1).tolist() == [0, 1, 2]
        stacked = stack([vec([0.0]), vec([1.0]), vec([2.0])])
        assert shortlist(vec([np.nan]), stacked, 1).tolist() == [0, 1, 2]
        assert shortlist(vec([1e154]), stacked, 1).tolist() == [0, 1, 2]

    def test_rejects_what_distance_rejects(self):
        stacked = stack([vec([1.0, 2.0]), vec([3.0, 4.0])])
        with pytest.raises(ValueError, match="k must be >= 1"):
            shortlist(vec([1.0, 2.0]), stacked, 0)
        with pytest.raises(ValueError, match="kind"):
            shortlist(vec([1.0, 2.0], kind=BOW), stacked, 1)
        with pytest.raises(ValueError, match="length"):
            shortlist(vec([1.0]), stacked, 1)

    def test_squared_norms_computed_once_and_read_only(self):
        stacked = stack([vec([3.0, 4.0]), vec([1.0, 0.0])])
        assert stacked.squared_norms is stacked.squared_norms
        assert stacked.squared_norms.tolist() == [25.0, 1.0]
        with pytest.raises(ValueError):
            stacked.squared_norms[0] = 0.0
        with pytest.raises(ValueError):
            stacked.values[0, 0] = 0.0


class TestModelFiles:
    def test_codebook_round_trip(self, tmp_path):
        pool = np.random.default_rng(0).standard_normal((30, 3))
        book = train_kmeans(pool, 4, seed=1)
        path = tmp_path / "book.txt"
        save_model(book, path)
        loaded = load_model(path)
        assert isinstance(loaded, Codebook)
        assert np.array_equal(loaded.centers, book.centers)

    def test_gmm_round_trip(self, tmp_path):
        pool = np.random.default_rng(1).standard_normal((30, 3))
        gmm = train_gmm(pool, 3, seed=1)
        path = tmp_path / "gmm.txt"
        save_model(gmm, path)
        loaded = load_model(path)
        assert isinstance(loaded, GmmModel)
        assert np.array_equal(loaded.weights, gmm.weights)
        assert np.array_equal(loaded.means, gmm.means)
        assert np.array_equal(loaded.variances, gmm.variances)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_model(path)

    GMM_TEXT = "fv 2 2\n0.25 0.75\n0.0 1.0\n2.0 3.0\n1.0 1.0\n0.5 2.0\n"

    def _rejected(self, tmp_path, text, match):
        path = tmp_path / "model.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=match) as err:
            load_model(path)
        assert str(path) in str(err.value)
        return str(err.value)

    def test_valid_mixture_text_loads(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(self.GMM_TEXT, encoding="utf-8")
        gmm = load_model(path)
        assert np.array_equal(gmm.weights, [0.25, 0.75])
        assert np.array_equal(gmm.variances, [[1.0, 1.0], [0.5, 2.0]])

    def test_non_integer_header(self, tmp_path):
        self._rejected(tmp_path, "fv 2.5 2\n", "non-integer model header")

    def test_non_numeric_field(self, tmp_path):
        text = self.GMM_TEXT.replace("2.0 3.0", "2.0 x3")
        message = self._rejected(tmp_path, text, "non-numeric field 'x3'")
        assert "line 4" in message

    def test_non_finite_value(self, tmp_path):
        self._rejected(tmp_path, self.GMM_TEXT.replace("0.0 1.0", "nan 1.0"), "non-finite")
        self._rejected(tmp_path, "bow 1 2\ninf 0.0\n", "line 2: non-finite")

    def test_ragged_mixture_rows(self, tmp_path):
        text = self.GMM_TEXT.replace("2.0 3.0", "2.0")
        self._rejected(tmp_path, text, "mixture rows do not match header dims")

    def test_non_positive_variance(self, tmp_path):
        # A zero variance used to load and then encode to NaN Fisher vectors.
        text = self.GMM_TEXT.replace("0.5 2.0", "0.0 2.0")
        message = self._rejected(tmp_path, text, "variances must be > 0")
        assert "line 6" in message

    def test_non_positive_weight(self, tmp_path):
        text = self.GMM_TEXT.replace("0.25 0.75", "0.0 1.0")
        self._rejected(tmp_path, text, "weights must be > 0")

    def test_weights_not_summing_to_one(self, tmp_path):
        text = self.GMM_TEXT.replace("0.25 0.75", "0.75 0.75")
        self._rejected(tmp_path, text, "weights sum to 1.5")

    def test_last_line_without_newline_rejected(self, tmp_path):
        # Cutting the last centre short used to load it as 4.0, 4.1 or 4.12.
        text = "bow 2 2\n1.0 2.5\n3.25 4.125\n"
        for cut in range(22, 26):
            message = self._rejected(tmp_path, text[:cut], "line 3: no newline after")
            assert repr(text[:cut].splitlines()[-1]) in message
        path = tmp_path / "model.txt"
        path.write_text(text, encoding="utf-8")
        assert np.array_equal(load_model(path).centers, [[1.0, 2.5], [3.25, 4.125]])


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    """Any codebook or mixture save_model can write and load_model accepts."""
    gamma, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    means = draw(hnp.arrays(np.float64, (gamma, dim), elements=finite))
    if draw(st.booleans()):
        return Codebook(centers=means, inertia_history=[])
    raw = draw(hnp.arrays(np.float64, gamma, elements=st.floats(1e-3, 1.0)))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return GmmModel(
        weights=raw / raw.sum(),
        means=means,
        variances=draw(hnp.arrays(np.float64, (gamma, dim), elements=positive)),
        log_likelihood_history=[],
    )


def _arrays(model):
    if isinstance(model, Codebook):
        return [model.centers]
    return [model.weights, model.means, model.variances]


class TestModelFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(model=models())
    def test_save_load_save_same_bytes_and_bits(self, tmp_path_factory, model):
        first = tmp_path_factory.mktemp("model") / "a.txt"
        second = first.with_name("b.txt")
        save_model(model, first)
        loaded = load_model(first)
        assert type(loaded) is type(model)
        for got, want in zip(_arrays(loaded), _arrays(model)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=20, deadline=None)
    @given(model=models())
    def test_every_strict_prefix_raises_value_error(self, tmp_path_factory, model):
        full = tmp_path_factory.mktemp("model") / "full.txt"
        path = full.with_name("cut.txt")
        save_model(model, full)
        text = full.read_text(encoding="utf-8")
        for cut in range(len(text)):
            path.write_text(text[:cut], encoding="utf-8")
            with pytest.raises(ValueError) as error:
                load_model(path)
            assert str(error.value).startswith(f"{path}: ")
