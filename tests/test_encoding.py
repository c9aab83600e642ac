import tracemalloc

import numpy as np
import pytest
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
    encode,
    encode_bow,
    encode_fisher,
    encode_many,
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
    full_sort_nearest,
    loop_nearest_centers,
    mask_update_centers,
    per_video_fisher_vector,
    sequential_update_centers,
)
from conftest import (
    columns_mask_update_centers,
    components_major_broadcast,
    oracle_nearest_centers,
    vec,
)


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

    def test_set_not_2d_rejected(self):
        # A 1-D set of 5 values used to become a 1 x 3 pool.
        with pytest.raises(ValueError, match=r"descriptor set 1 must be a 2-D .*\(5,\)"):
            subsample([np.ones((4, 3)), np.arange(5.0)], 0.5, seed=0)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="descriptor set 2 has dim 2, set 0 has 3"):
            subsample([np.ones((4, 3)), np.ones((2, 3)), np.ones((4, 2))], 0.5, seed=0)


@pytest.mark.parametrize("train", [train_kmeans, train_gmm])
class TestPoolChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pool_rejected(self, train, bad):
        pool = np.random.default_rng(3).standard_normal((20, 3))
        pool[7, 1] = bad
        with pytest.raises(ValueError, match="pool must be finite"):
            train(pool, 4, seed=0)

    def test_non_finite_checked_before_duplicates(self, train):
        with pytest.raises(ValueError, match="pool must be finite"):
            train(np.full((10, 2), np.nan), 2, seed=0)

    def test_pool_not_2d_rejected(self, train):
        with pytest.raises(ValueError, match="pool must be a 2-D matrix of descriptors"):
            train(np.arange(10.0), 2, seed=0)

    def test_too_few_distinct_descriptors_rejected(self, train):
        with pytest.raises(
            ValueError, match=r"pool has only 3 distinct descriptors \(duplicates\) for 4 centers"
        ):
            train(np.repeat(np.eye(3), 5, axis=0), 4, seed=0)

    def test_too_few_distinct_float_rows_rejected(self, train):
        # A copy of a chosen row is at a distance that can round above 0,
        # so k-means++ may pick it and return a repeated center.
        rows = np.random.default_rng(0).standard_normal((3, 5)) * 10.0
        with pytest.raises(
            ValueError, match=r"pool has only 3 distinct descriptors \(duplicates\) for 4 centers"
        ):
            train(np.repeat(rows, 20, axis=0), 4, seed=0)

    def test_many_duplicates_with_enough_distinct_rows_fit(self, train, monkeypatch):
        # Six distinct small-integer rows, thirty copies each: distances
        # are exact, so k-means++ never picks a copy of a chosen row and
        # the pool's distinct rows are never counted.
        rng = np.random.default_rng(4)
        distinct = np.array([[0, 0, 0], [3, 0, 1], [0, 4, 0], [2, 2, 2], [-3, 1, 0], [1, -2, 5]])
        pool = rng.permutation(np.repeat(distinct.astype(float), 30, axis=0))
        counted = []
        require_distinct = encoding._require_distinct

        def counting(pool, size):
            counted.append(size)
            return require_distinct(pool, size)

        monkeypatch.setattr(encoding, "_require_distinct", counting)
        model = train(pool, 6, seed=0)
        if train is train_kmeans:
            assert sorted(map(tuple, model.centers)) == sorted(map(tuple, distinct))
        assert counted == []
        with pytest.raises(ValueError, match="pool has only 6 distinct descriptors"):
            train(pool, 7, seed=0)
        assert counted == [7]


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
    def test_nearest_centers_match_oracle(self, n, k, dim):
        rng = np.random.default_rng(n * k)
        points = rng.standard_normal((n, dim)) * 4.0 + 1.0
        centers = rng.standard_normal((k, dim)) * 4.0
        want_labels, want_sq = loop_nearest_centers(points, centers)
        lifted = encoding._lifted(points)
        labels, sq = encoding._nearest_centers(lifted, centers)
        assert np.array_equal(labels, want_labels)
        np.testing.assert_allclose(sq, want_sq, rtol=1e-12, atol=1e-12)
        out = np.empty((n, k))
        again = encoding._nearest_centers(lifted, centers, out=out)
        assert np.array_equal(again[0], labels) and again[1].tobytes() == sq.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.int8, st.tuples(st.integers(1, 12), st.integers(1, 4)), elements=st.integers(-3, 3)),
        hnp.arrays(np.int8, st.tuples(st.integers(1, 8), st.integers(1, 4)), elements=st.integers(-3, 3)),
    )
    def test_ties_go_to_the_lowest_index(self, points, centers):
        # Small integers make every product and sum exact, so equal
        # distances are common and only the tie rule decides the labels.
        dim = min(points.shape[1], centers.shape[1])
        points, centers = points[:, :dim].astype(float), centers[:, :dim].astype(float)
        labels, sq = encoding._nearest_centers(encoding._lifted(points), centers)
        want_labels, want_sq = loop_nearest_centers(points, centers)
        assert labels.tolist() == want_labels.tolist()
        assert sq.tolist() == want_sq.tolist()
        exact = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        for row, label in zip(exact, labels):
            assert label == np.flatnonzero(row == row.min())[0]

    def test_training_bit_equal_to_expanded_form(self, monkeypatch):
        pool = np.random.default_rng(12).standard_normal((400, 6)) * 3.0
        fast = train_kmeans(pool, 12, seed=4)
        calls = []

        def oracle(lifted, centers, out=None):
            calls.append(centers.shape[0])
            return oracle_nearest_centers(lifted, centers, out)

        monkeypatch.setattr(encoding, "_nearest_centers", oracle)
        slow = train_kmeans(pool, 12, seed=4)
        # k-means++ takes one column per center after the first, then
        # every assignment step one call against all 12.
        assert calls == [1] * 12 + [12] * len(slow.inertia_history)
        assert fast.centers.tobytes() == slow.centers.tobytes()
        assert len(fast.inertia_history) == len(slow.inertia_history)
        np.testing.assert_allclose(fast.inertia_history, slow.inertia_history, rtol=1e-12, atol=0)


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
        encoding._update_centers(pool.T.copy(), labels, centers)
        assert centers.tobytes() == want.tobytes()
        assert not np.any(labels == 3) and not np.any(labels == 11)

    def test_update_bit_equal_to_mask_per_center_over_shapes(self):
        # For dim >= 2 numpy's mean adds rows in pool order, as the
        # bincount sums do; clusters 0, k // 2 and k - 1 are left empty.
        rng = np.random.default_rng(21)
        for _ in range(60):
            dim = int(rng.integers(2, 41))
            k = int(rng.integers(1, 71))
            n = int(rng.integers(1, 30 * k + 2))
            pool = rng.standard_normal((n, dim)) * rng.choice([1e-3, 1.0, 1e3]) + 5.0
            labels = rng.integers(0, k, size=n)
            if k >= 3:
                labels[np.isin(labels, [0, k // 2, k - 1])] = 1
            centers = rng.standard_normal((k, dim))
            want = centers.copy()
            mask_update_centers(pool, labels, want)
            encoding._update_centers(pool.T.copy(), labels, centers)
            assert centers.tobytes() == want.tobytes(), (n, k, dim)

    @pytest.mark.parametrize("dim", [1, 2, 7, 32])
    def test_update_bit_equal_to_sequential_sums(self, dim):
        # At dim 1 numpy's mean sums pairwise and can differ from this
        # update in the last bits; the sums in pool order pin it.
        rng = np.random.default_rng(dim)
        for _ in range(20):
            k = int(rng.integers(1, 20))
            n = int(rng.integers(1, 400))
            pool = rng.standard_normal((n, dim)) * 3.0 + 1.0
            labels = rng.integers(0, k, size=n)
            labels[labels == k - 1] = 0
            centers = rng.standard_normal((k, dim))
            want = centers.copy()
            sequential_update_centers(pool, labels, want)
            encoding._update_centers(pool.T.copy(), labels, centers)
            assert centers.tobytes() == want.tobytes(), (n, k)

    def test_training_bit_equal_to_mask_per_center(self, monkeypatch):
        pool = np.random.default_rng(14).standard_normal((900, 8)) * 2.0
        fast = train_kmeans(pool, 24, seed=3)
        monkeypatch.setattr(encoding, "_update_centers", columns_mask_update_centers)
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


def _bow_sets(rng, dim=32):
    """Videos of mixed row counts, enough of 50 rows for several blocks
    and one with more rows than a block holds."""
    rows = [50] * 170 + [1, 3, 3, 7, 200, 1, 50, encoding._BLOCK_ROWS + 5]
    order = rng.permutation(len(rows))
    return [rng.standard_normal((rows[i], dim)) * 3.0 + 1.0 for i in order]


class TestBowBlocks:
    @pytest.mark.parametrize("k", [1, 10, 64])
    def test_block_distances_bit_equal_per_video(self, monkeypatch, k):
        # One 2-D product over a flattened block rounds differently
        # from the per-video products for many distances.
        rng = np.random.default_rng(k)
        sets = _bow_sets(rng)
        book = Codebook(centers=rng.standard_normal((k, 32)) * 3.0, inertia_history=[])
        nearest_centers = encoding._nearest_centers
        blocks = []

        def recording(lifted, centers, out=None):
            labels, sq = nearest_centers(lifted, centers, out)
            blocks.append((lifted[0][..., :-1].copy(), labels.copy(), sq.copy()))
            return labels, sq

        monkeypatch.setattr(encoding, "_nearest_centers", recording)
        encode_many(book, sets)
        assert sum(len(points) for points, _, _ in blocks) == len(sets)
        assert max(len(points) for points, _, _ in blocks) > 1
        for points, labels, sq in blocks:
            assert points.ndim == 3 and len(points) * points.shape[1] <= max(
                encoding._BLOCK_ROWS, points.shape[1]
            )
            for video, got_labels, got_sq in zip(points, labels, sq):
                want_labels, want_sq = nearest_centers(encoding._lifted(video), book.centers)
                assert got_labels.tobytes() == want_labels.tobytes()
                assert got_sq.tobytes() == want_sq.tobytes()

    @pytest.mark.parametrize("kind", [BOW, FV])
    def test_encode_many_equals_encode_one_by_one(self, kind):
        rng = np.random.default_rng(22)
        sets = _bow_sets(rng, dim=6)[:60] + [rng.standard_normal((5, 6)) + 1e3]
        pool = np.vstack(sets)[::7]
        model = train_kmeans(pool, 12, seed=1) if kind == BOW else train_gmm(pool, 4, seed=1)
        many = encode_many(model, sets)
        assert len(many) == len(sets)
        for got, video in zip(many, sets):
            want = encode(model, video)
            assert got.kind == want.kind == kind
            assert got.values.tobytes() == want.values.tobytes()
        assert encode_many(model, []) == []

    def test_memory_bounded_by_blocks(self):
        # One fold-wide block would hold 480 * 50 * 64 doubles of
        # distances alone, about 12 MB.
        rng = np.random.default_rng(23)
        sets = [rng.standard_normal((50, 32)) for _ in range(480)]
        book = Codebook(centers=rng.standard_normal((64, 32)), inertia_history=[])
        tracemalloc.start()
        try:
            encode_many(book, sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 480 * 50 * 64 * 8 / 2


def _fisher_sets(rng, dim, offset):
    """Videos of mixed row counts: one row, a constant video, and a group
    of equal row counts that spans three Fisher blocks."""
    per_block = encoding._FISHER_BLOCK_ROWS // 100
    rows = [100] * (2 * per_block + 3) + [1, 1, 2, 7, 7, 33, encoding._FISHER_BLOCK_ROWS + 3]
    sets = [rng.standard_normal((rows[i], dim)) * 2.0 + offset for i in rng.permutation(len(rows))]
    sets.insert(5, np.full((6, dim), offset + 0.5))
    return sets


class TestFisherBlocks:
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_block_vectors_bit_equal_per_video(self, monkeypatch, offset):
        rng = np.random.default_rng(int(offset) % 97)
        sets = _fisher_sets(rng, 5, offset)
        gmm = train_gmm(np.vstack(sets)[::5], 4, seed=1)
        fisher_gradients = encoding._fisher_gradients
        blocks = []

        def recording(gmm, descriptors):
            blocks.append(descriptors.shape)
            return fisher_gradients(gmm, descriptors)

        monkeypatch.setattr(encoding, "_fisher_gradients", recording)
        many = encode_many(gmm, sets)
        monkeypatch.undo()
        # The 100-row group fills two blocks and part of a third.
        assert [shape[0] for shape in blocks if shape[1:] == (100, 5)] == [
            encoding._FISHER_BLOCK_ROWS // 100
        ] * 2 + [3]
        assert all(
            len(shape) == 2 or shape[0] * shape[1] <= encoding._FISHER_BLOCK_ROWS
            for shape in blocks
        )
        assert len(many) == len(sets)
        for got, video in zip(many, sets):
            assert got.kind == FV
            assert got.values.tobytes() == encode_fisher(gmm, video).values.tobytes()
            assert got.values.tobytes() == per_video_fisher_vector(gmm, video).tobytes()

    def test_zero_gradients_encode_to_the_zero_vector(self, monkeypatch):
        rng = np.random.default_rng(7)
        sets = [rng.standard_normal((4, 3)) for _ in range(3)]
        gmm = train_gmm(np.vstack(sets), 2, seed=0)
        want = encode_many(gmm, sets)
        fisher_gradients = encoding._fisher_gradients

        def zero_middle(gmm, descriptors):
            grad_means, grad_vars = fisher_gradients(gmm, descriptors)
            grad_means[1] = grad_vars[1] = 0.0
            return grad_means, grad_vars

        monkeypatch.setattr(encoding, "_fisher_gradients", zero_middle)
        got = encode_many(gmm, sets)
        assert not got[1].values.any()
        assert got[0].values.tobytes() == want[0].values.tobytes()
        assert got[2].values.tobytes() == want[2].values.tobytes()

    def _peak(self, sets, gmm):
        tracemalloc.start()
        try:
            vectors = encode_many(gmm, sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(v.values.nbytes for v in vectors)

    def test_block_temporaries_bounded_by_the_block_rows(self, monkeypatch):
        # Beyond the vectors returned, a pass holds one block's stack,
        # centred copy, squares and log-densities at a time; one block of
        # all 400 videos would hold 20,000 x 32 doubles per copy.
        rng = np.random.default_rng(24)
        sets = [rng.standard_normal((50, 32)) for _ in range(400)]
        gmm = train_gmm(np.vstack(sets)[::10], 10, seed=0, max_iters=5)
        bound = 8 * encoding._FISHER_BLOCK_ROWS * 32 * 8
        assert self._peak(sets, gmm) < bound
        monkeypatch.setattr(encoding, "_FISHER_BLOCK_ROWS", 400 * 50)
        assert self._peak(sets, gmm) > bound


_GOOD_VIDEO = np.arange(12.0).reshape(4, 3)


def _nan_row():
    video = _GOOD_VIDEO.copy()
    video[2] = np.nan
    return video


def _inf_value():
    video = _GOOD_VIDEO.copy()
    video[1, 2] = -np.inf
    return video


class TestEncodeInput:
    """Every encoding entry rejects descriptors that are not a non-empty,
    finite rows x dim matrix of the model's dim."""

    models = {
        BOW: Codebook(centers=np.arange(12.0).reshape(4, 3), inertia_history=[]),
        FV: GmmModel(
            weights=np.full(2, 0.5),
            means=np.arange(6.0).reshape(2, 3),
            variances=np.ones((2, 3)),
            log_likelihood_history=[],
        ),
    }
    entries = {
        "encode": encode,
        "encode_many": lambda model, d: encode_many(model, [_GOOD_VIDEO, d]),
        "encode_kind": lambda model, d: (
            encode_bow if isinstance(model, Codebook) else encode_fisher
        )(model, d),
    }

    @pytest.mark.parametrize("kind", [BOW, FV])
    @pytest.mark.parametrize("entry", sorted(entries))
    @pytest.mark.parametrize(
        "make,match",
        [
            (lambda: np.empty((0, 3)), r"no rows \(shape \(0, 3\)\)"),
            (_nan_row, "must be finite"),
            (lambda: np.full((4, 3), np.nan), "must be finite"),
            (_inf_value, "must be finite"),
            (lambda: np.arange(3.0), r"2-D rows x dim matrix, got shape \(3,\)"),
            (lambda: np.ones((2, 4, 3)), r"2-D rows x dim matrix, got shape \(2, 4, 3\)"),
            (lambda: np.ones((4, 2)), "descriptor dim 2 != model dim 3"),
        ],
        ids=["no-rows", "nan-row", "all-nan", "inf", "1-d", "3-d", "dim"],
    )
    def test_bad_descriptors_rejected(self, kind, entry, make, match):
        with pytest.raises(ValueError, match=match):
            self.entries[entry](self.models[kind], make())


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

    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4, 1e5])
    def test_fit_and_fisher_vector_shift_with_the_data(self, offset):
        # Two tight clusters (sigma 0.01, 0.1 apart) moved far from the
        # origin: second moments of the raw points would cancel to noise
        # there, so every mixture statistic must come from centred points.
        rng = np.random.default_rng(0)
        pool = rng.normal(0.0, 0.01, size=(3000, 8))
        pool[1500:, 0] += 0.1
        video = pool[rng.choice(3000, 50, replace=False)]
        base = train_gmm(pool, 2, seed=0, max_iters=30)
        gmm = train_gmm(pool + offset, 2, seed=0, max_iters=30)
        assert np.allclose(gmm.weights, base.weights, rtol=0, atol=1e-9)
        assert np.allclose(gmm.means - offset, base.means, rtol=0, atol=1e-9)
        assert np.allclose(gmm.variances, base.variances, rtol=1e-6, atol=0)
        shifted = encode_fisher(gmm, video + offset).values
        assert np.allclose(shifted, encode_fisher(base, video).values, rtol=0, atol=1e-8)

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


def _assert_close_to_scipy(resp, log_norm, want):
    """Log-likelihoods within 2 eps max(1, |scipy's|), and every
    responsibility column summing to 1 within components x eps."""
    eps = np.finfo(np.float64).eps
    assert log_norm.shape == want.shape == (1, resp.shape[1])
    assert np.all(np.abs(log_norm - want) <= 2.0 * eps * np.maximum(1.0, np.abs(want)))
    assert np.all(np.abs(resp.sum(axis=0) - 1.0) <= resp.shape[0] * eps)


class TestLogNormalizer:
    """`_e_step`'s log-normalizer against the installed scipy's logsumexp."""

    def _check(self, points, weights, means, variances):
        resp, log_norm = encoding._e_step(
            encoding._centred(points), weights, means, variances
        )
        _assert_close_to_scipy(
            resp, log_norm, _scipy_log_norm(points, weights, means, variances)
        )

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
    def test_columns_close_to_scipy(self, a):
        # Rounded elements make exact ties within a column common.  With
        # unit weights the log-joint is the drawn array itself.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoding, "_log_gaussians", lambda *_: a.copy())
            resp, log_norm = encoding._e_step(None, np.ones(a.shape[0]), None, None)
        _assert_close_to_scipy(resp, log_norm, logsumexp(a, axis=0, keepdims=True))


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

    def test_stack_rejects_encodings_that_are_not_1d(self):
        rows = stack([vec([1.0, 2.0]), vec([3.0, 4.0])])
        with pytest.raises(ValueError, match=r"only 1-D encodings stack, got shapes \[\(2, 2\)\]"):
            stack([rows, rows])
        with pytest.raises(ValueError, match="only 1-D"):
            stack([vec(1.0)])

    def test_stack_copies_rows_read_only(self):
        rows = np.random.default_rng(4).standard_normal((5, 7))
        stacked = stack([vec(row) for row in rows])
        assert stacked.values.tobytes() == rows.tobytes()
        assert stacked.values.shape == (5, 7) and not stacked.values.flags.writeable


def _shortlist_case(kind, rng):
    """A stack of queries and a stack of rows on which the expansion's
    rounding matters."""
    rows, length = int(rng.integers(2, 30)), int(rng.integers(1, 70))
    n = int(rng.integers(1, 6))
    if kind == "histograms":
        # Bow-like: few draws over many bins, so exact distance ties abound.
        draws = int(rng.integers(1, 12))
        hist = [np.bincount(rng.integers(0, length, draws), minlength=length) / draws
                for _ in range(rows + n)]
        values = np.array(hist)
    elif kind == "duplicates":
        distinct = rng.standard_normal((max(1, rows // 3), length))
        values = distinct[rng.integers(0, distinct.shape[0], rows + n)]
    elif kind == "offset":
        values = 1e3 + rng.integers(0, 3, (rows + n, length)) / 4
    else:
        # Products below the smallest normal, where rounding is absolute.
        grid = rng.integers(-3, 4, (rows + n, min(length, 5)))
        scale = 10.0 ** rng.uniform(-163, -155)
        values = scale * grid * (1.0 + 1e-3 * rng.standard_normal(grid.shape))
    return tuple(stack([EncodedVector(row, FV) for row in part]) for part in (values[:n], values[n:]))


def one_shortlist(query, stacked, k):
    """`shortlist` of one query."""
    return shortlist(stack([query]), stacked, k)[0]


class TestShortlist:
    """`shortlist` against one stable sort of every row's `distance`."""

    @pytest.mark.parametrize(
        "seed,kind", enumerate(["histograms", "duplicates", "offset", "subnormal"])
    )
    def test_keeps_every_full_sort_neighbour(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            queries, stacked = _shortlist_case(kind, rng)
            rows_total = stacked.values.shape[0]
            for k in range(1, rows_total + 3):
                kept_rows = shortlist(queries, stacked, k)
                assert len(kept_rows) == queries.values.shape[0]
                for values, rows in zip(queries.values, kept_rows):
                    self._check_row(EncodedVector(values, FV), stacked, k, rows)

    @staticmethod
    def _check_row(query, stacked, k, rows):
        assert np.all(np.diff(rows) > 0)
        assert np.isin(full_sort_nearest(query, stacked, k), rows).all()
        # What callers do: exact distances on the kept rows, a stable
        # sort, the first k: the full sort's indices and bits.
        kept = distance(query, EncodedVector(stacked.values[rows], FV))
        pick = np.argsort(kept, kind="stable")[:k]
        every = distance(query, stacked)
        order = np.argsort(every, kind="stable")[:k]
        assert rows[pick].tolist() == order.tolist()
        assert kept[pick].tobytes() == every[order].tobytes()

    def test_an_unbounded_query_keeps_every_row_and_others_their_own(self):
        stacked = stack([vec([float(i), 0.0]) for i in range(6)])
        queries = stack([vec([0.1, 0.0]), vec([np.nan, 0.0]), vec([1e154, 0.0]), vec([4.9, 0.0])])
        kept = shortlist(queries, stacked, 1)
        assert [rows.tolist() for rows in kept] == [[0], list(range(6)), list(range(6)), [5]]
        for values, rows in zip(queries.values[[0, 2, 3]], kept[:1] + kept[2:]):
            self._check_row(EncodedVector(values, FV), stacked, 1, rows)

    def test_far_rows_are_left_out(self):
        stacked = stack([vec([float(i), 0.0]) for i in range(10)])
        assert one_shortlist(vec([0.1, 0.0]), stacked, 2).tolist() == [0, 1]
        assert one_shortlist(vec([5.0, 0.0]), stacked, 1).tolist() == [5]

    def test_every_row_when_k_reaches_the_row_count(self):
        stacked = stack([vec([float(i)]) for i in range(4)])
        assert one_shortlist(vec([0.0]), stacked, 4).tolist() == [0, 1, 2, 3]
        assert one_shortlist(vec([0.0]), stacked, 9).tolist() == [0, 1, 2, 3]

    def test_every_row_when_no_bound_holds(self):
        stacked = stack([vec([0.0]), vec([1.0]), vec([np.inf])])
        assert one_shortlist(vec([0.0]), stacked, 1).tolist() == [0, 1, 2]
        stacked = stack([vec([0.0]), vec([1.0]), vec([2.0])])
        assert one_shortlist(vec([np.nan]), stacked, 1).tolist() == [0, 1, 2]
        assert one_shortlist(vec([1e154]), stacked, 1).tolist() == [0, 1, 2]

    def test_rejects_what_distance_rejects(self):
        stacked = stack([vec([1.0, 2.0]), vec([3.0, 4.0])])
        with pytest.raises(ValueError, match="k must be >= 1"):
            one_shortlist(vec([1.0, 2.0]), stacked, 0)
        with pytest.raises(ValueError, match="kind"):
            one_shortlist(vec([1.0, 2.0], kind=BOW), stacked, 1)
        with pytest.raises(ValueError, match="length"):
            one_shortlist(vec([1.0]), stacked, 1)

    @staticmethod
    def _peak(queries, stacked):
        tracemalloc.start()
        try:
            kept = shortlist(queries, stacked, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(rows.nbytes for rows in kept)

    def test_memory_is_one_block_of_estimates(self, monkeypatch):
        # Four blocks of queries: the temporaries are one block's
        # estimates and its partitioned copy, not all queries x rows (nor
        # queries x rows x length, as broadcasting differences would take).
        rng = np.random.default_rng(25)
        rows = 2000
        count = 4 * encoding._SHORTLIST_BLOCK // rows
        queries = stack([vec(row) for row in rng.standard_normal((count, 8))])
        stacked = stack([vec(row) for row in rng.standard_normal((rows, 8))])
        stacked.squared_norms
        bound = 3 * encoding._SHORTLIST_BLOCK * 8
        assert self._peak(queries, stacked) < bound
        monkeypatch.setattr(encoding, "_SHORTLIST_BLOCK", count * rows)
        assert self._peak(queries, stacked) > bound

    @pytest.mark.parametrize("kind", ["histograms", "offset"])
    def test_queries_taken_one_block_at_a_time(self, monkeypatch, kind):
        # A block of one estimate takes one query per product.
        monkeypatch.setattr(encoding, "_SHORTLIST_BLOCK", 1)
        rng = np.random.default_rng(26)
        for _ in range(20):
            queries, stacked = _shortlist_case(kind, rng)
            for k in (1, 2):
                kept_rows = shortlist(queries, stacked, k)
                assert len(kept_rows) == queries.values.shape[0]
                for values, rows in zip(queries.values, kept_rows):
                    self._check_row(EncodedVector(values, FV), stacked, k, rows)

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
        self._rejected(tmp_path, "fv 2.5 2\n", r"line 1: non-integer gamma '2\.5'$")

    def test_non_numeric_field(self, tmp_path):
        text = self.GMM_TEXT.replace("2.0 3.0", "2.0 x3")
        self._rejected(tmp_path, text, r"line 4: row 2: non-numeric value 'x3'$")

    def test_non_finite_value(self, tmp_path):
        text = self.GMM_TEXT.replace("0.0 1.0", "nan 1.0")
        self._rejected(tmp_path, text, "line 3: row 1: non-finite value$")
        self._rejected(tmp_path, "bow 1 2\ninf 0.0\n", "line 2: row 1: non-finite value$")

    def test_ragged_mixture_rows(self, tmp_path):
        text = self.GMM_TEXT.replace("2.0 3.0", "2.0")
        self._rejected(tmp_path, text, "line 4: row 2 has 1 values, expected 2$")

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

    def test_carriage_return_ends_a_line_and_form_feed_does_not(self, tmp_path):
        # Lines end where every loader ends them; only a last line with no
        # line end at all was cut short, and the error counts lines so.
        path = tmp_path / "model.txt"
        path.write_bytes(b"bow 2 2\r1.0 2.5\r3.25\x0c4.125\r")
        assert np.array_equal(load_model(path).centers, [[1.0, 2.5], [3.25, 4.125]])
        path.write_bytes(b"bow 2 2\r1.0 2.5\r3.25\x0c4.12")
        with pytest.raises(
            ValueError, match=r"model\.txt: line 3: no newline after '3\.25\\x0c4\.12'$"
        ):
            load_model(path)

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
