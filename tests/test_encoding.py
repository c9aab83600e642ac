import numpy as np
import pytest

from semwalk.encoding import (
    BOW,
    FV,
    Codebook,
    GmmModel,
    distance,
    encode_bow,
    encode_fisher,
    fisher_gradients,
    load_model,
    save_model,
    stack,
    subsample,
    train_gmm,
    train_kmeans,
)

from conftest import vec


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


class TestDistance:
    def test_identity(self):
        v = vec([1.0, 2.0])
        assert distance(v, v) == 0.0

    def test_pythagorean(self):
        assert distance(vec([0.0, 0.0]), vec([3.0, 4.0])) == 5.0

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = vec(rng.standard_normal(4)), vec(rng.standard_normal(4))
            assert distance(a, b) == distance(b, a)
            assert distance(a, b) >= 0

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="kind"):
            distance(vec([1.0], kind=BOW), vec([1.0], kind=FV))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            distance(vec([1.0]), vec([1.0, 2.0]))

    def test_stacked_rows_equal_one_at_a_time(self):
        rng = np.random.default_rng(4)
        for dim in (1, 2, 33, 64, 640):
            a = vec(rng.standard_normal(dim))
            rows = [vec(rng.standard_normal(dim)) for _ in range(25)]
            got = distance(a, stack(rows))
            assert got.shape == (25,)
            assert got.tolist() == [distance(a, b) for b in rows]
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
