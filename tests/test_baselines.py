import numpy as np
import pytest

from semwalk.baselines import (
    class_priors,
    class_weights,
    knn_vote,
    predict_linear,
    train_weighted_linear,
)
from semwalk.encoding import stack

from conftest import vec


class TestPriors:
    def test_balanced(self):
        assert class_priors(["A", "A", "B", "B"]) == {"A": 0.5, "B": 0.5}

    def test_skewed(self):
        priors = class_priors(["A", "A", "B", "C"])
        assert priors == {"A": 0.5, "B": 0.25, "C": 0.25}
        assert sum(priors.values()) == pytest.approx(1.0)

    def test_single_class(self):
        assert class_priors(["A", "A"]) == {"A": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            class_priors([])


class TestWeights:
    def test_inverse_prior_at_lambda_one(self):
        weights = class_weights({"A": 0.5, "B": 0.25, "C": 0.25}, 1.0)
        assert weights == {"A": 2.0, "B": 4.0, "C": 4.0}

    def test_all_ones_at_lambda_zero(self):
        weights = class_weights({"A": 0.7, "B": 0.3}, 0.0)
        assert weights == {"A": 1.0, "B": 1.0}

    def test_square_root_exponent(self):
        assert class_weights({"A": 0.25}, 0.5) == {"A": 2.0}

    @pytest.mark.parametrize("lam", [-0.1, 1.5])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            class_weights({"A": 1.0}, lam)

    def test_decreasing_in_prior(self):
        weights = class_weights({"A": 0.6, "B": 0.3, "C": 0.1}, 0.8)
        assert weights["C"] > weights["B"] > weights["A"]


class TestKnn:
    vectors = [vec([0.0, 0.0]), vec([1.0, 0.0]), vec([10.0, 0.0]), vec([11.0, 0.0])]
    labels = ["A", "A", "B", "B"]

    def test_k1_nearest_neighbor(self):
        assert knn_vote(stack(self.vectors), self.labels, vec([0.2, 0.0]), 1)[0] == "A"
        assert knn_vote(stack(self.vectors), self.labels, vec([10.4, 0.0]), 1)[0] == "B"

    def test_k3_majority(self):
        assert knn_vote(stack(self.vectors), self.labels, vec([2.0, 0.0]), 3)[0] == "A"

    def test_vote_shares(self):
        winner, shares = knn_vote(stack(self.vectors), self.labels, vec([2.0, 0.0]), 3)
        assert winner == "A"
        assert shares == {"A": pytest.approx(2 / 3), "B": pytest.approx(1 / 3)}

    def test_stacked_training_set_checked(self):
        stacked = stack(self.vectors)
        with pytest.raises(ValueError, match="differ in length"):
            knn_vote(stacked, self.labels[:3], vec([0.0, 0.0]), 1)
        with pytest.raises(ValueError, match="k must be"):
            knn_vote(stacked, self.labels, vec([0.0, 0.0]), 0)

    def test_k_clamped(self):
        assert knn_vote(stack(self.vectors), self.labels, vec([0.0, 0.0]), 99)[0] in {
            "A",
            "B",
        }

    def test_tie_prefers_smaller_mean_distance(self):
        vectors = [vec([0.0, 0.0]), vec([4.0, 0.0]), vec([1.0, 0.0]), vec([5.0, 0.0])]
        labels = ["A", "B", "A", "B"]
        winner = knn_vote(stack(vectors), labels, vec([0.0, 0.0]), 4)[0]
        assert winner == "A"  # 2-2 votes; A's neighbors are closer

    def test_tie_falls_back_to_lexicographic(self):
        vectors = [vec([1.0, 0.0]), vec([-1.0, 0.0])]
        labels = ["B", "A"]
        winner = knn_vote(stack(vectors), labels, vec([0.0, 0.0]), 2)[0]
        assert winner == "A"

    def test_planted_clusters(self):
        rng = np.random.default_rng(0)
        train = [vec(rng.standard_normal(2) * 0.2) for _ in range(10)]
        train += [vec(rng.standard_normal(2) * 0.2 + 8.0) for _ in range(10)]
        labels = ["low"] * 10 + ["high"] * 10
        query = vec(rng.standard_normal(2) * 0.2 + 8.0)
        assert knn_vote(stack(train), labels, query, 5)[0] == "high"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distance_rejected(self, bad):
        # A bad training row is rejected even when it is not among the k
        # nearest: no shortlist bound holds then, so every row is checked.
        with pytest.raises(ValueError, match="must be finite"):
            knn_vote(stack(self.vectors), self.labels, vec([bad, 0.0]), 1)
        vectors = self.vectors + [vec([bad, 0.0])]
        with pytest.raises(ValueError, match="must be finite"):
            knn_vote(stack(vectors), self.labels + ["C"], vec([0.0, 0.0]), 1)

    def test_empty_training(self):
        with pytest.raises(ValueError, match="empty"):
            knn_vote(vec(np.empty((0, 1))), [], vec([0.0]), 1)


def separable_data(rng, n_a=30, n_b=30, margin=4.0):
    a = rng.standard_normal((n_a, 2)) * 0.5
    b = rng.standard_normal((n_b, 2)) * 0.5 + margin
    vectors = [vec(p) for p in np.vstack([a, b])]
    labels = ["A"] * n_a + ["B"] * n_b
    return vectors, labels


class TestWeightedLinear:
    def test_separable_data_fits_perfectly(self):
        rng = np.random.default_rng(1)
        vectors, labels = separable_data(rng)
        weights = class_weights(class_priors(labels), 0.5)
        model = train_weighted_linear(stack(vectors), labels, weights, epochs=60, seed=0)
        predictions = [predict_linear(model, v) for v in vectors]
        assert predictions == labels

    def test_unit_weights_match_lambda_zero(self):
        rng = np.random.default_rng(2)
        vectors, labels = separable_data(rng)
        zero_lambda = class_weights(class_priors(labels), 0.0)
        manual = {"A": 1.0, "B": 1.0}
        one = train_weighted_linear(stack(vectors), labels, zero_lambda, epochs=20, seed=3)
        two = train_weighted_linear(stack(vectors), labels, manual, epochs=20, seed=3)
        assert np.array_equal(one.weights, two.weights)
        assert np.array_equal(one.biases, two.biases)

    def test_imbalanced_minority_recall(self):
        rng = np.random.default_rng(3)
        vectors, labels = separable_data(rng, n_a=95, n_b=5)
        weights = class_weights(class_priors(labels), 1.0)
        model = train_weighted_linear(stack(vectors), labels, weights, epochs=80, seed=1)
        minority = [
            predict_linear(model, v)
            for v, lab in zip(vectors, labels)
            if lab == "B"
        ]
        assert all(p == "B" for p in minority)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        vectors, labels = separable_data(rng)
        weights = {"A": 1.0, "B": 1.0}
        one = train_weighted_linear(stack(vectors), labels, weights, epochs=10, seed=9)
        two = train_weighted_linear(stack(vectors), labels, weights, epochs=10, seed=9)
        assert np.array_equal(one.weights, two.weights)

    def test_single_class_short_circuit(self):
        vectors = [vec([0.0, 1.0]), vec([1.0, 0.0])]
        model = train_weighted_linear(stack(vectors), ["A", "A"], {"A": 1.0})
        assert predict_linear(model, vec([5.0, 5.0])) == "A"

    def test_missing_weight_rejected(self):
        vectors = [vec([0.0, 1.0]), vec([1.0, 0.0])]
        with pytest.raises(ValueError, match="missing class weight"):
            train_weighted_linear(stack(vectors), ["A", "B"], {"A": 1.0})

    def test_prediction_tie_lexicographic(self):
        model_cls = train_weighted_linear(
            stack([vec([1.0, 0.0]), vec([-1.0, 0.0])]),
            ["B", "A"],
            {"A": 1.0, "B": 1.0},
            epochs=0,
        )
        # Zero model scores everything 0: tie broken to "A".
        assert predict_linear(model_cls, vec([3.0, 3.0])) == "A"

    def test_weight_relabeling_invariance(self):
        priors = {"A": 0.5, "B": 0.25, "C": 0.25}
        w = class_weights(priors, 0.7)
        relabeled = class_weights({"X": 0.5, "Y": 0.25, "Z": 0.25}, 0.7)
        assert w["A"] == relabeled["X"]
        assert w["B"] == relabeled["Y"]
