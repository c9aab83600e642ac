import numpy as np
import pytest
from scipy.sparse import csr_array

from semwalk.encoding import distance
from semwalk.graph import SvgGraph, SvgNode, build_svg, normalize_transitions
from semwalk.inference import (
    WalkConfig,
    argmax_class,
    class_distribution,
    classify,
    classify_batch,
    embed_query,
    markov_walk,
    query_distances,
)
from semwalk.semantics import VERB, semantic_classes

from _oracles import enumerate_walk, loop_markov_walk
from conftest import vec


def make_graph(points, labels):
    nodes = [
        SvgNode(segment_id=f"s{i}", annotation=labels[i], vector=vec(p))
        for i, p in enumerate(points)
    ]
    return build_svg(nodes, None, VERB, m=0)


def edgeless_graph(nodes):
    return SvgGraph(
        nodes=nodes,
        ends=np.empty((0, 2), dtype=np.intp),
        weights=np.empty(0),
        semantic=np.empty(0, dtype=bool),
        mode=VERB,
        m=0,
    )


def cycle_matrix():
    # 0 -> 1 -> 2 -> 0 with probability 1
    dense = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return csr_array(dense)


class TestEmbedQuery:
    def _graph(self, n):
        return make_graph([[float(i), 0.0] for i in range(n)], ["a"] * n)

    def test_reciprocal_normalization(self):
        g = self._graph(3)
        emb = embed_query(g, np.array([0.1, 0.2, 5.0]), z=2)
        assert emb.neighbors == (0, 1)
        assert emb.q[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert emb.q[1] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert emb.q[2] == 0.0

    def test_one_hot_for_z_one(self):
        g = self._graph(3)
        emb = embed_query(g, np.array([4.0, 1.0, 2.0]), z=1)
        assert emb.neighbors == (1,)
        assert emb.q[1] == 1.0

    def test_z_clamped_to_n(self):
        g = self._graph(3)
        emb = embed_query(g, np.array([1.0, 2.0, 3.0]), z=9)
        assert emb.neighbors == (0, 1, 2)
        assert emb.q.sum() == pytest.approx(1.0, abs=1e-9)

    def test_tie_prefers_lowest_index(self):
        g = self._graph(3)
        emb = embed_query(g, np.array([2.0, 2.0, 2.0]), z=1)
        assert emb.neighbors == (0,)

    def test_zero_distance_handled(self):
        g = self._graph(2)
        emb = embed_query(g, np.array([0.0, 1.0]), z=2)
        assert emb.q.sum() == pytest.approx(1.0, abs=1e-9)
        assert emb.q[0] > 0.999

    def test_scale_invariance(self):
        g = self._graph(4)
        rng = np.random.default_rng(0)
        d = rng.uniform(0.05, 2.0, size=4)
        base = embed_query(g, d, z=3)
        scaled = embed_query(g, 7.5 * d, z=3)
        assert scaled.neighbors == base.neighbors
        assert np.allclose(scaled.q, base.q, atol=1e-9)

    def test_empty_graph_rejected(self):
        g = self._graph(2)
        with pytest.raises(ValueError, match="empty"):
            embed_query(g, np.array([]), z=1)


class TestMarkovWalk:
    def test_zero_steps_is_identity(self):
        A = cycle_matrix()
        q = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(markov_walk(A, q, 0), q)

    def test_cycle_two_steps(self):
        A = cycle_matrix()
        q = np.array([1.0, 0.0, 0.0])
        out = markov_walk(A, q, 2)
        assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-12)

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            dense = rng.uniform(0.0, 1.0, size=(n, n))
            dense /= dense.sum(axis=1, keepdims=True)
            q = rng.uniform(0.0, 1.0, size=n)
            q /= q.sum()
            A = csr_array(dense)
            for t in range(4):
                got = markov_walk(A, q, t)
                expected = enumerate_walk(dense, q, t)
                assert np.allclose(got, expected, atol=1e-9)

    def test_conserves_mass(self):
        rng = np.random.default_rng(2)
        g = make_graph(rng.standard_normal((6, 2)), ["a", "a", "b", "b", "c", "c"])
        A = normalize_transitions(g)
        q = np.full(6, 1.0 / 6.0)
        for t in (0, 1, 3, 8):
            assert markov_walk(A, q, t).sum() == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            markov_walk(cycle_matrix(), np.array([1.0, 0.0]), 1)

    def test_block_columns_walk_as_alone(self):
        rng = np.random.default_rng(7)
        g = make_graph(rng.standard_normal((9, 2)), ["a", "b", "c"] * 3)
        A = normalize_transitions(g)
        block = rng.uniform(size=(9, 5))
        block /= block.sum(axis=0)
        for t in (0, 1, 4):
            walked = markov_walk(A, block, t)
            for k in range(5):
                assert walked[:, k].tobytes() == markov_walk(A, block[:, k], t).tobytes()


    @pytest.mark.parametrize("t", [0, 1, 3, 8])
    def test_bit_equal_to_transpose_per_step(self, t):
        rng = np.random.default_rng(8)
        g = make_graph(rng.standard_normal((40, 3)), ["a", "b", "c", "d"] * 10)
        A = normalize_transitions(g)
        single = rng.uniform(size=40)
        block = rng.uniform(size=(40, 6))
        for q in (single / single.sum(), block / block.sum(axis=0)):
            got = markov_walk(A, q, t)
            want = loop_markov_walk(A, q, t)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestClassDistribution:
    def test_direct_mapping(self):
        g = make_graph([[0.0, 0.0], [1.0, 0.0]], ["a", "b"])
        classes = semantic_classes(None, {"a", "b"}, VERB)
        dist = class_distribution(np.array([0.6, 0.4]), g, classes)
        assert dist == {"a": pytest.approx(0.6), "b": pytest.approx(0.4)}

    def test_accumulates_per_class(self):
        g = make_graph(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], ["a", "a", "b"]
        )
        classes = semantic_classes(None, {"a", "b"}, VERB)
        dist = class_distribution(np.array([0.5, 0.3, 0.2]), g, classes)
        assert dist["a"] == pytest.approx(0.8)
        assert dist["b"] == pytest.approx(0.2)

    def test_single_class_gets_everything(self):
        g = make_graph([[0.0, 0.0], [1.0, 0.0]], ["a", "a"])
        classes = semantic_classes(None, {"a"}, VERB)
        dist = class_distribution(np.array([0.5, 0.5]), g, classes)
        assert dist == {"a": pytest.approx(1.0)}

    def test_missing_annotation_rejected(self):
        g = make_graph([[0.0, 0.0], [1.0, 0.0]], ["a", "zz"])
        classes = semantic_classes(None, {"a"}, VERB)
        with pytest.raises(ValueError, match="zz"):
            class_distribution(np.array([0.5, 0.5]), g, classes)

    @pytest.mark.parametrize(
        "labels,first",
        [(["a", "zz", "b", "yy"], "zz"), (["yy", "a", "zz", "yy"], "yy"), (["a", "b", "zz", "zz"], "zz")],
    )
    def test_names_the_first_missing_node_annotation(self, labels, first):
        g = make_graph([[float(i), 0.0] for i in range(4)], labels)
        classes = semantic_classes(None, {"a", "b"}, VERB)
        with pytest.raises(ValueError, match=rf"^node annotation '{first}' missing"):
            class_distribution(np.full(4, 0.25), g, classes)

    def test_annotation_codes_in_first_appearance_order(self):
        g = make_graph([[float(i), 0.0] for i in range(5)], ["c", "a", "c", "b", "a"])
        annotations, codes = g.annotation_codes
        assert annotations == ("c", "a", "b")
        assert codes.tolist() == [0, 1, 0, 2, 1]
        assert g.annotation_codes is g.annotation_codes
        assert not codes.flags.writeable

    def test_block_gives_one_distribution_per_column(self):
        g = make_graph([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], ["a", "b", "a"])
        classes = semantic_classes(None, {"a", "b", "c"}, VERB)
        block = np.array([[0.1, 1.0], [0.3, 0.0], [0.6, 0.0]])
        dists = class_distribution(block, g, classes)
        assert dists == [
            class_distribution(block[:, 0], g, classes),
            class_distribution(block[:, 1], g, classes),
        ]
        assert list(dists[1]) == ["a", "b", "c"] and dists[1]["c"] == 0.0

    def test_argmax_tie_breaks_lexicographically(self):
        assert argmax_class({"b": 0.5, "a": 0.5}) == "a"
        assert argmax_class({"b": 0.6, "a": 0.4}) == "b"


class TestClassify:
    def test_exact_training_vector_with_one_hot_chain(self):
        g = make_graph([[0.0, 0.0], [5.0, 5.0]], ["a", "b"])
        A = normalize_transitions(g)
        label, dist = classify(
            g, A, None, VERB, vec([5.0, 5.0]), WalkConfig(z=1, t=0)
        )
        assert label == "b"
        assert dist["b"] == pytest.approx(1.0, abs=1e-9)

    def test_two_step_regime_matches_three_hop_enumeration(self):
        # Six nodes, two labels; embed with two neighbors then walk two
        # steps; compare against explicit enumeration of the chain
        # "pick start in R, then two transitions".
        rng = np.random.default_rng(3)
        points = rng.standard_normal((6, 2)) * 2.0
        labels = ["a", "a", "b", "b", "a", "b"]
        g = make_graph(points, labels)
        A = normalize_transitions(g)
        dense = A.toarray()
        query = vec(rng.standard_normal(2))
        config = WalkConfig(z=2, t=2)
        label, dist = classify(g, A, None, VERB, query, config)

        emb = embed_query(g, query_distances(g, query), 2)
        node_mass = enumerate_walk(dense, emb.q, 2)
        expected = {"a": 0.0, "b": 0.0}
        for i, lab in enumerate(labels):
            expected[lab] += node_mass[i]
        assert dist["a"] == pytest.approx(expected["a"], abs=1e-9)
        assert dist["b"] == pytest.approx(expected["b"], abs=1e-9)
        assert label == max(sorted(expected), key=lambda c: expected[c])

    def test_planted_clusters_recovered(self):
        rng = np.random.default_rng(4)
        cluster_a = rng.standard_normal((8, 2)) * 0.1
        cluster_b = rng.standard_normal((8, 2)) * 0.1 + 10.0
        points = np.vstack([cluster_a, cluster_b])
        labels = ["a"] * 8 + ["b"] * 8
        g = make_graph(points, labels)
        A = normalize_transitions(g)
        query = vec(rng.standard_normal(2) * 0.1)  # inside cluster a
        label, dist = classify(g, A, None, VERB, query, WalkConfig(z=3, t=4))
        assert label == "a"
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_zero_steps_equals_weighted_knn_voting(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((7, 3))
        labels = ["a", "b", "a", "c", "b", "c", "a"]
        g = make_graph(points, labels)
        A = normalize_transitions(g)
        query = vec(rng.standard_normal(3))
        z = 4
        label, dist = classify(g, A, None, VERB, query, WalkConfig(z=z, t=0))

        # Independent reciprocal-distance voting over the z nearest.
        d = np.array(
            [np.linalg.norm(query.values - p) for p in points]
        )
        order = np.argsort(d, kind="stable")[:z]
        votes = {"a": 0.0, "b": 0.0, "c": 0.0}
        for idx in order:
            votes[labels[int(idx)]] += 1.0 / (d[idx] + 1e-12)
        total = sum(votes.values())
        for cls in votes:
            assert dist[cls] == pytest.approx(votes[cls] / total, abs=1e-9)
        assert label == max(sorted(votes), key=lambda c: votes[c])

    def test_scaling_distances_keeps_label(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((6, 2))
        labels = ["a", "b", "a", "b", "a", "b"]
        g = make_graph(points, labels)
        A = normalize_transitions(g)
        query = vec(rng.standard_normal(2))
        label, _ = classify(g, A, None, VERB, query, WalkConfig(z=3, t=2))
        scaled_query = vec(query.values * 1.0)  # same query, scaled metric below
        d = query_distances(g, scaled_query)
        emb_base = embed_query(g, d, 3)
        emb_scaled = embed_query(g, d * 42.0, 3)
        assert np.allclose(emb_base.q, emb_scaled.q, atol=1e-9)
        walked = markov_walk(A, emb_scaled.q, 2)
        classes = semantic_classes(None, set(labels), VERB)
        dist = class_distribution(walked, g, classes)
        assert argmax_class(dist) == label


def random_walk_case(rng):
    n = int(rng.integers(2, 12))
    labels = [f"l{int(rng.integers(3))}" for _ in range(n)]
    g = make_graph(rng.standard_normal((n, 3)), labels)
    queries = [vec(rng.standard_normal(3)) for _ in range(int(rng.integers(1, 6)))]
    return g, normalize_transitions(g), queries


class TestBatch:
    def test_query_distances_equal_pairwise_distance(self):
        rng = np.random.default_rng(8)
        for dim in (1, 3, 33, 64, 640):
            nodes = [
                SvgNode(segment_id=f"s{i}", annotation="a", vector=vec(rng.standard_normal(dim)))
                for i in range(20)
            ]
            g = edgeless_graph(nodes)
            query = vec(rng.standard_normal(dim))
            expected = [distance(query, node.vector) for node in nodes]
            assert query_distances(g, query).tolist() == expected

    def test_query_distances_need_vectors(self):
        g = edgeless_graph([SvgNode(segment_id="s0", annotation="a", vector=None)])
        with pytest.raises(ValueError, match="no vectors"):
            query_distances(g, vec([0.0]))

    def test_node_stack_is_read_only(self):
        g = make_graph([[0.0, 0.0], [1.0, 2.0]], ["a", "b"])
        assert g.vector_matrix is g.vector_matrix
        assert g.vector_matrix.values.tolist() == [[0.0, 0.0], [1.0, 2.0]]
        with pytest.raises(ValueError):
            g.vector_matrix.values[0, 0] = 1.0

    @pytest.mark.parametrize("z,t", [(1, 0), (3, 0), (2, 3), (40, 0), (40, 5)])
    def test_batch_equals_one_query_at_a_time(self, z, t):
        rng = np.random.default_rng(9)
        config = WalkConfig(z=z, t=t)
        for _ in range(15):
            g, A, queries = random_walk_case(rng)
            batch = classify_batch(g, A, None, VERB, queries, config)
            assert batch == [classify(g, A, None, VERB, q, config) for q in queries]

    @pytest.mark.parametrize("z,t", [(1, 0), (2, 3), (40, 5)])
    def test_batch_equals_one_dimensional_pipeline(self, z, t):
        rng = np.random.default_rng(10)
        for _ in range(15):
            g, A, queries = random_walk_case(rng)
            classes = semantic_classes(None, {node.annotation for node in g.nodes}, VERB)
            expected = []
            for q in queries:
                d = np.array([distance(q, node.vector) for node in g.nodes])
                walked = markov_walk(A, embed_query(g, d, z).q, t)
                dist = class_distribution(walked, g, classes)
                expected.append((argmax_class(dist), dist))
            got = classify_batch(g, A, None, VERB, queries, WalkConfig(z=z, t=t))
            assert got == expected

    def test_empty_batch(self):
        g = make_graph([[0.0, 0.0], [1.0, 0.0]], ["a", "b"])
        A = normalize_transitions(g)
        assert classify_batch(g, A, None, VERB, [], WalkConfig()) == []
