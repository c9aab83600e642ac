import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array

import semwalk.inference
from semwalk.encoding import distance, stack
from semwalk.graph import SvgGraph, SvgNode, build_svg, normalize_transitions, with_vectors
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

from _oracles import enumerate_walk, forward_class_distribution, loop_markov_walk
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
        q = embed_query(g, np.array([0.1, 0.2, 5.0]), z=2)
        assert tuple(np.flatnonzero(q)) == (0, 1)
        assert q[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert q[1] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert q[2] == 0.0

    def test_one_hot_for_z_one(self):
        g = self._graph(3)
        q = embed_query(g, np.array([4.0, 1.0, 2.0]), z=1)
        assert tuple(np.flatnonzero(q)) == (1,)
        assert q[1] == 1.0

    def test_z_clamped_to_n(self):
        g = self._graph(3)
        q = embed_query(g, np.array([1.0, 2.0, 3.0]), z=9)
        assert tuple(np.flatnonzero(q)) == (0, 1, 2)
        assert q.sum() == pytest.approx(1.0, abs=1e-9)

    def test_tie_prefers_lowest_index(self):
        g = self._graph(3)
        q = embed_query(g, np.array([2.0, 2.0, 2.0]), z=1)
        assert tuple(np.flatnonzero(q)) == (0,)

    def test_zero_distance_handled(self):
        g = self._graph(2)
        q = embed_query(g, np.array([0.0, 1.0]), z=2)
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
        assert q[0] > 0.999

    def test_scale_invariance(self):
        g = self._graph(4)
        rng = np.random.default_rng(0)
        d = rng.uniform(0.05, 2.0, size=4)
        base = embed_query(g, d, z=3)
        scaled = embed_query(g, 7.5 * d, z=3)
        assert tuple(np.flatnonzero(scaled)) == tuple(np.flatnonzero(base))
        assert np.allclose(scaled, base, atol=1e-9)

    def test_empty_graph_rejected(self):
        g = self._graph(2)
        with pytest.raises(ValueError, match="empty"):
            embed_query(g, np.array([]), z=1)

    @pytest.mark.parametrize("z", [0, -1])
    def test_z_below_one_rejected_as_walk_config_does(self, z):
        g = self._graph(3)
        with pytest.raises(ValueError, match=rf"^z must be >= 1, got {z}$"):
            embed_query(g, np.array([1.0, 2.0, 3.0]), z=z)
        with pytest.raises(ValueError, match=rf"^z must be >= 1, got {z}$"):
            WalkConfig(z=z)


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


    def test_column_stored_walk_bit_equal_to_row_stored(self):
        # A.T of the CSC matrix is CSR, of the CSR matrix CSC: both add a
        # node's incoming mass in ascending source order.
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            g = make_graph(rng.standard_normal((n, 3)), [f"l{i % 4}" for i in range(n)])
            A = normalize_transitions(g)
            single = rng.uniform(size=n)
            block = rng.uniform(size=(n, 5))
            for q in (single / single.sum(), block / block.sum(axis=0)):
                for t in (1, 3, 8):
                    got = markov_walk(A, q, t)
                    assert got.tobytes() == markov_walk(A.tocsr(), q, t).tobytes()


def classify_at_t0(g, query, z, classes):
    A = normalize_transitions(g)
    return classify_batch(g, A, None, VERB, stack([vec(query)]), WalkConfig(z=z, t=0), classes)[0]


class TestClassDistribution:
    def test_direct_mapping(self):
        # Distances 0.4 and 0.6 give start mass 0.6 and 0.4.
        g = make_graph([[0.0, 0.0], [1.0, 0.0]], ["a", "b"])
        classes = semantic_classes(None, {"a", "b"}, VERB)
        _label, dist = classify_at_t0(g, [0.4, 0.0], 2, classes)
        assert dist == {"a": pytest.approx(0.6), "b": pytest.approx(0.4)}

    def test_accumulates_per_class(self):
        g = make_graph(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], ["a", "a", "b"]
        )
        classes = semantic_classes(None, {"a", "b"}, VERB)
        label, dist = classify_at_t0(g, [0.5, 0.0], 3, classes)
        recip = 1.0 / np.array([0.5, 0.5, 1.5])
        assert dist["a"] == pytest.approx((recip[0] + recip[1]) / recip.sum())
        assert dist["b"] == pytest.approx(recip[2] / recip.sum())
        assert label == "a"

    def test_single_class_gets_everything(self):
        g = make_graph([[0.0, 0.0], [1.0, 0.0]], ["a", "a"])
        classes = semantic_classes(None, {"a"}, VERB)
        _label, dist = classify_at_t0(g, [0.3, 0.0], 2, classes)
        assert dist == {"a": pytest.approx(1.0)}

    def test_missing_annotation_rejected(self):
        g = make_graph([[0.0, 0.0], [1.0, 0.0]], ["a", "zz"])
        classes = semantic_classes(None, {"a"}, VERB)
        with pytest.raises(ValueError, match="zz"):
            classify_at_t0(g, [0.0, 0.0], 2, classes)

    @pytest.mark.parametrize(
        "labels,first",
        [(["a", "zz", "b", "yy"], "zz"), (["yy", "a", "zz", "yy"], "yy"), (["a", "b", "zz", "zz"], "zz")],
    )
    def test_names_the_first_missing_node_annotation(self, labels, first):
        g = make_graph([[float(i), 0.0] for i in range(4)], labels)
        classes = semantic_classes(None, {"a", "b"}, VERB)
        with pytest.raises(ValueError, match=rf"^node annotation '{first}' missing"):
            classify_at_t0(g, [0.0, 0.0], 4, classes)

    def test_annotation_codes_in_first_appearance_order(self):
        g = make_graph([[float(i), 0.0] for i in range(5)], ["c", "a", "c", "b", "a"])
        annotations, codes = g.annotation_codes
        assert annotations == ("c", "a", "b")
        assert codes.tolist() == [0, 1, 0, 2, 1]
        assert g.annotation_codes is g.annotation_codes
        assert not codes.flags.writeable
        # The class-mass table follows the partition's order, not the codes'.
        classes = semantic_classes(None, {"a", "b", "c"}, VERB)
        table = class_distribution(g, normalize_transitions(g), 0, classes)
        assert table.tolist() == [[0, 0, 1], [1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_argmax_ties_within_the_rounding_allowance(self):
        top = 0.5
        ulp = np.spacing(top)
        for t, z in [(0, 1), (1, 4), (8, 4)]:
            allowance = 4 * (t + z)
            assert argmax_class({"b": top, "a": top - allowance * ulp}, t, z) == "a"
            assert argmax_class({"b": top, "a": top - (allowance + 1) * ulp}, t, z) == "b"
            assert argmax_class({"a": top - allowance * ulp, "b": top}, t, z) == "a"
        assert argmax_class({"b": 0.5, "a": np.nextafter(0.5, 0.0)}) == "a"

    def test_argmax_tie_breaks_lexicographically(self):
        assert argmax_class({"b": 0.5, "a": 0.5}) == "a"
        assert argmax_class({"b": 0.6, "a": 0.4}) == "b"
        # A query halfway between a "b" node and an "a" node ties exactly.
        g = make_graph([[0.0, 0.0], [2.0, 0.0]], ["b", "a"])
        classes = semantic_classes(None, {"a", "b"}, VERB)
        label, dist = classify_at_t0(g, [1.0, 0.0], 2, classes)
        assert dist == {"a": 0.5, "b": 0.5}
        assert label == "a"


def random_labelled_graph(rng, n):
    labels = [f"l{int(rng.integers(3))}" for _ in range(n)]
    g = make_graph(rng.standard_normal((n, 3)), labels)
    return g, semantic_classes(None, set(labels), VERB)


class TestClassMasses:
    @pytest.mark.parametrize("t", [0, 1, 3, 8])
    def test_rows_match_path_enumeration(self, t):
        # Row i is the class mass after t steps from node i alone.
        rng = np.random.default_rng(13)
        for _ in range(6):
            n = int(rng.integers(2, 6 if t <= 3 else 4))
            g, classes = random_labelled_graph(rng, n)
            A = normalize_transitions(g)
            table = class_distribution(g, A, t, classes)
            assert table.shape == (n, len(classes))
            dense = A.toarray()
            position = {a: c for c, comp in enumerate(classes) for a in comp}
            for i in range(n):
                node_mass = enumerate_walk(dense, np.eye(n)[i], t)
                want = np.zeros(len(classes))
                for j, node in enumerate(g.nodes):
                    want[position[node.annotation]] += node_mass[j]
                np.testing.assert_allclose(table[i], want, atol=1e-12, rtol=0)
            np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("z", [1, 3, 40])
    def test_zero_steps_bit_equal_to_forward_walk(self, z):
        rng = np.random.default_rng(14)
        for _ in range(15):
            g, A, queries = random_walk_case(rng)
            classes = semantic_classes(None, {node.annotation for node in g.nodes}, VERB)
            starts = np.column_stack(
                [embed_query(g, distance(q, g.vector_matrix), z) for q in queries]
            )
            want = forward_class_distribution(g, A, classes, starts, 0)
            got = classify_batch(g, A, None, VERB, stack(queries), WalkConfig(z=z, t=0))
            assert got == [(argmax_class(dist, 0, z), dist) for dist in want]

    @pytest.mark.parametrize("z,t", [(z, t) for z in (1, 2, 4, 6) for t in (0, 1, 3, 8)])
    def test_tie_heavy_argmax_matches_forward_walk(self, z, t):
        # Each point carries two nodes of different classes, so queries
        # meet equal distances and classes of equal mass.
        points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        labels = ["b", "a", "c", "a", "a", "b", "c", "b"]
        g = make_graph([p for p in points for _ in range(2)], labels)
        A = normalize_transitions(g)
        classes = semantic_classes(None, set(labels), VERB)
        queries = [vec(q) for q in ([0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [1.0, 1.0], [0.0, 0.5])]
        starts = np.column_stack(
            [embed_query(g, distance(q, g.vector_matrix), z) for q in queries]
        )
        want = forward_class_distribution(g, A, classes, starts, t)
        got = classify_batch(g, A, None, VERB, stack(queries), WalkConfig(z=z, t=t))
        assert [label for label, _dist in got] == [argmax_class(dist, t, z) for dist in want]

    def test_random_tie_heavy_graphs_give_one_class_in_both_orders(self):
        # Two nodes per grid point and queries on the half grid: many
        # classes tie in exact arithmetic and round apart in one order.
        rng = np.random.default_rng(16)
        for _ in range(150):
            points = np.unique(rng.integers(0, 3, size=(int(rng.integers(2, 6)), 2)), axis=0)
            labels = ["abc"[int(rng.integers(3))] for _ in range(2 * len(points))]
            g = make_graph(np.repeat(points.astype(float), 2, axis=0), labels)
            A = normalize_transitions(g)
            classes = semantic_classes(None, set(labels), VERB)
            queries = [vec(q) for q in rng.integers(0, 5, size=(4, 2)) / 2.0]
            for z in (1, 2, 4, 6):
                starts = np.column_stack(
                    [embed_query(g, distance(q, g.vector_matrix), z) for q in queries]
                )
                for t in (1, 3, 8):
                    want = forward_class_distribution(g, A, classes, starts, t)
                    got = classify_batch(g, A, None, VERB, stack(queries), WalkConfig(z=z, t=t))
                    assert [label for label, _ in got] == [argmax_class(d, t, z) for d in want]

    def test_tie_rounded_apart_gives_one_class_in_both_orders(self):
        # Found by a seeded search: a and c tie in exact arithmetic, and
        # the backward table rounds a below c while the forward walk
        # rounds them equal.  Exact comparison answered c and a.
        g = make_graph(
            [[0.0, 1.0], [0.0, 1.0], [1.0, 2.0], [1.0, 2.0], [2.0, 2.0], [2.0, 2.0]],
            ["a", "b", "a", "a", "c", "c"],
        )
        A = normalize_transitions(g)
        classes = semantic_classes(None, {"a", "b", "c"}, VERB)
        query = vec([1.5, 2.0])
        start = embed_query(g, distance(query, g.vector_matrix), 4)[:, None]
        forward = forward_class_distribution(g, A, classes, start, 1)[0]
        [(label, backward)] = classify_batch(g, A, None, VERB, stack([query]), WalkConfig(z=4, t=1))
        assert forward["a"] == forward["c"] and backward["a"] < backward["c"]
        assert label == argmax_class(forward, 1, 4) == "a"

    @pytest.mark.parametrize("z,t", [(1, 0), (3, 2), (40, 8)])
    def test_query_alone_equals_in_any_batch(self, z, t):
        rng = np.random.default_rng(15)
        config = WalkConfig(z=z, t=t)
        for _ in range(10):
            g, A, queries = random_walk_case(rng)
            alone = [classify(g, A, None, VERB, q, config) for q in queries]
            assert classify_batch(g, A, None, VERB, stack(queries), config) == alone
            order = rng.permutation(len(queries))
            shuffled = classify_batch(g, A, None, VERB, stack([queries[k] for k in order]), config)
            assert shuffled == [alone[k] for k in order]

    def test_walked_once_per_graph_matrix_steps_and_partition(self, monkeypatch):
        calls = []

        def counting_walk(A, q, t):
            calls.append(t)
            return markov_walk(A, q, t)

        monkeypatch.setattr(semwalk.inference, "markov_walk", counting_walk)
        rng = np.random.default_rng(16)
        g = make_graph(rng.standard_normal((8, 2)), ["a", "b", "c", "a", "b", "c", "a", "b"])
        A = normalize_transitions(g)
        narrow = semantic_classes(None, {"a", "b", "c"}, VERB)
        wide = semantic_classes(None, {"a", "b", "c", "d"}, VERB)
        query = vec(rng.standard_normal(2))
        first = classify(g, A, None, VERB, query, WalkConfig(z=3, t=2), narrow)
        for _ in range(19):
            assert classify(g, A, None, VERB, query, WalkConfig(z=3, t=2), narrow) == first
        assert calls == [2]

        # Equal values in another matrix, another t, another partition:
        # each walks afresh and gets its own table.
        same_values = normalize_transitions(g)
        assert classify(g, same_values, None, VERB, query, WalkConfig(z=3, t=2), narrow) == first
        assert len(calls) == 2
        other = normalize_transitions(
            make_graph(rng.standard_normal((8, 2)), ["a", "b", "c", "a", "b", "c", "a", "b"])
        )
        _label, dist = classify(g, other, None, VERB, query, WalkConfig(z=3, t=2), narrow)
        start = embed_query(g, distance(query, g.vector_matrix), 3)[:, None]
        want = forward_class_distribution(g, other, narrow, start, 2)[0]
        np.testing.assert_allclose(list(dist.values()), list(want.values()), atol=1e-12, rtol=0)
        assert dist != first[1]
        assert len(calls) == 3
        other_t = classify(g, A, None, VERB, query, WalkConfig(z=3, t=5), narrow)
        assert len(calls) == 4 and calls[-1] == 5 and other_t != first
        widened = classify(g, A, None, VERB, query, WalkConfig(z=3, t=2), wide)
        assert len(calls) == 5 and list(widened[1]) == ["a", "b", "c", "d"]
        assert widened[1]["d"] == 0.0
        # Every table stays cached: no further walks.
        classify(g, A, None, VERB, query, WalkConfig(z=3, t=5), narrow)
        classify(g, A, None, VERB, query, WalkConfig(z=3, t=2), wide)
        assert len(calls) == 5

    def test_new_graph_starts_with_no_tables(self):
        rng = np.random.default_rng(17)
        g = make_graph(rng.standard_normal((5, 2)), ["a", "b", "a", "b", "a"])
        A = normalize_transitions(g)
        classify(g, A, None, VERB, vec([0.0, 0.0]), WalkConfig(z=2, t=1))
        ((A_kept, table),) = g.class_mass_tables.values()
        assert A_kept is A and not table.flags.writeable
        vectors = {node.segment_id: node.vector for node in g.nodes}
        assert with_vectors(g, vectors).class_mass_tables == {}


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

        q = embed_query(g, distance(query, g.vector_matrix), 2)
        node_mass = enumerate_walk(dense, q, 2)
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
        d = distance(scaled_query, g.vector_matrix)
        q_base = embed_query(g, d, 3)
        q_scaled = embed_query(g, d * 42.0, 3)
        assert np.allclose(q_base, q_scaled, atol=1e-9)
        classes = semantic_classes(None, set(labels), VERB)
        dist = forward_class_distribution(g, A, classes, q_scaled[:, None], 2)[0]
        assert argmax_class(dist, 2, 3) == label


def random_walk_case(rng):
    n = int(rng.integers(2, 12))
    labels = [f"l{int(rng.integers(3))}" for _ in range(n)]
    g = make_graph(rng.standard_normal((n, 3)), labels)
    queries = [vec(rng.standard_normal(3)) for _ in range(int(rng.integers(1, 6)))]
    return g, normalize_transitions(g), queries


class TestBatch:
    def test_query_distances_equal_pairwise_distance(self):
        # The z nearest nodes and their distances are the first z of a
        # stable sort of the distances to every node, one node at a time.
        rng = np.random.default_rng(8)
        for dim in (1, 3, 33, 64, 640):
            nodes = [
                SvgNode(segment_id=f"s{i}", annotation="a", vector=vec(rng.standard_normal(dim)))
                for i in range(20)
            ]
            g = edgeless_graph(nodes)
            queries = [vec(rng.standard_normal(dim)) for _ in range(3)]
            for z in (1, 4, 19, 20, 25):
                found = query_distances(g, stack(queries), z)
                assert len(found) == len(queries)
                for query, (nearest, dists) in zip(queries, found):
                    every = [distance(query, stack([node.vector]))[0] for node in nodes]
                    order = sorted(range(20), key=lambda i: (every[i], i))[:z]
                    assert nearest.tolist() == order
                    assert dists.tolist() == [every[i] for i in order]

    def test_query_distances_need_vectors(self):
        g = edgeless_graph([SvgNode(segment_id="s0", annotation="a", vector=None)])
        with pytest.raises(ValueError, match="no vectors"):
            query_distances(g, stack([vec([0.0])]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distance_rejected(self, bad):
        # A bad node is rejected even when it is not among the z nearest:
        # no shortlist bound holds then, so every node's distance is checked.
        g = make_graph([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], ["a", "b", "c"])
        with pytest.raises(ValueError, match="must be finite"):
            query_distances(g, stack([vec([bad, 0.0])]), 1)
        nodes = [SvgNode("s0", "a", vec([0.0])), SvgNode("s1", "a", vec([bad]))]
        with pytest.raises(ValueError, match="must be finite"):
            query_distances(edgeless_graph(nodes), stack([vec([0.0])]), 1)

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
            batch = classify_batch(g, A, None, VERB, stack(queries), config)
            assert batch == [classify(g, A, None, VERB, q, config) for q in queries]

    @pytest.mark.parametrize("z,t", [(1, 0), (2, 3), (40, 5)])
    def test_batch_equals_one_dimensional_pipeline(self, z, t):
        rng = np.random.default_rng(10)
        for _ in range(15):
            g, A, queries = random_walk_case(rng)
            classes = semantic_classes(None, {node.annotation for node in g.nodes}, VERB)
            expected = []
            for q in queries:
                d = np.array([distance(q, stack([node.vector]))[0] for node in g.nodes])
                start = embed_query(g, d, z)[:, None]
                expected.append(forward_class_distribution(g, A, classes, start, t)[0])
            got = classify_batch(g, A, None, VERB, stack(queries), WalkConfig(z=z, t=t))
            # The backward walk adds in another order: equal predictions,
            # distributions equal up to rounding.
            assert [label for label, _dist in got] == [argmax_class(d, t, z) for d in expected]
            for (_label, dist), want in zip(got, expected):
                assert list(dist) == list(want)
                np.testing.assert_allclose(
                    list(dist.values()), list(want.values()), atol=1e-12, rtol=0
                )

    def test_one_query_builds_no_nodes_by_length_array(self):
        # 400 nodes of length 640, the classify benchmark's graph.  After a
        # warm-up call has stacked the nodes and their norms, one query
        # must stay far below one 400 x 640 array of doubles.
        rng = np.random.default_rng(11)
        values = rng.standard_normal((401, 640))
        values /= np.linalg.norm(values, axis=1, keepdims=True)
        nodes = [SvgNode(f"s{i}", f"l{i % 8}", vec(values[i])) for i in range(400)]
        g = build_svg(nodes, None, VERB, m=0)
        A = normalize_transitions(g)
        query = vec(values[400])
        warm = classify(g, A, None, VERB, query, WalkConfig())
        tracemalloc.start()
        try:
            assert classify(g, A, None, VERB, query, WalkConfig()) == warm
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400 * 640 * 8 // 8

    def test_empty_batch(self):
        g = make_graph([[0.0, 0.0], [1.0, 0.0]], ["a", "b"])
        A = normalize_transitions(g)
        assert classify_batch(g, A, None, VERB, vec(np.empty((0, 2))), WalkConfig()) == []
