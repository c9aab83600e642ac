import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import semwalk.graph
from semwalk.encoding import DISTANCE_EPSILON
from semwalk.graph import (
    SEMANTIC,
    VISUAL,
    SvgGraph,
    SvgNode,
    build_svg,
    distance_matrix,
    load_graph,
    normalize_transitions,
    rank_global,
    rank_local,
    save_graph,
)
from semwalk.semantics import MODES, VERB

from _oracles import (
    brute_force_edges,
    expanded_squared_distances,
    loop_normalize_transitions,
)
from conftest import MANIFEST_FIELDS, vec


def make_nodes(points, labels, kind="fv"):
    return [
        SvgNode(segment_id=f"s{i}", annotation=labels[i], vector=vec(p, kind))
        for i, p in enumerate(points)
    ]


def random_nodes(rng, n, n_labels, dim=3):
    points = rng.standard_normal((n, dim))
    labels = [f"l{int(rng.integers(n_labels))}" for _ in range(n)]
    return make_nodes(points, labels)


class TestDistanceMatrix:
    def test_symmetric_two_vectors(self):
        d = distance_matrix([vec([0.0, 0.0]), vec([1.0, 1.0])])
        assert d[0, 1] == d[1, 0]
        assert d[0, 0] == d[1, 1] == 0.0

    def test_identical_vectors(self):
        d = distance_matrix([vec([2.0, 2.0])] * 3)
        assert np.all(d == 0.0)

    def test_planted_distances(self):
        d = distance_matrix([vec([0.0, 0.0]), vec([3.0, 4.0]), vec([0.0, 8.0])])
        expected = np.array([[0.0, 5.0, 8.0], [5.0, 0.0, 5.0], [8.0, 5.0, 0.0]])
        assert np.allclose(d, expected, atol=1e-12)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            distance_matrix([vec([1.0]), vec([1.0], kind="bow")])

    def test_needs_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            distance_matrix([vec([1.0])])

    @pytest.mark.parametrize(
        "n,dim,kind",
        [(2, 1, "fv"), (37, 5, "fv"), (120, 640, "fv"), (200, 64, "bow"), (400, 3, "bow")],
    )
    def test_bit_equal_to_expanded_form(self, n, dim, kind):
        rng = np.random.default_rng(n + dim)
        if kind == "bow":
            rows = rng.random((n, dim)) ** 3
            rows /= rows.sum(axis=1, keepdims=True)
        else:
            rows = rng.standard_normal((n, dim)) * 3.0
            rows = np.sign(rows) * np.sqrt(np.abs(rows))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        dist = np.sqrt(expanded_squared_distances(rows, rows))
        np.fill_diagonal(dist, 0.0)
        want = (dist + dist.T) / 2.0
        got = distance_matrix([vec(row, kind) for row in rows])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,dim", [(1, 1), (7, 1), (200, 32), (501, 5)])
    def test_kernel_bit_equal_to_expanded_form(self, n, dim):
        points = np.random.default_rng(n + dim).standard_normal((n, dim)) * 4.0 + 1.0
        got = semwalk.graph._squared_distances(points)
        assert got.tobytes() == expanded_squared_distances(points, points).tobytes()


def related_from_labels(labels):
    n = len(labels)
    table = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            table[i, j] = labels[i] == labels[j]
    return table


def assert_matches_oracle(nodes, m, distances):
    """build_svg's edges and weights equal brute_force_edges over `distances`."""
    svg = build_svg(nodes, None, VERB, m=m)
    labels = [node.annotation for node in nodes]
    semantic, visual = brute_force_edges(
        distances, lambda i, j: labels[i] == labels[j], m
    )
    pairs = svg.undirected_pairs()
    assert {(i, j) for i, j, _w, tag in pairs if tag == SEMANTIC} == semantic
    assert {(i, j) for i, j, _w, tag in pairs if tag == VISUAL} == visual
    assert all(w == float(distances[i, j]) + DISTANCE_EPSILON for i, j, w, _tag in pairs)


class TestRanking:
    def test_global_excludes_related_pairs(self):
        # labels a,a,b; unrelated pairs are (0,2) and (1,2)
        d = np.array([[0.0, 9.0, 1.0], [9.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        rel = related_from_labels(["a", "a", "b"])
        assert rank_global(d, rel).tolist() == [[0, 2], [1, 2]]

    def test_global_empty_when_all_related(self):
        d = np.ones((3, 3))
        rel = related_from_labels(["a", "a", "a"])
        assert rank_global(d, rel).tolist() == []

    def test_global_tie_prefers_lower_pair(self):
        d = np.array(
            [
                [0.0, 0.0, 2.0, 2.0],
                [0.0, 0.0, 2.0, 2.0],
                [2.0, 2.0, 0.0, 0.0],
                [2.0, 2.0, 0.0, 0.0],
            ]
        )
        rel = related_from_labels(["a", "a", "b", "b"])
        assert rank_global(d, rel).tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]

    def test_rankings_are_index_arrays(self):
        d = np.ones((3, 3))
        for labels, pairs in ((["a", "b", "b"], 2), (["a", "a", "a"], 0)):
            rel = related_from_labels(labels)
            ranked, local = rank_global(d, rel), rank_local(d, rel)
            assert ranked.dtype == np.intp and ranked.shape == (pairs, 2)
            assert local.dtype == np.intp and local.shape == (3,)

    def test_local_picks_nearest_unrelated(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 5.0], [2.0, 5.0, 0.0]])
        rel = related_from_labels(["a", "b", "b"])
        assert rank_local(d, rel).tolist() == [1, 0, 0]

    def test_local_none_when_all_related(self):
        d = np.ones((2, 2))
        rel = related_from_labels(["a", "a"])
        assert rank_local(d, rel).tolist() == [-1, -1]

    def test_local_tie_prefers_lower_index(self):
        d = np.array([[0.0, 3.0, 3.0], [3.0, 0.0, 9.0], [3.0, 9.0, 0.0]])
        rel = related_from_labels(["a", "b", "b"])
        assert rank_local(d, rel).tolist() == [1, 0, 0]

    def test_tie_heavy_rankings_match_sorted_loops(self):
        # Distances rounded to one decimal tie often; both rankings must
        # follow (distance, index) order exactly.
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 14))
            d = np.round(rng.uniform(0.0, 0.5, size=(n, n)), 1)
            d = np.triu(d, 1) + np.triu(d, 1).T
            labels = [f"l{int(rng.integers(3))}" for _ in range(n)]
            rel = related_from_labels(labels)
            expected = sorted(
                (d[i, j], i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if not rel[i, j]
            )
            assert rank_global(d, rel).tolist() == [[i, j] for _, i, j in expected]
            local = rank_local(d, rel).tolist()
            for i in range(n):
                others = [(d[i, j], j) for j in range(n) if j != i and not rel[i, j]]
                assert local[i] == (min(others)[1] if others else -1)


class TestBuildSvg:
    def test_two_labels_m_zero(self):
        # Two tight pairs far apart: semantic edges inside each pair,
        # plus one edge per node to its nearest cross-label node
        # (0->2, 1->2, 2->1, 3->1 collapse to three undirected pairs).
        points = [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]]
        nodes = make_nodes(points, ["a", "a", "b", "b"])
        svg = build_svg(nodes, None, VERB, m=0)
        pairs = {(i, j): tag for i, j, _w, tag in svg.undirected_pairs()}
        assert pairs == {
            (0, 1): SEMANTIC,
            (2, 3): SEMANTIC,
            (0, 2): VISUAL,
            (1, 2): VISUAL,
            (1, 3): VISUAL,
        }

    def test_single_label_complete_semantic(self):
        rng = np.random.default_rng(0)
        nodes = random_nodes(rng, 5, 1)
        svg = build_svg(nodes, None, VERB, m=17)
        pairs = svg.undirected_pairs()
        assert len(pairs) == 10
        assert all(tag == SEMANTIC for _i, _j, _w, tag in pairs)

    def test_all_distinct_labels_only_visual(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((4, 2))
        nodes = make_nodes(points, ["a", "b", "c", "d"])
        svg = build_svg(nodes, None, VERB, m=0)
        assert all(tag == VISUAL for _i, _j, _w, tag in svg.undirected_pairs())

    def test_budget_covers_all_unrelated_pairs(self):
        rng = np.random.default_rng(2)
        nodes = random_nodes(rng, 6, 2)
        svg = build_svg(nodes, None, VERB, m=100)
        rel = related_from_labels([n.annotation for n in nodes])
        expected_visual = sum(
            1
            for i in range(6)
            for j in range(i + 1, 6)
            if not rel[i, j]
        )
        visual = [e for e in svg.undirected_pairs() if e[3] == VISUAL]
        assert len(visual) == expected_visual

    def test_rejects_tiny_graphs(self):
        nodes = make_nodes([[0.0, 0.0]], ["a"])
        with pytest.raises(ValueError, match="at least 2"):
            build_svg(nodes, None, VERB, m=0)

    def test_every_node_has_out_degree(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            nodes = random_nodes(rng, n, int(rng.integers(1, 5)))
            svg = build_svg(nodes, None, VERB, m=int(rng.integers(0, 6)))
            touched = {end for i, j, _w, _tag in svg.undirected_pairs() for end in (i, j)}
            assert touched == set(range(n))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            nodes = random_nodes(rng, n, int(rng.integers(1, 4)))
            distances = distance_matrix([node.vector for node in nodes])
            assert_matches_oracle(nodes, int(rng.integers(0, 8)), distances)

    def test_tie_heavy_distances_match_brute_force_oracle(self, monkeypatch):
        # Distances rounded to one decimal tie often.
        exact = semwalk.graph.distance_matrix
        monkeypatch.setattr(
            semwalk.graph, "distance_matrix", lambda vectors: np.round(exact(vectors), 1)
        )
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 14))
            nodes = random_nodes(rng, n, int(rng.integers(1, 4)))
            distances = np.round(exact([node.vector for node in nodes]), 1)
            assert_matches_oracle(nodes, int(rng.integers(0, 8)), distances)

    def test_grid_points_with_exact_ties_match_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 14))
            points = rng.integers(0, 3, size=(n, 2)).astype(float)
            nodes = make_nodes(points, [f"l{int(rng.integers(3))}" for _ in range(n)])
            distances = distance_matrix([node.vector for node in nodes])
            assert_matches_oracle(nodes, int(rng.integers(0, 8)), distances)

    def test_directed_edges_mirror(self):
        # Each edge is stored once, i < j, and mirrored only in the transition matrix.
        rng = np.random.default_rng(5)
        nodes = random_nodes(rng, 8, 3)
        svg = build_svg(nodes, None, VERB, m=4)
        related = related_from_labels([node.annotation for node in nodes])
        assert svg.ends.dtype == np.intp and svg.ends.shape == (len(svg.weights), 2)
        assert np.all(svg.ends[:, 0] < svg.ends[:, 1])
        keys = [tuple(pair) for pair in svg.ends.tolist()]
        assert keys == sorted(set(keys))
        assert svg.weights.dtype == np.float64 and np.all(svg.weights > 0)
        assert svg.semantic.dtype == bool
        assert svg.semantic.tolist() == [bool(related[i, j]) for i, j in keys]

    def test_edge_arrays_read_only(self, tmp_path):
        rng = np.random.default_rng(17)
        svg = build_svg(random_nodes(rng, 6, 2), None, VERB, m=2)
        save_graph(svg, tmp_path / "g.txt")
        for graph in (svg, load_graph(tmp_path / "g.txt")):
            with pytest.raises(ValueError):
                graph.ends[0, 0] = 5
            with pytest.raises(ValueError):
                graph.weights[0] = 1.0
            with pytest.raises(ValueError):
                graph.semantic[0] = not graph.semantic[0]


class TestTransitions:
    def _graph_from_edges(self, n, weighted_edges):
        nodes = make_nodes([[float(i), 0.0] for i in range(n)], ["x"] * n)
        ends = np.array([(i, j) for i, j, _w in weighted_edges], dtype=np.intp)
        return SvgGraph(
            nodes=nodes,
            ends=ends,
            weights=np.array([w for _i, _j, w in weighted_edges]),
            semantic=np.ones(len(ends), dtype=bool),
            mode=VERB,
            m=0,
        )

    def test_equal_weights_split_evenly(self):
        g = self._graph_from_edges(3, [(0, 1, 1.0), (0, 2, 1.0)])
        A = normalize_transitions(g)
        assert A[0, 1] == pytest.approx(0.5)
        assert A[0, 2] == pytest.approx(0.5)

    def test_reciprocal_weighting(self):
        g = self._graph_from_edges(3, [(0, 1, 1.0), (0, 2, 3.0)])
        A = normalize_transitions(g)
        assert A[0, 1] == pytest.approx(0.75)
        assert A[0, 2] == pytest.approx(0.25)

    def test_single_edge_row(self):
        g = self._graph_from_edges(2, [(0, 1, 2.5)])
        A = normalize_transitions(g)
        assert A[0, 1] == pytest.approx(1.0)

    def test_rows_stochastic_and_pattern_matches_edges(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            nodes = random_nodes(rng, n, int(rng.integers(1, 4)))
            svg = build_svg(nodes, None, VERB, m=int(rng.integers(0, 10)))
            A = normalize_transitions(svg)
            sums = np.asarray(A.sum(axis=1)).ravel()
            assert np.allclose(sums, 1.0, atol=1e-9)
            coo = A.tocoo()
            pattern = set(zip(coo.row.tolist(), coo.col.tolist()))
            mirrored = {
                pair for i, j, _w, _tag in svg.undirected_pairs() for pair in ((i, j), (j, i))
            }
            assert pattern == mirrored

    def test_smaller_weight_larger_probability(self):
        g = self._graph_from_edges(4, [(0, 1, 0.5), (0, 2, 1.0), (0, 3, 2.0)])
        A = normalize_transitions(g)
        assert A[0, 1] > A[0, 2] > A[0, 3]

    def test_bitwise_equal_to_sorted_loop_reference(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            nodes = random_nodes(rng, n, int(rng.integers(1, 5)))
            svg = build_svg(nodes, None, VERB, m=int(rng.integers(0, 12)))
            A = normalize_transitions(svg)
            assert A.format == "csc"
            got = A.tocsr()
            expected = loop_normalize_transitions(svg)
            assert got.shape == expected.shape
            assert np.array_equal(got.indptr, expected.indptr)
            assert np.array_equal(got.indices, expected.indices)
            assert got.data.tobytes() == expected.data.tobytes()

    def test_same_bits_after_reload(self, tmp_path):
        rng = np.random.default_rng(15)
        svg = build_svg(random_nodes(rng, 12, 3), None, VERB, m=5)
        save_graph(svg, tmp_path / "g.txt")
        reloaded = normalize_transitions(load_graph(tmp_path / "g.txt"))
        assert reloaded.data.tobytes() == normalize_transitions(svg).data.tobytes()

    def test_non_positive_weight_rejected(self):
        g = self._graph_from_edges(3, [(0, 1, 1.0), (1, 2, 0.0)])
        with pytest.raises(ValueError, match="non-positive edge weight 0.0 out of node 1"):
            normalize_transitions(g)

    def test_subnormal_weight_rejected(self):
        # 1 / 5e-324 overflows to inf, which made the row NaN.
        g = self._graph_from_edges(3, [(0, 1, 1.0), (1, 2, 5e-324)])
        with pytest.raises(ValueError, match="out of node 1 sum to inf, not a finite"):
            normalize_transitions(g)

    def test_overflowing_reciprocal_sum_rejected(self):
        # Each reciprocal is finite, their sum is not: the row summed to 0.
        g = self._graph_from_edges(3, [(0, 1, 1e-308), (0, 2, 1e-308)])
        with pytest.raises(ValueError, match="out of node 0 sum to inf, not a finite"):
            normalize_transitions(g)

    def test_node_without_edges_rejected(self):
        g = self._graph_from_edges(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="node 2 has no outgoing edges"):
            normalize_transitions(g)

    def test_asymmetric_in_general(self):
        g = self._graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        A = normalize_transitions(g)
        assert A[0, 1] == pytest.approx(1.0)
        assert A[1, 0] == pytest.approx(0.5)


class TestGraphFiles:
    def test_round_trip_structure(self, tmp_path):
        rng = np.random.default_rng(7)
        nodes = random_nodes(rng, 6, 2)
        svg = build_svg(nodes, None, VERB, m=3)
        path = tmp_path / "graph.txt"
        save_graph(svg, path)
        loaded = load_graph(path)
        assert loaded.mode == svg.mode
        assert loaded.m == svg.m
        assert [n.segment_id for n in loaded.nodes] == [
            n.segment_id for n in svg.nodes
        ]
        assert [n.annotation for n in loaded.nodes] == [
            n.annotation for n in svg.nodes
        ]
        assert loaded.undirected_pairs() == svg.undirected_pairs()

    def test_dump_deterministic(self, tmp_path):
        rng = np.random.default_rng(8)
        nodes = random_nodes(rng, 5, 2)
        svg = build_svg(nodes, None, VERB, m=2)
        save_graph(svg, tmp_path / "a.txt")
        save_graph(svg, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_annotation_with_space_survives(self, tmp_path):
        nodes = make_nodes([[0.0, 0.0], [1.0, 0.0]], ["wash up.v.3", "wash up.v.3"])
        svg = build_svg(nodes, None, VERB, m=0)
        save_graph(svg, tmp_path / "g.txt")
        loaded = load_graph(tmp_path / "g.txt")
        assert loaded.nodes[0].annotation == "wash up.v.3"

    def _dump(self, tmp_path):
        rng = np.random.default_rng(16)
        svg = build_svg(random_nodes(rng, 8, 3), None, VERB, m=4)
        path = tmp_path / "graph.txt"
        save_graph(svg, path)
        return path, path.read_text(encoding="utf-8").splitlines(keepends=True)

    def test_unknown_mode_refused_on_save_and_load(self, tmp_path):
        path, lines = self._dump(tmp_path)
        lines[0] = lines[0].replace(" mode verb ", " mode vreb ")
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=r"graph\.txt: line 1: unknown relation mode 'vreb'$"):
            load_graph(path)
        svg = build_svg(random_nodes(np.random.default_rng(16), 8, 3), None, VERB, m=4)
        out = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=r"^unknown relation mode 'vreb'$"):
            save_graph(dataclasses.replace(svg, mode="vreb"), out)
        assert not out.exists()

    def test_negative_m_refused_on_save_and_load(self, tmp_path):
        path, lines = self._dump(tmp_path)
        lines[0] = lines[0].replace(" m 4", " m -1")
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=r"graph\.txt: line 1: m must be >= 0, got -1$"):
            load_graph(path)
        svg = build_svg(random_nodes(np.random.default_rng(16), 8, 3), None, VERB, m=4)
        out = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=r"^m must be >= 0, got -1$"):
            save_graph(dataclasses.replace(svg, m=-1), out)
        assert not out.exists()

    def test_truncated_edge_section_rejected(self, tmp_path):
        path, lines = self._dump(tmp_path)
        path.write_text("".join(lines[:-3]), encoding="utf-8")
        with pytest.raises(ValueError, match=r"graph\.txt: truncated: .* edge lines"):
            load_graph(path)

    def test_truncated_node_section_rejected(self, tmp_path):
        path, lines = self._dump(tmp_path)
        path.write_text("".join(lines[:5]), encoding="utf-8")
        with pytest.raises(ValueError, match=r"graph\.txt: truncated: 4 of 8 node lines"):
            load_graph(path)

    def test_line_cut_mid_edge_rejected(self, tmp_path):
        path, lines = self._dump(tmp_path)
        path.write_text("".join(lines)[:-6], encoding="utf-8")
        with pytest.raises(ValueError, match=r"graph\.txt: line \d+: bad edge line"):
            load_graph(path)

    def test_trailing_lines_rejected(self, tmp_path):
        path, lines = self._dump(tmp_path)
        path.write_text("".join(lines + [lines[-1]]), encoding="utf-8")
        with pytest.raises(ValueError, match=r"graph\.txt: 1 trailing line"):
            load_graph(path)

    @pytest.mark.parametrize("ends", ["0 8", "8 0", "-1 2", "3 3"])
    def test_edge_ends_outside_the_graph_rejected(self, tmp_path, ends):
        path, lines = self._dump(tmp_path)
        fields = lines[-1].split(" ")
        lines[-1] = " ".join([ends] + fields[2:])
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=rf"graph\.txt: line {len(lines)}: bad edge ends {ends}$"):
            load_graph(path)

    def _rewrite(self, tmp_path, edit):
        path, lines = self._dump(tmp_path)
        edit(lines)
        path.write_text("".join(lines), encoding="utf-8")
        return path, len(lines)

    @pytest.mark.parametrize(
        "header,what",
        [("nodes x mode verb m 4", "node count 'x'"), ("nodes 8 mode verb m 4.0", "m '4.0'")],
    )
    def test_non_integer_header_count_rejected(self, tmp_path, header, what):
        def edit(lines):
            lines[0] = header + "\n"

        path, _n = self._rewrite(tmp_path, edit)
        with pytest.raises(ValueError, match=rf"graph\.txt: line 1: non-integer {what}$"):
            load_graph(path)

    def test_negative_node_count_rejected(self, tmp_path):
        def edit(lines):
            lines[0] = lines[0].replace("nodes 8", "nodes -1")

        path, _n = self._rewrite(tmp_path, edit)
        with pytest.raises(ValueError, match=r"graph\.txt: line 1: node count must be >= 0"):
            load_graph(path)

    def test_non_integer_edge_count_rejected(self, tmp_path):
        def edit(lines):
            lines[9] = "edges many\n"

        path, _n = self._rewrite(tmp_path, edit)
        with pytest.raises(
            ValueError, match=r"graph\.txt: line 10: non-integer edge count 'many'$"
        ):
            load_graph(path)

    def test_non_integer_node_index_rejected(self, tmp_path):
        def edit(lines):
            lines[3] = "two" + lines[3][1:]

        path, _n = self._rewrite(tmp_path, edit)
        with pytest.raises(
            ValueError, match=r"graph\.txt: line 4: node index 'two', expected 2$"
        ):
            load_graph(path)

    @pytest.mark.parametrize("field,value", [(0, "x"), (1, "1.5"), (2, "abc")])
    def test_non_numeric_edge_field_rejected(self, tmp_path, field, value):
        def edit(lines):
            fields = lines[-1].split(" ")
            fields[field] = value
            lines[-1] = " ".join(fields)

        path, n = self._rewrite(tmp_path, edit)
        with pytest.raises(ValueError, match=rf"graph\.txt: line {n}: bad edge line"):
            load_graph(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "0.0", "-1.5"])
    def test_non_finite_or_non_positive_weight_rejected(self, tmp_path, weight):
        def edit(lines):
            fields = lines[-1].split(" ")
            fields[2] = weight
            lines[-1] = " ".join(fields)

        path, n = self._rewrite(tmp_path, edit)
        with pytest.raises(
            ValueError,
            match=rf"graph\.txt: line {n}: edge weight must be finite and > 0, got ",
        ):
            load_graph(path)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_duplicate_edge_rejected(self, tmp_path, reverse):
        def edit(lines):
            i, j, _w, _tag = lines[-2].split()
            ends = f"{j} {i}" if reverse else f"{i} {j}"
            lines[-1] = f"{ends} 2.0 visual\n"

        path, n = self._rewrite(tmp_path, edit)
        with pytest.raises(ValueError, match=rf"graph\.txt: line {n}: duplicate edge "):
            load_graph(path)


# A manifest line ends only at \n or \r, so "\x0b" (a line boundary to
# str.splitlines) can sit inside a verb.
_LABELS = ["put", "take", "wash up.v.3", "put_down.v.1", "put\x0bdown"]


@st.composite
def graphs(draw, max_nodes=10):
    """Any structure-only graph a manifest can lead to: segment ids and
    annotations of manifest-field text, edges between any nodes, any
    finite weights > 0, either tag."""
    n = draw(st.integers(1, max_nodes))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = sorted(draw(st.sets(st.sampled_from(all_pairs)))) if all_pairs else []
    count = len(pairs)
    weight = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    ids = draw(st.lists(MANIFEST_FIELDS, min_size=n, max_size=n, unique=True))
    label = st.one_of(st.sampled_from(_LABELS), MANIFEST_FIELDS)
    return SvgGraph(
        nodes=[
            SvgNode(segment_id=segment_id, annotation=draw(label), vector=None)
            for segment_id in ids
        ],
        ends=np.array(pairs, dtype=np.intp).reshape(-1, 2),
        weights=np.array(draw(st.lists(weight, min_size=count, max_size=count))),
        semantic=np.array(
            draw(st.lists(st.booleans(), min_size=count, max_size=count)), dtype=bool
        ),
        mode=draw(st.sampled_from(MODES)),
        m=draw(st.integers(0, 1000)),
    )


def _transitions(graph):
    try:
        A = normalize_transitions(graph)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes()


def _assert_same_graph(got, want):
    assert [(n.segment_id, n.annotation) for n in got.nodes] == [
        (n.segment_id, n.annotation) for n in want.nodes
    ]
    assert (got.mode, got.m) == (want.mode, want.m)
    assert got.ends.dtype == np.intp and got.ends.shape == want.ends.shape
    assert np.array_equal(got.ends, want.ends)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.array_equal(got.semantic, want.semantic)


def _undumpable(node):
    """Whether `save_graph` must refuse the node: a segment id the loader
    would split, or an annotation it would read as several lines."""
    line_break = len((node.annotation + "x").splitlines()) > 1
    return line_break or any(ch.isspace() for ch in node.segment_id)


def _save(graph, path):
    """`save_graph`, leaving out of the test a graph whose dump it refuses
    (`test_dump_loads_back_equal_or_is_refused` checks those)."""
    try:
        save_graph(graph, path)
    except ValueError:
        reject()


def _dumps(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


class TestGraphDumpProperties:
    @_dumps(100)
    @given(graph=graphs())
    def test_dump_loads_back_equal_or_is_refused(self, tmp_path, graph):
        path = tmp_path / "g.txt"
        try:
            save_graph(graph, path)
        except ValueError as exc:
            idx = next(i for i, node in enumerate(graph.nodes) if _undumpable(node))
            assert str(exc).startswith(f"node {idx}")
            assert repr(graph.nodes[idx].segment_id) in str(exc)
        else:
            assert not any(_undumpable(node) for node in graph.nodes)
            _assert_same_graph(load_graph(path), graph)

    @_dumps(60)
    @given(graph=graphs())
    def test_save_load_save_same_bytes_and_transitions(self, tmp_path, graph):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        _save(graph, first)
        loaded = load_graph(first)
        _assert_same_graph(loaded, graph)
        save_graph(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        assert _transitions(loaded) == _transitions(graph)

    @_dumps(60)
    @given(graph=graphs(), seed=st.integers(0, 2**32 - 1))
    def test_shuffled_and_swapped_edge_lines_load_canonical(self, tmp_path, graph, seed):
        path = tmp_path / "g.txt"
        _save(graph, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        head, edge_lines = lines[: len(graph) + 2], lines[len(graph) + 2 :]
        rng = random.Random(seed)
        rng.shuffle(edge_lines)
        for k, line in enumerate(edge_lines):
            if rng.random() < 0.5:
                i, j, rest = line.split(" ", 2)
                edge_lines[k] = f"{j} {i} {rest}"
        path.write_text("\n".join(head + edge_lines) + "\n", encoding="utf-8")
        _assert_same_graph(load_graph(path), graph)

    @_dumps(25)
    @given(graph=graphs(max_nodes=6))
    def test_every_truncated_prefix_raises_value_error(self, tmp_path, graph):
        full, path = tmp_path / "full.txt", tmp_path / "cut.txt"
        _save(graph, full)
        text = full.read_text(encoding="utf-8")
        # Only the final newline may go: any shorter prefix loses a line
        # or a header field, or cuts the last line before its tag ends.
        for cut in range(len(text) - 1):
            path.write_text(text[:cut], encoding="utf-8")
            with pytest.raises(ValueError) as error:
                load_graph(path)
            assert str(error.value).startswith(f"{path}: ")
        path.write_text(text[:-1], encoding="utf-8")
        _assert_same_graph(load_graph(path), graph)
