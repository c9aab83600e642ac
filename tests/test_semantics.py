import itertools
import re

import numpy as np
import pytest

import semwalk.semantics
from semwalk.semantics import (
    AH,
    AM,
    AS,
    MEANING_MODES,
    MODES,
    VERB,
    class_map,
    parse_taxonomy,
    related,
    relation_table,
    semantic_classes,
)

from _oracles import closure_partition, random_taxonomy_lines

FIG_IDS = [
    "put.v.1", "place.v.1", "put_down.v.1",
    "wash.v.3", "wash_up.v.3", "rinse.v.1",
]


class TestParseTaxonomy:
    def test_hyponym_pair(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(
            "wash.v.3\tsyn.wash\t-\nrinse.v.1\tsyn.rinse\twash.v.3\n",
            encoding="utf-8",
        )
        tax = parse_taxonomy(path)
        assert len(tax.meanings) == 2
        assert tax.meanings["rinse.v.1"].parent == "wash.v.3"

    def test_self_parent_is_cycle(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("wash.v.3\tsyn.wash\twash.v.3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="cycle"):
            parse_taxonomy(path)

    def test_mutual_cycle(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(
            "a.v.1\ts1\tb.v.1\nb.v.1\ts2\ta.v.1\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="cycle"):
            parse_taxonomy(path)

    def test_dangling_parent(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a.v.1\ts1\tmissing.v.1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="undefined parent"):
            parse_taxonomy(path)

    def test_duplicate_meaning(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a.v.1\ts1\t-\na.v.1\ts2\t-\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            parse_taxonomy(path)

    def test_malformed_meaning_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a.v.1\ts1\t-\nbad.v.0\ts2\t-\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed meaning id 'bad.v.0'")):
            parse_taxonomy(path)

    def test_dangling_parent_names_its_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# c\na.v.1\ts1\t-\nb.v.1\ts2\tmissing.v.1\n", encoding="utf-8")
        with pytest.raises(
            ValueError,
            match=re.escape(f"{path}:3: meaning 'b.v.1' references undefined parent 'missing.v.1'"),
        ):
            parse_taxonomy(path)

    def test_cycle_names_its_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(
            "a.v.1\ts1\t-\nb.v.1\ts2\tc.v.1\nc.v.1\ts3\tb.v.1\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: cycle in parent chain through 'b.v.1'")):
            parse_taxonomy(path)

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# comment\na.v.1\ts1\t-\n", encoding="utf-8")
        assert len(parse_taxonomy(path).meanings) == 1


class TestRelated:
    def test_synonyms_match_under_as(self, taxonomy):
        assert related(taxonomy, AS, "put.v.1", "place.v.1")
        assert not related(taxonomy, AM, "put.v.1", "place.v.1")

    def test_hyponym_matches_only_under_ah(self, taxonomy):
        assert not related(taxonomy, AM, "put.v.1", "put_down.v.1")
        assert not related(taxonomy, AS, "put.v.1", "put_down.v.1")
        assert related(taxonomy, AH, "put.v.1", "put_down.v.1")
        assert related(taxonomy, AH, "rinse.v.1", "wash.v.3")

    def test_verb_mode_compares_tokens(self):
        assert related(None, VERB, "put", "put")
        assert not related(None, VERB, "put", "take")

    @pytest.mark.parametrize("mode", MODES)
    def test_reflexive(self, taxonomy, mode):
        annotation = "wash.v.3" if mode != VERB else "wash"
        assert related(taxonomy, mode, annotation, annotation)

    def test_symmetric_on_all_pairs(self, taxonomy):
        for mode in MEANING_MODES:
            for a, b in itertools.combinations(FIG_IDS, 2):
                assert related(taxonomy, mode, a, b) == related(
                    taxonomy, mode, b, a
                )

    def test_mode_monotonicity_on_all_pairs(self, taxonomy):
        for a, b in itertools.combinations(FIG_IDS, 2):
            am = related(taxonomy, AM, a, b)
            as_ = related(taxonomy, AS, a, b)
            ah = related(taxonomy, AH, a, b)
            assert (not am or as_) and (not as_ or ah)

    def test_deep_ancestry(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(
            "a.v.1\ts1\t-\nb.v.1\ts2\ta.v.1\nc.v.1\ts3\tb.v.1\n",
            encoding="utf-8",
        )
        tax = parse_taxonomy(path)
        assert related(tax, AH, "c.v.1", "a.v.1")
        assert not related(tax, AS, "c.v.1", "a.v.1")

    def test_unknown_meaning_rejected(self, taxonomy):
        with pytest.raises(ValueError, match="ghost.v.1"):
            related(taxonomy, AS, "ghost.v.1", "put.v.1")

    def test_verb_mode_ignores_taxonomy(self):
        assert related(None, VERB, "wash", "wash")


class TestSemanticClasses:
    def test_synonym_pair_merges_under_as(self, taxonomy):
        items = {"put.v.1", "place.v.1", "wash.v.3"}
        assert semantic_classes(taxonomy, items, AS) == [
            ("place.v.1", "put.v.1"),
            ("wash.v.3",),
        ]
        assert len(semantic_classes(taxonomy, items, AM)) == 3

    def test_wash_family_single_class_under_ah(self, taxonomy):
        items = {"wash.v.3", "rinse.v.1", "wash_up.v.3"}
        classes = semantic_classes(taxonomy, items, AH)
        assert classes == [("rinse.v.1", "wash.v.3", "wash_up.v.3")]

    def test_matches_closure_oracle(self, taxonomy):
        for mode in MEANING_MODES:
            expected = closure_partition(
                FIG_IDS, lambda a, b: related(taxonomy, mode, a, b)
            )
            got = {frozenset(c) for c in semantic_classes(taxonomy, FIG_IDS, mode)}
            assert got == expected

    def test_is_a_partition(self, taxonomy):
        classes = semantic_classes(taxonomy, FIG_IDS, AH)
        flat = [a for c in classes for a in c]
        assert sorted(flat) == sorted(FIG_IDS)
        assert len(flat) == len(set(flat))

    def test_class_counts_monotone_on_random_taxonomies(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(30):
            lines, ids = random_taxonomy_lines(rng, int(rng.integers(2, 15)))
            path = tmp_path / f"t{trial}.tsv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            tax = parse_taxonomy(path)
            subset = [i for i in ids if rng.random() < 0.7] or ids[:1]
            counts = [
                len(semantic_classes(tax, subset, mode))
                for mode in (AM, AS, AH)
            ]
            assert counts[0] >= counts[1] >= counts[2]

    def test_matches_closure_oracle_on_random_taxonomies(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(30):
            lines, ids = random_taxonomy_lines(rng, int(rng.integers(1, 15)))
            path = tmp_path / f"t{trial}.tsv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            tax = parse_taxonomy(path)
            subset = [i for i in ids if rng.random() < 0.7] or ids[:1]
            for mode in MEANING_MODES:
                expected = closure_partition(
                    sorted(set(subset)), lambda a, b: related(tax, mode, a, b)
                )
                got = semantic_classes(tax, subset, mode)
                assert got == sorted(tuple(sorted(c)) for c in expected)

    @pytest.mark.parametrize("mode", MEANING_MODES)
    def test_lone_unknown_meaning_rejected(self, taxonomy, mode):
        with pytest.raises(ValueError, match="'bogus.v.1' not present"):
            semantic_classes(taxonomy, {"bogus.v.1"}, mode)

    def test_class_map_names_by_smallest(self, taxonomy):
        classes = semantic_classes(taxonomy, {"put.v.1", "place.v.1"}, AS)
        assert class_map(classes) == {
            "put.v.1": "place.v.1",
            "place.v.1": "place.v.1",
        }

    def test_verb_mode_partition(self):
        classes = semantic_classes(None, {"put", "take", "put"}, VERB)
        assert classes == [("put",), ("take",)]


class TestRelationTable:
    def test_matches_related_with_repeated_labels(self, taxonomy):
        labels = ["wash.v.3", "put.v.1", "rinse.v.1", "put.v.1", "place.v.1", "wash.v.3"]
        for mode in MEANING_MODES:
            table = relation_table(taxonomy, labels, mode)
            assert table.dtype == bool and table.shape == (6, 6)
            for (i, a), (j, b) in itertools.product(enumerate(labels), repeat=2):
                assert table[i, j] == related(taxonomy, mode, a, b)

    def test_each_distinct_pair_compared_once(self, taxonomy, monkeypatch):
        pairs = []

        def counting(tax, mode, a, b):
            pairs.append((a, b))
            return related(tax, mode, a, b)

        monkeypatch.setattr(semwalk.semantics, "related", counting)
        relation_table(taxonomy, FIG_IDS + FIG_IDS[:3], AH)
        unordered = {frozenset(pair) for pair in pairs}
        assert len(pairs) == len(unordered) == len(FIG_IDS) * (len(FIG_IDS) + 1) // 2

    def test_empty(self):
        assert relation_table(None, [], VERB).shape == (0, 0)
        assert semantic_classes(None, [], VERB) == []
