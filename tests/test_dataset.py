import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from semwalk.dataset import (
    parse_manifest,
    parse_meaning_id,
    read_descriptor_file,
    sample_segments,
    split_lopo,
    write_descriptor_file,
)

from _oracles import loop_read_descriptor_file
from conftest import write_manifest


def _rows(n, person="p0"):
    return [
        (f"seg{i}", person, "put", "put.v.1", f"seg{i}.txt") for i in range(n)
    ]


class TestParseManifest:
    def test_preserves_order(self, tmp_path):
        rows = [
            ("a", "p0", "put", "put.v.1", "a.txt"),
            ("b", "p1", "take", None, "b.txt"),
            ("c", "p0", "open", "open.v.1", "c.txt"),
        ]
        ds = parse_manifest(write_manifest(tmp_path / "m.tsv", rows))
        assert [s.segment_id for s in ds.segments] == ["a", "b", "c"]
        assert ds.segments[1].meaning is None
        assert ds.segments[0].meaning == "put.v.1"

    def test_duplicate_id_reports_both_lines(self, tmp_path):
        rows = [
            ("a", "p0", "put", None, "a.txt"),
            ("b", "p0", "put", None, "b.txt"),
            ("a", "p1", "take", None, "c.txt"),
        ]
        path = write_manifest(tmp_path / "m.tsv", rows)
        with pytest.raises(ValueError, match=r"'a'.*lines 1 and 3"):
            parse_manifest(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tp0\tput\ta.txt\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":1: expected 5"):
            parse_manifest(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "# header comment\n\na\tp0\tput\t-\ta.txt\n", encoding="utf-8"
        )
        ds = parse_manifest(path)
        assert len(ds) == 1

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty manifest"):
            parse_manifest(path)

    def test_bad_meaning_form_rejected(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.tsv", [("a", "p0", "put", "put.n.1", "a.txt")]
        )
        with pytest.raises(ValueError, match="put.n.1"):
            parse_manifest(path)

    def test_bad_meaning_names_file_and_line(self, tmp_path):
        path = write_manifest(
            tmp_path / "m.tsv",
            [("a", "p0", "put", "put.v.1", "a.txt"), ("b", "p0", "put", "putv1", "b.txt")],
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed meaning id 'putv1'")):
            parse_manifest(path)

    def test_idempotent(self, tmp_path):
        path = write_manifest(tmp_path / "m.tsv", _rows(4))
        first = parse_manifest(path)
        second = parse_manifest(path)
        assert [s.segment_id for s in first.segments] == [
            s.segment_id for s in second.segments
        ]

    def test_descriptor_paths_relative_to_manifest(self, tmp_path):
        sub = tmp_path / "data"
        sub.mkdir()
        path = write_manifest(sub / "m.tsv", _rows(1))
        ds = parse_manifest(path)
        assert ds.segments[0].descriptor_path == sub / "seg0.txt"


class TestMeaningIds:
    def test_parse_meaning(self):
        assert parse_meaning_id("wash_up.v.3") == ("wash_up", 3)

    @pytest.mark.parametrize("bad", ["put", "put.v.0", "put.v.x", ".v.1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_meaning_id(bad)


class TestDescriptorFiles:
    def test_reads_exact_values(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2\n0.5 -1.0\n", encoding="utf-8")
        ds = read_descriptor_file(path)
        assert ds.values.shape == (1, 2)
        assert np.array_equal(ds.values, [[0.5, -1.0]])

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2 2\n0.5 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="declares 2 rows"):
            read_descriptor_file(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2\n0.5 nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite"):
            read_descriptor_file(path)

    def test_width_mismatch(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 3\n0.5 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 1 has 2"):
            read_descriptor_file(path)

    def test_bad_token_names_file_line_row_and_token(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2 2\n0.5 1.0\n\n1 abc\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=r"d\.txt: line 4: row 2: non-numeric value 'abc'$"
        ):
            read_descriptor_file(path)

    def test_width_mismatch_names_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2 2\n\n0.5 1.0\n1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"d\.txt: line 4: row 2 has 1 values"):
            read_descriptor_file(path)

    def test_non_finite_names_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2 2\n0.5 1.0\n1e999 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"d\.txt: line 3: row 2: non-finite"):
            read_descriptor_file(path)

    def test_tokens_only_float_accepts_still_parse(self, tmp_path):
        # numpy's parser refuses these; the line loop takes them as float() does.
        path = tmp_path / "d.txt"
        path.write_text("1 3\n1_0 \u0661\u0662 0.25\n", encoding="utf-8")
        assert read_descriptor_file(path).values.tolist() == [[10.0, 12.0, 0.25]]

    def test_round_trip(self, tmp_path):
        values = np.random.default_rng(0).standard_normal((5, 3))
        path = tmp_path / "d.txt"
        write_descriptor_file(path, values)
        assert np.array_equal(read_descriptor_file(path).values, values)

    def test_lazy_load_and_cache(self, tmp_path):
        path = write_manifest(tmp_path / "m.tsv", _rows(1))
        ds = parse_manifest(path)  # descriptor file absent: no error yet
        write_descriptor_file(tmp_path / "seg0.txt", np.ones((2, 2)))
        first = ds.load_descriptors(ds.segments[0])
        assert ds.load_descriptors(ds.segments[0]) is first
        assert first.dim == 2

    def test_dim_mismatch_across_dataset(self, tmp_path):
        rows = _rows(2)
        path = write_manifest(tmp_path / "m.tsv", rows)
        write_descriptor_file(tmp_path / "seg0.txt", np.ones((2, 2)))
        write_descriptor_file(tmp_path / "seg1.txt", np.ones((2, 3)))
        ds = parse_manifest(path)
        ds.load_descriptors(ds.segments[0])
        with pytest.raises(ValueError, match="does not match dataset dim"):
            ds.load_descriptors(ds.segments[1])


_BLANKS = ["", " ", "\t", " \t  "]
_SEPARATORS = [" ", "  ", "\t", " \t "]


@st.composite
def descriptor_texts(draw):
    """A descriptor file as `write_descriptor_file` writes it, with
    random blank and whitespace-only lines, separators and line ends."""
    rows = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    values = draw(
        st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim
            ),
            min_size=rows,
            max_size=rows,
        )
    )
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{rows} {dim}"]
    for row in values:
        lines.extend(draw(st.lists(st.sampled_from(_BLANKS), max_size=2)))
        tokens = [repr(v) for v in row]
        line = tokens[0]
        for token in tokens[1:]:
            line += draw(st.sampled_from(_SEPARATORS)) + token
        pad = draw(st.sampled_from(_BLANKS))
        lines.append(pad + line + draw(st.sampled_from(_BLANKS)))
    lines.extend(draw(st.lists(st.sampled_from(_BLANKS), max_size=2)))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _corrupt(text, kind, position):
    """Apply one corruption to a body token (or cut the file) at a
    position chosen as a fraction of the tokens (or of the text)."""
    if kind == "truncate":
        return text[: int(position * len(text))]
    body_start = text.index("\n") + 1
    spans = [m.span() for m in re.finditer(r"\S+", text[body_start:])]
    start, end = spans[int(position * len(spans))]
    start, end = start + body_start, end + body_start
    if kind == "drop":
        return text[:start] + text[end:]
    if kind == "add":
        return text[:end] + " 0.5" + text[end:]
    return text[:start] + kind + text[end:]  # a bad, not-a-number or infinite token


def _outcome(reader, path):
    try:
        return "ok", reader(path).tobytes()
    except ValueError as exc:
        return "error", str(exc)


_ONE_FILE = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestDescriptorParseOracle:
    """`read_descriptor_file` against the token-by-token loop, bit for bit."""

    @_ONE_FILE
    @given(text=descriptor_texts())
    def test_values_bit_equal_to_loop(self, tmp_path, text):
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode("utf-8"))
        got = read_descriptor_file(path).values
        want = loop_read_descriptor_file(path)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @_ONE_FILE
    @given(
        text=descriptor_texts(),
        kind=st.sampled_from(["drop", "add", "truncate", "abc", "nan", "-inf", "1e999"]),
        position=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_corrupted_bodies_fail_as_the_loop_does(self, tmp_path, text, kind, position):
        path = tmp_path / "d.txt"
        path.write_bytes(_corrupt(text, kind, position).encode("utf-8"))
        outcome = _outcome(lambda p: read_descriptor_file(p).values, path)
        assert outcome == _outcome(loop_read_descriptor_file, path)
        if kind != "truncate":
            assert outcome[0] == "error"


# Manifest fields: no tab or line break, no surrounding whitespace, not
# empty, and (for the first field) no leading "#" that would make a comment.
_FIELD = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1,
    max_size=6,
).filter(lambda s: s == s.strip() and not s.startswith("#"))
_MEANING = st.one_of(
    st.none(), st.builds("{}.v.{}".format, _FIELD, st.integers(1, 99).map(str))
)
_RELATIVE = _FIELD.filter(lambda s: not s.startswith("/"))
_BAD_MEANINGS = ["putv1", "put.v.0", "put.v.x", ".v.1", "put.n.1"]


@st.composite
def manifests(draw):
    """Manifest rows with unique segment ids, the text holding them among
    comment and blank lines, and the line number of each row."""
    ids = draw(st.lists(_FIELD, min_size=1, max_size=6, unique=True))
    rows = [
        [segment_id, draw(_FIELD), draw(_FIELD), draw(_MEANING), draw(_RELATIVE)]
        for segment_id in ids
    ]
    fillers = st.lists(st.sampled_from(["", "  ", "\t", "# note", "  #\tx"]), max_size=2)
    lines, linenos = [], []
    for segment_id, person, verb, meaning, descriptor in rows:
        lines += draw(fillers)
        lines.append("\t".join([segment_id, person, verb, meaning or "-", descriptor]))
        linenos.append(len(lines))
    lines += draw(fillers)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return rows, lines, linenos, newline


def _write_lines(path, lines, newline):
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))


class TestManifestProperties:
    @_ONE_FILE
    @given(manifest=manifests())
    def test_round_trip(self, tmp_path, manifest):
        rows, lines, _linenos, newline = manifest
        path = tmp_path / "sub" / "m.tsv"
        path.parent.mkdir(exist_ok=True)
        _write_lines(path, lines, newline)
        got = [
            [s.segment_id, s.person_id, s.verb, s.meaning, s.descriptor_path]
            for s in parse_manifest(path).segments
        ]
        assert got == [[*row[:4], path.parent / row[4]] for row in rows]

    @_ONE_FILE
    @given(
        manifest=manifests(),
        kind=st.sampled_from(["fewer", "more", "duplicate", "meaning"]),
        data=st.data(),
    )
    def test_corruption_names_file_and_line(self, tmp_path, manifest, kind, data):
        rows, lines, linenos, newline = manifest
        if kind == "duplicate":
            assume(len(rows) > 1)
            r = data.draw(st.integers(1, len(rows) - 1))
            first = data.draw(st.integers(0, r - 1))
        else:
            r = data.draw(st.integers(0, len(rows) - 1))
        fields = lines[linenos[r] - 1].split("\t")
        if kind == "fewer":
            fields.pop(data.draw(st.integers(0, 4)))
        elif kind == "more":
            fields.insert(data.draw(st.integers(0, 5)), data.draw(_FIELD))
        elif kind == "duplicate":
            fields[0] = rows[first][0]
        else:
            fields[3] = data.draw(st.sampled_from(_BAD_MEANINGS))
        lines = list(lines)
        lines[linenos[r] - 1] = "\t".join(fields)
        path = tmp_path / "m.tsv"
        _write_lines(path, lines, newline)
        with pytest.raises(ValueError) as info:
            parse_manifest(path)
        message = str(info.value)
        if kind == "duplicate":
            assert message.startswith(f"{path}: duplicate segment_id")
            assert message.endswith(f"at lines {linenos[first]} and {linenos[r]}")
        else:
            assert message.startswith(f"{path}:{linenos[r]}: ")


class TestSplitLopo:
    def _dataset(self, tmp_path):
        rows = [
            ("a", "p1", "put", None, "a.txt"),
            ("b", "p1", "put", None, "b.txt"),
            ("c", "p1", "put", None, "c.txt"),
            ("d", "p2", "take", None, "d.txt"),
            ("e", "p2", "take", None, "e.txt"),
        ]
        return parse_manifest(write_manifest(tmp_path / "m.tsv", rows))

    def test_split_sizes(self, tmp_path):
        ds = self._dataset(tmp_path)
        train, test = split_lopo(ds, "p2")
        assert (len(train), len(test)) == (3, 2)
        train, test = split_lopo(ds, "p1")
        assert (len(train), len(test)) == (2, 3)

    def test_unknown_person(self, tmp_path):
        with pytest.raises(ValueError, match="p9"):
            split_lopo(self._dataset(tmp_path), "p9")

    def test_partition_for_every_person(self, tmp_path):
        ds = self._dataset(tmp_path)
        all_ids = {s.segment_id for s in ds.segments}
        for person in ds.persons():
            train, test = split_lopo(ds, person)
            train_ids = {s.segment_id for s in train.segments}
            test_ids = {s.segment_id for s in test.segments}
            assert train_ids | test_ids == all_ids
            assert not train_ids & test_ids
            assert all(s.person_id == person for s in test.segments)
            assert all(s.person_id != person for s in train.segments)

    def test_sample_segments(self, tmp_path):
        ds = self._dataset(tmp_path)
        sampled = sample_segments(ds, 3, seed=1)
        assert len(sampled) == 3
        again = sample_segments(ds, 3, seed=1)
        assert [s.segment_id for s in sampled.segments] == [
            s.segment_id for s in again.segments
        ]
        assert sample_segments(ds, 10, seed=1) is ds
