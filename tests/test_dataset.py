import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from semwalk.dataset import (
    parse_manifest,
    parse_meaning_id,
    read_descriptor_file,
    read_lines,
    sample_segments,
    split_lopo,
    write_descriptor_file,
)
from semwalk.encoding import load_model
from semwalk.graph import load_graph

from _oracles import loop_read_descriptor_file
from conftest import BAD_MEANINGS, MANIFEST_FIELDS, write_manifest


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
        with pytest.raises(ValueError, match=r": line 1: expected 5"):
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
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: malformed meaning id 'putv1'")):
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

    @pytest.mark.parametrize("cut", ["4.", "4.1", "4.12"])
    def test_file_cut_short_rejected(self, tmp_path, cut):
        # `write_descriptor_file` writes "2 2\n1.0 2.5\n3.25 4.125\n"; cut
        # inside its last value, the file has lost its last line end.
        path = tmp_path / "d.txt"
        path.write_text(f"2 2\n1.0 2.5\n3.25 {cut}", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_descriptor_file(path)
        assert str(info.value) == f"{path}: line 3: no newline after '3.25 {cut}'"

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

    @pytest.mark.parametrize(
        "data,lineno,byte",
        [
            (b"\xff2 2\n0.5 1.0\n", 1, 0xFF),
            (b"2 2\n0.5 1.0\n\n1 2\xff\n", 4, 0xFF),
            (b"2 2\r\n0.5 1.0\r\xfe 1\n", 3, 0xFE),
            # A form feed, which does not end a line, and a multi-byte
            # sequence cut short at the end of the file.
            (b"2 2\n0.5 1.0\x0c1 1\n\xe2\x82", 3, 0xE2),
        ],
        ids=["header", "body", "after-cr", "cut-short"],
    )
    def test_byte_not_utf8_names_file_and_line(self, tmp_path, data, lineno, byte):
        path = tmp_path / "d.txt"
        path.write_bytes(data)
        with pytest.raises(
            ValueError, match=rf"d\.txt: line {lineno}: byte 0x{byte:02x} is not UTF-8$"
        ):
            read_descriptor_file(path)

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
    return newline.join(lines) + newline


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


_GRAPH = "nodes 2 mode verb m 1\n0 a x\n1 b y\nedges 1\n0 1 1.0 visual\n"


class TestHeaderCounts:
    """Descriptor, model and graph headers read their counts one way."""

    @pytest.mark.parametrize(
        "load, text, lineno, message",
        [
            (read_descriptor_file, "x 2\n1 2\n", 1, "non-integer rows 'x'"),
            (read_descriptor_file, "1 2.0\n1 2\n", 1, "non-integer dim '2.0'"),
            (read_descriptor_file, "1 0\n1 2\n", 1, "dim must be >= 1, got 0"),
            (load_model, "\nbow 2.5 2\n1 2\n", 2, "non-integer gamma '2.5'"),
            (load_model, "fv 0 2\n1\n", 1, "gamma must be >= 1, got 0"),
            (load_model, "bow 1 -2\n1 2\n", 1, "dim must be >= 1, got -2"),
            (load_graph, _GRAPH.replace("nodes 2", "nodes two"), 1, "non-integer node count 'two'"),
            (load_graph, _GRAPH.replace("m 1", "m -1"), 1, "m must be >= 0, got -1"),
            (load_graph, _GRAPH.replace("edges 1", "edges 1e0"), 4, "non-integer edge count '1e0'"),
            (load_graph, _GRAPH.replace("edges 1", "edges -1"), 4, "edge count must be >= 0, got -1"),
            # Header shapes name their line too.
            (read_descriptor_file, "1\n1\n", 1, "header must be 'rows dim', got '1'"),
            (load_model, "\n\nvlad 1 2\n1 2\n", 3, "bad model header 'vlad 1 2'"),
            (load_graph, "nodes 2 mode verb\n", 1, "bad graph header 'nodes 2 mode verb'"),
        ],
    )
    def test_errors_name_file_and_line(self, tmp_path, load, text, lineno, message):
        path = tmp_path / "f.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{path}: line {lineno}: {message}"


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


_MEANING = st.one_of(
    st.none(),
    st.builds("{}.v.{}".format, MANIFEST_FIELDS, st.integers(1, 99).map(str)),
)
_RELATIVE = MANIFEST_FIELDS.filter(lambda s: not s.startswith("/"))


@st.composite
def manifests(draw):
    """Manifest rows with unique segment ids, the text holding them among
    comment and blank lines, and the line number of each row."""
    ids = draw(st.lists(MANIFEST_FIELDS, min_size=1, max_size=6, unique=True))
    rows = [
        [
            segment_id,
            draw(MANIFEST_FIELDS),
            draw(MANIFEST_FIELDS),
            draw(_MEANING),
            draw(_RELATIVE),
        ]
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
        kind=st.sampled_from(["fewer", "more", "empty", "duplicate", "meaning"]),
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
            fields.insert(data.draw(st.integers(0, 5)), data.draw(MANIFEST_FIELDS))
        elif kind == "empty":
            k = data.draw(st.integers(0, 4))
            fields[k] = data.draw(st.sampled_from(["", " ", "  "]))
        elif kind == "duplicate":
            fields[0] = rows[first][0]
        else:
            fields[3] = data.draw(st.sampled_from(BAD_MEANINGS))
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
            assert message.startswith(f"{path}: line {linenos[r]}: ")
        if kind == "empty":
            assert message.endswith(f"field {k + 1} is empty")


# The three line ends, characters that str.splitlines also breaks at,
# and text with a 2-byte UTF-8 character.
_LINE_PIECES = ["ab", "\u00e9 x", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\n", "\r", "\r\n"]
# Bytes that start no UTF-8 character before any piece: a lone lead or
# continuation byte, and a multi-byte sequence cut short.
_NOT_UTF8 = [b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xe2\x82"]


class TestReadLines:
    @_ONE_FILE
    @given(pieces=st.lists(st.sampled_from(_LINE_PIECES), max_size=12))
    def test_lines_as_text_file_iteration_gives_them(self, tmp_path, pieces):
        path = tmp_path / "t.txt"
        path.write_bytes("".join(pieces).encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            want = list(fh)
        lines, ended = read_lines(path)
        assert lines == [line.rstrip("\n") for line in want]
        assert ended == (not want or want[-1].endswith("\n"))

    @_ONE_FILE
    @given(
        pieces=st.lists(st.sampled_from(_LINE_PIECES), max_size=12),
        bad=st.sampled_from(_NOT_UTF8),
        data=st.data(),
    )
    def test_bad_byte_line_is_one_plus_line_ends_before_it(self, tmp_path, pieces, bad, data):
        cut = data.draw(st.integers(0, len(pieces)))
        before = "".join(pieces[:cut]).encode("utf-8")
        path = tmp_path / "t.txt"
        path.write_bytes(before + bad + "".join(pieces[cut:]).encode("utf-8"))
        ends = sum(
            line.endswith("\n") for line in io.TextIOWrapper(io.BytesIO(before), encoding="utf-8")
        )
        with pytest.raises(ValueError) as info:
            read_lines(path)
        assert str(info.value) == f"{path}: line {1 + ends}: byte 0x{bad[0]:02x} is not UTF-8"


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
