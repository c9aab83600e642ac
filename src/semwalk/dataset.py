"""Dataset ingestion: manifests, per-segment descriptor files, person-aware splits.

A manifest is a UTF-8 text file with one segment per line and five
tab-separated fields::

    segment_id  person_id  verb  meaning_or_dash  descriptor_path

``-`` marks a missing meaning annotation, lines starting with ``#`` are
comments.  Descriptor paths are resolved relative to the manifest's
directory.  A descriptor file starts with a ``rows dim`` header line
followed by ``rows`` lines of ``dim`` whitespace-separated finite reals;
blank lines are skipped.  A malformed file raises a ValueError naming
the file and, where there is one, the line.

Every loader in the package reads its file with `read_lines`, and its
fields with `read_records` (tab-separated records), `parse_count`
(header counts) and `parse_reals` (rows of reals).

Descriptor loading is lazy: segments only name their file until the
matrix is first requested, after which it is cached in a store that
every split of the dataset shares.
"""
from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

_MEANING_RE = re.compile(r"^(.+)\.v\.([0-9]+)$")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file and rename, so readers never see partials."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_meaning_id(meaning_id: str) -> tuple[str, int]:
    """Split ``verb.v.s`` into (verb token, sense index); raises on bad form."""
    m = _MEANING_RE.match(meaning_id)
    if not m or int(m.group(2)) < 1:
        raise ValueError(
            f"malformed meaning id {meaning_id!r}: expected <verb>.v.<s> with s >= 1"
        )
    return m.group(1), int(m.group(2))


@dataclass(frozen=True)
class VideoSegment:
    """One annotated object-interaction clip."""

    segment_id: str
    person_id: str
    verb: str
    meaning: str | None
    descriptor_path: Path


@dataclass(frozen=True)
class DescriptorSet:
    """A rows x dim matrix of per-video descriptors."""

    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[1]


class _DescriptorStore:
    """Per-dataset descriptor cache; shared across splits of one dataset."""

    def __init__(self) -> None:
        self.first_loaded: tuple[VideoSegment, int] | None = None
        self._cache: dict[str, DescriptorSet] = {}

    def load(self, segment: VideoSegment) -> DescriptorSet:
        cached = self._cache.get(segment.segment_id)
        if cached is not None:
            return cached
        descriptors = read_descriptor_file(segment.descriptor_path)
        if self.first_loaded is None:
            self.first_loaded = segment, descriptors.dim
        first, dim = self.first_loaded
        if descriptors.dim != dim:
            raise ValueError(
                f"segment {segment.segment_id!r} ({segment.descriptor_path}): "
                f"descriptor dim {descriptors.dim} does not match dataset dim {dim} "
                f"of segment {first.segment_id!r} ({first.descriptor_path})"
            )
        self._cache[segment.segment_id] = descriptors
        return descriptors


@dataclass
class Dataset:
    """Ordered segments plus a shared lazy descriptor store."""

    segments: list[VideoSegment]
    _store: _DescriptorStore = field(default_factory=_DescriptorStore, repr=False)

    def __len__(self) -> int:
        return len(self.segments)

    def persons(self) -> list[str]:
        """Distinct person ids in first-appearance order."""
        seen: dict[str, None] = {}
        for seg in self.segments:
            seen.setdefault(seg.person_id, None)
        return list(seen)

    def load_descriptors(self, segment: VideoSegment) -> DescriptorSet:
        """Load (or fetch cached) descriptors, enforcing one dim per dataset."""
        return self._store.load(segment)


def read_lines(path: str | Path) -> tuple[list[str], bool]:
    r"""A UTF-8 text file's lines without their ends, and whether its last
    line has one; every input file is read here.

    A line ends at ``\n``, ``\r`` or ``\r\n``, as iterating an open text
    file ends it.  A byte that is not UTF-8 raises a ValueError naming the
    file and its line, 1 plus the line ends before it.
    """
    data = Path(path).read_bytes()
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, bad = data[: exc.start].decode("utf-8"), exc.start
    if "\r" in text:  # most files have none, and the "\r\n" search is slow
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if bad is not None:
        raise ValueError(f"{path}: line {len(lines)}: byte 0x{data[bad]:02x} is not UTF-8")
    ended = not lines[-1]
    if ended:
        lines.pop()
    return lines, ended


def read_records(path: str | Path, width: int, key: str) -> Iterator[tuple[int, list[str]]]:
    """Each tab-separated record of a file as (line number, fields).

    Blank lines and lines starting with ``#`` are skipped, and each field
    is stripped.  A record without exactly `width` fields or with an
    empty field, and a first field seen before (named `key` in the
    message), raise a ValueError naming the file and the line, or both
    lines.
    """
    seen: dict[str, int] = {}
    for lineno, line in enumerate(read_lines(path)[0], start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != width:
            raise ValueError(
                f"{path}: line {lineno}: expected {width} tab-separated fields, got {len(fields)}"
            )
        if "" in fields:
            raise ValueError(f"{path}: line {lineno}: field {fields.index('') + 1} is empty")
        first = seen.setdefault(fields[0], lineno)
        if first != lineno:
            raise ValueError(
                f"{path}: duplicate {key} {fields[0]!r} at lines {first} and {lineno}"
            )
        yield lineno, fields


def parse_count(path: str | Path, lineno: int, field: str, what: str, low: int) -> int:
    """A header count of at least `low`; raises naming the file and line."""
    try:
        value = int(field)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: non-integer {what} {field!r}") from None
    if value < low:
        raise ValueError(f"{path}: line {lineno}: {what} must be >= {low}, got {value}")
    return value


def parse_reals(path: str | Path, numbered: list[tuple[int, str]], width: int) -> np.ndarray:
    """One row of `width` finite reals from each (line number, text) pair.

    The rows are parsed in one `np.loadtxt` call.  Rows that call refuses
    or returns in the wrong shape or with a non-finite value are parsed
    again one by one with `float()`, which accepts the same tokens and
    more (``1_0``, non-ASCII digits) and makes every error message,
    naming the file, the line and the row.  `numbered` is not empty.
    """
    try:
        values = np.loadtxt(
            [text for _, text in numbered], dtype=np.float64, comments=None, ndmin=2
        )
    except ValueError:
        values = None
    rows = len(numbered)
    if values is not None and values.shape == (rows, width) and np.all(np.isfinite(values)):
        return values
    values = np.empty((rows, width), dtype=np.float64)
    for r, (lineno, text) in enumerate(numbered):
        tokens = text.split()
        if len(tokens) != width:
            raise ValueError(
                f"{path}: line {lineno}: row {r + 1} has {len(tokens)} values, "
                f"expected {width}"
            )
        for c, token in enumerate(tokens):
            try:
                values[r, c] = float(token)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: row {r + 1}: non-numeric value {token!r}"
                ) from None
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if bad.size:
        raise ValueError(
            f"{path}: line {numbered[bad[0]][0]}: row {bad[0] + 1}: non-finite value"
        )
    return values


def read_descriptor_file(path: str | Path) -> DescriptorSet:
    """Parse one descriptor file; rejects short/long bodies and non-finite values.

    The body is read by `parse_reals`.  A last line without its line end
    is refused (`write_descriptor_file` ends every line, so the file was
    cut short).  Every error is a ValueError naming the file and, where
    there is one, the line.
    """
    path = Path(path)
    lines, ended = read_lines(path)
    if not ended:
        raise ValueError(f"{path}: line {len(lines)}: no newline after {lines[-1]!r}")
    if not lines:
        raise ValueError(f"{path}: empty descriptor file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: line 1: header must be 'rows dim', got {lines[0]!r}")
    rows = parse_count(path, 1, header[0], "rows", 1)
    dim = parse_count(path, 1, header[1], "dim", 1)
    body = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != rows:
        raise ValueError(f"{path}: header declares {rows} rows, body has {len(body)}")
    return DescriptorSet(values=parse_reals(path, body, dim))


def write_descriptor_file(path: str | Path, values: np.ndarray) -> None:
    """Serialize a descriptor matrix in the header + rows text format."""
    values = np.asarray(values, dtype=np.float64)
    rows, dim = values.shape
    out = [f"{rows} {dim}"]
    for r in range(rows):
        out.append(" ".join(repr(float(v)) for v in values[r]))
    atomic_write_text(path, "\n".join(out) + "\n")


def parse_manifest(path: str | Path) -> Dataset:
    """Parse a manifest into a Dataset, preserving line order.

    Descriptor files are not touched; they load lazily on first use.
    Raises ValueError naming the file for what `read_records` rejects
    (a wrong field count, an empty field, a repeated segment id), for a
    malformed meaning id (with the line number) and for an empty
    manifest.
    """
    path = Path(path)
    base = path.parent
    segments: list[VideoSegment] = []
    for lineno, fields in read_records(path, 5, "segment_id"):
        segment_id, person_id, verb, meaning, descriptor = fields
        if meaning != "-":
            try:
                parse_meaning_id(meaning)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
        segments.append(
            VideoSegment(
                segment_id=segment_id,
                person_id=person_id,
                verb=verb,
                meaning=None if meaning == "-" else meaning,
                descriptor_path=base / descriptor,
            )
        )
    if not segments:
        raise ValueError(f"{path}: empty manifest")
    return Dataset(segments=segments)


def split_lopo(dataset: Dataset, person: str) -> tuple[Dataset, Dataset]:
    """Partition into (train, test): test holds exactly `person`'s segments.

    Both halves share the parent's descriptor store, so nothing is
    re-loaded when iterating folds.
    """
    if person not in set(dataset.persons()):
        raise ValueError(f"unknown person {person!r}")
    test = [s for s in dataset.segments if s.person_id == person]
    train = [s for s in dataset.segments if s.person_id != person]
    return (
        Dataset(segments=train, _store=dataset._store),
        Dataset(segments=test, _store=dataset._store),
    )


def sample_segments(dataset: Dataset, n: int, seed: int) -> Dataset:
    """Seeded random subsample of n segments, keeping manifest order."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if n >= len(dataset.segments):
        return dataset
    rng = np.random.default_rng(seed)
    keep = sorted(rng.choice(len(dataset.segments), size=n, replace=False))
    return Dataset(
        segments=[dataset.segments[i] for i in keep], _store=dataset._store
    )


def annotation_for(segment: VideoSegment, mode: str) -> str:
    """The label a relation mode compares: verb token or meaning id."""
    if mode == "verb":
        return segment.verb
    if segment.meaning is None:
        raise ValueError(
            f"segment {segment.segment_id!r} has no meaning annotation, "
            f"required for mode {mode!r}"
        )
    return segment.meaning
