"""Dataset ingestion: manifests, per-segment descriptor files, person-aware splits.

A manifest is a UTF-8 text file with one segment per line and five
tab-separated fields::

    segment_id  person_id  verb  meaning_or_dash  descriptor_path

``-`` marks a missing meaning annotation, lines starting with ``#`` are
comments.  Descriptor paths are resolved relative to the manifest's
directory.  A descriptor file starts with a ``rows dim`` header line
followed by ``rows`` lines of ``dim`` whitespace-separated finite reals;
blank lines are skipped.  A malformed file raises a ValueError naming
the file and, for a bad body line, the line.

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
        self.dim: int | None = None
        self._cache: dict[str, DescriptorSet] = {}

    def load(self, segment: VideoSegment) -> DescriptorSet:
        cached = self._cache.get(segment.segment_id)
        if cached is not None:
            return cached
        descriptors = read_descriptor_file(segment.descriptor_path)
        if self.dim is None:
            self.dim = descriptors.dim
        elif descriptors.dim != self.dim:
            raise ValueError(
                f"segment {segment.segment_id!r}: descriptor dim {descriptors.dim} "
                f"does not match dataset dim {self.dim}"
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


def read_descriptor_file(path: str | Path) -> DescriptorSet:
    """Parse one descriptor file; rejects short/long bodies and non-finite values.

    The body is parsed in one `np.loadtxt` call.  Any body that call
    refuses or returns in the wrong shape or with a non-finite value is
    parsed again line by line with `float()`, which accepts the same
    tokens and more (``1_0``, non-ASCII digits) and makes every error
    message, naming the file and the line.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty descriptor file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: header must be 'rows dim', got {lines[0]!r}")
    try:
        rows, dim = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"{path}: non-integer header {lines[0]!r}") from None
    if rows < 1 or dim < 1:
        raise ValueError(f"{path}: rows and dim must be >= 1, got {rows}x{dim}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != rows:
        raise ValueError(f"{path}: header declares {rows} rows, body has {len(body)}")
    try:
        values = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape != (rows, dim) or not np.all(np.isfinite(values)):
        values = _parse_descriptor_rows(path, lines, rows, dim)
    return DescriptorSet(values=values)


def _parse_descriptor_rows(
    path: Path, lines: list[str], rows: int, dim: int
) -> np.ndarray:
    """The descriptor body token by token; raises at the first bad line."""
    values = np.empty((rows, dim), dtype=np.float64)
    linenos = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        r = len(linenos)
        if len(parts) != dim:
            raise ValueError(
                f"{path}: line {lineno}: row {r + 1} has {len(parts)} values, "
                f"expected {dim}"
            )
        for c, token in enumerate(parts):
            try:
                values[r, c] = float(token)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: row {r + 1}: non-numeric value {token!r}"
                ) from None
        linenos.append(lineno)
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if bad.size:
        raise ValueError(
            f"{path}: line {linenos[bad[0]]}: row {bad[0] + 1}: non-finite value"
        )
    return values


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
    Raises ValueError naming the file for malformed lines and meaning
    ids (with the line number), duplicate segment ids (with both line
    numbers) and empty manifests.
    """
    path = Path(path)
    base = path.parent
    segments: list[VideoSegment] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ValueError(
                    f"{path}:{lineno}: expected 5 tab-separated fields, got {len(fields)}"
                )
            segment_id, person_id, verb, meaning, descriptor = (f.strip() for f in fields)
            if not segment_id or not person_id or not verb or not descriptor:
                raise ValueError(f"{path}:{lineno}: empty field in manifest line")
            if segment_id in seen:
                raise ValueError(
                    f"{path}: duplicate segment_id {segment_id!r} "
                    f"at lines {seen[segment_id]} and {lineno}"
                )
            seen[segment_id] = lineno
            if meaning == "-":
                parsed_meaning = None
            else:
                try:
                    parse_meaning_id(meaning)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                parsed_meaning = meaning
            segments.append(
                VideoSegment(
                    segment_id=segment_id,
                    person_id=person_id,
                    verb=verb,
                    meaning=parsed_meaning,
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
