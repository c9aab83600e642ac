"""Verb-meaning taxonomy and the semantic relation predicates.

A taxonomy file lists one meaning per line with three tab-separated
fields::

    meaning_id  synset_id  parent_meaning_id_or_dash

Meanings sharing a synset id are synonyms; the optional parent link
points at the meaning's hypernym.  Four relation modes compare two
annotations:

* ``verb`` - raw verb tokens are equal (no taxonomy needed),
* ``am``   - meaning ids are equal (exact annotation match),
* ``as``   - equal meaning ids or equal synset ids,
* ``ah``   - ``as`` holds, or one meaning is an ancestor of the other
  along the parent chain (any depth).

`relation_table` evaluates `related` once per distinct label pair; the
graph's semantic edges and the semantic classes are both read from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import parse_meaning_id, read_records

VERB = "verb"
AM = "am"
AS = "as"
AH = "ah"
MODES = (VERB, AM, AS, AH)
MEANING_MODES = (AM, AS, AH)


@dataclass(frozen=True)
class Meaning:
    meaning_id: str
    synset_id: str
    parent: str | None


@dataclass(frozen=True)
class Taxonomy:
    meanings: dict[str, Meaning]

    def __contains__(self, meaning_id: str) -> bool:
        return meaning_id in self.meanings

    def ancestors(self, meaning_id: str) -> list[str]:
        """Parent chain of a meaning, nearest first (excludes the meaning)."""
        chain = []
        node = self.meanings[meaning_id].parent
        while node is not None:
            chain.append(node)
            node = self.meanings[node].parent
        return chain


def parse_taxonomy(path: str | Path) -> Taxonomy:
    """Parse and validate a taxonomy file.

    Rejects what `read_records` rejects (a wrong field count, an empty
    field, a repeated meaning id), malformed meaning ids, parent
    references to undefined meanings, and cycles in the parent chains,
    with a ValueError naming the file and the line at fault.
    """
    path = Path(path)
    meanings: dict[str, Meaning] = {}
    lines_seen: dict[str, int] = {}
    for lineno, (meaning_id, synset_id, parent) in read_records(path, 3, "meaning_id"):
        try:
            parse_meaning_id(meaning_id)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        lines_seen[meaning_id] = lineno
        meanings[meaning_id] = Meaning(
            meaning_id=meaning_id,
            synset_id=synset_id,
            parent=None if parent == "-" else parent,
        )
    for meaning in meanings.values():
        if meaning.parent is not None and meaning.parent not in meanings:
            raise ValueError(
                f"{path}: line {lines_seen[meaning.meaning_id]}: meaning "
                f"{meaning.meaning_id!r} references undefined parent {meaning.parent!r}"
            )
    # Parent links must form a forest: walking up from any meaning
    # terminates at a root instead of revisiting a node.
    for meaning_id in meanings:
        visited = {meaning_id}
        node = meanings[meaning_id].parent
        while node is not None:
            if node in visited:
                raise ValueError(
                    f"{path}: line {lines_seen[meaning_id]}: "
                    f"cycle in parent chain through {meaning_id!r}"
                )
            visited.add(node)
            node = meanings[node].parent
    return Taxonomy(meanings=meanings)


def _require_meaning(taxonomy: Taxonomy, annotation: str, mode: str) -> Meaning:
    meaning = taxonomy.meanings.get(annotation)
    if meaning is None:
        raise ValueError(
            f"annotation {annotation!r} not present in taxonomy (mode {mode!r})"
        )
    return meaning


def related(taxonomy: Taxonomy | None, mode: str, a: str, b: str) -> bool:
    """Whether two annotations are semantically related under a mode.

    Symmetric and reflexive in every mode; ``am`` implies ``as`` implies
    ``ah`` for the same pair.
    """
    if mode == VERB:
        return a == b
    if mode not in MEANING_MODES:
        raise ValueError(f"unknown relation mode {mode!r}")
    if taxonomy is None:
        raise ValueError(f"mode {mode!r} requires a taxonomy")
    ma = _require_meaning(taxonomy, a, mode)
    mb = _require_meaning(taxonomy, b, mode)
    if mode == AM:
        return a == b
    if a == b or ma.synset_id == mb.synset_id:
        return True
    if mode == AS:
        return False
    return a in taxonomy.ancestors(b) or b in taxonomy.ancestors(a)


def relation_table(
    taxonomy: Taxonomy | None, labels: Sequence[str], mode: str
) -> np.ndarray:
    """`related` over every pair of `labels`, as a boolean table indexed by them.

    Each distinct pair of labels is compared once, each label with
    itself included, so a label the taxonomy lacks raises even when it
    is the only one.  Labels may repeat.
    """
    unique = sorted(set(labels))
    table = np.zeros((len(unique), len(unique)), dtype=bool)
    for a, label in enumerate(unique):
        for b in range(a, len(unique)):
            table[a, b] = table[b, a] = related(taxonomy, mode, label, unique[b])
    code = {label: a for a, label in enumerate(unique)}
    codes = np.array([code[label] for label in labels], dtype=np.intp)
    return table[np.ix_(codes, codes)]


def semantic_classes(
    taxonomy: Taxonomy | None, annotations: set[str] | list[str], mode: str
) -> list[tuple[str, ...]]:
    """Partition annotations into the connected components of `related`.

    Components, not pairwise cliques: ``ah`` is not transitive (two
    hyponyms of a shared hypernym are unrelated directly), so grouping
    requires the equivalence closure.  Each component is returned
    sorted, and components are ordered by their smallest member.
    """
    items = sorted(set(annotations))
    linked = relation_table(taxonomy, items, mode)
    # Each label takes the smallest root among the labels related to it
    # until nothing changes: its component's smallest index, which is
    # the class name because the labels are sorted.
    root = np.arange(len(items))
    while True:
        lowest = np.where(linked, root, len(items)).min(axis=1, initial=len(items))
        if np.array_equal(lowest, root):
            break
        root = lowest
    components: dict[int, list[str]] = {}
    for item, r in zip(items, root.tolist()):
        components.setdefault(r, []).append(item)
    return [tuple(component) for component in components.values()]


def class_map(classes: list[tuple[str, ...]]) -> dict[str, str]:
    """Annotation -> class name; a class is named by its smallest member."""
    mapping: dict[str, str] = {}
    for component in classes:
        name = component[0]
        for annotation in component:
            mapping[annotation] = name
    return mapping
