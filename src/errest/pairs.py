"""Candidate-pair construction for entity-resolution cleaning.

Expands a record table into the unordered, self-excluded pair universe,
scores each pair with a normalized edit-distance similarity, and routes
the scores through the heuristic partition so the ambiguous pairs can
become the item universe for a cleaning pass.
"""

import csv
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import MalformedInputError
from .priority import HeuristicPartition, partition

__all__ = [
    "RecordTable",
    "CandidatePair",
    "read_records_csv",
    "all_pairs",
    "iter_scored_pairs",
    "normalize_fields",
    "edit_distance",
    "similarity",
    "candidates",
]


@dataclass(frozen=True)
class RecordTable:
    """Records as (id, text fields); ids must be unique."""

    ids: tuple[str, ...]
    fields: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.ids) != len(self.fields):
            raise ValueError("ids and fields must have equal length")
        if len(set(self.ids)) != len(self.ids):
            dupes = {i for i in self.ids if self.ids.count(i) > 1}
            raise MalformedInputError(f"duplicate record_id {sorted(dupes)[0]!r}")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class CandidatePair:
    """An unordered record pair in canonical (left_id < right_id) form."""

    left_id: str
    right_id: str
    similarity: float

    def __post_init__(self):
        if self.left_id >= self.right_id:
            raise ValueError("pairs must be canonical: left_id < right_id")


def read_records_csv(path) -> RecordTable:
    """Load records from CSV with header record_id,field1,field2,..."""
    ids = []
    fields = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedInputError("missing header row", 1) from None
        if not header or header[0].strip() != "record_id":
            raise MalformedInputError("first column must be record_id", 1)
        seen = set()
        for line_no, row in enumerate(reader, 2):
            if not row:
                continue
            rid = row[0].strip()
            if rid in seen:
                raise MalformedInputError(f"duplicate record_id {rid!r}", line_no)
            seen.add(rid)
            ids.append(rid)
            fields.append(tuple(row[1:]))
    return RecordTable(ids=tuple(ids), fields=tuple(fields))


def all_pairs(t: RecordTable) -> int:
    """Size of the unordered, self-excluded pair universe: N(N-1)/2."""
    n = len(t)
    return n * (n - 1) // 2


def normalize_fields(fields: Sequence[str], sep: str = " ") -> str:
    """Lowercase, collapse whitespace, and join fields with a separator."""
    return sep.join(" ".join(f.split()) for f in fields).lower()


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance via the classic two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        curr = [i]
        for j, cb in enumerate(b, 1):
            curr.append(min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = curr
    return prev[-1]


def similarity(a: Sequence[str], b: Sequence[str], sep: str = " ") -> float:
    """Normalized edit-distance similarity of two records, in [0, 1].

    1 - distance / max-length over the normalized field concatenations;
    symmetric, and 1.0 for two empty records.
    """
    na, nb = normalize_fields(a, sep), normalize_fields(b, sep)
    longest = max(len(na), len(nb))
    if longest == 0:
        return 1.0
    return 1.0 - edit_distance(na, nb) / longest


def iter_scored_pairs(t: RecordTable) -> Iterator[CandidatePair]:
    """Stream scored candidate pairs in canonical (left_id, right_id) order."""
    order = sorted(range(len(t)), key=lambda i: t.ids[i])
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            i, j = order[a], order[b]
            yield CandidatePair(
                left_id=t.ids[i],
                right_id=t.ids[j],
                similarity=similarity(t.fields[i], t.fields[j]),
            )


def candidates(
    t: RecordTable, alpha: float, beta: float
) -> tuple[tuple[CandidatePair, ...], HeuristicPartition]:
    """Score every pair and split the pair universe by similarity.

    Returns the scored pairs in canonical order together with the
    partition over their positions; the ambiguous positions are the
    pairs worth sending to workers.
    """
    pairs = tuple(iter_scored_pairs(t))
    part = partition([p.similarity for p in pairs], alpha, beta)
    return pairs, part
