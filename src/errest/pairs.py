"""Candidate-pair construction for entity-resolution cleaning.

Expands a record table into the unordered, self-excluded pair universe
and scores each pair with a normalized edit-distance similarity; the
stratum rule of the heuristic partition then picks the ambiguous pairs
that can become the item universe for a cleaning pass.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .core import MalformedInputError, _csv_cells, _decode, _read_bytes

__all__ = [
    "RecordTable",
    "read_records_csv",
    "iter_scored_pairs",
    "normalize_fields",
    "edit_distance",
    "similarity",
]


@dataclass(frozen=True)
class RecordTable:
    """Records as (id, text fields); ids must be unique."""

    ids: tuple[str, ...]
    fields: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.ids) != len(self.fields):
            raise ValueError("ids and fields must have equal length")
        seen = set()
        for position, rid in enumerate(self.ids):
            if rid in seen:
                raise MalformedInputError(f"duplicate record_id {rid!r}", position=position)
            seen.add(rid)

    def __len__(self) -> int:
        return len(self.ids)


def read_records_csv(path) -> RecordTable:
    """Load records from CSV with header record_id,field1,field2,...

    Every row has the header's column count and a non-empty record_id, and
    a row whose only cell is blank is skipped; RecordTable checks that ids
    are unique. Errors name the line on which the offending record starts,
    which a quoted field may span.
    """
    header, cells, lines, error = _csv_cells(_decode(_read_bytes(path)))
    if not header or header[0].strip() != "record_id":
        raise MalformedInputError("first column must be record_id", 1)
    width = len(header)
    ids = [rid.strip() for rid in cells[::width]]
    if "" in ids:  # above the error's line, so named first
        raise MalformedInputError("empty record_id", lines[ids.index("")])
    if error:
        raise error
    fields = [tuple(cells[k + 1:k + width]) for k in range(0, len(cells), width)]
    try:
        return RecordTable(ids=tuple(ids), fields=tuple(fields))
    except MalformedInputError as exc:
        raise MalformedInputError(str(exc), lines[exc.position]) from None


def normalize_fields(fields: Sequence[str]) -> str:
    """Lowercase, collapse whitespace, and join fields with single spaces."""
    return " ".join(" ".join(f.split()) for f in fields).lower()


@lru_cache(maxsize=1)
def _pattern_masks(pattern: str) -> dict[str, int]:
    """Each character's bitmask: bit i is set where pattern[i] is it."""
    peq = {}
    for i, c in enumerate(pattern):
        peq[c] = peq.get(c, 0) | 1 << i
    return peq


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance by the bit-vector algorithm of Myers (1999).

    Hyyrö's (2003) global form on Python ints: `a` is the pattern, bit i
    of a vector stands for its row i, and each character of `b` advances
    one DP column in O(ceil(m/w)) word operations for m = len(a).
    Consecutive calls with the same pattern reuse its character
    bitmasks. pv/mv hold the +1/-1 vertical deltas of the column, masked
    to m bits so that no value is negative, and D[m][n] is D[0][n] = n
    plus the deltas of the last column.
    """
    m = len(a)
    if not m:
        return len(b)
    peq = _pattern_masks(a)
    mask = (1 << m) - 1
    pv, mv = mask, 0
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | mask ^ (xh | pv)
        mh = pv & xh
        # Row 0 is D[0][j] = j, so a +1 horizontal delta enters at bit 0.
        ph = (ph << 1 | 1) & mask
        pv = mh << 1 & mask | mask ^ (xv | ph)
        mv = ph & xv
    return len(b) + pv.bit_count() - mv.bit_count()


def similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Normalized edit-distance similarity of two records, in [0, 1].

    1 - distance / max-length over the normalized field concatenations;
    symmetric, and 1.0 for two empty records.
    """
    na, nb = normalize_fields(a), normalize_fields(b)
    longest = max(len(na), len(nb))
    if longest == 0:
        return 1.0
    # `a` is the pattern: in canonical pair order one left record leads a
    # run of pairs, so edit_distance builds its bitmasks once per run.
    return 1.0 - edit_distance(na, nb) / longest


def iter_scored_pairs(t: RecordTable) -> Iterator[tuple[str, str, float]]:
    """Stream (left_id, right_id, similarity) tuples in canonical order, left_id < right_id."""
    # Ids are unique, so the sort never compares fields, and combinations keeps the
    # sorted order within each pair.
    for (left, a), (right, b) in combinations(sorted(zip(t.ids, t.fields)), 2):
        yield left, right, similarity(a, b)
