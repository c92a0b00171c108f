"""Batched gene lookup (per-row sorted tables plus a flat binary search) and
the bitset layout for node sets.

Genes are identified by a float64 code (a node key, or a packed connection
key pair).  Hot callers first try cheap structural fast paths (genes of
related genomes usually sit at the same row; input/output keys usually sit at
their own row index) and only binary-search the residue.  Everything here is
integer or boolean work, so results are exact and identical no matter how the
population is batched or chunked.
"""

from __future__ import annotations

import numpy as np

# connection identity: in_key * PAIR_SHIFT + out_key; exact in float64 while
# keys stay below 2**26
PAIR_SHIFT = float(2 ** 26)
# offset separating connection codes from node-key codes when both gene kinds
# share one lookup table; total stays below 2**53, hence exact
CONN_DOMAIN = float(2 ** 52)


# node sets as bitsets: a set over ``width`` members is ceil(width / 64)
# uint64 words on the last axis, and member j is bit j % 64 of word j // 64

def bit_address(members) -> tuple[np.ndarray, np.ndarray]:
    """Word index and single-bit uint64 mask of each set member."""
    members = np.asarray(members, dtype=np.int64)
    return members >> 6, np.uint64(1) << (members & 63).astype(np.uint64)


def bitsets(shape: tuple, width: int, cells: tuple, members: np.ndarray) -> np.ndarray:
    """Sets over ``width`` members, one per cell of ``shape``, with
    ``members[i]`` in the set at cell ``cells[i]``."""
    sets = np.zeros(shape + (-(-width // 64),), dtype=np.uint64)
    word, bit = bit_address(members)
    np.bitwise_or.at(sets, cells + (word,), bit)
    return sets


def bitset_members(sets: np.ndarray, width: int) -> np.ndarray:
    """(..., words) uint64 bitsets -> (..., width) bool membership."""
    as_bytes = np.ascontiguousarray(sets, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=width, bitorder="little").view(bool)


def pair_codes(conns: np.ndarray) -> np.ndarray:
    """Packed (in_key, out_key) identity per connection row; NaN for padding."""
    return conns[..., 0] * PAIR_SHIFT + conns[..., 1]


class SortedTable:
    """Per-row sorted view of a (P, k) code block, built lazily."""

    __slots__ = ("codes", "sorted_codes", "order", "width")

    def __init__(self, codes: np.ndarray):
        self.codes = codes
        self.width = codes.shape[1]
        self.sorted_codes: np.ndarray | None = None
        self.order: np.ndarray | None = None

    def _build(self) -> None:
        masked = np.where(np.isnan(self.codes), np.inf, self.codes)
        self.order = np.argsort(masked, axis=1, kind="stable")
        self.sorted_codes = np.take_along_axis(masked, self.order, axis=1)

    def lookup(self, rows: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Find flat ``queries`` within table rows ``rows``.

        Returns (column index into the unsorted block, found mask).  NaN
        queries are never found.  ``rows`` may be any integer array; a table
        with a single row accepts any row index.
        """
        if self.sorted_codes is None:
            self._build()
        if self.codes.shape[0] == 1:
            rows = np.zeros(len(queries), dtype=np.int64)
        q = np.where(np.isnan(queries), -1.0, queries)
        k = self.width
        last = k - 1
        lo = np.zeros(q.shape, dtype=np.int64)
        hi = np.full(q.shape, k, dtype=np.int64)
        for _ in range(int(np.ceil(np.log2(k + 1))) + 1):
            mid = (lo + hi) >> 1
            go_right = self.sorted_codes[rows, np.minimum(mid, last)] < q
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(go_right, hi, mid)
        pos = np.minimum(lo, last)
        return self.order[rows, pos], self.sorted_codes[rows, pos] == q


def match_rows(queries: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index in ``codes`` holding each query code, plus a found mask.

    ``queries`` is (P, q); ``codes`` is (P, k) or (1, k) and may contain NaN
    padding (never matched).  Codes must be non-negative and unique per row.
    Unmatched or NaN queries get an arbitrary index with found=False.
    """
    pop, q = queries.shape
    table = SortedTable(codes)
    rows = np.repeat(np.arange(pop, dtype=np.int64), q)
    idx, found = table.lookup(rows, queries.ravel())
    return idx.reshape(pop, q), found.reshape(pop, q)


def match_aligned(queries: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """match_rows for equally shaped blocks with a same-row fast path.

    Genomes produced by crossover share their padding layout with an
    ancestor, so most homologous genes sit at identical row positions; only
    the residue is binary-searched.
    """
    pop, width = queries.shape
    src = np.broadcast_to(np.arange(width, dtype=np.int64), queries.shape).copy()
    same = queries == codes
    found = same.copy()
    residue = ~same & ~np.isnan(queries)
    if residue.any():
        rows, cols = np.nonzero(residue)
        idx, hit = SortedTable(codes).lookup(rows, queries[rows, cols])
        src[rows, cols] = idx
        found[rows, cols] = hit
    return src, found


def rows_of_io_keys(queries: np.ndarray, keys: np.ndarray, io: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Node-key lookup with the fixed-identity fast path.

    Library-built genomes keep input/output keys 0..io-1 at rows 0..io-1;
    when that holds (checked), only queries for hidden keys are searched.
    Returns (row index, found mask).
    """
    pop = keys.shape[0]
    identity = bool((keys[:, :io] == np.arange(io, dtype=np.float64)).all())
    if not identity:
        return match_rows(queries, keys)
    small = queries < io  # NaN compares false
    src = np.where(small, queries, 0.0).astype(np.int64)
    found = small.copy()
    residue = ~small & ~np.isnan(queries)
    if residue.any():
        rows, cols = np.nonzero(residue)
        idx, hit = SortedTable(keys).lookup(rows, queries[rows, cols])
        src[rows, cols] = idx
        found[rows, cols] = hit
    return src, found
