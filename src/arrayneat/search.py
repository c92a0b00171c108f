"""Batched gene lookup by historical marker, and the bitset layout for node
sets.

Genes are identified by a float64 code (a node key, or a packed connection
key pair).  Crossover and the node-key resolution of mutation and transform
match blocks row by row through three entry points, each with one cheap
first guess: ``match_aligned`` guesses the same column (genes of related
genomes usually sit at the same row), ``rows_of_io_keys`` guesses row = key
for input/output keys, and ``match_rows`` guesses nothing.  Every query its
guess leaves unfound goes through one shared step that compares it with every
code of its row.  Distance does not use this step: it gathers a population's
live genes once and looks each one up among a representative's sorted live
codes (``evolution._live_genes`` and ``evolution._distances_to``).
Everything here is integer or boolean work, so results are exact and
identical no matter how the population is batched or chunked.
"""

from __future__ import annotations

import numpy as np

# connection identity: in_key * PAIR_SHIFT + out_key; exact in float64 while
# keys stay below 2**26, which NodeKeyAllocator and check_integrity enforce
PAIR_SHIFT = float(2 ** 26)

# the most query-by-code cells one compare of ``_search_unfound`` holds
_COMPARE_CELLS = 2 ** 20


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


def _search_unfound(queries: np.ndarray, codes: np.ndarray, src: np.ndarray,
                    found: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Find each query its guess left unfound, in place.

    ``src`` holds a guessed column of ``codes`` per query and ``found``
    whether the guess holds.  Every other non-NaN query is compared with
    every code of its row, in blocks of at most ``_COMPARE_CELLS`` cells; a
    query that is still unfound gets column 0.  Returns (src, found).
    """
    rows, cols = np.nonzero(~found & ~np.isnan(queries))
    step = max(1, _COMPARE_CELLS // max(1, codes.shape[1]))
    for lo in range(0, rows.size, step):
        r, c = rows[lo:lo + step], cols[lo:lo + step]
        # NaN padding compares false, so it is never matched
        hit = codes[r] == queries[r, c][:, None]
        src[r, c] = hit.argmax(axis=1)
        found[r, c] = hit.any(axis=1)
    return src, found


def match_rows(queries: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index in ``codes`` holding each query code, plus a found mask.

    ``queries`` is (P, q); ``codes`` is (P, k) and may contain NaN padding
    (never matched).  Codes must be non-negative and unique per row.
    Unmatched or NaN queries get an arbitrary index with found=False.
    """
    return _search_unfound(queries, codes, np.zeros(queries.shape, dtype=np.int64),
                           np.zeros(queries.shape, dtype=bool))


def match_aligned(queries: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """match_rows for equally shaped blocks, guessing the same column.

    Genomes produced by crossover share their padding layout with an
    ancestor, so most homologous genes sit at identical row positions.
    """
    src = np.broadcast_to(np.arange(queries.shape[1], dtype=np.int64), queries.shape).copy()
    return _search_unfound(queries, codes, src, queries == codes)


def rows_of_io_keys(queries: np.ndarray, keys: np.ndarray, io: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """match_rows for node keys, guessing row = key for input/output keys.

    Library-built genomes keep input/output keys 0..io-1 at rows 0..io-1.
    The guess is taken only in the genomes where that layout holds, so a
    genome that breaks it costs only its own searches.  ``keys`` must have
    at least ``io`` columns.
    """
    io_layout = (keys[:, :io] == np.arange(io, dtype=np.float64)).all(axis=1)
    guess = (queries < io) & io_layout[:, None]  # NaN compares false
    return _search_unfound(queries, keys, np.where(guess, queries, 0.0).astype(np.int64), guess)
