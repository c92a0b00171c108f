"""Gene lookup helpers: exactness of matching under every first guess."""

import numpy as np
import pytest

from arrayneat.search import (_COMPARE_CELLS, PAIR_SHIFT, match_aligned, match_rows,
                              pair_codes, rows_of_io_keys)


def brute_force(queries, codes):
    """The first column of its row holding each query, from a dict per row."""
    pop, q = queries.shape
    idx = np.zeros((pop, q), dtype=np.int64)
    found = np.zeros((pop, q), dtype=bool)
    for p in range(pop):
        first = {}
        for k, code in enumerate(codes[p].tolist()):
            if not np.isnan(code):  # NaN padding is never matched
                first.setdefault(code, k)
        for j, query in enumerate(queries[p].tolist()):
            if query in first:
                idx[p, j] = first[query]
                found[p, j] = True
    return idx, found


def random_blocks(seed, pop=7, k=9, q=12):
    rng = np.random.default_rng(seed)
    codes = np.argsort(rng.random((pop, 40)), axis=1)[:, :k].astype(float)
    codes[rng.random(codes.shape) < 0.3] = np.nan
    pick = rng.integers(0, k, (pop, q))
    queries = codes[np.arange(pop)[:, None], pick]
    queries[rng.random(queries.shape) < 0.2] = rng.integers(100, 200)  # misses
    queries[rng.random(queries.shape) < 0.1] = np.nan
    return queries, codes


@pytest.mark.parametrize("seed", range(6))
def test_match_rows_equals_brute_force(seed):
    queries, codes = random_blocks(seed)
    idx, found = match_rows(queries, codes)
    bidx, bfound = brute_force(queries, codes)
    assert np.array_equal(found, bfound)
    assert np.array_equal(np.where(found, idx, -1), np.where(bfound, bidx, -1))


@pytest.mark.parametrize("seed", range(6))
def test_match_aligned_equals_match_rows(seed):
    rng = np.random.default_rng(seed + 100)
    queries, codes = random_blocks(seed, q=9)  # equal widths for aligned matching
    # push some entries into positional agreement to exercise the fast path
    agree = rng.random(queries.shape) < 0.5
    queries = np.where(agree, codes, queries)
    a_idx, a_found = match_aligned(queries, codes)
    r_idx, r_found = match_rows(queries, codes)
    assert np.array_equal(a_found, r_found)
    matched_same = np.where(a_found, codes[np.arange(7)[:, None], a_idx], -1.0)
    matched_ref = np.where(r_found, codes[np.arange(7)[:, None], r_idx], -1.0)
    assert np.array_equal(matched_same, matched_ref, equal_nan=True)


def test_rows_of_io_keys_identity_and_fallback():
    io = 3
    keys = np.array([[0.0, 1.0, 2.0, 7.0, np.nan],
                     [0.0, 1.0, 2.0, np.nan, 9.0]])
    queries = np.array([[0.0, 2.0, 7.0, 9.0],
                        [1.0, 9.0, 7.0, np.nan]])
    idx, found = rows_of_io_keys(queries, keys, io)
    ref_idx, ref_found = match_rows(queries, keys)
    assert np.array_equal(found, ref_found)
    assert np.array_equal(np.where(found, idx, -1), np.where(ref_found, ref_idx, -1))
    # permuted rows break the identity; the fallback must still be exact
    permuted = keys[:, ::-1].copy()
    idx2, found2 = rows_of_io_keys(queries, permuted, io)
    ref_idx2, ref_found2 = match_rows(queries, permuted)
    assert np.array_equal(found2, ref_found2)
    assert np.array_equal(np.where(found2, idx2, -1), np.where(ref_found2, ref_idx2, -1))


def test_pair_codes_exact_and_distinct():
    conns = np.array([[[5.0, 9.0, 1.0, 0.1],
                       [9.0, 5.0, 0.0, 0.2],
                       [np.nan, np.nan, np.nan, np.nan]]])
    codes = pair_codes(conns)[0]
    assert codes[0] == 5.0 * PAIR_SHIFT + 9.0
    assert codes[0] != codes[1]
    assert np.isnan(codes[2])
    # the largest keys still decode exactly, and neighbouring pairs stay apart
    top = 2.0 ** 26 - 1
    code = pair_codes(np.array([top, top, 1.0, 0.0]))
    assert (code // PAIR_SHIFT, code % PAIR_SHIFT) == (top, top)
    assert pair_codes(np.array([top, 0.0, 1.0, 0.0])) - 1 == \
        pair_codes(np.array([top - 1, top, 1.0, 0.0]))


IO = 3  # input/output keys 0..IO-1

ENTRY_POINTS = {
    "match_rows": match_rows,
    "match_aligned": match_aligned,
    "rows_of_io_keys": lambda queries, codes: rows_of_io_keys(queries, codes, IO),
}


def assert_brute_force(lookup, queries, codes):
    idx, found = lookup(queries, codes)
    bidx, bfound = brute_force(queries, codes)
    assert np.array_equal(found, bfound)
    assert np.array_equal(np.where(found, idx, -1), np.where(bfound, bidx, -1))
    # callers gather with every index, found or not
    assert idx.dtype == np.int64 and ((idx >= 0) & (idx < codes.shape[1])).all()


def query_block(rng, codes, aligned=0.4, misses=0.15, nans=0.1):
    """Queries as wide as ``codes``: live codes of the same row, some at their
    own column (the aligned guess holds), plus misses and NaN."""
    pop, k = codes.shape
    queries = np.empty(codes.shape)
    for p in range(pop):
        live = codes[p][~np.isnan(codes[p])]
        queries[p] = rng.choice(live, k)
    queries = np.where(rng.random(codes.shape) < aligned, codes, queries)
    miss = rng.random(codes.shape) < misses
    queries[miss] = np.nanmax(codes) + 1 + rng.integers(0, 50, miss.sum())
    queries[rng.random(codes.shape) < nans] = np.nan
    return queries


def node_key_block(seed, pop=8, k=9, keys=40, misses=0.15):
    """Unique keys below ``keys`` per row with NaN padding.  Keys 0..IO-1 are
    live in every genome, at rows 0..IO-1 in the even genomes and anywhere in
    the odd ones, so the io guess holds in some genomes of the block and
    fails in others."""
    rng = np.random.default_rng(seed)
    codes = np.full((pop, k), np.nan)
    for p in range(pop):
        hidden = rng.choice(np.arange(IO, keys), k - IO, replace=False).astype(float)
        hidden[rng.random(hidden.size) < 0.3] = np.nan
        row = np.concatenate([np.arange(IO, dtype=float), hidden])
        codes[p] = row if p % 2 == 0 else rng.permutation(row)
    return query_block(rng, codes, misses=misses), codes


def wide_block(seed):
    """64 genomes x 600 codes: the queries no guess can find (20% misses)
    alone fill more than one block of the compare."""
    queries, codes = node_key_block(seed, pop=64, k=600, keys=2000, misses=0.2)
    _, found = brute_force(queries, codes)
    assert (~found & ~np.isnan(queries)).sum() * codes.shape[1] > _COMPARE_CELLS
    return queries, codes


def pair_code_block(seed, pop=6, k=10):
    """Connection pair codes with keys up to 2**26 - 1, including pairs whose
    codes differ by one."""
    rng = np.random.default_rng(seed)
    top = 2 ** 26 - 1
    keys = np.array([0, 1, 2, top - 1, top], dtype=float)
    conns = np.full((pop, k, 4), np.nan)
    for p in range(pop):
        pairs = np.array([[a, b] for a in keys for b in keys])
        pairs = pairs[rng.choice(len(pairs), k, replace=False)]
        pairs[rng.random(k) < 0.2] = np.nan
        conns[p, :, :2] = pairs
    return query_block(rng, pair_codes(conns)), pair_codes(conns)


# one block with a NaN query, a miss and a wrong io guess (key 1 is not at row 1)
FIXED = (np.array([[8.0, 1.0, 2.0, np.nan]]), np.array([[3.0, np.nan, 1.0, 8.0]]))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("seed", range(6))
def test_entry_points_equal_brute_force(entry, seed):
    assert_brute_force(ENTRY_POINTS[entry], *node_key_block(seed))
    assert_brute_force(ENTRY_POINTS[entry], *pair_code_block(seed))
    assert_brute_force(ENTRY_POINTS[entry], *wide_block(seed))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_on_fixed_block(entry):
    assert_brute_force(ENTRY_POINTS[entry], *FIXED)
    idx, found = ENTRY_POINTS[entry](*FIXED)
    assert found.tolist() == [[True, True, False, False]]
    assert idx[0, :2].tolist() == [3, 2]
