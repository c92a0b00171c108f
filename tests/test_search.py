"""Gene lookup helpers: exactness of matching under every fast path."""

import numpy as np
import pytest

from arrayneat.search import (CONN_DOMAIN, PAIR_SHIFT, SortedTable, match_aligned,
                              match_rows, pair_codes, rows_of_io_keys)


def brute_force(queries, codes):
    pop, q = queries.shape
    idx = np.zeros((pop, q), dtype=np.int64)
    found = np.zeros((pop, q), dtype=bool)
    for p in range(pop):
        for j in range(q):
            for k in range(codes.shape[1]):
                if queries[p, j] == codes[p, k]:
                    idx[p, j] = k
                    found[p, j] = True
                    break
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
    assert CONN_DOMAIN + codes[0] < 2 ** 53  # stays exact in float64


def test_sorted_table_lookup_flat():
    codes = np.array([[3.0, np.nan, 1.0, 8.0]])
    table = SortedTable(codes)
    rows = np.zeros(4, dtype=np.int64)
    idx, found = table.lookup(rows, np.array([8.0, 1.0, 2.0, np.nan]))
    assert found.tolist() == [True, True, False, False]
    assert idx[0] == 3 and idx[1] == 2
