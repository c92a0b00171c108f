"""Stream derivation, reproducibility, and batch/scalar consistency."""

import numpy as np
import pytest

from arrayneat import ConfigError, RngStream
from arrayneat.rng import box_muller


def test_same_seed_and_path_reproduces():
    a = RngStream(42).child(1, 2, 3).uniforms(100)
    b = RngStream(42).child(1, 2, 3).uniforms(100)
    assert np.array_equal(a, b)


def test_different_paths_differ():
    a = RngStream(42).child(0).uniforms(50)
    b = RngStream(42).child(1).uniforms(50)
    c = RngStream(43).child(0).uniforms(50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_order_matters():
    assert not np.array_equal(RngStream(7).child(1, 2).uniforms(10),
                              RngStream(7).child(2, 1).uniforms(10))


def test_split_matches_child():
    # vectorized children must reproduce scalar child streams exactly
    batch = RngStream(9).child(5).split(np.arange(8)).uniforms(16)
    for i in range(8):
        scalar = RngStream(9).child(5, i).uniforms(16)
        assert np.array_equal(batch[i], scalar)


def test_split_normals_match_child():
    batch = RngStream(9).child(2).split(np.arange(5)).normals(7)
    for i in range(5):
        assert np.array_equal(batch[i], RngStream(9).child(2, i).normals(7))


def test_sequential_draws_continue_the_stream():
    s = RngStream(3).child(1)
    first = s.uniforms(10)
    second = s.uniforms(10)
    both = RngStream(3).child(1).uniforms(20)
    assert np.array_equal(np.concatenate([first, second]), both)


def test_uniforms_open_interval_and_roughly_uniform():
    u = RngStream(0).uniforms(200_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 5e-3
    assert abs(u.var() - 1.0 / 12.0) < 5e-3


def test_normals_moments():
    z = RngStream(1).normals(200_000)
    assert abs(z.mean()) < 1e-2
    assert abs(z.std() - 1.0) < 1e-2


def test_no_short_cycles_or_duplicates():
    bits = RngStream(11).child(4).uniforms(10_000)
    assert np.unique(bits).size == bits.size


def test_negative_tokens_allowed():
    a = RngStream(5).child(-1).uniforms(4)
    b = RngStream(5).child(1).uniforms(4)
    assert not np.array_equal(a, b)


def test_split_requires_1d():
    with pytest.raises(ValueError):
        RngStream(0).split(np.zeros((2, 2), dtype=np.int64))


@pytest.mark.parametrize("make", [
    lambda: RngStream(2 ** 63),
    lambda: RngStream(-2 ** 63 - 1),
    lambda: RngStream(2 ** 70),
    lambda: RngStream(0).child(2 ** 63),
    lambda: RngStream(0).child(1, -2 ** 63 - 1),
    lambda: RngStream(0).child(2 ** 64),
    lambda: RngStream(0).child(np.uint64(2 ** 63)),
], ids=["seed-2**63", "seed-below", "seed-2**70", "child-2**63", "child-below",
        "child-2**64", "path-uint64"])
def test_seed_and_tokens_must_fit_in_int64(make):
    # two's complement would alias 2**63 with -2**63 instead
    with pytest.raises(ConfigError, match="signed 64-bit"):
        make()


# truncating or wrapping each of these would draw exactly what the stream in
# its comment draws
@pytest.mark.parametrize("make, message", [
    (lambda: RngStream(1.5), "seed must be an integer"),  # RngStream(1)
    (lambda: RngStream(0).child(2.7), "must be an integer"),  # child(2)
    (lambda: RngStream(0).child(True), "must be an integer"),  # child(1)
    (lambda: RngStream(0).child(np.bool_(True)), "must be an integer"),  # child(1)
    (lambda: RngStream(0).child(np.float64(3.0)), "must be an integer"),  # child(3)
    (lambda: RngStream(0).split(np.array([0.5, 1.9])), "must be integers"),  # split([0, 1])
    (lambda: RngStream(0).split(np.array([True, False])), "must be integers"),  # split([1, 0])
    (lambda: RngStream(0).split(np.array([2 ** 63], dtype=np.uint64)),
     "signed 64-bit"),  # split([-2**63])
], ids=["seed-float", "child-float", "child-bool", "child-numpy-bool", "child-numpy-float",
        "split-float", "split-bool", "split-uint64"])
def test_non_integer_tokens_are_refused_not_aliased(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


def test_integer_tokens_of_any_integer_type_agree():
    a = RngStream(3).child(np.int32(4), np.uint64(5)).split(np.array([1, 2], dtype=np.uint16))
    b = RngStream(3).child(4, 5).split([1, 2])
    assert np.array_equal(a.uniforms(3), b.uniforms(3))
    assert RngStream(3).split(np.array([])).batch_shape == (0,)
    assert RngStream(3).split([]).uniforms(2).shape == (0, 2)


def test_int64_bounds_are_distinct_streams():
    low, high = RngStream(-2 ** 63), RngStream(2 ** 63 - 1)
    assert not np.array_equal(low.uniforms(4), high.uniforms(4))
    assert not np.array_equal(RngStream(0).child(-2 ** 63).uniforms(4),
                              RngStream(0).child(2 ** 63 - 1).uniforms(4))


def test_sparse_uniforms_match_dense_grid():
    dense_stream = RngStream(6).child(1).split(np.arange(5))
    dense = dense_stream.uniforms(9)
    sparse_stream = RngStream(6).child(1).split(np.arange(5))
    rows = np.array([0, 0, 2, 4, 4, 3])
    cols = np.array([0, 8, 3, 1, 7, 5])
    sparse = sparse_stream.uniforms_at(9, rows, cols)
    assert np.array_equal(sparse, dense[rows, cols])
    assert sparse_stream._counter == dense_stream._counter
    # subsequent draws stay aligned
    assert np.array_equal(sparse_stream.uniforms(4), dense_stream.uniforms(4))
    # one call over two grids, the second's cells shifted by the first's width,
    # equals two consecutive calls, counter included
    apart = RngStream(6).child(1).split(np.arange(5))
    joint = RngStream(6).child(1).split(np.arange(5))
    rows2, cols2 = np.array([1, 4, 2]), np.array([3, 0, 3])
    first, second = apart.uniforms_at(9, rows, cols), apart.uniforms_at(4, rows2, cols2)
    both = joint.uniforms_at(13, np.concatenate([rows, rows2]), np.concatenate([cols, cols2 + 9]))
    assert np.array_equal(both, np.concatenate([first, second]))
    assert joint._counter == apart._counter == 13


def test_sparse_normals_match_dense_grid():
    dense = RngStream(8).child(2).split(np.arange(4)).normals(6)
    stream = RngStream(8).child(2).split(np.arange(4))
    rows = np.array([1, 3, 3])
    cols = np.array([5, 0, 2])
    assert np.array_equal(stream.uniforms_at(0, [], []), np.array([]))  # no-op block
    sparse = stream.normals_at(6, rows, cols)
    assert np.array_equal(sparse, dense[rows, cols])
    # a normal grid is two uniform grids of its width, so one uniforms_at can
    # span it and the uniform grid after it, counter included
    after = stream.uniforms_at(5, rows, cols)
    joint = RngStream(8).child(2).split(np.arange(4))
    three = np.split(joint.uniforms_at(17, np.tile(rows, 3),
                                       np.concatenate([cols, cols + 6, cols + 12])), 3)
    assert np.array_equal(box_muller(three[0], three[1]), sparse)
    assert np.array_equal(three[2], after)
    assert joint._counter == stream._counter == 17


def test_sparse_draws_broadcast_rows_against_cols():
    # rows (k, 1) against cols (k, m) give the (k, m) grid the flattened call gives
    rows = np.array([2, 0, 3])
    cols = np.array([[4, 5], [0, 1], [6, 7]])
    for draw in ("uniforms_at", "normals_at"):
        grid = RngStream(4).child(7).split(np.arange(5))
        flat = RngStream(4).child(7).split(np.arange(5))
        got = getattr(grid, draw)(8, rows[:, None], cols)
        want = getattr(flat, draw)(8, np.repeat(rows, 2), cols.ravel())
        assert got.shape == cols.shape
        assert np.array_equal(got.ravel(), want)
        assert grid._counter == flat._counter
        assert np.array_equal(grid.uniforms(3), flat.uniforms(3))


def test_batch_shape_and_draw_shapes():
    s = RngStream(0).child(1).split(np.arange(6))
    assert s.batch_shape == (6,)
    assert s.uniforms(3, 2).shape == (6, 3, 2)
    assert s.normals(4).shape == (6, 4)
    scalar = RngStream(0).child(1, 0)
    assert scalar.uniforms(3).shape == (3,)
