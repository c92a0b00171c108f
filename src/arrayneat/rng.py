"""Counter-based splittable random streams.

Every stream is identified by a 64-bit key derived from a master seed and a
path of integer tokens (generation, stage tag, genome index).  Draws are pure
functions of (key, draw counter), so a batch of streams can be sampled with
one vectorized pass and the result is bitwise identical to sampling each
stream on its own.  That property is what makes population-level operations
independent of chunking, thread count, and evaluation order.

The generator is splitmix64: the n-th raw value of a stream is
``mix64(key + (n + 1) * GOLDEN)``.  Uniforms map the top 53 bits into the
open interval (0, 1); normals come from a Box-Muller pair of uniforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U53_SCALE = 2.0**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; operates on uint64 arrays, wrapping mod 2**64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _unit(bits: np.ndarray) -> np.ndarray:
    """Top 53 bits of raw uint64 draws -> float64 uniforms in (0, 1)."""
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _U53_SCALE


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """One standard normal per pair of uniforms."""
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _fold(keys: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Absorb integer tokens into keys, one hash round per fold."""
    return _mix64(keys ^ _mix64(tokens + _GOLDEN))


def _signed64(value, what: str) -> int:
    """``value`` as an int; ConfigError unless it fits in a signed 64-bit integer."""
    value = int(value)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"{what} must fit in a signed 64-bit integer, got {value}")
    return value


def _as_tokens(value) -> np.ndarray:
    """1-D uint64 view of integer tokens (negatives via two's complement)."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr.astype(np.int64).view(np.uint64)


class RngStream:
    """A (possibly batched) splittable stream with a shared draw counter.

    ``batch_shape`` is () for a single stream.  ``split`` produces one child
    stream per token, stacked along a new leading axis; ``child`` folds scalar
    tokens into every key.  Draw methods advance the counter by the number of
    raw values consumed per stream.
    """

    __slots__ = ("master_seed", "path", "batch_shape", "_keys", "_counter")

    def __init__(self, master_seed: int, path: tuple = ()):
        self.master_seed = _signed64(master_seed, "seed")
        self.path = tuple(path)
        self.batch_shape: tuple[int, ...] = ()
        keys = _mix64(_as_tokens(self.master_seed))
        for token in self.path:
            if np.ndim(token) == 0:
                keys = _fold(keys, _as_tokens(_signed64(token, "stream token")))
            else:
                tok = _as_tokens(token)
                keys = _fold(keys[:, None], tok[None, :]).reshape(-1)
                self.batch_shape = self.batch_shape + (tok.size,)
        self._keys = keys
        self._counter = 0

    # -- stream derivation -------------------------------------------------

    def child(self, *tokens: int) -> "RngStream":
        """New stream with the scalar tokens appended to the path."""
        return RngStream(self.master_seed, self.path + tuple(int(t) for t in tokens))

    def split(self, tokens) -> "RngStream":
        """Batch of child streams, one per entry of ``tokens`` (a 1-D int array)."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1:
            raise ValueError("split expects a 1-D token array")
        return RngStream(self.master_seed, self.path + (tokens,))

    # -- draws --------------------------------------------------------------

    def _raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw uint64 values per stream, shape (B, count)."""
        offsets = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64) * _GOLDEN
        self._counter += count
        return _mix64(self._keys[:, None] + offsets[None, :])

    def uniforms(self, *shape: int) -> np.ndarray:
        """Uniform float64 in the open interval (0, 1), shape batch_shape + shape."""
        n = int(np.prod(shape)) if shape else 1
        return _unit(self._raw(n)).reshape(self.batch_shape + tuple(shape))

    def normals(self, *shape: int) -> np.ndarray:
        """Standard normals via Box-Muller, two uniforms per value."""
        n = int(np.prod(shape)) if shape else 1
        u = _unit(self._raw(2 * n))
        return box_muller(u[:, :n], u[:, n:]).reshape(self.batch_shape + tuple(shape))

    # -- sparse draws --------------------------------------------------------
    #
    # Draws are pure functions of (key, counter), so a caller that only needs
    # a few cells of a conceptual (batch, width) grid can compute exactly
    # those cells; the counter still advances by the full grid width, keeping
    # the tape layout identical to the dense methods.

    def _cell_bits(self, base: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        offsets = (np.asarray(cols, dtype=np.uint64) + np.uint64(base + 1)) * _GOLDEN
        return _mix64(self._keys[np.asarray(rows, dtype=np.int64)] + offsets)

    def uniforms_at(self, width: int, rows, cols) -> np.ndarray:
        """Cells (rows, cols) of the uniform grid uniforms(width) would return."""
        base = self._counter
        self._counter += width
        return _unit(self._cell_bits(base, rows, cols))

    def normals_at(self, width: int, rows, cols) -> np.ndarray:
        """Cells (rows, cols) of the normal grid normals(width) would return."""
        base = self._counter
        self._counter += 2 * width
        cols = np.asarray(cols, dtype=np.uint64)
        return box_muller(_unit(self._cell_bits(base, rows, cols)),
                          _unit(self._cell_bits(base, rows, cols + np.uint64(width))))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.master_seed}, path={self.path}, batch={self.batch_shape})"
