"""Counter-based splittable random streams.

A stream is its 64-bit keys and a draw counter: ``RngStream(seed)`` hashes
the seed, and ``child``/``split`` fold integer tokens (generation, stage tag,
genome index) into the parent's keys, one hash round per token.  Draws are
pure functions of (key, draw counter), so a batch of streams can be sampled
with one vectorized pass and the result is bitwise identical to sampling each
stream on its own.  That property is what makes population-level operations
independent of chunking, thread count, and evaluation order.

The generator is splitmix64: cell ``(b, j)`` of a grid drawn at counter
``base`` is raw value ``base + 1 + j`` of stream ``b``, ``mix64(key + (base +
1 + j) * GOLDEN)``.  Uniforms map the top 53 bits into the open interval
(0, 1); normals come from a Box-Muller pair of uniforms.
"""

from __future__ import annotations

import math

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


def _hash(keys: np.ndarray, base: int, cols) -> np.ndarray:
    """Raw values ``base + 1 + cols`` of the streams with ``keys`` (the two broadcast)."""
    return _mix64(keys + (np.asarray(cols, dtype=np.uint64) + np.uint64(base + 1)) * _GOLDEN)


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
    """``value`` as an int; ConfigError unless it is an integer (not a bool)
    that fits in a signed 64-bit integer."""
    # bool subclasses int; np.bool_ is not an np.integer
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"{what} must fit in a signed 64-bit integer, got {value}")
    return value


def _as_tokens(value) -> np.ndarray:
    """1-D uint64 view of integer tokens (negatives via two's complement)."""
    return np.asarray(value, dtype=np.int64).reshape(-1).view(np.uint64)


class RngStream:
    """A (possibly batched) splittable stream with a shared draw counter.

    ``batch_shape`` is () for a single stream.  ``split`` produces one child
    stream per token, stacked along a new leading axis; ``child`` folds scalar
    tokens into every key; both start at counter 0.  Draw methods advance the
    counter by the number of raw values consumed per stream.
    """

    __slots__ = ("batch_shape", "_keys", "_counter")

    def __init__(self, seed: int):
        self.batch_shape: tuple[int, ...] = ()
        self._keys = _mix64(_as_tokens(_signed64(seed, "seed")))
        self._counter = 0

    # -- stream derivation -------------------------------------------------

    def _derived(self, keys: np.ndarray, batch_shape: tuple[int, ...]) -> "RngStream":
        stream = object.__new__(RngStream)
        stream.batch_shape, stream._keys, stream._counter = batch_shape, keys, 0
        return stream

    def child(self, *tokens: int) -> "RngStream":
        """New stream with the scalar tokens folded into every key, in order."""
        keys = self._keys
        for token in tokens:
            keys = _fold(keys, _as_tokens(_signed64(token, "stream token")))
        return self._derived(keys, self.batch_shape)

    def split(self, tokens) -> "RngStream":
        """Batch of child streams, one per entry of ``tokens`` (a 1-D int array)."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ValueError("split expects a 1-D token array")
        if tokens.size and tokens.dtype.kind not in "iu":
            raise ConfigError(f"stream tokens must be integers, got dtype {tokens.dtype}")
        if tokens.dtype.kind == "u" and tokens.size and tokens.max() >= 2 ** 63:
            raise ConfigError(f"stream token must fit in a signed 64-bit integer, "
                              f"got {tokens.max()}")
        keys = _fold(self._keys[:, None], _as_tokens(tokens)[None, :]).reshape(-1)
        return self._derived(keys, self.batch_shape + (tokens.size,))

    # -- draws --------------------------------------------------------------
    #
    # Draws are pure functions of (key, counter), so a caller that only needs
    # a few cells of a conceptual (batch, width) grid can compute exactly
    # those cells; the counter still advances by the full grid width, keeping
    # the tape layout identical to the dense methods.

    def _advance(self, count: int) -> int:
        self._counter += count
        return self._counter - count

    def uniforms(self, *shape: int) -> np.ndarray:
        """Uniform float64 in the open interval (0, 1), shape batch_shape + shape."""
        n = math.prod(shape)
        bits = _hash(self._keys[:, None], self._advance(n), np.arange(n, dtype=np.uint64))
        return _unit(bits).reshape(self.batch_shape + shape)

    def normals(self, *shape: int) -> np.ndarray:
        """Standard normals via Box-Muller, two uniforms per value."""
        n = math.prod(shape)
        u = self.uniforms(2 * n).reshape(self._keys.size, 2 * n)
        return box_muller(u[:, :n], u[:, n:]).reshape(self.batch_shape + shape)

    def uniforms_at(self, width: int, rows, cols) -> np.ndarray:
        """Cells (rows, cols), which broadcast, of the grid uniforms(width) returns."""
        keys = self._keys[np.asarray(rows, dtype=np.int64)]
        return _unit(_hash(keys, self._advance(width), cols))

    def normals_at(self, width: int, rows, cols) -> np.ndarray:
        """Cells (rows, cols), which broadcast, of the grid normals(width) returns."""
        keys = self._keys[np.asarray(rows, dtype=np.int64)]
        base = self._advance(2 * width)
        cols = np.asarray(cols, dtype=np.uint64)
        return box_muller(_unit(_hash(keys, base, cols)),
                          _unit(_hash(keys, base, cols + np.uint64(width))))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(batch={self.batch_shape}, counter={self._counter})"
