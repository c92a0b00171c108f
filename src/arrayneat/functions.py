"""Activation and aggregation registries.

Genome tensors store functions as small integer codes; the registry maps the
codes to vectorized callables.  Aggregations operate on a full-width value
array plus a boolean mask of real incoming connections: masked positions are
replaced by the aggregation's neutral element before reducing along the last
axis, which keeps the floating-point reduction order independent of how many
genomes share the array.  Aggregation over an empty set is defined as 0 and
handled by the caller via the mask count.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigError

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-log(1 + exp(-x))): stable for large |x|
    return np.exp(-np.logaddexp(0.0, -x))


# activation codes: tanh is 1, sigmoid is 2; identity and relu fill 0 and 3
ACTIVATIONS: dict[int, tuple[str, Callable[[np.ndarray], np.ndarray]]] = {
    0: ("identity", lambda x: x),
    1: ("tanh", np.tanh),
    2: ("sigmoid", _sigmoid),
    3: ("relu", lambda x: np.maximum(x, 0.0)),
}

# aggregation codes over (values, mask) pairs, reducing the last axis
AGGREGATIONS: dict[int, tuple[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]] = {
    0: ("sum", lambda v, m: np.where(m, v, 0.0).sum(axis=-1)),
    1: ("product", lambda v, m: np.where(m, v, 1.0).prod(axis=-1)),
    2: ("max", lambda v, m: np.where(m, v, -np.inf).max(axis=-1)),
    3: ("mean", lambda v, m: np.where(m, v, 0.0).sum(axis=-1) / np.maximum(m.sum(axis=-1), 1)),
}

ACTIVATION_IDS = {name: code for code, (name, _) in ACTIVATIONS.items()}
AGGREGATION_IDS = {name: code for code, (name, _) in AGGREGATIONS.items()}


class FunctionRegistry:
    """Lookup tables from integer codes to node calculation functions."""

    def __init__(self,
                 activations: dict[int, tuple[str, Callable]] | None = None,
                 aggregations: dict[int, tuple[str, Callable]] | None = None):
        self.activations = dict(ACTIVATIONS if activations is None else activations)
        self.aggregations = dict(AGGREGATIONS if aggregations is None else aggregations)

    def activation(self, code: int) -> Callable[[np.ndarray], np.ndarray]:
        try:
            return self.activations[int(code)][1]
        except KeyError:
            raise ConfigError(f"unknown activation code {code}") from None

    def aggregation(self, code: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        try:
            return self.aggregations[int(code)][1]
        except KeyError:
            raise ConfigError(f"unknown aggregation code {code}") from None


DEFAULT_REGISTRY = FunctionRegistry()
