"""Activation and aggregation tables.

Genome tensors store functions as small integer codes; fixed tables map the
codes to vectorized callables.  Aggregations operate on a full-width value
array plus a boolean mask of real incoming connections: masked positions are
replaced by the aggregation's neutral element before reducing along the last
axis, which keeps the floating-point reduction order independent of how many
genomes share the array.  Each aggregation defines its whole function,
including the empty set, which aggregates to 0 wherever the mask holds no
connection; callers apply table entries without special cases.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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

# aggregation codes over (values, mask) pairs, reducing the last axis; 0 over no connection
AGGREGATIONS: dict[int, tuple[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]] = {
    0: ("sum", lambda v, m: np.where(m, v, 0.0).sum(axis=-1)),
    1: ("product", lambda v, m: np.where(m.any(axis=-1), np.where(m, v, 1.0).prod(axis=-1), 0.0)),
    2: ("max", lambda v, m: np.where(m.any(axis=-1), np.where(m, v, -np.inf).max(axis=-1), 0.0)),
    3: ("mean", lambda v, m: np.where(m, v, 0.0).sum(axis=-1) / np.maximum(m.sum(axis=-1), 1)),
}

ACTIVATION_IDS = {name: code for code, (name, _) in ACTIVATIONS.items()}
AGGREGATION_IDS = {name: code for code, (name, _) in AGGREGATIONS.items()}
