"""NaN-padded tensor encoding of genomes and populations.

A genome is a pair of fixed-shape float64 matrices: a node tensor of shape
(max_nodes, 5) with columns (key, bias, response, aggregation_id,
activation_id) and a connection tensor of shape (max_conns, 4) with columns
(in_key, out_key, enabled, weight).  A padding row is all-NaN; a live row has
no NaN anywhere.  Removal leaves NaN holes in place and addition fills the
first hole, so row indices of untouched genes are stable across edits.

Input nodes always carry keys 0..I-1 and output nodes keys I..I+O-1.

All operations are pure: they return new values and never mutate arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import NeatConfig
from .errors import (BadAttrIndex, CapacityFull, DanglingEndpoint, DuplicateConn,
                     DuplicateKey, IntegrityError, KeyNotFound, ParseError,
                     ProtectedNode)
from .rng import RngStream

# node tensor columns
NODE_KEY, NODE_BIAS, NODE_RESPONSE, NODE_AGG, NODE_ACT = range(5)
# connection tensor columns
CONN_IN, CONN_OUT, CONN_ENABLED, CONN_WEIGHT = range(4)

NODE_ATTRS = 4   # bias, response, aggregation_id, activation_id
CONN_ATTRS = 2   # enabled, weight


@dataclass(frozen=True)
class NodeRow:
    """One live node gene."""
    key: int
    bias: float
    response: float
    aggregation_id: int
    activation_id: int

    def as_array(self) -> np.ndarray:
        return np.array([self.key, self.bias, self.response,
                         self.aggregation_id, self.activation_id], dtype=np.float64)


@dataclass(frozen=True)
class ConnRow:
    """One live connection gene; enabled is stored numerically as 0.0/1.0."""
    in_key: int
    out_key: int
    enabled: float
    weight: float

    def as_array(self) -> np.ndarray:
        return np.array([self.in_key, self.out_key, self.enabled, self.weight],
                        dtype=np.float64)


@dataclass(frozen=True, eq=False)
class GenomeTensors:
    """One genome as fixed-shape NaN-padded tensors."""
    nodes: np.ndarray   # (max_nodes, 5)
    conns: np.ndarray   # (max_conns, 4)
    num_inputs: int
    num_outputs: int

    @property
    def max_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def max_conns(self) -> int:
        return self.conns.shape[0]


@dataclass(eq=False)
class PopulationTensors:
    """Genome tensors stacked along a population axis, plus bookkeeping."""
    nodes: np.ndarray       # (P, max_nodes, 5)
    conns: np.ndarray       # (P, max_conns, 4)
    species_id: np.ndarray  # (P,) int64, -1 before speciation
    fitness: np.ndarray     # (P,) float64, NaN before evaluation
    num_inputs: int
    num_outputs: int

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def genome(self, index: int) -> GenomeTensors:
        return GenomeTensors(self.nodes[index].copy(), self.conns[index].copy(),
                             self.num_inputs, self.num_outputs)

    @classmethod
    def from_genomes(cls, genomes: list[GenomeTensors]) -> "PopulationTensors":
        if not genomes:
            raise ValueError("population must be non-empty")
        first = genomes[0]
        for g in genomes[1:]:
            if (g.nodes.shape != first.nodes.shape or g.conns.shape != first.conns.shape
                    or g.num_inputs != first.num_inputs or g.num_outputs != first.num_outputs):
                raise ValueError("genomes disagree on tensor shapes or I/O counts")
        n = len(genomes)
        return cls(nodes=np.stack([g.nodes for g in genomes]),
                   conns=np.stack([g.conns for g in genomes]),
                   species_id=np.full(n, -1, dtype=np.int64),
                   fitness=np.full(n, np.nan),
                   num_inputs=first.num_inputs,
                   num_outputs=first.num_outputs)


def genomes_equal(a: GenomeTensors, b: GenomeTensors) -> bool:
    """Bitwise equality including NaN padding positions."""
    return (a.num_inputs == b.num_inputs and a.num_outputs == b.num_outputs
            and np.array_equal(a.nodes, b.nodes, equal_nan=True)
            and np.array_equal(a.conns, b.conns, equal_nan=True))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def init_arrays(config: NeatConfig, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Node/connection tensors for freshly initialized genomes.

    ``rng`` may be a batched stream; leading dimensions of the result follow
    its batch shape.  Attribute draws use fixed-size grids over the full
    capacity so batched and single-genome initialization consume identical
    counters.
    """
    n_in, n_out = config.inputs, config.outputs
    n_io = n_in + n_out
    batch = rng.batch_shape

    bias = config.bias_init_mean + config.bias_init_std * rng.normals(config.max_nodes)
    response = config.response_init_mean + config.response_init_std * rng.normals(config.max_nodes)
    weight = config.weight_init_mean + config.weight_init_std * rng.normals(config.max_conns)

    nodes = np.full(batch + (config.max_nodes, 5), np.nan)
    nodes[..., :n_io, NODE_KEY] = np.arange(n_io, dtype=np.float64)
    nodes[..., :n_io, NODE_BIAS] = bias[..., :n_io]
    nodes[..., :n_io, NODE_RESPONSE] = response[..., :n_io]
    nodes[..., :n_io, NODE_AGG] = float(config.aggregation_default_id)
    nodes[..., :n_io, NODE_ACT] = float(config.activation_default_id)

    n_full = n_in * n_out
    in_keys = np.repeat(np.arange(n_in, dtype=np.float64), n_out)
    out_keys = np.tile(np.arange(n_in, n_io, dtype=np.float64), n_in)
    conns = np.full(batch + (config.max_conns, 4), np.nan)
    conns[..., :n_full, CONN_IN] = in_keys
    conns[..., :n_full, CONN_OUT] = out_keys
    conns[..., :n_full, CONN_ENABLED] = 1.0
    conns[..., :n_full, CONN_WEIGHT] = weight[..., :n_full]
    return nodes, conns


def init_genome(config: NeatConfig, rng: RngStream) -> GenomeTensors:
    """Fresh genome: inputs and outputs fully connected, the rest padding."""
    nodes, conns = init_arrays(config, rng)
    return GenomeTensors(nodes, conns, config.inputs, config.outputs)


# ---------------------------------------------------------------------------
# row helpers
# ---------------------------------------------------------------------------

def _live_node_mask(nodes: np.ndarray) -> np.ndarray:
    return ~np.isnan(nodes[:, NODE_KEY])


def _live_conn_mask(conns: np.ndarray) -> np.ndarray:
    return ~np.isnan(conns[:, CONN_IN])


def _first_padding_row(tensor: np.ndarray) -> int:
    padding = np.isnan(tensor).all(axis=1)
    if not padding.any():
        return -1
    return int(np.argmax(padding))


def _node_row(genome: GenomeTensors, key: float) -> int:
    rows = np.nonzero(genome.nodes[:, NODE_KEY] == key)[0]
    if rows.size == 0:
        raise KeyNotFound(f"node key {key} is not live")
    return int(rows[0])


def _conn_row(genome: GenomeTensors, in_key: float, out_key: float) -> int:
    rows = np.nonzero((genome.conns[:, CONN_IN] == in_key)
                      & (genome.conns[:, CONN_OUT] == out_key))[0]
    if rows.size == 0:
        raise KeyNotFound(f"connection ({in_key}, {out_key}) is not live")
    return int(rows[0])


# ---------------------------------------------------------------------------
# the three primitive tensorized modifications
# ---------------------------------------------------------------------------

def add_node(genome: GenomeTensors, row: NodeRow) -> GenomeTensors:
    """Place a new node gene in the first all-NaN row."""
    if np.any(genome.nodes[:, NODE_KEY] == float(row.key)):
        raise DuplicateKey(f"node key {row.key} already live")
    target = _first_padding_row(genome.nodes)
    if target < 0:
        raise CapacityFull("no padding row left in the node tensor")
    nodes = genome.nodes.copy()
    nodes[target] = row.as_array()
    return GenomeTensors(nodes, genome.conns.copy(), genome.num_inputs, genome.num_outputs)


def remove_node(genome: GenomeTensors, key: int) -> GenomeTensors:
    """NaN out a hidden node row and every connection touching it."""
    target = _node_row(genome, float(key))
    if key < genome.num_inputs + genome.num_outputs:
        raise ProtectedNode(f"node {key} is an input or output and cannot be removed")
    nodes = genome.nodes.copy()
    conns = genome.conns.copy()
    nodes[target] = np.nan
    incident = (conns[:, CONN_IN] == float(key)) | (conns[:, CONN_OUT] == float(key))
    conns[incident] = np.nan
    return GenomeTensors(nodes, conns, genome.num_inputs, genome.num_outputs)


def add_conn(genome: GenomeTensors, row: ConnRow) -> GenomeTensors:
    """Place a new connection gene in the first all-NaN row."""
    dup = (genome.conns[:, CONN_IN] == float(row.in_key)) \
        & (genome.conns[:, CONN_OUT] == float(row.out_key))
    if dup.any():
        raise DuplicateConn(f"connection ({row.in_key}, {row.out_key}) already live")
    keys = genome.nodes[:, NODE_KEY]
    for endpoint in (row.in_key, row.out_key):
        if not np.any(keys == float(endpoint)):
            raise DanglingEndpoint(f"connection endpoint {endpoint} is not a live node")
    target = _first_padding_row(genome.conns)
    if target < 0:
        raise CapacityFull("no padding row left in the connection tensor")
    conns = genome.conns.copy()
    conns[target] = row.as_array()
    return GenomeTensors(genome.nodes.copy(), conns, genome.num_inputs, genome.num_outputs)


def remove_conn(genome: GenomeTensors, in_key: int, out_key: int) -> GenomeTensors:
    """NaN out one connection row; nodes are untouched."""
    target = _conn_row(genome, float(in_key), float(out_key))
    conns = genome.conns.copy()
    conns[target] = np.nan
    return GenomeTensors(genome.nodes.copy(), conns, genome.num_inputs, genome.num_outputs)


def set_node_attr(genome: GenomeTensors, key: int, attr_index: int, value: float) -> GenomeTensors:
    """Overwrite one node attribute cell (0=bias, 1=response, 2=aggregation, 3=activation)."""
    if not 0 <= attr_index < NODE_ATTRS:
        raise BadAttrIndex(f"node attribute index must be 0..{NODE_ATTRS - 1}, got {attr_index}")
    target = _node_row(genome, float(key))
    nodes = genome.nodes.copy()
    nodes[target, 1 + attr_index] = float(value)
    return GenomeTensors(nodes, genome.conns.copy(), genome.num_inputs, genome.num_outputs)


def set_conn_attr(genome: GenomeTensors, in_key: int, out_key: int,
                  attr_index: int, value: float) -> GenomeTensors:
    """Overwrite one connection attribute cell (0=enabled, 1=weight)."""
    if not 0 <= attr_index < CONN_ATTRS:
        raise BadAttrIndex(f"connection attribute index must be 0..{CONN_ATTRS - 1}, got {attr_index}")
    target = _conn_row(genome, float(in_key), float(out_key))
    conns = genome.conns.copy()
    conns[target, 2 + attr_index] = float(value)
    return GenomeTensors(genome.nodes.copy(), conns, genome.num_inputs, genome.num_outputs)


def count_live(genome: GenomeTensors) -> tuple[int, int]:
    """(live node rows, live connection rows)."""
    nodes = int((~np.isnan(genome.nodes).all(axis=1)).sum())
    conns = int((~np.isnan(genome.conns).all(axis=1)).sum())
    return nodes, conns


# ---------------------------------------------------------------------------
# integrity checking
# ---------------------------------------------------------------------------

def check_integrity(genome: GenomeTensors, exc: type[Exception] = IntegrityError) -> None:
    """Raise ``exc`` if the genome violates a structural invariant."""
    nodes, conns = genome.nodes, genome.conns
    if nodes.ndim != 2 or nodes.shape[1] != 5:
        raise exc(f"node tensor must have shape (max_nodes, 5), got {nodes.shape}")
    if conns.ndim != 2 or conns.shape[1] != 4:
        raise exc(f"connection tensor must have shape (max_conns, 4), got {conns.shape}")

    for name, tensor in (("node", nodes), ("connection", conns)):
        nan = np.isnan(tensor)
        mixed = np.nonzero(nan.any(axis=1) & ~nan.all(axis=1))[0]
        if mixed.size:
            raise exc(f"{name} row {mixed[0]} mixes NaN and live entries")

    live_n = _live_node_mask(nodes)
    keys = nodes[live_n, NODE_KEY]
    if np.any(keys < 0) or np.any(keys != np.floor(keys)):
        raise exc("node keys must be non-negative integers")
    if np.unique(keys).size != keys.size:
        raise exc("live node keys must be pairwise distinct")
    n_io = genome.num_inputs + genome.num_outputs
    for k in range(n_io):
        if not np.any(keys == float(k)):
            kind = "input" if k < genome.num_inputs else "output"
            raise exc(f"{kind} node key {k} is missing")

    live_c = _live_conn_mask(conns)
    pairs = conns[live_c][:, [CONN_IN, CONN_OUT]]
    if pairs.size:
        if np.unique(pairs, axis=0).shape[0] != pairs.shape[0]:
            raise exc("live connection key pairs must be pairwise distinct")
        for col, label in ((CONN_IN, "in_key"), (CONN_OUT, "out_key")):
            missing = ~np.isin(conns[live_c, col], keys)
            if missing.any():
                bad = conns[live_c, col][missing][0]
                raise exc(f"connection {label} {bad} does not refer to a live node")
        enabled = conns[live_c, CONN_ENABLED]
        if not np.all((enabled == 0.0) | (enabled == 1.0)):
            raise exc("enabled flags must be 0.0 or 1.0")


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _cells(tensor: np.ndarray) -> list[list]:
    return [[None if math.isnan(v) else v for v in row] for row in tensor.tolist()]


def serialize_genome(genome: GenomeTensors) -> bytes:
    """One JSON document per genome, one gene row per line; NaN cells are null."""
    def block(tensor: np.ndarray) -> str:
        rows = ",\n".join("  " + json.dumps(row) for row in _cells(tensor))
        return "[\n" + rows + "\n ]"

    text = (
        "{\n"
        f' "num_inputs": {genome.num_inputs},\n'
        f' "num_outputs": {genome.num_outputs},\n'
        f' "max_nodes": {genome.max_nodes},\n'
        f' "max_conns": {genome.max_conns},\n'
        f' "nodes": {block(genome.nodes)},\n'
        f' "conns": {block(genome.conns)}\n'
        "}\n"
    )
    return text.encode("utf-8")


def _tensor_from_cells(cells, rows: int, cols: int, field: str) -> np.ndarray:
    if not isinstance(cells, list) or len(cells) != rows:
        raise ParseError(f"field {field!r}: expected {rows} rows")
    out = np.empty((rows, cols))
    for i, row in enumerate(cells):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"field {field!r}, row {i}: expected {cols} cells")
        for j, cell in enumerate(row):
            if cell is None:
                out[i, j] = np.nan
            elif isinstance(cell, (int, float)) and not isinstance(cell, bool):
                try:
                    value = float(cell)
                except OverflowError:
                    value = math.inf
                if not math.isfinite(value):
                    raise ParseError(f"field {field!r}, row {i}, cell {j}: "
                                     f"expected a finite number, got {value}")
                out[i, j] = value
            else:
                raise ParseError(f"field {field!r}, row {i}, cell {j}: "
                                 f"expected a number or null, got {cell!r}")
    return out


def parse_genome(data: bytes | str) -> GenomeTensors:
    """Inverse of serialize_genome; round-trips bitwise including padding."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(f"not UTF-8 text ({err.reason} at byte {err.start})") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from None
    except ValueError:  # an integer literal past Python's digit limit
        raise ParseError("a number has too many digits to read") from None
    if not isinstance(doc, dict):
        raise ParseError("genome document must be a JSON object")
    for field in ("num_inputs", "num_outputs", "max_nodes", "max_conns", "nodes", "conns"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    for field in ("num_inputs", "num_outputs", "max_nodes", "max_conns"):
        if not isinstance(doc[field], int) or isinstance(doc[field], bool) or doc[field] < 0:
            raise ParseError(f"field {field!r}: expected a non-negative integer")
    nodes = _tensor_from_cells(doc["nodes"], doc["max_nodes"], 5, "nodes")
    conns = _tensor_from_cells(doc["conns"], doc["max_conns"], 4, "conns")
    genome = GenomeTensors(nodes, conns, doc["num_inputs"], doc["num_outputs"])
    check_integrity(genome, exc=ParseError)
    return genome
