"""NaN-padded tensor encoding of genomes and populations.

A genome is a pair of fixed-shape float64 matrices: a node tensor of shape
(max_nodes, 5) with columns (key, bias, response, aggregation_id,
activation_id) and a connection tensor of shape (max_conns, 4) with columns
(in_key, out_key, enabled, weight).  A padding row is all-NaN; a live row has
no NaN anywhere.  Removal leaves NaN holes in place and addition fills the
first hole, so row indices of untouched genes are stable across edits.

A population stores only the first rows of that capacity, its stored width:
every row live in any genome plus the rows one round of mutation can fill,
capped at the capacity.  The rows past it are padding in every genome, so
``PopulationTensors.genome`` restores the full (max_nodes, 5) and
(max_conns, 4) shapes by appending NaN rows.  The capacity stays the bound
on live rows and the stride of every per-row random draw.

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
                     ProtectedNode, ShapeMismatch)
from .functions import ACTIVATIONS, AGGREGATIONS
from .rng import RngStream
from .search import PAIR_SHIFT

# node tensor columns
NODE_KEY, NODE_BIAS, NODE_RESPONSE, NODE_AGG, NODE_ACT = range(5)
# connection tensor columns
CONN_IN, CONN_OUT, CONN_ENABLED, CONN_WEIGHT = range(4)

NODE_ATTRS = 4   # bias, response, aggregation_id, activation_id
CONN_ATTRS = 2   # enabled, weight

# rows one round of mutation can fill: one node row, and two connection rows
# for node addition plus one for connection addition
NODE_HEADROOM = 1
CONN_HEADROOM = 3


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
    """Genome tensors stacked along a population axis, at a stored width.

    ``nodes`` and ``conns`` hold the first rows of each genome's tensors, up
    to ``max_nodes`` and ``max_conns``, the capacity; the rows past them are
    padding.  The capacity defaults to the stored widths, a population held
    at full capacity.  ``genome`` pads one genome back to the capacity.
    """
    nodes: np.ndarray       # (P, stored node rows, 5)
    conns: np.ndarray       # (P, stored connection rows, 4)
    num_inputs: int
    num_outputs: int
    max_nodes: int | None = None
    max_conns: int | None = None

    def __post_init__(self):
        if self.max_nodes is None:
            self.max_nodes = self.nodes.shape[1]
        if self.max_conns is None:
            self.max_conns = self.conns.shape[1]
        if self.nodes.shape[1] > self.max_nodes or self.conns.shape[1] > self.max_conns:
            raise ShapeMismatch(
                f"stored widths {self.nodes.shape[1]}/{self.conns.shape[1]} exceed the "
                f"capacity {self.max_nodes}/{self.max_conns}")

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def genome(self, index: int) -> GenomeTensors:
        return GenomeTensors(with_rows(self.nodes[index], self.max_nodes),
                             with_rows(self.conns[index], self.max_conns),
                             self.num_inputs, self.num_outputs)

    @classmethod
    def from_genomes(cls, genomes: list[GenomeTensors]) -> "PopulationTensors":
        if not genomes:
            raise ShapeMismatch("population must be non-empty")
        first = genomes[0]
        for g in genomes[1:]:
            if (g.nodes.shape != first.nodes.shape or g.conns.shape != first.conns.shape
                    or g.num_inputs != first.num_inputs or g.num_outputs != first.num_outputs):
                raise ShapeMismatch("genomes disagree on tensor shapes or I/O counts")
        return cls(nodes=np.stack([g.nodes for g in genomes]),
                   conns=np.stack([g.conns for g in genomes]),
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
    """Node/connection tensors for freshly initialized genomes, at the stored width.

    ``rng`` may be a batched stream; leading dimensions of the result follow
    its batch shape.  Attribute draws take their cells from fixed-size grids
    over the full capacity, so batched and single-genome initialization
    consume identical counters; only the cells of live genes are computed.
    """
    n_in, n_out = config.inputs, config.outputs
    n_io = n_in + n_out
    n_full = n_in * n_out
    batch = rng.batch_shape
    streams = math.prod(batch)

    def draw(width: int, cells: int, mean: float, std: float) -> np.ndarray:
        # cells 0..cells-1 of every stream's row of the grid normals(width) returns
        normals = rng.normals_at(width, np.arange(streams)[:, None], np.arange(cells))
        return (mean + std * normals).reshape(batch + (cells,))

    bias = draw(config.max_nodes, n_io, config.bias_init_mean, config.bias_init_std)
    response = draw(config.max_nodes, n_io, config.response_init_mean,
                    config.response_init_std)
    weight = draw(config.max_conns, n_full, config.weight_init_mean, config.weight_init_std)

    nodes = np.full(batch + (min(config.max_nodes, n_io + NODE_HEADROOM), 5), np.nan)
    nodes[..., :n_io, NODE_KEY] = np.arange(n_io, dtype=np.float64)
    nodes[..., :n_io, NODE_BIAS] = bias
    nodes[..., :n_io, NODE_RESPONSE] = response
    nodes[..., :n_io, NODE_AGG] = float(config.aggregation_default_id)
    nodes[..., :n_io, NODE_ACT] = float(config.activation_default_id)

    in_keys = np.repeat(np.arange(n_in, dtype=np.float64), n_out)
    out_keys = np.tile(np.arange(n_in, n_io, dtype=np.float64), n_in)
    conns = np.full(batch + (min(config.max_conns, n_full + CONN_HEADROOM), 4), np.nan)
    conns[..., :n_full, CONN_IN] = in_keys
    conns[..., :n_full, CONN_OUT] = out_keys
    conns[..., :n_full, CONN_ENABLED] = 1.0
    conns[..., :n_full, CONN_WEIGHT] = weight
    return nodes, conns


def init_genome(config: NeatConfig, rng: RngStream) -> GenomeTensors:
    """Fresh genome: inputs and outputs fully connected, the rest padding."""
    nodes, conns = init_arrays(config, rng)
    return GenomeTensors(with_rows(nodes, config.max_nodes), with_rows(conns, config.max_conns),
                         config.inputs, config.outputs)


# ---------------------------------------------------------------------------
# row helpers
# ---------------------------------------------------------------------------

def occupied(keys: np.ndarray) -> int:
    """1 + the last row live in any genome of a (P, rows) key column, or 0.

    Kernels compute on this prefix of the capacity.  Addition fills the
    first free row, so a kernel that adds k genes to a genome writes inside
    the first ``occupied + k`` rows.
    """
    rows = np.flatnonzero(~np.isnan(keys).all(axis=0))
    return int(rows[-1]) + 1 if rows.size else 0


def stored_width(block: np.ndarray, capacity: int, headroom: int) -> int:
    """The width that holds every row live in any genome of a (P, rows, k) node or
    connection ``block`` plus ``headroom`` rows, capped at ``capacity``."""
    return min(capacity, occupied(block[:, :, 0]) + headroom)  # NODE_KEY, CONN_IN


def with_rows(block: np.ndarray, rows: int) -> np.ndarray:
    """A new (..., rows, k) array: the first rows of (..., w, k) ``block``, NaN past w."""
    out = np.full(block.shape[:-2] + (rows, block.shape[-1]), np.nan)
    kept = min(rows, block.shape[-2])
    out[..., :kept, :] = block[..., :kept, :]
    return out


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
    _check_node_genes(row.as_array()[None], IntegrityError)
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
    _check_conn_genes(row.as_array()[None], IntegrityError)
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
    _check_node_genes(nodes[target:target + 1], IntegrityError)
    return GenomeTensors(nodes, genome.conns.copy(), genome.num_inputs, genome.num_outputs)


def set_conn_attr(genome: GenomeTensors, in_key: int, out_key: int,
                  attr_index: int, value: float) -> GenomeTensors:
    """Overwrite one connection attribute cell (0=enabled, 1=weight)."""
    if not 0 <= attr_index < CONN_ATTRS:
        raise BadAttrIndex(f"connection attribute index must be 0..{CONN_ATTRS - 1}, got {attr_index}")
    target = _conn_row(genome, float(in_key), float(out_key))
    conns = genome.conns.copy()
    conns[target, 2 + attr_index] = float(value)
    _check_conn_genes(conns[target:target + 1], IntegrityError)
    return GenomeTensors(genome.nodes.copy(), conns, genome.num_inputs, genome.num_outputs)


def count_live(genome: GenomeTensors) -> tuple[int, int]:
    """(live node rows, live connection rows)."""
    nodes = int((~np.isnan(genome.nodes).all(axis=1)).sum())
    conns = int((~np.isnan(genome.conns).all(axis=1)).sum())
    return nodes, conns


# ---------------------------------------------------------------------------
# integrity checking
# ---------------------------------------------------------------------------

def _refuse(bad: np.ndarray, message: str, exc: type[Exception], name: str | None = None,
            values: np.ndarray | None = None) -> None:
    """Raise ``exc`` for the first True entry of ``bad`` (P, ...), lowest genome first.

    ``message`` is a format string of the entry's ``values`` if given, and
    ``name`` begins it with ``"{name} {p}: "`` for the entry's genome p.
    """
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        text = message if values is None else message.format(values[at])
        raise exc(text if name is None else f"{name} {at[0]}: {text}")


def _check_node_genes(genes: np.ndarray, exc: type[Exception], name: str | None = None,
                      live=True) -> None:
    """Raise ``exc`` unless every ``live`` row of (..., 5) ``genes`` holds finite
    numbers, a valid key and known codes."""
    _refuse(live & ~np.isfinite(genes).all(axis=-1), "a live node row must hold finite numbers",
            exc, name)
    keys = genes[..., NODE_KEY]
    _refuse(live & ((keys < 0) | (keys != np.floor(keys))),
            "node keys must be non-negative integers", exc, name)
    _refuse(live & (keys >= PAIR_SHIFT), f"node keys must stay below {int(PAIR_SHIFT)} (2**26), "
            "where connection pair codes stop being exact", exc, name)
    for col, table, kind in ((NODE_AGG, AGGREGATIONS, "aggregation"),
                             (NODE_ACT, ACTIVATIONS, "activation")):
        _refuse(live & ~np.isin(genes[..., col], list(table)),
                f"{kind} code {{:g}} is not one of {sorted(table)}", exc, name, genes[..., col])


def _check_conn_genes(genes: np.ndarray, exc: type[Exception], name: str | None = None,
                      live=True) -> None:
    """Raise ``exc`` unless every ``live`` row of (..., 4) ``genes`` holds finite
    numbers and a 0/1 flag."""
    _refuse(live & ~np.isfinite(genes).all(axis=-1),
            "a live connection row must hold finite numbers", exc, name)
    enabled = genes[..., CONN_ENABLED]
    _refuse(live & (enabled != 0.0) & (enabled != 1.0), "enabled flags must be 0.0 or 1.0",
            exc, name)


def check_integrity(genome: GenomeTensors, exc: type[Exception] = IntegrityError) -> None:
    """Raise ``exc`` if the genome violates a structural invariant."""
    nodes, conns = genome.nodes, genome.conns
    if nodes.ndim != 2 or nodes.shape[1] != 5:
        raise exc(f"node tensor must have shape (max_nodes, 5), got {nodes.shape}")
    if conns.ndim != 2 or conns.shape[1] != 4:
        raise exc(f"connection tensor must have shape (max_conns, 4), got {conns.shape}")
    check_blocks(nodes[None], conns[None], genome.num_inputs, genome.num_outputs, exc)


def check_blocks(nodes: np.ndarray, conns: np.ndarray, num_inputs: int, num_outputs: int,
                 exc: type[Exception] = IntegrityError, name: str | None = None) -> None:
    """``check_integrity`` of every genome of (P, node rows, 5) and (P, connection
    rows, 4) blocks, one array pass per rule; ``name`` names the first genome that
    breaks it."""
    for kind, tensor in (("node", nodes), ("connection", conns)):
        nan = np.isnan(tensor)
        # an or-loop over the columns: numpy reduces a 4- or 5-wide last axis slowly
        mixed = nan[:, :, 1] != nan[:, :, 0]
        for col in range(2, tensor.shape[2]):
            mixed |= nan[:, :, col] != nan[:, :, 0]
        _refuse(mixed, f"{kind} row {{}} mixes NaN and live entries",
                exc, name, np.broadcast_to(np.arange(tensor.shape[1]), nan.shape[:2]))
    # rows past the last live one are padding now, so the rules read the prefix
    nodes = nodes[:, :occupied(nodes[:, :, NODE_KEY])]
    conns = conns[:, :occupied(conns[:, :, CONN_IN])]

    live = ~np.isnan(nodes[:, :, NODE_KEY])
    _check_node_genes(nodes, exc, name, live)
    keys = np.sort(nodes[:, :, NODE_KEY], axis=1)  # NaN padding sorts last and equals nothing
    _refuse(keys[:, 1:] == keys[:, :-1], "live node keys must be pairwise distinct", exc, name)
    io = np.arange(num_inputs + num_outputs)
    missing = ~(keys[:, :, None] == io).any(axis=1)
    _refuse(missing, "input or output node key {} is missing", exc, name,
            np.broadcast_to(io, missing.shape))

    # endpoints as genome * PAIR_SHIFT + key codes, exact for keys below PAIR_SHIFT
    genome = np.arange(len(nodes))[:, None] * PAIR_SHIFT
    node_codes = (genome + nodes[:, :, NODE_KEY])[live]
    live = ~np.isnan(conns[:, :, CONN_IN])
    for col, end in ((CONN_IN, "in_key"), (CONN_OUT, "out_key")):
        ends = conns[:, :, col]
        codes = np.where((ends >= 0) & (ends < PAIR_SHIFT), genome + ends, -1.0)
        _refuse(live & ~np.isin(codes, node_codes),
                f"connection {end} {{:g}} does not refer to a live node", exc, name, ends)
    pairs = np.sort(conns[:, :, CONN_IN] * PAIR_SHIFT + conns[:, :, CONN_OUT], axis=1)
    _refuse(pairs[:, 1:] == pairs[:, :-1], "live connection key pairs must be pairwise distinct",
            exc, name)
    _check_conn_genes(conns, exc, name, live)


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
