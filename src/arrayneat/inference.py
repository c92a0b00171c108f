"""Two-phase feedforward inference over genome tensors.

Phase one (transform) orders each genome's live node rows topologically with
Kahn's algorithm and compiles the order into a *sweep*.  It works on the
batch's occupied prefix: the connection rows up to the last one live in any
genome, and a node width ``n`` that covers every live node row (the occupied
rows rounded up to a multiple of 8, see ``transform_arrays``).  Per genome,
the live non-input rows are taken in that order and left-packed into ``S``
columns, where ``S`` is the largest such count in the population.  Column ``s`` holds, for every genome, the row of
its s-th computed node and that node's incoming weights as one contiguous
row of width ``n`` (NaN where no enabled edge exists).  A genome with fewer
than ``S`` computed nodes writes its spare columns to a scratch cell past the
node values.  Everything forward needs per column - node attributes, the
aggregation and activation codes present, their masks - is computed once
here, not on every forward call, and the flat buffer positions forward
writes are computed once per stack and batch size (``flat_index``).

Phase two (forward) walks the ``S`` columns.  Each multiplies its incoming
weight rows by the contiguous node-value tensor, aggregates over the
width-n axis, applies activation(bias + response * aggregated), and writes
the result to its node rows.

Both phases are written against a leading population axis, and there is one
network type: ``population_transform`` returns the ``StackedNetworks`` of a
population, and ``transform`` returns the ``StackedNetworks`` of one genome,
which ``forward`` and ``forward_batch`` run through the same kernels as a
population of one.  Elementwise
numpy operations are position-independent, and the width-n reduction of a
zero-padded row has the same bits whatever ``n`` the batch chose, so a
genome's results are bitwise identical whether it is evaluated alone, inside
a batch, inside a chunk of a batch, or inside a subset taken with
``StackedNetworks.take``.
That is what makes batched and per-genome evaluation agree exactly and lets
callers parallelize over population chunks without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CycleDetected, InvalidInput
from .functions import ACTIVATIONS, DEFAULT_REGISTRY, FunctionRegistry
from .genome import (CONN_ENABLED, CONN_IN, CONN_OUT, CONN_WEIGHT, NODE_ACT,
                     NODE_AGG, NODE_BIAS, NODE_KEY, NODE_RESPONSE,
                     GenomeTensors, PopulationTensors, occupied)
from .search import bitset_members, bitsets, rows_of_io_keys


@dataclass(frozen=True, eq=False)
class _SweepColumn:
    """One column of the sweep, with the per-genome data forward reads."""
    weights: np.ndarray   # (P, 1, n) incoming weights of the node computed here
    edges: np.ndarray     # (P, 1, n) True where an enabled edge exists
    empty: np.ndarray     # (P, 1) True where the node has no incoming edge
    bias: np.ndarray      # (P, 1)
    response: np.ndarray  # (P, 1)
    aggregations: tuple   # (code, (P, 1) mask) per aggregation code among its nodes
    activations: tuple    # (code, (P, 1) mask) per activation code among its nodes


@dataclass(frozen=True, eq=False)
class _FlatIndex:
    """Where forward reads and writes in its flat value buffer, for one batch size.

    The buffer holds a (P, B, n) block of node values followed by one scratch
    cell, so position ``(p * B + b) * n + row`` is node ``row`` of genome p at
    batch row b.  The arrays are read-only: stacks may be shared across threads.
    """
    inputs: np.ndarray   # (P, B, I) input row positions
    columns: np.ndarray  # (S, P * B) node row positions per sweep column, scratch if none
    outputs: np.ndarray  # (P, B, O) output row positions


def _codes_by_column(codes: np.ndarray, active: np.ndarray) -> list[tuple]:
    """Per column of (P, S) ``codes``: (code, (P, 1) mask) per code its active genomes use."""
    # sorted(set()) rather than np.unique, which imports numpy.ma on first use
    present = sorted(set(codes[active].tolist()))
    masks = [active & (codes == code) for code in present]
    used = [mask.any(axis=0).tolist() for mask in masks]
    return [tuple((code, mask[:, s, None])
                  for code, mask, in_column in zip(present, masks, used) if in_column[s])
            for s in range(codes.shape[1])]


@dataclass(eq=False)
class StackedNetworks:
    """Transformed networks as stacked arrays, one per genome; a single
    transformed genome is a stack of one.

    The node axis has the transform's node width ``n``, which covers every
    live node row of the batch and may be less than the capacity.  The sweep
    is ``sweep_rows`` and ``sweep_weights``: ``sweep_rows[p, s]`` is the
    node row genome p computes at column s, or n where p has fewer than S
    non-input live nodes.  ``sweep_weights[p, s, j]`` is the weight of
    the enabled edge from node row j into that node, so one node's incoming
    weights are a contiguous row.  ``columns`` is derived from these when the
    stack is built, and ``flat_index`` keeps forward's buffer positions per
    batch size once computed.
    """
    nodes: np.ndarray          # (P, n, 5)
    order: np.ndarray          # (P, n) topological order of live rows, NaN padded
    input_rows: np.ndarray     # (P, I)
    output_rows: np.ndarray    # (P, O)
    sweep_rows: np.ndarray     # (P, S) int64 node row per column, n if none
    sweep_weights: np.ndarray  # (P, S, n) weight of enabled edge row j -> that row
    columns: tuple[_SweepColumn, ...] = field(init=False, repr=False)
    _flat_indices: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        pop, n = self.order.shape
        active = self.sweep_rows < n
        # a genome with no node in a column computes act(0 + 0 * 0) into the scratch cell
        node = np.where(active[:, :, None],
                        self.nodes[np.arange(pop)[:, None], np.minimum(self.sweep_rows, n - 1)],
                        0.0)
        aggregations = _codes_by_column(node[:, :, NODE_AGG], active)
        activations = _codes_by_column(node[:, :, NODE_ACT], active)
        # column-major copies, so that every (P, ...) array forward reads per column
        # is contiguous; the weights from _compile are column-major already
        bias = np.ascontiguousarray(node[:, :, NODE_BIAS].T)
        response = np.ascontiguousarray(node[:, :, NODE_RESPONSE].T)
        weights = np.ascontiguousarray(self.sweep_weights.transpose(1, 0, 2))
        edges = ~np.isnan(weights)
        empty = ~edges.any(axis=-1)
        self.columns = tuple(
            _SweepColumn(weights=weights[s, :, None], edges=edges[s, :, None],
                         empty=empty[s, :, None], bias=bias[s, :, None],
                         response=response[s, :, None],
                         aggregations=aggregations[s], activations=activations[s])
            for s in range(self.sweep_rows.shape[1]))

    @property
    def size(self) -> int:
        return self.order.shape[0]

    def flat_index(self, batch: int) -> _FlatIndex:
        """Forward's buffer positions at ``batch`` rows per genome, computed once per size."""
        index = self._flat_indices.get(batch)
        if index is None:
            pop, n = self.order.shape
            scratch = pop * batch * n
            cells = np.arange(0, scratch, n).reshape(pop, batch, 1)
            rows = np.ascontiguousarray(self.sweep_rows.T)[:, :, None]
            columns = np.where(rows < n, cells[:, :, 0] + rows, scratch)
            index = _FlatIndex(cells + self.input_rows[:, None, :],
                               columns.reshape(len(columns), pop * batch),
                               cells + self.output_rows[:, None, :])
            for array in (index.inputs, index.columns, index.outputs):
                array.flags.writeable = False
            self._flat_indices[batch] = index  # equal on every thread, so a race is harmless
        return index

    def take(self, idx: np.ndarray) -> "StackedNetworks":
        """The networks at ``idx``; sweep columns none of them computes are dropped."""
        rows = self.sweep_rows[idx]
        width = int((rows < self.order.shape[1]).sum(axis=1).max(initial=0))
        return StackedNetworks(self.nodes[idx], self.order[idx], self.input_rows[idx],
                               self.output_rows[idx], rows[:, :width],
                               self.sweep_weights[idx, :width])


def _compile(nodes: np.ndarray, order: np.ndarray, input_rows: np.ndarray,
             output_rows: np.ndarray, genome: np.ndarray, src: np.ndarray,
             dst: np.ndarray, weight: np.ndarray) -> StackedNetworks:
    """Stack networks given their order and enabled edges ``genome: src -> dst``.

    Left-packs each genome's non-input order entries into sweep columns and
    scatters every edge into the incoming row of its destination's column.
    Edges into rows outside the sweep (input rows) are dropped.
    """
    pop, n = order.shape
    live = ~np.isnan(order)
    rows = np.where(live, order, 0.0).astype(np.int64)
    genomes = np.arange(pop)[:, None]
    is_input = np.zeros((pop, n), dtype=bool)
    is_input[genomes, input_rows] = True
    computes = live & ~is_input[genomes, rows]
    column = np.cumsum(computes, axis=1) - 1
    width = int(column[:, -1].max(initial=-1)) + 1
    gm, sm = np.nonzero(computes)
    sweep_rows = np.full((pop, width), n, dtype=np.int64)
    sweep_rows[gm, column[gm, sm]] = rows[gm, sm]

    column_of_row = np.full((pop, n), width, dtype=np.int64)
    column_of_row[gm, rows[gm, sm]] = column[gm, sm]
    dst_column = column_of_row[genome, dst]
    kept = dst_column < width
    # (P, S, n) indexing over column-major memory, so each column's weights are contiguous
    sweep_weights = np.full((width, pop, n), np.nan).transpose(1, 0, 2)
    sweep_weights[genome[kept], dst_column[kept], src[kept]] = weight[kept]
    return StackedNetworks(nodes, order, input_rows, output_rows, sweep_rows, sweep_weights)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def transform_arrays(nodes: np.ndarray, conns: np.ndarray,
                     num_inputs: int, num_outputs: int) -> tuple[StackedNetworks, np.ndarray]:
    """Kahn's algorithm over every genome at once, compiled into the sweep.

    Ties break toward the smallest node row index, which makes the order (and
    therefore every later floating-point sweep) deterministic.  Connections
    are read up to the last row live in any genome, and nodes up to a width
    that covers every live row, which is also the node width of the returned
    stack.  Successor sets are bitsets of ``ceil(width / 64)`` words, so one
    code path serves every node capacity.  Returns the stacked networks plus
    the indices of genomes whose enabled connections contain a cycle (their
    order is left incomplete).
    """
    pop, capacity, _ = nodes.shape
    # the node width that forward reduces over: the occupied rows rounded up to
    # a multiple of 8.  numpy sums up to 128 elements pairwise in 8 lanes, so a
    # zero-padded row then sums to the bits of the capacity-wide sum, whatever
    # batch the genome is in.  Above 128 it sums in halves, so wider
    # capacities keep their full width.
    rounded = -(-occupied(nodes[:, :, NODE_KEY]) // 8) * 8
    n = capacity if capacity > 128 else min(capacity, rounded)
    nodes = nodes[:, :n]
    conns = conns[:, :occupied(conns[:, :, CONN_IN])]
    keys = nodes[:, :, NODE_KEY]
    live_node = ~np.isnan(keys)
    enabled = ~np.isnan(conns[:, :, CONN_IN]) & (conns[:, :, CONN_ENABLED] == 1.0)

    # endpoint keys and fixed input/output keys -> node row positions
    c = conns.shape[1]
    io = num_inputs + num_outputs
    queries = np.concatenate(
        [conns[:, :, CONN_IN], conns[:, :, CONN_OUT],
         np.broadcast_to(np.arange(io, dtype=np.float64), (pop, io))], axis=1)
    resolved, _ = rows_of_io_keys(queries, keys, io)
    io_rows = resolved[:, 2 * c:]

    pm, rm = np.nonzero(enabled)
    src_sel = resolved[pm, rm]
    dst_sel = resolved[pm, c + rm]

    indegree = np.zeros((pop, n), dtype=np.int64)
    np.add.at(indegree, (pm, dst_sel), 1)
    # successor sets as bitsets, so Kahn's decrement is one unpack per step
    successors = bitsets((pop, n), n, (pm, src_sel), dst_sel)

    genome_rows = np.arange(pop)
    order = np.full((pop, n), np.nan)
    remaining = live_node.copy()
    for step in range(n):
        ready = remaining & (indegree == 0)
        has_ready = ready.any(axis=1)
        if not has_ready.any():
            break
        pick = ready.argmax(axis=1)
        order[has_ready, step] = pick[has_ready]
        remaining[has_ready, pick[has_ready]] = False
        picked = np.where(has_ready[:, None], successors[genome_rows, pick], np.uint64(0))
        indegree -= bitset_members(picked, n)

    cyclic = np.nonzero(remaining.any(axis=1))[0]

    return _compile(nodes, order, io_rows[:, :num_inputs], io_rows[:, num_inputs:],
                    pm, src_sel, dst_sel, conns[pm, rm, CONN_WEIGHT]), cyclic


def transform(genome: GenomeTensors) -> StackedNetworks:
    """Transform one genome into a stack of one; raises CycleDetected on an enabled cycle."""
    stacked, cyclic = transform_arrays(genome.nodes[None], genome.conns[None],
                                       genome.num_inputs, genome.num_outputs)
    if cyclic.size:
        raise CycleDetected("enabled connections contain a directed cycle")
    return stacked


def population_transform(pop: PopulationTensors) -> StackedNetworks:
    """Transform every genome; aggregates per-genome cycle failures."""
    stacked, cyclic = transform_arrays(pop.nodes, pop.conns, pop.num_inputs, pop.num_outputs)
    if cyclic.size:
        raise CycleDetected(
            f"enabled connections contain a directed cycle in genomes {cyclic.tolist()}",
            genome_indices=cyclic.tolist())
    return stacked


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def forward_arrays(stacked: StackedNetworks, registry: FunctionRegistry,
                   inputs: np.ndarray) -> np.ndarray:
    """Batched node-value sweep: inputs (P, B, I) -> outputs (P, B, O).

    Node values live in a flat buffer initialized to NaN: a contiguous
    (P, B, n) block, where n is the stack's node width, then the scratch cell
    (see ``StackedNetworks.flat_index``).  Each sweep column multiplies its
    incoming weight rows by the node values, aggregates with each node's
    aggregation function (empty aggregation is 0), and writes
    activation(bias + response * aggregated) to its node rows.
    """
    pop, n = stacked.order.shape
    batch = inputs.shape[1]
    index = stacked.flat_index(batch)

    flat = np.empty(pop * batch * n + 1)
    flat.fill(np.nan)
    flat[index.inputs] = inputs
    sources = flat[:-1].reshape(pop, batch, n)

    weighted = np.empty((pop, batch, n))
    for column, rows in zip(stacked.columns, index.columns):
        np.multiply(column.weights, sources, out=weighted)

        agg_codes = column.aggregations
        if len(agg_codes) == 1 and agg_codes[0][0] == 0:
            # pure-sum column: weighted is NaN exactly where no edge exists, so
            # zeroing NaNs in place (as nansum does in a copy) and summing
            # equals the registry's masked sum bit for bit
            weighted[np.isnan(weighted)] = 0.0
            aggregated = np.add.reduce(weighted, axis=-1)
        else:
            if len(agg_codes) == 1:
                aggregated = registry.aggregation(agg_codes[0][0])(weighted, column.edges)
            else:
                aggregated = np.zeros((pop, batch))
                for code, mask in agg_codes:
                    result = registry.aggregation(code)(weighted, column.edges)
                    aggregated = np.where(mask, result, aggregated)
            # aggregation over the empty set is 0 regardless of the function
            aggregated = np.where(column.empty, 0.0, aggregated)

        pre = column.bias + column.response * aggregated

        act_codes = column.activations
        if len(act_codes) == 1:
            out = registry.activation(act_codes[0][0])(pre)
        else:
            out = np.zeros((pop, batch))
            for code, mask in act_codes:
                out = np.where(mask, registry.activation(code)(pre), out)

        flat[rows] = out.reshape(-1)

    return flat[index.outputs]


def _check_inputs(arr: np.ndarray, num_inputs: int) -> None:
    if arr.shape[-1] != num_inputs:
        raise InvalidInput(f"expected input length {num_inputs}, got {arr.shape[-1]}")
    if np.isnan(arr).any():
        raise InvalidInput("input contains NaN")


def _check_single(stacked: StackedNetworks) -> None:
    if stacked.size != 1:
        raise InvalidInput(f"expected a single network, got a stack of {stacked.size}")


def forward(stacked: StackedNetworks, inputs) -> np.ndarray:
    """Single input vector (I,) -> output vector (O,) of a stack of one."""
    _check_single(stacked)
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInput(f"expected a 1-D input vector, got shape {arr.shape}")
    _check_inputs(arr, stacked.input_rows.shape[1])
    return forward_arrays(stacked, DEFAULT_REGISTRY, arr[None, None, :])[0, 0]


def forward_batch(stacked: StackedNetworks, inputs) -> np.ndarray:
    """Input matrix (B, I) -> output matrix (B, O) of a stack of one."""
    _check_single(stacked)
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInput(f"expected a (B, I) input matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InvalidInput("batch must contain at least one row")
    _check_inputs(arr, stacked.input_rows.shape[1])
    return forward_arrays(stacked, DEFAULT_REGISTRY, arr[None])[0]


def population_forward(stacked: StackedNetworks, inputs) -> np.ndarray:
    """Per-genome inputs (P, I) or (P, B, I) -> per-genome outputs.

    Elementwise equal (bitwise) to mapping forward over the genomes.
    """
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise InvalidInput(f"expected (P, I) or (P, B, I) inputs, got shape {arr.shape}")
    if arr.shape[0] != stacked.size:
        raise InvalidInput(f"expected inputs for {stacked.size} networks, got {arr.shape[0]}")
    _check_inputs(arr, stacked.input_rows.shape[1])
    if arr.ndim == 2:
        return forward_arrays(stacked, DEFAULT_REGISTRY, arr[:, None, :])[:, 0, :]
    return forward_arrays(stacked, DEFAULT_REGISTRY, arr)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def to_dot(genome: GenomeTensors) -> str:
    """Graphviz rendering: nodes labeled key/bias/activation, disabled edges dashed."""
    lines = ["digraph genome {", "  rankdir=LR;"]
    n_in, n_out = genome.num_inputs, genome.num_outputs
    for row in genome.nodes:
        if np.isnan(row[NODE_KEY]):
            continue
        key = int(row[NODE_KEY])
        act_name = ACTIVATIONS.get(int(row[NODE_ACT]), ("?",))[0]
        shape = ("box" if key < n_in else
                 "doublecircle" if key < n_in + n_out else "circle")
        lines.append(f'  n{key} [shape={shape}, '
                     f'label="{key}\\nb={row[NODE_BIAS]:.3f}\\n{act_name}"];')
    for row in genome.conns:
        if np.isnan(row[CONN_IN]):
            continue
        style = ', style=dashed' if row[CONN_ENABLED] == 0.0 else ''
        lines.append(f'  n{int(row[CONN_IN])} -> n{int(row[CONN_OUT])} '
                     f'[label="{row[CONN_WEIGHT]:.3f}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
