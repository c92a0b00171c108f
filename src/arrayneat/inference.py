"""Two-phase feedforward inference over genome tensors.

Phase one (transform) orders each genome's live node rows topologically with
Kahn's algorithm and compiles the order into a *sweep*.  Per genome, the live
non-input rows are taken in that order and left-packed into ``S`` columns,
where ``S`` is the largest such count in the population.  Column ``s`` holds,
for every genome, the row of its s-th computed node and that node's incoming
weights as one contiguous row of width ``max_nodes`` (NaN where no enabled
edge exists).  A genome with fewer than ``S`` computed nodes writes its spare
columns to a scratch row past the last node row.  Everything forward needs
per column - node attributes, the aggregation and activation codes present,
their masks - is computed once here, not on every forward call.

Phase two (forward) walks the ``S`` columns.  Each multiplies its incoming
weight rows by the node-value tensor, aggregates over the full width-n axis,
applies activation(bias + response * aggregated), and writes the result to
its node rows.

Both phases are written against a leading population axis; the single-genome
entry points run the same kernels with a population of one.  Elementwise
numpy operations are position-independent, and every node is reduced over
the same contiguous width-n axis whatever the batch, so a genome's results
are bitwise identical whether it is evaluated alone, inside a batch, inside a
chunk of a batch, or inside a subset taken with ``StackedNetworks.take``.
That is what makes batched and per-genome evaluation agree exactly and lets
callers parallelize over population chunks without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CycleDetected, InvalidInput
from .functions import DEFAULT_REGISTRY, FunctionRegistry
from .genome import (CONN_ENABLED, CONN_IN, CONN_OUT, CONN_WEIGHT, NODE_ACT,
                     NODE_AGG, NODE_BIAS, NODE_KEY, NODE_RESPONSE,
                     GenomeTensors, PopulationTensors)
from .search import rows_of_io_keys


@dataclass(frozen=True, eq=False)
class TransformedNetwork:
    """Inference-ready form of one genome.

    ``order`` lists live node ROW indices in topological order, NaN padded.
    ``conns_expanded[i, j, 0]`` is the weight of the enabled connection from
    the node in row i to the node in row j, else NaN.  Rows are the key map:
    keys are unbounded, row positions are bounded by max_nodes.  Connections
    into input nodes are NaN here too: forward never computes an input node,
    so the sweep does not keep its incoming weights.  ``sweep`` is the network
    compiled as a ``StackedNetworks`` of one; ``forward`` and ``forward_batch``
    compile it on their first call and reuse it after.
    """
    nodes: np.ndarray           # (max_nodes, 5), the genome's node tensor
    order: np.ndarray           # (max_nodes,) float64 row indices, NaN padded
    conns_expanded: np.ndarray  # (max_nodes, max_nodes, 1) weight channel
    input_rows: np.ndarray      # (I,) int64 row positions of keys 0..I-1
    output_rows: np.ndarray     # (O,) int64 row positions of keys I..I+O-1

    @cached_property
    def sweep(self) -> "StackedNetworks":
        """This network as a stack of one, compiled on first use."""
        return StackedNetworks.from_networks([self])


@dataclass(frozen=True, eq=False)
class _SweepColumn:
    """One column of the sweep, with the per-genome data forward reads."""
    rows: np.ndarray      # (P,) node row written; n (scratch) if the genome has none here
    weights: np.ndarray   # (P, 1, n) incoming weights of that node
    edges: np.ndarray     # (P, 1, n) True where an enabled edge exists
    empty: np.ndarray     # (P, 1) True where the node has no incoming edge
    bias: np.ndarray      # (P, 1)
    response: np.ndarray  # (P, 1)
    aggregations: tuple   # (code, (P, 1) mask) per aggregation code among its nodes
    activations: tuple    # (code, (P, 1) mask) per activation code among its nodes


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
    """Population of transformed networks as stacked arrays (one per genome).

    The sweep is ``sweep_rows`` and ``sweep_weights``: ``sweep_rows[p, s]``
    is the node row genome p computes at column s, or n where p has fewer
    than S non-input live nodes.  ``sweep_weights[p, s, j]`` is the weight of
    the enabled edge from node row j into that node, so one node's incoming
    weights are a contiguous row.  ``columns`` is derived from these when the
    stack is built.
    """
    nodes: np.ndarray          # (P, n, 5)
    order: np.ndarray          # (P, n) topological order of live rows, NaN padded
    input_rows: np.ndarray     # (P, I)
    output_rows: np.ndarray    # (P, O)
    sweep_rows: np.ndarray     # (P, S) int64 node row per column, n if none
    sweep_weights: np.ndarray  # (P, S, n) weight of enabled edge row j -> that row
    columns: tuple[_SweepColumn, ...] = field(init=False, repr=False)

    def __post_init__(self):
        pop, n = self.order.shape
        active = self.sweep_rows < n
        # a genome with no node in a column computes act(0 + 0 * 0) into the scratch row
        node = np.where(active[:, :, None],
                        self.nodes[np.arange(pop)[:, None], np.minimum(self.sweep_rows, n - 1)],
                        0.0)
        edges = ~np.isnan(self.sweep_weights)
        empty = ~edges.any(axis=-1)
        aggregations = _codes_by_column(node[:, :, NODE_AGG], active)
        activations = _codes_by_column(node[:, :, NODE_ACT], active)
        self.columns = tuple(
            _SweepColumn(rows=self.sweep_rows[:, s], weights=self.sweep_weights[:, s, None],
                         edges=edges[:, s, None], empty=empty[:, s, None],
                         bias=node[:, s, NODE_BIAS, None],
                         response=node[:, s, NODE_RESPONSE, None],
                         aggregations=aggregations[s], activations=activations[s])
            for s in range(self.sweep_rows.shape[1]))

    @property
    def size(self) -> int:
        return self.order.shape[0]

    def take(self, idx: np.ndarray) -> "StackedNetworks":
        """The networks at ``idx``; sweep columns none of them computes are dropped."""
        rows = self.sweep_rows[idx]
        width = int((rows < self.order.shape[1]).sum(axis=1).max(initial=0))
        return StackedNetworks(self.nodes[idx], self.order[idx], self.input_rows[idx],
                               self.output_rows[idx], rows[:, :width],
                               self.sweep_weights[idx, :width])

    def genome_view(self, i: int) -> TransformedNetwork:
        n = self.order.shape[1]
        rows = self.sweep_rows[i]
        active = rows < n
        expanded = np.full((n, n), np.nan)
        expanded[:, rows[active]] = self.sweep_weights[i, active].T
        return TransformedNetwork(self.nodes[i], self.order[i], expanded[:, :, None],
                                  self.input_rows[i], self.output_rows[i])

    @classmethod
    def from_networks(cls, networks: list[TransformedNetwork]) -> "StackedNetworks":
        expanded = np.stack([t.conns_expanded[:, :, 0] for t in networks])
        genome, src, dst = np.nonzero(~np.isnan(expanded))
        return _compile(np.stack([t.nodes for t in networks]),
                        np.stack([t.order for t in networks]),
                        np.stack([t.input_rows for t in networks]),
                        np.stack([t.output_rows for t in networks]),
                        genome, src, dst, expanded[genome, src, dst])


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
    sweep_weights = np.full((pop, width, n), np.nan)
    sweep_weights[genome[kept], dst_column[kept], src[kept]] = weight[kept]
    return StackedNetworks(nodes, order, input_rows, output_rows, sweep_rows, sweep_weights)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def transform_arrays(nodes: np.ndarray, conns: np.ndarray,
                     num_inputs: int, num_outputs: int) -> tuple[StackedNetworks, np.ndarray]:
    """Kahn's algorithm over every genome at once, compiled into the sweep.

    Ties break toward the smallest node row index, which makes the order (and
    therefore every later floating-point sweep) deterministic.  Returns the
    stacked networks plus the indices of genomes whose enabled connections
    contain a cycle (their order is left incomplete).
    """
    pop, n, _ = nodes.shape
    keys = nodes[:, :, NODE_KEY]
    live_node = ~np.isnan(keys)
    live_conn = ~np.isnan(conns[:, :, CONN_IN])
    enabled = live_conn & (conns[:, :, CONN_ENABLED] == 1.0)

    # endpoint keys and fixed input/output keys -> node row positions
    c = conns.shape[1]
    io = num_inputs + num_outputs
    queries = np.concatenate(
        [conns[:, :, CONN_IN], conns[:, :, CONN_OUT],
         np.broadcast_to(np.arange(io, dtype=np.float64), (pop, io))], axis=1)
    resolved, _ = rows_of_io_keys(queries, keys, io)
    in_row = resolved[:, :c]
    out_row = resolved[:, c:2 * c]
    io_rows = resolved[:, 2 * c:]

    pm, rm = np.nonzero(enabled)
    src_sel = in_row[pm, rm]
    dst_sel = out_row[pm, rm]

    indegree = np.zeros((pop, n), dtype=np.int64)
    np.add.at(indegree, (pm, dst_sel), 1)
    use_bitmasks = n <= 64
    if use_bitmasks:
        # successor sets as bitmasks so Kahn's decrement is two shifts per step
        successors = np.zeros((pop, n), dtype=np.uint64)
        np.bitwise_or.at(successors, (pm, src_sel),
                         np.uint64(1) << dst_sel.astype(np.uint64))
        bit_positions = np.arange(n, dtype=np.uint64)

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
        if use_bitmasks:
            picked_bits = np.where(has_ready, successors[genome_rows, pick], np.uint64(0))
            indegree -= ((picked_bits[:, None] >> bit_positions) & np.uint64(1)).astype(np.int64)
        else:
            out_edges = enabled & (in_row == pick[:, None]) & has_ready[:, None]
            em, ec = np.nonzero(out_edges)
            np.subtract.at(indegree, (em, out_row[em, ec]), 1)

    cyclic = np.nonzero(remaining.any(axis=1))[0]

    return _compile(nodes, order, io_rows[:, :num_inputs], io_rows[:, num_inputs:],
                    pm, src_sel, dst_sel, conns[pm, rm, CONN_WEIGHT]), cyclic


def transform(genome: GenomeTensors) -> TransformedNetwork:
    """Transform one genome; raises CycleDetected on an enabled cycle."""
    stacked, cyclic = transform_arrays(genome.nodes[None], genome.conns[None],
                                       genome.num_inputs, genome.num_outputs)
    if cyclic.size:
        raise CycleDetected("enabled connections contain a directed cycle")
    return stacked.genome_view(0)


def population_transform(pop: PopulationTensors) -> list[TransformedNetwork]:
    """Transform every genome; aggregates per-genome cycle failures."""
    stacked, cyclic = transform_arrays(pop.nodes, pop.conns, pop.num_inputs, pop.num_outputs)
    if cyclic.size:
        raise CycleDetected(
            f"enabled connections contain a directed cycle in genomes {cyclic.tolist()}",
            genome_indices=cyclic.tolist())
    return [stacked.genome_view(i) for i in range(stacked.size)]


def transform_population_stacked(pop: PopulationTensors) -> StackedNetworks:
    """Stacked-array variant used by the evolution loop and benchmarks."""
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

    Node values live in a (P, B, max_nodes + 1) tensor initialized to NaN;
    the last row is the scratch row.  Each sweep column multiplies its
    incoming weight rows by the node values, aggregates with each node's
    aggregation function (empty aggregation is 0), and writes
    activation(bias + response * aggregated) to its node rows.
    """
    pop, n = stacked.order.shape
    batch = inputs.shape[1]
    genomes = np.arange(pop)

    values = np.full((pop, batch, n + 1), np.nan)
    values[genomes[:, None], :, stacked.input_rows] = np.swapaxes(inputs, 1, 2)
    sources = values[:, :, :n]

    weighted = np.empty((pop, batch, n))
    for column in stacked.columns:
        np.multiply(column.weights, sources, out=weighted)

        agg_codes = [(code, mask) for code, mask in column.aggregations
                     if code in registry.aggregations]
        if len(agg_codes) == 1 and agg_codes[0][0] == 0:
            # pure-sum column: weighted is NaN exactly where no edge exists, so
            # zeroing NaNs in place (as nansum does in a copy) and summing
            # equals the registry's masked sum bit for bit
            np.copyto(weighted, 0.0, where=np.isnan(weighted))
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

        act_codes = [(code, mask) for code, mask in column.activations
                     if code in registry.activations]
        if len(act_codes) == 1:
            out = registry.activation(act_codes[0][0])(pre)
        else:
            out = np.zeros((pop, batch))
            for code, mask in act_codes:
                out = np.where(mask, registry.activation(code)(pre), out)

        values[genomes, :, column.rows] = out

    return np.swapaxes(values[genomes[:, None], :, stacked.output_rows], 1, 2).copy()


def _check_inputs(arr: np.ndarray, num_inputs: int) -> None:
    if arr.shape[-1] != num_inputs:
        raise InvalidInput(f"expected input length {num_inputs}, got {arr.shape[-1]}")
    if np.isnan(arr).any():
        raise InvalidInput("input contains NaN")


def forward(tn: TransformedNetwork, registry: FunctionRegistry | None = None,
            inputs=None) -> np.ndarray:
    """Single input vector (I,) -> output vector (O,)."""
    registry = registry or DEFAULT_REGISTRY
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInput(f"expected a 1-D input vector, got shape {arr.shape}")
    _check_inputs(arr, tn.input_rows.shape[0])
    return forward_arrays(tn.sweep, registry, arr[None, None, :])[0, 0]


def forward_batch(tn: TransformedNetwork, registry: FunctionRegistry | None = None,
                  inputs=None) -> np.ndarray:
    """Input matrix (B, I) -> output matrix (B, O), vectorized over the batch."""
    registry = registry or DEFAULT_REGISTRY
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInput(f"expected a (B, I) input matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InvalidInput("batch must contain at least one row")
    _check_inputs(arr, tn.input_rows.shape[0])
    return forward_arrays(tn.sweep, registry, arr[None])[0]


def population_forward(transformed, registry: FunctionRegistry | None = None,
                       inputs=None) -> np.ndarray:
    """Per-genome inputs (P, I) or (P, B, I) -> per-genome outputs.

    Elementwise equal (bitwise) to mapping forward over the genomes.
    """
    registry = registry or DEFAULT_REGISTRY
    stacked = transformed if isinstance(transformed, StackedNetworks) \
        else StackedNetworks.from_networks(list(transformed))
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim == 2:
        _check_inputs(arr, stacked.input_rows.shape[1])
        return forward_arrays(stacked, registry, arr[:, None, :])[:, 0, :]
    if arr.ndim == 3:
        _check_inputs(arr, stacked.input_rows.shape[1])
        return forward_arrays(stacked, registry, arr)
    raise InvalidInput(f"expected (P, I) or (P, B, I) inputs, got shape {arr.shape}")


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def to_dot(genome: GenomeTensors, registry: FunctionRegistry | None = None) -> str:
    """Graphviz rendering: nodes labeled key/bias/activation, disabled edges dashed."""
    registry = registry or DEFAULT_REGISTRY
    lines = ["digraph genome {", "  rankdir=LR;"]
    n_in, n_out = genome.num_inputs, genome.num_outputs
    for row in genome.nodes:
        if np.isnan(row[NODE_KEY]):
            continue
        key = int(row[NODE_KEY])
        act_name = registry.activations.get(int(row[NODE_ACT]), ("?",))[0]
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
