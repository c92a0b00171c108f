"""Object-graph reference implementation used as a test oracle.

Everything here is deliberately written the slow, obvious way: dictionaries
keyed by historical markers, recursive memoized evaluation from the output
nodes, plain Python arithmetic.  Agreement between this module and the
tensorized paths is evidence of correctness precisely because the algorithms
differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import NeatConfig
from .errors import (CycleDetected, DanglingEndpoint, DuplicateConn,
                     DuplicateKey, IntegrityError, KeyNotFound, ProtectedNode,
                     ShapeMismatch)
from .genome import (CONN_ENABLED, CONN_IN, CONN_OUT, CONN_WEIGHT, NODE_ACT,
                     NODE_AGG, NODE_BIAS, NODE_KEY, NODE_RESPONSE, ConnRow,
                     GenomeTensors, NodeRow, check_integrity)

_SCALAR_AGGREGATIONS = {
    0: sum,
    1: math.prod,
    2: max,
    3: lambda vals: sum(vals) / len(vals),
}

def _scalar_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


_SCALAR_ACTIVATIONS = {
    0: lambda x: x,
    1: math.tanh,
    2: _scalar_sigmoid,
    3: lambda x: max(x, 0.0),
}


@dataclass
class GraphNetwork:
    """Plain-object view of one genome: maps keyed by historical markers."""
    nodes: dict[int, tuple[float, float, int, int]]        # key -> (bias, response, agg, act)
    edges: dict[tuple[int, int], tuple[float, float]]      # (in, out) -> (enabled, weight)
    input_keys: list[int] = field(default_factory=list)
    output_keys: list[int] = field(default_factory=list)


def decode(genome: GenomeTensors) -> GraphNetwork:
    """Lossless translation of live rows; padding dropped."""
    check_integrity(genome, exc=IntegrityError)
    net = GraphNetwork(nodes={}, edges={},
                       input_keys=list(range(genome.num_inputs)),
                       output_keys=list(range(genome.num_inputs,
                                               genome.num_inputs + genome.num_outputs)))
    for row in genome.nodes:
        if math.isnan(row[NODE_KEY]):
            continue
        net.nodes[int(row[NODE_KEY])] = (float(row[NODE_BIAS]), float(row[NODE_RESPONSE]),
                                         int(row[NODE_AGG]), int(row[NODE_ACT]))
    for row in genome.conns:
        if math.isnan(row[CONN_IN]):
            continue
        pair = (int(row[CONN_IN]), int(row[CONN_OUT]))
        net.edges[pair] = (float(row[CONN_ENABLED]), float(row[CONN_WEIGHT]))
    return net


# -- graph-level edits, for the commuting-square tests ----------------------

def graph_add_node(net: GraphNetwork, row: NodeRow) -> GraphNetwork:
    if row.key in net.nodes:
        raise DuplicateKey(f"node key {row.key} already present")
    nodes = dict(net.nodes)
    nodes[row.key] = (row.bias, row.response, row.aggregation_id, row.activation_id)
    return GraphNetwork(nodes, dict(net.edges), list(net.input_keys), list(net.output_keys))


def graph_remove_node(net: GraphNetwork, key: int) -> GraphNetwork:
    if key not in net.nodes:
        raise KeyNotFound(f"node key {key} not present")
    if key in net.input_keys or key in net.output_keys:
        raise ProtectedNode(f"node {key} is an input or output")
    nodes = {k: v for k, v in net.nodes.items() if k != key}
    edges = {pair: v for pair, v in net.edges.items() if key not in pair}
    return GraphNetwork(nodes, edges, list(net.input_keys), list(net.output_keys))


def graph_add_conn(net: GraphNetwork, row: ConnRow) -> GraphNetwork:
    pair = (row.in_key, row.out_key)
    if pair in net.edges:
        raise DuplicateConn(f"connection {pair} already present")
    if row.in_key not in net.nodes or row.out_key not in net.nodes:
        raise DanglingEndpoint(f"connection {pair} references a missing node")
    edges = dict(net.edges)
    edges[pair] = (row.enabled, row.weight)
    return GraphNetwork(dict(net.nodes), edges, list(net.input_keys), list(net.output_keys))


def graph_remove_conn(net: GraphNetwork, in_key: int, out_key: int) -> GraphNetwork:
    pair = (in_key, out_key)
    if pair not in net.edges:
        raise KeyNotFound(f"connection {pair} not present")
    edges = {p: v for p, v in net.edges.items() if p != pair}
    return GraphNetwork(dict(net.nodes), edges, list(net.input_keys), list(net.output_keys))


# -- inference ----------------------------------------------------------------

def graph_forward(net: GraphNetwork, registry: None,
                  inputs: list[float]) -> list[float]:
    """Evaluate by memoized recursion from the output nodes; ``registry`` is ignored.

    Semantics match the tensorized forward pass: connection value is
    weight * upstream value over enabled edges only, node value is
    act(bias + response * agg(values)) with the empty aggregation equal to 0.
    """
    if len(inputs) != len(net.input_keys):
        raise ShapeMismatch(f"expected {len(net.input_keys)} inputs, got {len(inputs)}")
    incoming: dict[int, list[tuple[int, float]]] = {}
    for (src, dst), (enabled, weight) in net.edges.items():
        if enabled == 1.0:
            incoming.setdefault(dst, []).append((src, weight))
    for dst in incoming:
        incoming[dst].sort()

    memo: dict[int, float] = {k: float(v) for k, v in zip(net.input_keys, inputs)}
    visiting: set[int] = set()

    def value(key: int) -> float:
        if key in memo:
            return memo[key]
        if key in visiting:
            raise CycleDetected(f"cycle through node {key}")
        visiting.add(key)
        bias, response, agg_id, act_id = net.nodes[key]
        contributions = [w * value(src) for src, w in incoming.get(key, [])]
        if contributions:
            aggregated = _SCALAR_AGGREGATIONS[agg_id](contributions)
        else:
            aggregated = 0.0
        result = _SCALAR_ACTIVATIONS[act_id](bias + response * aggregated)
        visiting.discard(key)
        memo[key] = result
        return result

    return [value(k) for k in net.output_keys]


# -- distance -----------------------------------------------------------------

def graph_distance(n1: GraphNetwork, n2: GraphNetwork, config: NeatConfig) -> float:
    """Same formula as the tensorized distance, via explicit set operations."""
    if len(n1.input_keys) != len(n2.input_keys) or len(n1.output_keys) != len(n2.output_keys):
        raise ShapeMismatch("genomes disagree on input/output counts")

    node_keys1, node_keys2 = set(n1.nodes), set(n2.nodes)
    edge_keys1, edge_keys2 = set(n1.edges), set(n2.edges)

    disjoint = (len(node_keys1 ^ node_keys2) + len(edge_keys1 ^ edge_keys2))
    pair_distances: list[float] = []
    for key in sorted(node_keys1 & node_keys2):
        b1, r1, g1, a1 = n1.nodes[key]
        b2, r2, g2, a2 = n2.nodes[key]
        pair_distances.append(
            (abs(b1 - b2) + abs(r1 - r2) + (1.0 if g1 != g2 else 0.0)
             + (1.0 if a1 != a2 else 0.0)) / 4.0)
    for pair in sorted(edge_keys1 & edge_keys2):
        e1, w1 = n1.edges[pair]
        e2, w2 = n2.edges[pair]
        pair_distances.append((abs(w1 - w2) + abs(e1 - e2)) / 2.0)

    homologous = len(pair_distances)
    mean_attr = sum(pair_distances) / homologous if homologous else 0.0
    total = max(len(node_keys1) + len(edge_keys1), len(node_keys2) + len(edge_keys2))
    return (config.compatibility_disjoint * disjoint / total
            + config.compatibility_homologous * mean_attr)
