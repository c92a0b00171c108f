"""Shared fixtures: small configs, random valid genomes, and a DFS cycle oracle."""

from __future__ import annotations

import numpy as np
import pytest

from arrayneat import (ConnRow, GenomeTensors, NeatConfig, NodeKeyAllocator, NodeRow,
                       PopulationTensors, RngStream, add_conn, add_node, init_genome,
                       remove_conn, remove_node, set_conn_attr, set_node_attr)
from arrayneat.evolution import mutate_arrays
from arrayneat.genome import (CONN_ENABLED, CONN_IN, CONN_OUT, NODE_KEY, init_arrays,
                              with_rows)


def make_config(**overrides) -> NeatConfig:
    base = dict(seed=0, pop_size=20, inputs=2, outputs=1, max_nodes=12, max_conns=24,
                generation_limit=10, max_species=4)
    base.update(overrides)
    return NeatConfig(**base)


@pytest.fixture
def config() -> NeatConfig:
    return make_config()


@pytest.fixture
def fresh_genome(config) -> GenomeTensors:
    return init_genome(config, RngStream(123).child(0, 0, 0))


def live_node_keys(genome: GenomeTensors) -> list[int]:
    keys = genome.nodes[:, NODE_KEY]
    return [int(k) for k in keys[~np.isnan(keys)]]


def live_conn_pairs(genome: GenomeTensors) -> list[tuple[int, int]]:
    conns = genome.conns
    live = ~np.isnan(conns[:, CONN_IN])
    return [(int(i), int(o)) for i, o in conns[live][:, [CONN_IN, CONN_OUT]]]


def dfs_has_cycle(genome: GenomeTensors, enabled_only: bool = False) -> bool:
    """Independent cycle oracle: iterative three-color DFS over connection keys."""
    adjacency: dict[int, list[int]] = {}
    for row in genome.conns:
        if np.isnan(row[CONN_IN]):
            continue
        if enabled_only and row[CONN_ENABLED] != 1.0:
            continue
        adjacency.setdefault(int(row[CONN_IN]), []).append(int(row[CONN_OUT]))
    color: dict[int, int] = {}
    for start in list(adjacency):
        if color.get(start):
            continue
        stack = [(start, iter(adjacency.get(start, [])))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 1:
                    return True
                if color.get(nxt, 0) == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(adjacency.get(nxt, []))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def _reaches(genome: GenomeTensors, src: int, dst: int) -> bool:
    adjacency: dict[int, list[int]] = {}
    for i, o in live_conn_pairs(genome):
        adjacency.setdefault(i, []).append(o)
    seen = set()
    frontier = [src]
    while frontier:
        node = frontier.pop()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(adjacency.get(node, []))
    return False


def random_valid_op(genome: GenomeTensors, config: NeatConfig,
                    rng: np.random.Generator, next_key: list[int]) -> GenomeTensors:
    """Apply one random structurally valid operation; may be a no-op."""
    n_io = config.inputs + config.outputs
    keys = live_node_keys(genome)
    pairs = live_conn_pairs(genome)
    hidden = [k for k in keys if k >= n_io]
    choice = rng.integers(0, 6)
    if choice == 0:
        padding = np.isnan(genome.nodes).all(axis=1)
        if padding.any():
            row = NodeRow(key=next_key[0], bias=float(rng.normal()),
                          response=1.0, aggregation_id=0,
                          activation_id=int(rng.integers(0, 4)))
            next_key[0] += 1
            return add_node(genome, row)
    elif choice == 1 and hidden:
        return remove_node(genome, int(rng.choice(hidden)))
    elif choice == 2:
        sources = [k for k in keys if not (config.inputs <= k < n_io)]
        sinks = [k for k in keys if k >= config.inputs]
        candidates = [(u, v) for u in sources for v in sinks
                      if (u, v) not in pairs and not _reaches(genome, v, u)]
        padding = np.isnan(genome.conns).all(axis=1)
        if candidates and padding.any():
            u, v = candidates[rng.integers(0, len(candidates))]
            return add_conn(genome, ConnRow(u, v, 1.0, float(rng.normal())))
    elif choice == 3 and pairs:
        i, o = pairs[rng.integers(0, len(pairs))]
        return remove_conn(genome, i, o)
    elif choice == 4 and keys:
        key = int(rng.choice(keys))
        attr = int(rng.integers(0, 4))
        value = float(rng.normal()) if attr < 2 else float(rng.integers(0, 4))
        return set_node_attr(genome, key, attr, value)
    elif choice == 5 and pairs:
        i, o = pairs[rng.integers(0, len(pairs))]
        attr = int(rng.integers(0, 2))
        value = float(rng.integers(0, 2)) if attr == 0 else float(rng.normal())
        return set_conn_attr(genome, i, o, attr, value)
    return genome


def random_genome(seed: int, config: NeatConfig, n_ops: int = 25) -> GenomeTensors:
    """Random valid feedforward genome built through the public operations."""
    rng = np.random.default_rng(seed)
    genome = init_genome(config, RngStream(seed).child(0, 0, 0))
    next_key = [config.inputs + config.outputs]
    for _ in range(n_ops):
        genome = random_valid_op(genome, config, rng, next_key)
    return genome


def grown_population(config: NeatConfig, rounds: int, seed: int = 0) -> PopulationTensors:
    """Fresh population after ``rounds`` of batched mutation under ``config``, held
    at full capacity."""
    pop_size = config.pop_size
    slots = np.arange(pop_size)
    nodes, conns = init_arrays(config, RngStream(seed).child(0, 0).split(slots))
    nodes, conns = with_rows(nodes, config.max_nodes), with_rows(conns, config.max_conns)
    allocator = NodeKeyAllocator(config.inputs + config.outputs)
    for generation in range(1, rounds + 1):
        base = allocator.reserve(pop_size)
        mutate_arrays(nodes, conns, config, RngStream(seed).child(generation, 2).split(slots),
                      np.arange(base, base + pop_size, dtype=np.float64))
    return PopulationTensors(nodes, conns, config.inputs, config.outputs)
