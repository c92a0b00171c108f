"""Mutation, crossover, distance, speciation, and the generation step.

All heavy operators are written against a leading population axis and draw
randomness from counter-based per-genome streams (path = generation, stage,
slot index).  Because draws are pure functions of (stream key, counter) and
numpy elementwise math is position-independent, running the same operator on
one genome, on a chunk, or on the whole population produces bitwise-identical
results.  Thread workers therefore only partition rows, and the forced
per-genome path used by the benchmark harness replays the exact trajectory of
the fully vectorized path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import NeatConfig
from .errors import ExtinctionError, ShapeMismatch
from .functions import DEFAULT_REGISTRY, FunctionRegistry
from .genome import (CONN_ENABLED, CONN_IN, CONN_OUT, CONN_WEIGHT, NODE_ACT,
                     NODE_AGG, NODE_BIAS, NODE_KEY, NODE_RESPONSE,
                     GenomeTensors, PopulationTensors)
from .parallel import run_chunked
from .rng import RngStream
from .search import (CONN_DOMAIN, bit_address, bitset_members, bitsets, match_aligned,
                     match_rows, pair_codes, rows_of_io_keys)

# stage tags for stream paths
STAGE_INIT = 0
STAGE_EVAL = 1
STAGE_REPRODUCE = 2

_SPAWN_EPSILON = 1e-9  # keeps spawn targets defined when all means coincide


@dataclass
class NodeKeyAllocator:
    """Monotone source of fresh historical markers; never reissues a key."""
    next_key: int

    def reserve(self, count: int) -> int:
        base = self.next_key
        self.next_key += count
        return base

    def allocate(self) -> int:
        return self.reserve(1)


@dataclass
class SpeciesState:
    """Bookkeeping for one species across generations."""
    species_key: int
    representative: GenomeTensors
    member_indices: np.ndarray                 # int64 indices into the population
    best_fitness: float = -math.inf            # best species fitness seen so far
    stagnation_counter: int = 0
    spawn_count: int = 0


@dataclass
class GenerationStats:
    """Per-generation summary emitted by evolve_step."""
    best_fitness: float
    mean_fitness: float
    species_count: int
    mean_live_nodes: float
    mean_live_conns: float
    elapsed_seconds: float
    solved: bool
    best_genome: GenomeTensors | None = None


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _pick_kth_true(mask: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly select one True cell per row of ``mask`` using u in (0, 1).

    Returns (column index, row-has-any-True).  Rows without candidates get an
    arbitrary index; callers must gate on the validity mask.
    """
    count = mask.sum(axis=1)
    k = np.minimum((u * count).astype(np.int64), np.maximum(count - 1, 0))
    cumulative = np.cumsum(mask, axis=1)
    hit = (cumulative == (k + 1)[:, None]) & mask
    return hit.argmax(axis=1), count > 0


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------

def _crossover_into(out_nodes: np.ndarray, out_conns: np.ndarray,
                    less_nodes: np.ndarray, less_conns: np.ndarray,
                    rng: RngStream) -> None:
    """Blend attributes of the less fit parent into owned fitter-parent arrays.

    Topology (and padding layout) comes from the fitter parent, ``out_*``;
    each attribute of a gene that is also live in the less fit parent is
    taken from either parent with probability one half.  Coin draws cover a
    fixed (max_nodes x 4) + (max_conns x 2) grid but are only computed at the
    homologous cells that consume them.
    """
    pop, n, _ = out_nodes.shape
    c = out_conns.shape[1]

    # one lookup table covers both gene kinds: node keys as-is, connection
    # pair codes shifted into their own domain
    def codes(nodes, conns):
        return np.concatenate([nodes[:, :, NODE_KEY],
                               CONN_DOMAIN + pair_codes(conns)], axis=1)

    src, has = match_aligned(codes(out_nodes, out_conns), codes(less_nodes, less_conns))

    pm, rm = np.nonzero(has[:, :n])
    cols = (rm[:, None] * 4 + np.arange(4)).ravel()
    coins = rng.uniforms_at(n * 4, np.repeat(pm, 4), cols).reshape(-1, 4) < 0.5
    matched = src[pm, rm]
    for attr in range(4):
        col = 1 + attr
        take = coins[:, attr]
        out_nodes[pm[take], rm[take], col] = less_nodes[pm[take], matched[take], col]

    pm, rm = np.nonzero(has[:, n:])
    cols = (rm[:, None] * 2 + np.arange(2)).ravel()
    coins = rng.uniforms_at(c * 2, np.repeat(pm, 2), cols).reshape(-1, 2) < 0.5
    matched = src[pm, rm + n] - n
    for attr in range(2):
        col = 2 + attr
        take = coins[:, attr]
        out_conns[pm[take], rm[take], col] = less_conns[pm[take], matched[take], col]


def crossover(parent_fit: GenomeTensors, parent_less: GenomeTensors,
              rng: RngStream) -> GenomeTensors:
    """Single-pair crossover; the caller orders parents by fitness."""
    if (parent_fit.num_inputs != parent_less.num_inputs
            or parent_fit.num_outputs != parent_less.num_outputs):
        raise ShapeMismatch("parents disagree on input/output counts")
    if parent_fit.nodes.shape != parent_less.nodes.shape \
            or parent_fit.conns.shape != parent_less.conns.shape:
        raise ShapeMismatch("parents disagree on tensor capacity")
    nodes, conns = parent_fit.nodes.copy(), parent_fit.conns.copy()
    _crossover_into(nodes[None], conns[None],
                    parent_less.nodes[None], parent_less.conns[None], rng)
    return GenomeTensors(nodes, conns, parent_fit.num_inputs, parent_fit.num_outputs)


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------

def mutate_arrays(nodes: np.ndarray, conns: np.ndarray, config: NeatConfig,
                  rng: RngStream, new_node_keys: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the five mutation sub-steps to every genome at once, in place.

    Callers pass ``nodes`` and ``conns`` they own, of any capacity.  Sub-step
    order is fixed: node addition, node deletion, connection addition,
    connection deletion, attribute perturbation.  Structural steps that
    cannot proceed (no candidates, capacity full) are silent no-ops.
    ``new_node_keys`` holds one pre-reserved key per genome, consumed only by
    a firing node addition.  Returns the same two arrays plus the mask of
    genomes whose node addition fired.
    """
    pop, n, _ = nodes.shape
    c = conns.shape[1]
    n_io = config.inputs + config.outputs

    u_struct = rng.uniforms(4).reshape(pop, 4)
    u_pick = rng.uniforms(4).reshape(pop, 4)
    z_new_bias = rng.normals(1).reshape(pop)
    z_new_weight = rng.normals(1).reshape(pop)

    # (1) node addition: split a uniformly chosen enabled connection
    can_add = np.zeros(pop, dtype=bool)
    fired = np.nonzero(u_struct[:, 0] < config.node_add)[0]
    if fired.size:
        sub_conns = conns[fired]
        enabled = ~np.isnan(sub_conns[:, :, CONN_IN]) & (sub_conns[:, :, CONN_ENABLED] == 1.0)
        split_row, has_enabled = _pick_kth_true(enabled, u_pick[fired, 0])
        free_nodes = np.isnan(nodes[fired, :, NODE_KEY])
        free_conns = np.isnan(sub_conns[:, :, CONN_IN])
        ok = has_enabled & free_nodes.any(axis=1) & (free_conns.sum(axis=1) >= 2)
        sel = fired[ok]
        can_add[sel] = True
        if sel.size:
            rsel = split_row[ok]
            src_key = conns[sel, rsel, CONN_IN]
            dst_key = conns[sel, rsel, CONN_OUT]
            old_weight = conns[sel, rsel, CONN_WEIGHT]
            new_bias = config.bias_init_mean + config.bias_init_std * z_new_bias[sel]
            conns[sel, rsel, CONN_ENABLED] = 0.0
            node_slot = free_nodes[ok].argmax(axis=1)
            nodes[sel, node_slot, NODE_KEY] = new_node_keys[sel]
            nodes[sel, node_slot, NODE_BIAS] = new_bias
            nodes[sel, node_slot, NODE_RESPONSE] = config.response_init_mean
            nodes[sel, node_slot, NODE_AGG] = float(config.aggregation_default_id)
            nodes[sel, node_slot, NODE_ACT] = float(config.activation_default_id)
            cumulative = np.cumsum(free_conns[ok], axis=1)
            first_free = ((cumulative == 1) & free_conns[ok]).argmax(axis=1)
            second_free = ((cumulative == 2) & free_conns[ok]).argmax(axis=1)
            ones = np.ones(sel.size)
            conns[sel, first_free] = np.column_stack(
                [src_key, new_node_keys[sel], ones, ones])
            conns[sel, second_free] = np.column_stack(
                [new_node_keys[sel], dst_key, ones, old_weight])

    # (2) node deletion: remove a uniformly chosen hidden node, cascading
    fired = np.nonzero(u_struct[:, 1] < config.node_delete)[0]
    if fired.size:
        keys = nodes[fired, :, NODE_KEY]
        hidden = ~np.isnan(keys) & (keys >= n_io)
        del_row, has_hidden = _pick_kth_true(hidden, u_pick[fired, 1])
        sel = fired[has_hidden]
        if sel.size:
            rsel = del_row[has_hidden]
            del_key = nodes[sel, rsel, NODE_KEY]
            nodes[sel, rsel, :] = np.nan
            incident = ((conns[sel, :, CONN_IN] == del_key[:, None])
                        | (conns[sel, :, CONN_OUT] == del_key[:, None]))
            im, ic = np.nonzero(incident)
            conns[sel[im], ic, :] = np.nan

    # (3) connection addition: uniform over pairs that are absent and, for
    # feedforward genomes, leave the live-connection graph acyclic
    fired = np.nonzero(u_struct[:, 2] < config.conn_add)[0]
    if fired.size:
        has_free = np.isnan(conns[fired, :, CONN_IN]).any(axis=1)
        sub = fired[has_free]
        if sub.size:
            _add_connections(nodes, conns, config, sub, u_pick[sub, 2], z_new_weight[sub])

    # (4) connection deletion: remove a uniform live connection
    fired = np.nonzero(u_struct[:, 3] < config.conn_delete)[0]
    if fired.size:
        live = ~np.isnan(conns[fired, :, CONN_IN])
        dc_row, has_conn = _pick_kth_true(live, u_pick[fired, 3])
        sel = fired[has_conn]
        if sel.size:
            conns[sel, dc_row[has_conn], :] = np.nan

    # (5) attribute perturbation over every live gene
    live_node = ~np.isnan(nodes[:, :, NODE_KEY])
    live_conn = ~np.isnan(conns[:, :, CONN_IN])

    def perturb(tensor, col, live, width, replace_rate, mutate_rate, power, mean, std):
        # draws cover the fixed (pop, width) grid but are computed only at
        # live cells (and noise only at fired cells); results are bitwise
        # identical to dense drawing because draws are pure in (key, counter)
        if replace_rate == 0.0 and mutate_rate == 0.0:
            return
        pm, cm = np.nonzero(live)
        u_replace = rng.uniforms_at(width, pm, cm)
        u_mutate = rng.uniforms_at(width, pm, cm)
        old = tensor[pm, cm, col]
        value = old.copy()
        replaced = u_replace < replace_rate
        if mutate_rate > 0.0:
            mutated = ~replaced & (u_mutate < mutate_rate)
            idx = np.nonzero(mutated)[0]
            noise = rng.normals_at(width, pm[idx], cm[idx])
            value[idx] = old[idx] + power * noise
        else:
            mutated = np.zeros_like(replaced)
        if replace_rate > 0.0:
            idx = np.nonzero(replaced)[0]
            fresh = rng.normals_at(width, pm[idx], cm[idx])
            value[idx] = mean + std * fresh
        changed = replaced | mutated
        tensor[pm[changed], cm[changed], col] = np.clip(
            value[changed], config.attr_min, config.attr_max)

    perturb(nodes, NODE_BIAS, live_node, n, config.bias_replace_rate,
            config.bias_mutate_rate, config.bias_mutate_power,
            config.bias_init_mean, config.bias_init_std)
    perturb(nodes, NODE_RESPONSE, live_node, n, config.response_replace_rate,
            config.response_mutate_rate, config.response_mutate_power,
            config.response_init_mean, config.response_init_std)
    perturb(conns, CONN_WEIGHT, live_conn, c, config.weight_replace_rate,
            config.weight_mutate_rate, config.weight_mutate_power,
            config.weight_init_mean, config.weight_init_std)

    if config.enabled_mutate_rate > 0.0:
        u_flip = rng.uniforms(c).reshape(pop, c)
        flip = (u_flip < config.enabled_mutate_rate) & live_conn
        conns[:, :, CONN_ENABLED] = np.where(
            flip, 1.0 - conns[:, :, CONN_ENABLED], conns[:, :, CONN_ENABLED])

    def replace_categorical(col, options, rate):
        if rate == 0.0:
            return
        u_replace = rng.uniforms(n).reshape(pop, n)
        u_choice = rng.uniforms(n).reshape(pop, n)
        table = np.asarray(options, dtype=np.float64)
        idx = np.minimum((u_choice * table.size).astype(np.int64), table.size - 1)
        chosen = table[idx]
        hit = (u_replace < rate) & live_node
        nodes[:, :, col] = np.where(hit, chosen, nodes[:, :, col])

    replace_categorical(NODE_ACT, config.activation_option_ids, config.activation_replace_rate)
    replace_categorical(NODE_AGG, config.aggregation_option_ids, config.aggregation_replace_rate)

    return nodes, conns, can_add


def _add_connections(nodes: np.ndarray, conns: np.ndarray, config: NeatConfig,
                     sub: np.ndarray, u_pick: np.ndarray, z_weight: np.ndarray) -> None:
    """Connection-addition sub-step for the fired genome subset (in place).

    Candidates live in a compacted live-node rank space so the acyclicity
    closure only pays for live nodes; reachable sets are bitsets of
    ``ceil(m / 64)`` words, so one code path serves any number ``m`` of live
    nodes.  Rank order equals row order, so the uniform pick enumerates
    candidates exactly as the full-width formulation would; all quantities
    here are boolean or integer, hence exact regardless of how the population
    is batched.
    """
    n_io = config.inputs + config.outputs
    live_node = ~np.isnan(nodes[sub, :, NODE_KEY])
    m = int(live_node.sum(axis=1).max())
    live_rows = np.argsort(~live_node, axis=1, kind="stable")[:, :m]
    live_count = live_node.sum(axis=1)
    valid = np.arange(m)[None, :] < live_count[:, None]
    rank_keys = np.take_along_axis(nodes[sub, :, NODE_KEY], live_rows, axis=1)

    sub_keys = nodes[sub, :, NODE_KEY]
    c = conns.shape[1]
    endpoint_rows, _ = rows_of_io_keys(
        np.concatenate([conns[sub, :, CONN_IN], conns[sub, :, CONN_OUT]], axis=1),
        sub_keys, n_io)
    in_row = endpoint_rows[:, :c]
    out_row = endpoint_rows[:, c:]
    rank_of_row = np.cumsum(live_node, axis=1) - 1
    in_rank = np.take_along_axis(rank_of_row, in_row, axis=1)
    out_rank = np.take_along_axis(rank_of_row, out_row, axis=1)

    live_conn = ~np.isnan(conns[sub, :, CONN_IN])
    count = sub.size
    fm, cm = np.nonzero(live_conn)
    # row u of ``reach`` starts as the set of ranks u has a live connection to
    reach = bitsets((count, m), m, (fm, in_rank[fm, cm]), out_rank[fm, cm])

    allowed = valid[:, :, None] & valid[:, None, :] & ~bitset_members(reach, m)
    is_output = (rank_keys >= config.inputs) & (rank_keys < n_io)
    is_input = rank_keys < config.inputs
    allowed &= ~is_output[:, :, None]
    allowed &= ~is_input[:, None, :]
    if config.network_type == "feedforward":
        # u -> v is safe iff v does not already reach u over live connections;
        # bitset Floyd-Warshall closes ``reach`` over paths, u reaching itself
        ranks = np.arange(m)
        word, bit = bit_address(ranks)
        reach[:, ranks, word] |= bit
        for k in ranks:
            via_k = (reach[:, :, word[k], None] & bit[k]) != 0
            reach |= via_k * reach[:, k, None, :]
        allowed &= ~np.transpose(bitset_members(reach, m), (0, 2, 1))

    pick_flat, has_candidate = _pick_kth_true(allowed.reshape(count, m * m), u_pick)
    u_rank, v_rank = np.divmod(pick_flat, m)
    src_row = np.take_along_axis(live_rows, u_rank[:, None], axis=1)[:, 0]
    dst_row = np.take_along_axis(live_rows, v_rank[:, None], axis=1)[:, 0]
    free_row = (~live_conn).argmax(axis=1)
    new_weight = config.weight_init_mean + config.weight_init_std * z_weight

    tgt = np.nonzero(has_candidate)[0]
    if tgt.size:
        genome = sub[tgt]
        conns[genome, free_row[tgt]] = np.column_stack([
            nodes[genome, src_row[tgt], NODE_KEY],
            nodes[genome, dst_row[tgt], NODE_KEY],
            np.ones(tgt.size),
            new_weight[tgt]])


def mutate(genome: GenomeTensors, config: NeatConfig, rng: RngStream,
           allocator: NodeKeyAllocator) -> GenomeTensors:
    """Mutate one genome; consumes one allocator key only if node addition fires."""
    provisional = float(allocator.next_key)
    nodes, conns = genome.nodes.copy(), genome.conns.copy()
    _, _, added = mutate_arrays(nodes[None], conns[None], config, rng, np.array([provisional]))
    if added[0]:
        allocator.allocate()
    return GenomeTensors(nodes, conns, genome.num_inputs, genome.num_outputs)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def distance_arrays(nodes1: np.ndarray, conns1: np.ndarray,
                    nodes2: np.ndarray, conns2: np.ndarray,
                    config: NeatConfig) -> np.ndarray:
    """Pairwise genome distance with broadcasting over the population axis.

    d = c_disjoint * D / N + c_homologous * A where D counts genes live in
    exactly one genome, A is the mean over homologous gene pairs of the mean
    absolute attribute difference (categorical attributes contribute 0/1),
    and N is the larger total live gene count.  Matching is one-to-one by
    key, so the second genome's disjoint count is its live count minus the
    number of matched pairs.
    """
    n1 = nodes1.shape[1]
    n2 = nodes2.shape[1]
    keys1 = nodes1[:, :, NODE_KEY]
    live1 = ~np.isnan(keys1)
    live2_count = (~np.isnan(nodes2[:, :, NODE_KEY])).sum(axis=1)
    clive1 = ~np.isnan(conns1[:, :, CONN_IN])
    clive2_count = (~np.isnan(conns2[:, :, CONN_IN])).sum(axis=1)

    queries = np.concatenate([keys1, CONN_DOMAIN + pair_codes(conns1)], axis=1)
    table = np.concatenate([nodes2[:, :, NODE_KEY],
                            CONN_DOMAIN + pair_codes(conns2)], axis=1)
    if queries.shape[1] == table.shape[1]:
        src, found = match_aligned(queries, table)
    else:
        src, found = match_rows(queries, table)

    pop = nodes1.shape[0]

    # attribute distances only at the matched gene pairs, scatter-summed
    has1 = found[:, :n1]
    node_homologous = has1.sum(axis=1)
    pm, rm = np.nonzero(has1)
    own = nodes1[pm, rm]
    matched = src[:, :n1][pm, rm]
    other = nodes2[0, matched] if nodes2.shape[0] == 1 else nodes2[pm, matched]
    node_pair = (np.abs(own[:, NODE_BIAS] - other[:, NODE_BIAS])
                 + np.abs(own[:, NODE_RESPONSE] - other[:, NODE_RESPONSE])
                 + (own[:, NODE_AGG] != other[:, NODE_AGG])
                 + (own[:, NODE_ACT] != other[:, NODE_ACT])) / 4.0
    node_pair_sum = np.bincount(pm, weights=node_pair, minlength=pop)
    node_disjoint = (live1 & ~has1).sum(axis=1) + (live2_count - node_homologous)

    chas1 = found[:, n1:]
    conn_homologous = chas1.sum(axis=1)
    pm, rm = np.nonzero(chas1)
    own = conns1[pm, rm]
    matched = src[:, n1:][pm, rm] - n2
    other = conns2[0, matched] if conns2.shape[0] == 1 else conns2[pm, matched]
    conn_pair = (np.abs(own[:, CONN_WEIGHT] - other[:, CONN_WEIGHT])
                 + np.abs(own[:, CONN_ENABLED] - other[:, CONN_ENABLED])) / 2.0
    conn_pair_sum = np.bincount(pm, weights=conn_pair, minlength=pop)
    conn_disjoint = (clive1.sum(axis=1) - conn_homologous) + (clive2_count - conn_homologous)

    disjoint = node_disjoint + conn_disjoint
    homologous = node_homologous + conn_homologous
    attr_mean = np.where(homologous > 0,
                         (node_pair_sum + conn_pair_sum) / np.maximum(homologous, 1), 0.0)
    genes1 = live1.sum(axis=1) + clive1.sum(axis=1)
    genes2 = live2_count + clive2_count
    total = np.maximum(genes1, genes2)
    return (config.compatibility_disjoint * disjoint / total
            + config.compatibility_homologous * attr_mean)


def distance(g1: GenomeTensors, g2: GenomeTensors, config: NeatConfig) -> float:
    """Distance between two genomes (symmetric, non-negative, zero on self)."""
    if g1.num_inputs != g2.num_inputs or g1.num_outputs != g2.num_outputs:
        raise ShapeMismatch("genomes disagree on input/output counts")
    return float(distance_arrays(g1.nodes[None], g1.conns[None],
                                 g2.nodes[None], g2.conns[None], config)[0])


def _distance_to_genome(pop: PopulationTensors, rep: GenomeTensors,
                        config: NeatConfig, sequential: bool = False) -> np.ndarray:
    if sequential:
        return np.concatenate([
            distance_arrays(pop.nodes[i:i + 1], pop.conns[i:i + 1],
                            rep.nodes[None], rep.conns[None], config)
            for i in range(pop.size)])
    return distance_arrays(pop.nodes, pop.conns, rep.nodes[None], rep.conns[None], config)


# ---------------------------------------------------------------------------
# speciation
# ---------------------------------------------------------------------------

def speciate(pop: PopulationTensors, species: list[SpeciesState], config: NeatConfig,
             sequential: bool = False
             ) -> tuple[PopulationTensors, list[SpeciesState]]:
    """Assign every genome to a species and refresh representatives.

    Genomes join the first species (ascending key) whose representative is
    within the compatibility threshold.  A genome matching none founds a new
    species while the species cap allows, otherwise it joins the nearest
    species.  Afterwards each species' representative becomes the member
    closest to the old representative, and empty species are dropped.
    """
    count = pop.size
    ordered = sorted(species, key=lambda s: s.species_key)
    rows: list[tuple[int, SpeciesState | None, GenomeTensors, np.ndarray]] = []
    for sp in ordered:
        rows.append((sp.species_key, sp, sp.representative,
                     _distance_to_genome(pop, sp.representative, config, sequential)))

    assigned = np.full(count, -1, dtype=np.int64)
    if rows:
        matrix = np.stack([r[3] for r in rows])
        ok = matrix <= config.compatibility_threshold
        any_ok = ok.any(axis=0)
        first = ok.argmax(axis=0)
        keys = np.array([r[0] for r in rows], dtype=np.int64)
        assigned[any_ok] = keys[first[any_ok]]

    next_key = max((r[0] for r in rows), default=-1) + 1
    founded_at = len(rows)
    for i in np.nonzero(assigned < 0)[0]:
        matched = False
        for key, _, _, dist_row in rows[founded_at:]:
            if dist_row[i] <= config.compatibility_threshold:
                assigned[i] = key
                matched = True
                break
        if matched:
            continue
        if len(rows) < config.max_species:
            founder = pop.genome(int(i))
            rows.append((next_key, None, founder,
                         _distance_to_genome(pop, founder, config, sequential)))
            assigned[i] = next_key
            next_key += 1
        else:
            matrix = np.stack([r[3] for r in rows])
            assigned[i] = rows[int(matrix[:, i].argmin())][0]

    result: list[SpeciesState] = []
    for key, previous, representative, dist_row in rows:
        members = np.nonzero(assigned == key)[0]
        if members.size == 0:
            continue
        closest = members[int(dist_row[members].argmin())]
        new_rep = pop.genome(int(closest))
        if previous is not None:
            result.append(replace(previous, representative=new_rep,
                                  member_indices=members, spawn_count=0))
        else:
            result.append(SpeciesState(species_key=key, representative=new_rep,
                                       member_indices=members))
    new_pop = PopulationTensors(pop.nodes, pop.conns, assigned, pop.fitness,
                                pop.num_inputs, pop.num_outputs)
    return new_pop, result


# ---------------------------------------------------------------------------
# stagnation and spawn allocation
# ---------------------------------------------------------------------------

def update_stagnation(species: list[SpeciesState], fitness: np.ndarray,
                      config: NeatConfig) -> list[SpeciesState]:
    """Advance stagnation counters and drop species that stalled too long.

    Species fitness is the max over members.  Counters reset only on strict
    improvement; the top ``species_elitism`` species by current fitness are
    always retained.
    """
    updated: list[tuple[float, SpeciesState]] = []
    for sp in sorted(species, key=lambda s: s.species_key):
        current = float(fitness[sp.member_indices].max())
        counter = 0 if current > sp.best_fitness else sp.stagnation_counter + 1
        updated.append((current, replace(
            sp, best_fitness=max(sp.best_fitness, current), stagnation_counter=counter)))

    by_fitness = sorted(updated, key=lambda pair: (-pair[0], pair[1].species_key))
    protected = {pair[1].species_key for pair in by_fitness[:config.species_elitism]}
    survivors = [sp for current, sp in updated
                 if sp.species_key in protected or sp.stagnation_counter < config.max_stagnation]
    return survivors


def allocate_spawns(species: list[SpeciesState], fitness: np.ndarray,
                    config: NeatConfig) -> list[SpeciesState]:
    """Distribute next-generation slots across species.

    Targets are proportional to min-shifted species mean fitness; the move
    from the old size toward the target is clamped to a fraction r of the old
    size (plus one slot of slack), sizes are floored at one, and the largest
    species absorbs the rounding residual so the total is exactly pop_size.
    """
    if not species:
        raise ExtinctionError("no species left to allocate spawns to")
    ordered = sorted(species, key=lambda s: s.species_key)
    means = np.array([float(fitness[sp.member_indices].mean()) for sp in ordered])
    old = np.array([sp.member_indices.size for sp in ordered], dtype=np.float64)

    shifted = means - means.min() + _SPAWN_EPSILON
    targets = shifted / shifted.sum() * config.pop_size
    rate = config.spawn_number_change_rate
    move = np.clip(targets - old, -(rate * old + 1.0), rate * old + 1.0)
    new = np.maximum(np.round(old + move), 1.0).astype(np.int64)

    residual = config.pop_size - int(new.sum())
    largest = int(new.argmax())
    new[largest] += residual
    while new.min() < 1:
        needy = int(new.argmin())
        donor = int(new.argmax())
        if donor == needy or new[donor] <= 1:
            raise ExtinctionError("cannot satisfy spawn floor of one per species")
        give = min(1 - int(new[needy]), int(new[donor]) - 1)
        new[needy] += give
        new[donor] -= give
    return [replace(sp, spawn_count=int(spawn)) for sp, spawn in zip(ordered, new)]


# ---------------------------------------------------------------------------
# reproduction
# ---------------------------------------------------------------------------

def reproduce(pop: PopulationTensors, species: list[SpeciesState], fitness: np.ndarray,
              config: NeatConfig, rng: RngStream, allocator: NodeKeyAllocator,
              threads: int = 1, sequential: bool = False) -> PopulationTensors:
    """Build the next generation: per-species elites plus mutated crossover.

    Slot layout is deterministic (species in key order, elites first).  Every
    slot owns the stream (generation, STAGE_REPRODUCE, slot) and one reserved
    node key, so the result is independent of chunking or thread count.
    """
    total = config.pop_size
    base_key = allocator.reserve(total)
    new_keys = np.arange(base_key, base_key + total, dtype=np.float64)

    elite_src = np.full(total, -1, dtype=np.int64)
    pool_offset = np.zeros(total, dtype=np.int64)
    pool_size = np.ones(total, dtype=np.int64)
    flat_pool: list[int] = []

    slot = 0
    for sp in sorted(species, key=lambda s: s.species_key):
        members = sp.member_indices
        ranking = members[np.lexsort((members, -fitness[members]))]
        spawn = sp.spawn_count
        n_elite = min(config.genome_elitism, spawn, ranking.size)
        elite_src[slot:slot + n_elite] = ranking[:n_elite]
        survivors = ranking[:max(1, math.ceil(config.survival_threshold * ranking.size))]
        lo, hi = slot + n_elite, slot + spawn
        pool_offset[lo:hi] = len(flat_pool)
        pool_size[lo:hi] = survivors.size
        flat_pool.extend(int(ix) for ix in survivors)
        slot += spawn
    if slot != total:
        raise ExtinctionError(f"spawn counts sum to {slot}, expected {total}")
    pool = np.array(flat_pool, dtype=np.int64) if flat_pool else np.zeros(1, dtype=np.int64)

    out_nodes = np.empty((total,) + pop.nodes.shape[1:])
    out_conns = np.empty((total,) + pop.conns.shape[1:])
    stage = rng.child(STAGE_REPRODUCE)

    def work(lo: int, hi: int) -> None:
        streams = stage.split(np.arange(lo, hi))
        picks = streams.uniforms(2).reshape(hi - lo, 2)
        size = pool_size[lo:hi]
        a = pool_offset[lo:hi] + np.minimum((picks[:, 0] * size).astype(np.int64), size - 1)
        b = pool_offset[lo:hi] + np.minimum((picks[:, 1] * size).astype(np.int64), size - 1)
        # lower flat position within a species pool means fitter (or same
        # fitness with lower population index)
        fit_pos = np.minimum(a, b)
        less_pos = np.maximum(a, b)
        fit_idx = pool[fit_pos]
        less_idx = pool[less_pos]
        # children are built in their rows of the next population; mode="clip"
        # lets take write into ``out`` without buffering (indices are valid)
        child_nodes = out_nodes[lo:hi]
        child_conns = out_conns[lo:hi]
        np.take(pop.nodes, fit_idx, axis=0, out=child_nodes, mode="clip")
        np.take(pop.conns, fit_idx, axis=0, out=child_conns, mode="clip")
        _crossover_into(child_nodes, child_conns,
                        pop.nodes[less_idx], pop.conns[less_idx], streams)
        mutate_arrays(child_nodes, child_conns, config, streams, new_keys[lo:hi])
        elites = elite_src[lo:hi]
        mask = elites >= 0
        if mask.any():
            child_nodes[mask] = pop.nodes[elites[mask]]
            child_conns[mask] = pop.conns[elites[mask]]

    run_chunked(total, threads, sequential, work)
    return PopulationTensors(out_nodes, out_conns,
                             np.full(total, -1, dtype=np.int64),
                             np.full(total, np.nan),
                             pop.num_inputs, pop.num_outputs)


# ---------------------------------------------------------------------------
# one generation
# ---------------------------------------------------------------------------

def evolve_step(pop: PopulationTensors, species: list[SpeciesState], config: NeatConfig,
                rng: RngStream, allocator: NodeKeyAllocator, problem,
                registry: FunctionRegistry | None = None,
                threads: int = 1, sequential: bool = False
                ) -> tuple[PopulationTensors, list[SpeciesState], GenerationStats]:
    """Evaluate, then stagnate, allocate, reproduce, and re-speciate.

    ``rng`` must already be scoped to this generation (the caller passes
    ``root.child(generation)``).  When the fitness target is reached the
    evaluated population is returned unchanged with ``stats.solved`` set and
    no reproduction happens.
    """
    registry = registry or DEFAULT_REGISTRY
    start = time.perf_counter()

    fitness = problem.evaluate_population_tensors(
        pop, registry, rng.child(STAGE_EVAL), threads=threads, sequential=sequential)
    evaluated = PopulationTensors(pop.nodes, pop.conns, pop.species_id,
                                  np.asarray(fitness, dtype=np.float64),
                                  pop.num_inputs, pop.num_outputs)

    live_nodes = (~np.isnan(evaluated.nodes[:, :, NODE_KEY])).sum(axis=1)
    live_conns = (~np.isnan(evaluated.conns[:, :, CONN_IN])).sum(axis=1)
    best_index = int(evaluated.fitness.argmax())
    stats = GenerationStats(
        best_fitness=float(evaluated.fitness[best_index]),
        mean_fitness=float(evaluated.fitness.mean()),
        species_count=len(species),
        mean_live_nodes=float(live_nodes.mean()),
        mean_live_conns=float(live_conns.mean()),
        elapsed_seconds=0.0,
        solved=False,
        best_genome=evaluated.genome(best_index),
    )

    if stats.best_fitness >= config.fitness_target:
        stats.solved = True
        stats.elapsed_seconds = time.perf_counter() - start
        return evaluated, species, stats

    survivors = update_stagnation(species, evaluated.fitness, config)
    if not survivors:
        raise ExtinctionError("all species stagnated; increase species_elitism")
    allocated = allocate_spawns(survivors, evaluated.fitness, config)
    offspring = reproduce(evaluated, allocated, evaluated.fitness, config, rng,
                          allocator, threads=threads, sequential=sequential)
    new_pop, new_species = speciate(offspring, allocated, config, sequential=sequential)

    stats.elapsed_seconds = time.perf_counter() - start
    return new_pop, new_species, stats
