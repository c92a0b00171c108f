"""Mutation, crossover, distance, speciation, and the generation step.

All heavy operators are written against a leading population axis and draw
randomness from counter-based per-genome streams (path = generation, stage,
slot index).  Because draws are pure functions of (stream key, counter) and
numpy elementwise math is position-independent, running the same operator on
one genome, on a chunk, or on the whole population produces bitwise-identical
results.  Thread workers therefore only partition rows, and the forced
per-genome path, which ``arrayneat bench`` and the scaling test in
``tests/test_acceptance.py`` time against the vectorized path, replays its
exact trajectory.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import NeatConfig
from .errors import CapacityFull, ExtinctionError, ShapeMismatch
from .genome import (CONN_ATTRS, CONN_ENABLED, CONN_HEADROOM, CONN_IN, CONN_OUT,
                     CONN_WEIGHT, NODE_ACT, NODE_AGG, NODE_ATTRS, NODE_BIAS, NODE_HEADROOM,
                     NODE_KEY, NODE_RESPONSE, GenomeTensors, PopulationTensors,
                     stored_width, with_rows)
from .parallel import run_chunked
from .rng import RngStream, box_muller
from .search import (PAIR_SHIFT, bit_address, bitset_members, bitsets, match_aligned,
                     pair_codes, rows_of_io_keys)
from .search import match_rows  # noqa: F401  (no caller here; benchmark/tracer.py wraps it)

# stage tags for stream paths
STAGE_INIT = 0
STAGE_EVAL = 1
STAGE_REPRODUCE = 2

_SPAWN_EPSILON = 1e-9  # keeps spawn targets defined when all means coincide


@dataclass
class NodeKeyAllocator:
    """Monotone source of fresh historical markers; never reissues a key.

    Keys stay below ``PAIR_SHIFT`` (2**26), where connection pair codes stop
    being exact; ``reserve`` raises ``CapacityFull`` rather than cross it.
    """
    next_key: int

    def reserve(self, count: int) -> int:
        base = self.next_key
        if base + count > PAIR_SHIFT:
            raise CapacityFull(
                f"cannot reserve {count} node keys from key {base}: keys must stay "
                f"below {int(PAIR_SHIFT)} (2**26), where connection pair codes stop "
                f"being exact; reproduce reserves pop_size keys every generation, so "
                f"a run lasts at most 2**26 / pop_size generations")
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
                    rng: RngStream, capacity: tuple[int, int]) -> None:
    """Blend attributes of the less fit parent into owned fitter-parent arrays.

    Topology (and padding layout) comes from the fitter parent, ``out_*``;
    each attribute of a gene that is also live in the less fit parent is
    taken from either parent with probability one half.  The blocks may be
    stored at any width up to the capacity; the less fit parents' blocks
    may be cut to any prefix that holds every live row of both blocks, and
    matching runs on that prefix of both.  Node genes are matched by key,
    then connection genes by their (in_key, out_key) pair code.  Coin draws
    cover a fixed (max_nodes x 4) + (max_conns x 2) grid, ``capacity`` being
    (max_nodes, max_conns), node coins first, each drawn right after its
    gene kind is matched, and are only computed at the homologous cells
    that consume them.
    """
    for out, less, identity, first, attrs, stride in (
            (out_nodes, less_nodes, lambda nodes: nodes[:, :, NODE_KEY], NODE_BIAS,
             NODE_ATTRS, capacity[0]),
            (out_conns, less_conns, pair_codes, CONN_ENABLED, CONN_ATTRS, capacity[1])):
        out = out[:, :less.shape[1]]
        src, has = match_aligned(identity(out), identity(less))
        pm, rm = np.nonzero(has)
        cols = slice(first, first + attrs)
        coins = rng.uniforms_at(stride * attrs, pm[:, None],
                                rm[:, None] * attrs + np.arange(attrs))
        out[pm, rm, cols] = np.where(coins < 0.5, less[pm, src[pm, rm], cols], out[pm, rm, cols])


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
    _crossover_into(nodes[None], conns[None], parent_less.nodes[None], parent_less.conns[None],
                    rng, (parent_fit.max_nodes, parent_fit.max_conns))
    return GenomeTensors(nodes, conns, parent_fit.num_inputs, parent_fit.num_outputs)


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------

def mutate_arrays(nodes: np.ndarray, conns: np.ndarray, config: NeatConfig,
                  rng: RngStream, new_node_keys: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the five mutation sub-steps to every genome at once, in place.

    Callers pass ``nodes`` and ``conns`` they own, stored at a width that
    holds every live row plus mutation's headroom (``NODE_HEADROOM`` node
    rows, ``CONN_HEADROOM`` connection rows), or at the capacity,
    ``config.max_nodes``/``max_conns``.  Addition fills the first free row,
    so every write lands inside that width, and a genome has as many free
    rows as a sub-step needs in it exactly when it has them in the capacity.
    Draws take the capacity as their stride, not the width.  Sub-step order
    is fixed: node addition, node deletion, connection addition, connection
    deletion, attribute perturbation.  Structural steps that cannot proceed
    (no candidates, capacity full) are silent no-ops.  ``new_node_keys``
    holds one pre-reserved key per genome, consumed only by a firing node
    addition.  Returns the same two arrays plus the mask of genomes whose
    node addition fired.
    """
    pop = nodes.shape[0]
    n, c = config.max_nodes, config.max_conns
    n_io = config.inputs + config.outputs

    # the cells of uniforms(4), uniforms(4), normals(1) and normals(1), in one draw
    u = rng.uniforms(12).reshape(pop, 12)
    u_struct, u_pick = u[:, :4], u[:, 4:8]
    z_new_bias, z_new_weight = box_muller(u[:, 8::2], u[:, 9::2]).T

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

    # (5) attribute perturbation over every live gene.  The draw grids are
    # (pop, capacity) grids laid on the tape in this order: per attribute with
    # a rate above 0, replace and mutate uniforms, then the Box-Muller pairs of
    # the noise and of the replacement value whose rate is above 0; the enabled
    # flip; per categorical attribute with a rate above 0, hit and choice
    # uniforms.  Each is drawn where it is used, at the cells that read it
    # (draws are pure in (key, counter)).
    node_cells = np.nonzero(~np.isnan(nodes[:, :, NODE_KEY]))
    conn_cells = np.nonzero(~np.isnan(conns[:, :, CONN_IN]))
    for tensor, col, (pm, cm), width, replace_rate, mutate_rate, power, mean, std in (
            (nodes, NODE_BIAS, node_cells, n, config.bias_replace_rate, config.bias_mutate_rate,
             config.bias_mutate_power, config.bias_init_mean, config.bias_init_std),
            (nodes, NODE_RESPONSE, node_cells, n, config.response_replace_rate,
             config.response_mutate_rate, config.response_mutate_power,
             config.response_init_mean, config.response_init_std),
            (conns, CONN_WEIGHT, conn_cells, c, config.weight_replace_rate,
             config.weight_mutate_rate, config.weight_mutate_power,
             config.weight_init_mean, config.weight_init_std)):
        if not (replace_rate > 0.0 or mutate_rate > 0.0):
            continue
        replaced = rng.uniforms_at(width, pm, cm) < replace_rate
        mutated = ~replaced & (rng.uniforms_at(width, pm, cm) < mutate_rate)
        value = tensor[pm, cm, col]
        if mutate_rate > 0.0:
            value[mutated] += power * rng.normals_at(width, pm[mutated], cm[mutated])
        if replace_rate > 0.0:
            value[replaced] = mean + std * rng.normals_at(width, pm[replaced], cm[replaced])
        changed = replaced | mutated
        tensor[pm[changed], cm[changed], col] = np.clip(
            value[changed], config.attr_min, config.attr_max)

    if config.enabled_mutate_rate > 0.0:
        pm, cm = conn_cells
        flip = rng.uniforms_at(c, pm, cm) < config.enabled_mutate_rate
        conns[pm[flip], cm[flip], CONN_ENABLED] = 1.0 - conns[pm[flip], cm[flip], CONN_ENABLED]

    for col, options, rate in ((NODE_ACT, config.activation_option_ids,
                                config.activation_replace_rate),
                               (NODE_AGG, config.aggregation_option_ids,
                                config.aggregation_replace_rate)):
        if rate > 0.0:
            pm, cm = node_cells
            hit = rng.uniforms_at(n, pm, cm) < rate
            pm, cm = pm[hit], cm[hit]
            table = np.asarray(options, dtype=np.float64)
            idx = np.minimum((rng.uniforms_at(n, pm, cm) * table.size).astype(np.int64),
                             table.size - 1)
            nodes[pm, cm, col] = table[idx]

    return nodes, conns, can_add


def _add_connections(nodes: np.ndarray, conns: np.ndarray, config: NeatConfig,
                     sub: np.ndarray, u_pick: np.ndarray, z_weight: np.ndarray) -> None:
    """Connection-addition sub-step for the fired genome subset (in place).

    Candidates are (source row, target row) pairs of live nodes, enumerated
    row-major.  Reachable sets are bitsets of ``ceil(n / 64)`` words over the
    ``n`` stored node rows, so the acyclicity closure pays for little
    padding.  All quantities here are boolean or integer, hence exact
    regardless of how the population is batched.
    """
    n_io = config.inputs + config.outputs
    n, c = nodes.shape[1], conns.shape[1]
    keys = nodes[sub, :, NODE_KEY]
    live_node = ~np.isnan(keys)
    endpoint_rows, _ = rows_of_io_keys(
        np.concatenate([conns[sub, :, CONN_IN], conns[sub, :, CONN_OUT]], axis=1), keys, n_io)
    live_conn = ~np.isnan(conns[sub, :, CONN_IN])
    count = sub.size
    fm, cm = np.nonzero(live_conn)
    # row u of ``reach`` starts as the set of rows u has a live connection to
    reach = bitsets((count, n), n, (fm, endpoint_rows[fm, cm]), endpoint_rows[fm, c + cm])

    allowed = live_node[:, :, None] & live_node[:, None, :] & ~bitset_members(reach, n)
    allowed &= ~((keys >= config.inputs) & (keys < n_io))[:, :, None]  # from an output
    allowed &= ~(keys < config.inputs)[:, None, :]  # into an input
    if config.network_type == "feedforward":
        # u -> v is safe iff v does not already reach u over live connections;
        # bitset Floyd-Warshall closes ``reach`` over paths, u reaching itself
        rows = np.arange(n)
        word, bit = bit_address(rows)
        reach[:, rows, word] |= bit
        for k in rows:
            via_k = (reach[:, :, word[k], None] & bit[k]) != 0
            reach |= via_k * reach[:, k, None, :]
        allowed &= ~np.transpose(bitset_members(reach, n), (0, 2, 1))

    pick_flat, has_candidate = _pick_kth_true(allowed.reshape(count, n * n), u_pick)
    src_row, dst_row = np.divmod(pick_flat, n)
    free_row = (~live_conn).argmax(axis=1)
    new_weight = config.weight_init_mean + config.weight_init_std * z_weight

    tgt = np.nonzero(has_candidate)[0]
    if tgt.size:
        genome = sub[tgt]
        conns[genome, free_row[tgt]] = np.column_stack([
            keys[tgt, src_row[tgt]],
            keys[tgt, dst_row[tgt]],
            np.ones(tgt.size),
            new_weight[tgt]])


def mutate(genome: GenomeTensors, config: NeatConfig, rng: RngStream,
           allocator: NodeKeyAllocator) -> GenomeTensors:
    """Mutate one genome; consumes one allocator key only if node addition fires."""
    if (genome.max_nodes, genome.max_conns) != (config.max_nodes, config.max_conns):
        raise ShapeMismatch(f"genome capacity {genome.max_nodes}/{genome.max_conns} differs "
                            f"from the config's {config.max_nodes}/{config.max_conns}")
    provisional = float(allocator.next_key)
    nodes, conns = genome.nodes.copy(), genome.conns.copy()
    _, _, added = mutate_arrays(nodes[None], conns[None], config, rng, np.array([provisional]))
    if added[0]:
        allocator.allocate()
    return GenomeTensors(nodes, conns, genome.num_inputs, genome.num_outputs)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def _node_codes(genes: np.ndarray) -> np.ndarray:
    return genes[:, NODE_KEY]


def _node_pair_distance(own: np.ndarray, other: np.ndarray) -> np.ndarray:
    return (np.abs(own[:, NODE_BIAS] - other[:, NODE_BIAS])
            + np.abs(own[:, NODE_RESPONSE] - other[:, NODE_RESPONSE])
            + (own[:, NODE_AGG] != other[:, NODE_AGG])
            + (own[:, NODE_ACT] != other[:, NODE_ACT])) / 4.0


def _conn_pair_distance(own: np.ndarray, other: np.ndarray) -> np.ndarray:
    return (np.abs(own[:, CONN_WEIGHT] - other[:, CONN_WEIGHT])
            + np.abs(own[:, CONN_ENABLED] - other[:, CONN_ENABLED])) / 2.0


# per gene kind, nodes then connections: key column, identity codes, pair distance
_GENE_KINDS = ((NODE_KEY, _node_codes, _node_pair_distance),
               (CONN_IN, pair_codes, _conn_pair_distance))


def _live_genes(nodes: np.ndarray, conns: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Every live gene of a population block, per gene kind (nodes, then
    connections): (owner, rows, codes, index), in row-major order.

    ``owner`` is the genome that holds each gene, ``rows`` the gene rows and
    ``codes`` their identities (node keys, connection pair codes).  ``index``
    is each gene's row in ``rows``, so a caller that keeps a subset of the
    genes keeps the owners, codes and indices and leaves the rows in place.
    """
    genes = []
    for block, (col, codes_of, _) in zip((nodes, conns), _GENE_KINDS):
        # one read of the whole key column: finding the occupied prefix first
        # (genome.occupied) would read it once more and cost more than it saves
        width = block.shape[1]
        cells = np.flatnonzero(~np.isnan(block[:, :, col]))  # row-major
        # the explicit column count lets a block of width 0 reshape
        rows = block.reshape(block.shape[0] * width, block.shape[2]).take(cells, axis=0)
        genes.append((cells // width, rows, codes_of(rows), np.arange(cells.size)))
    return genes


def _live_counts(genes: list[tuple[np.ndarray, ...]], size: int) -> np.ndarray:
    """Live genes per owner, (size,) int64."""
    return sum(np.bincount(owner, minlength=size) for owner, *_ in genes)


def _distances_to(genes: list[tuple[np.ndarray, ...]], live_counts: np.ndarray,
                  rep_nodes: np.ndarray, rep_conns: np.ndarray,
                  config: NeatConfig) -> np.ndarray:
    """Distance from each genome of ``live_counts`` to one representative.

    ``genes`` are gathered as ``_live_genes`` gathers them, possibly a subset
    with ``owner`` renumbered into ``live_counts``; ``rep_nodes`` and
    ``rep_conns`` are one genome's blocks, at any width.  Each of the
    representative's gene kinds is sorted by code once, and every gathered
    gene is looked up in it.  A genome's pair distances are summed in its row
    order, node sums before connection sums, so its distance is bitwise the
    value a one-genome call gives.
    """
    size = live_counts.size
    homologous = np.zeros(size, dtype=np.int64)
    pair_sum = np.zeros(size)
    live2 = 0
    for (owner, rows, codes, index), rep, (col, codes_of, pair_distance) in zip(
            genes, (rep_nodes, rep_conns), _GENE_KINDS):
        other = rep[~np.isnan(rep[:, col])]
        other_codes = codes_of(other)
        order = np.argsort(other_codes)
        table = np.append(other_codes[order], np.inf)  # sentinel: never found
        pos = np.searchsorted(table, codes)
        hit = np.flatnonzero(table[pos] == codes)
        matched = other.take(order[pos[hit]], axis=0)
        live2 += len(other)
        homologous += np.bincount(owner[hit], minlength=size)
        pair_sum += np.bincount(
            owner[hit], weights=pair_distance(rows.take(index[hit], axis=0), matched),
            minlength=size)

    disjoint = (live_counts - homologous) + (live2 - homologous)
    attr_mean = np.where(homologous > 0, pair_sum / np.maximum(homologous, 1), 0.0)
    total = np.maximum(live_counts, live2)
    return (config.compatibility_disjoint * disjoint / total
            + config.compatibility_homologous * attr_mean)


def distance_arrays(nodes1: np.ndarray, conns1: np.ndarray,
                    nodes2: np.ndarray, conns2: np.ndarray,
                    config: NeatConfig) -> np.ndarray:
    """(G2, P) distances from each of the P genomes of block 1 to each of the
    G2 genomes of block 2; the two blocks may differ in capacity.

    d = c_disjoint * D / N + c_homologous * A where D counts genes live in
    exactly one genome, A is the mean over homologous gene pairs of the mean
    absolute attribute difference (categorical attributes contribute 0/1),
    and N is the larger total live gene count.  Matching is one-to-one by
    key, so the second genome's disjoint count is its live count minus the
    number of matched pairs.

    Block 1's live genes are gathered once (``_live_genes``) and measured
    against each block-2 genome in turn (``_distances_to``), so the work
    scales with live genes rather than capacity, and every entry is bitwise
    equal to a one-genome call.
    """
    genes = _live_genes(nodes1, conns1)
    live1 = _live_counts(genes, nodes1.shape[0])
    result = np.empty((nodes2.shape[0], nodes1.shape[0]))
    for j in range(nodes2.shape[0]):
        result[j] = _distances_to(genes, live1, nodes2[j], conns2[j], config)
    return result


def distance(g1: GenomeTensors, g2: GenomeTensors, config: NeatConfig) -> float:
    """Distance between two genomes (symmetric, non-negative, zero on self)."""
    if g1.num_inputs != g2.num_inputs or g1.num_outputs != g2.num_outputs:
        raise ShapeMismatch("genomes disagree on input/output counts")
    return float(distance_arrays(g1.nodes[None], g1.conns[None],
                                 g2.nodes[None], g2.conns[None], config)[0, 0])


# ---------------------------------------------------------------------------
# speciation
# ---------------------------------------------------------------------------

def speciate(pop: PopulationTensors, species: list[SpeciesState], config: NeatConfig,
             sequential: bool = False
             ) -> tuple[np.ndarray, list[SpeciesState]]:
    """Assign every genome to a species and refresh representatives.

    Returns each genome's species key, (P,) int64, and the species list.

    Genomes join the first species (ascending key) whose representative is
    within the compatibility threshold.  A genome matching none founds a new
    species while the species cap allows, otherwise it joins the nearest
    species.  Afterwards each species' representative becomes the member
    closest to the old representative, and empty species are dropped.

    One first-fit loop takes the representatives in that order, old species
    first, then as founder the lowest genome still unassigned.  The
    population's live genes are gathered once; each representative is
    measured only against the genes of the genomes still unassigned (one call
    per genome when sequential), so every distance a decision reads is
    computed and no other.  Between representatives only the owner, code and
    index arrays of the genes still unassigned are kept; no gene row is
    copied.
    """
    count = pop.size
    ordered = sorted(species, key=lambda s: s.species_key)
    next_key = max((sp.species_key for sp in ordered), default=-1) + 1
    # (key, prior state or None for a founder, distances of the genomes it measured)
    taken: list[tuple[int, SpeciesState | None, np.ndarray]] = []
    assigned = np.full(count, -1, dtype=np.int64)
    pending = np.arange(count)
    # the pending genomes' genes, owners numbered by position in ``pending``
    genes = _live_genes(pop.nodes, pop.conns)
    live = _live_counts(genes, count)
    while pending.size and len(taken) < max(len(ordered), config.max_species):
        if len(taken) < len(ordered):
            prior = ordered[len(taken)]
            key, rep_nodes, rep_conns = (prior.species_key, prior.representative.nodes,
                                         prior.representative.conns)
        else:
            prior, key, next_key = None, next_key, next_key + 1
            rep_nodes, rep_conns = pop.nodes[pending[0]], pop.conns[pending[0]]
        row = np.empty(count)
        if sequential:
            # owners are sorted, so each genome's genes are one slice of each kind
            bounds = [np.searchsorted(owner, np.arange(pending.size + 1)) for owner, *_ in genes]
            for k, genome in enumerate(pending):
                own = [(owner[lo[k]:lo[k + 1]] - k, rows, codes[lo[k]:lo[k + 1]],
                        index[lo[k]:lo[k + 1]])
                       for (owner, rows, codes, index), lo in zip(genes, bounds)]
                row[genome] = _distances_to(own, live[k:k + 1], rep_nodes, rep_conns, config)[0]
        else:
            row[pending] = _distances_to(genes, live, rep_nodes, rep_conns, config)
        close = row[pending] <= config.compatibility_threshold
        close[0] |= prior is None  # a founder joins its own species
        assigned[pending[close]] = key
        pending, live = pending[~close], live[~close]
        position = np.cumsum(~close) - 1  # new position of each genome still pending
        kept = []
        for owner, rows, codes, index in genes:
            keep = ~close[owner]
            kept.append((position[owner[keep]], rows, codes[keep], index[keep]))
        genes = kept
        taken.append((key, prior, row))
    if pending.size:  # the cap is reached: each genome left joins its nearest species
        nearest = np.stack([row[pending] for _, _, row in taken]).argmin(axis=0)
        assigned[pending] = np.array([key for key, _, _ in taken], dtype=np.int64)[nearest]

    result: list[SpeciesState] = []
    for key, prior, row in taken:
        members = np.nonzero(assigned == key)[0]
        if members.size == 0:
            continue
        closest = members[int(row[members].argmin())]
        new_rep = pop.genome(int(closest))
        if prior is not None:
            result.append(replace(prior, representative=new_rep, member_indices=members))
        else:
            result.append(SpeciesState(species_key=key, representative=new_rep,
                                       member_indices=members))
    return assigned, result


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
                    config: NeatConfig) -> dict[int, int]:
    """Distribute next-generation slots across species: species key -> slots.

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
    return {sp.species_key: int(spawn) for sp, spawn in zip(ordered, new)}


# ---------------------------------------------------------------------------
# reproduction
# ---------------------------------------------------------------------------

def reproduce(pop: PopulationTensors, species: list[SpeciesState], spawns: dict[int, int],
              fitness: np.ndarray, config: NeatConfig, rng: RngStream,
              allocator: NodeKeyAllocator, threads: int = 1,
              sequential: bool = False) -> PopulationTensors:
    """Build the next generation: per-species elites plus mutated crossover.

    Each species fills ``spawns[species_key]`` slots.  Slot layout is
    deterministic (species in key order, elites first).  Every slot owns the
    stream (generation, STAGE_REPRODUCE, slot) and one reserved node key, so
    the result is independent of chunking or thread count.

    The next population is stored at the widths that hold every row live in
    a parent plus mutation's headroom: a child starts from its fitter
    parent's rows and gains at most that headroom.
    """
    capacity = config.max_nodes, config.max_conns
    if (pop.max_nodes, pop.max_conns) != capacity:
        raise ShapeMismatch(f"population capacity {pop.max_nodes}/{pop.max_conns} differs "
                            f"from the config's {capacity[0]}/{capacity[1]}")
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
        spawn = spawns[sp.species_key]
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

    width_nodes = stored_width(pop.nodes, config.max_nodes, NODE_HEADROOM)
    width_conns = stored_width(pop.conns, config.max_conns, CONN_HEADROOM)
    out_nodes = np.empty((total, width_nodes, pop.nodes.shape[2]))
    out_conns = np.empty((total, width_conns, pop.conns.shape[2]))
    # every parent row that is live somewhere, and padding past it
    parent_nodes, parent_conns = pop.nodes[:, :width_nodes], pop.conns[:, :width_conns]
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
        # children are built in their rows of the next population
        child_nodes = out_nodes[lo:hi]
        child_conns = out_conns[lo:hi]
        for child, parents in ((child_nodes, parent_nodes), (child_conns, parent_conns)):
            # mode="clip" lets take write into ``out`` without buffering (indices are valid)
            np.take(parents, fit_idx, axis=0, out=child[:, :parents.shape[1]], mode="clip")
            child[:, parents.shape[1]:] = np.nan
        _crossover_into(child_nodes, child_conns, parent_nodes[less_idx],
                        parent_conns[less_idx], streams, capacity)
        mutate_arrays(child_nodes, child_conns, config, streams, new_keys[lo:hi])
        elites = elite_src[lo:hi]
        mask = elites >= 0
        if mask.any():
            # whole rows, so no row mutation wrote survives past a parent's width
            child_nodes[mask] = with_rows(parent_nodes[elites[mask]], width_nodes)
            child_conns[mask] = with_rows(parent_conns[elites[mask]], width_conns)

    run_chunked(total, threads, sequential, work)
    return PopulationTensors(out_nodes, out_conns, pop.num_inputs, pop.num_outputs, *capacity)


# ---------------------------------------------------------------------------
# one generation
# ---------------------------------------------------------------------------

def evolve_step(pop: PopulationTensors, species: list[SpeciesState], config: NeatConfig,
                rng: RngStream, allocator: NodeKeyAllocator, problem,
                threads: int = 1, sequential: bool = False
                ) -> tuple[PopulationTensors, list[SpeciesState], GenerationStats]:
    """Evaluate, then stagnate, allocate, reproduce, and re-speciate.

    ``rng`` must already be scoped to this generation (the caller passes
    ``root.child(generation)``).  When the fitness target is reached ``pop``
    itself is returned with ``stats.solved`` set and no reproduction happens.
    """
    if pop.size == 0:
        raise ShapeMismatch("cannot evolve a population with no genomes")
    start = time.perf_counter()

    fitness = np.asarray(problem.evaluate_population_tensors(
        pop, rng.child(STAGE_EVAL), threads=threads, sequential=sequential), dtype=np.float64)

    live_nodes = (~np.isnan(pop.nodes[:, :, NODE_KEY])).sum(axis=1)
    live_conns = (~np.isnan(pop.conns[:, :, CONN_IN])).sum(axis=1)
    best_index = int(fitness.argmax())
    stats = GenerationStats(
        best_fitness=float(fitness[best_index]),
        mean_fitness=float(fitness.mean()),
        species_count=len(species),
        mean_live_nodes=float(live_nodes.mean()),
        mean_live_conns=float(live_conns.mean()),
        elapsed_seconds=0.0,
        solved=False,
        best_genome=pop.genome(best_index),
    )

    if stats.best_fitness >= config.fitness_target:
        stats.solved = True
        stats.elapsed_seconds = time.perf_counter() - start
        return pop, species, stats

    survivors = update_stagnation(species, fitness, config)
    if not survivors:
        raise ExtinctionError("all species stagnated; increase species_elitism")
    spawns = allocate_spawns(survivors, fitness, config)
    offspring = reproduce(pop, survivors, spawns, fitness, config, rng, allocator,
                          threads=threads, sequential=sequential)
    _, new_species = speciate(offspring, survivors, config, sequential=sequential)

    stats.elapsed_seconds = time.perf_counter() - start
    return offspring, new_species, stats
