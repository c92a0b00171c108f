"""Mutation, crossover, distance, speciation, spawn allocation, generation step."""

import numpy as np
import pytest

from arrayneat import (CapacityFull, ConnRow, GenomeTensors, NodeKeyAllocator, PopulationTensors,
                       RngStream, ShapeMismatch, SpeciesState, add_conn, allocate_spawns,
                       crossover, decode, distance, evolve_step, genomes_equal,
                       graph_distance, init_genome, init_state, make_problem, mutate,
                       reproduce, set_conn_attr, speciate, update_stagnation)
from arrayneat.genome import (CONN_ENABLED, CONN_HEADROOM, CONN_IN, CONN_OUT, CONN_WEIGHT,
                              NODE_ACT, NODE_AGG, NODE_BIAS, NODE_HEADROOM, NODE_KEY,
                              NODE_RESPONSE, check_integrity, stored_width, with_rows)

from arrayneat import evolution
from arrayneat.evolution import _add_connections, _distances_to, distance_arrays

from conftest import (dfs_has_cycle, grown_population, live_conn_pairs, live_node_keys,
                      make_config, random_genome)


def busy_config(**overrides):
    """Every structural and attribute mutation fires often."""
    base = dict(node_add=0.5, node_delete=0.2, conn_add=0.6, conn_delete=0.2,
                response_mutate_rate=0.3, response_mutate_power=0.3,
                enabled_mutate_rate=0.2, activation_options=("tanh", "relu"),
                activation_replace_rate=0.3, aggregation_options=("sum", "max"),
                aggregation_replace_rate=0.3)
    base.update(overrides)
    return make_config(**base)


def frozen_copy(*arrays) -> list[bytes]:
    return [a.tobytes() for a in arrays]


def quiet_config(**overrides):
    """All mutation activity off unless explicitly enabled."""
    base = dict(node_add=0.0, node_delete=0.0, conn_add=0.0, conn_delete=0.0,
                bias_mutate_rate=0.0, bias_replace_rate=0.0,
                response_mutate_rate=0.0, response_replace_rate=0.0,
                weight_mutate_rate=0.0, weight_replace_rate=0.0)
    base.update(overrides)
    return make_config(**base)


# Step 5 of mutate_arrays: each case switches on some attribute grids
STEP5_RATES = {
    "weight-mutate": dict(weight_mutate_rate=0.6, weight_mutate_power=0.5),
    "bias": dict(bias_replace_rate=0.3, bias_mutate_rate=0.5, bias_mutate_power=0.7),
    "response": dict(response_replace_rate=0.3, response_mutate_rate=0.5,
                     response_mutate_power=0.4, response_init_std=0.2),
    "weight": dict(weight_replace_rate=0.3, weight_mutate_rate=0.5),
    "enabled": dict(enabled_mutate_rate=0.4),
    "categorical": dict(activation_options=("tanh", "relu", "sigmoid"),
                        activation_replace_rate=0.6,
                        aggregation_options=("sum", "max"), aggregation_replace_rate=0.5),
    "all": dict(bias_replace_rate=0.2, bias_mutate_rate=0.6, response_replace_rate=0.25,
                response_mutate_rate=0.4, response_mutate_power=0.3, response_init_std=0.2,
                weight_replace_rate=0.15, weight_mutate_rate=0.7, enabled_mutate_rate=0.3,
                activation_options=("tanh", "relu", "sigmoid"), activation_replace_rate=0.5,
                aggregation_options=("sum", "max", "mean"), aggregation_replace_rate=0.4),
}


def grown_genome(index: int = 0) -> GenomeTensors:
    """Genome ``index`` of four grown by ten rounds of mutation, at capacity
    12/24.  Genome 0 has 8 live node rows and 17 live connection rows, 8 of
    them disabled, then padding; genome 3 has 24 live connection rows, 22 of
    them not in genome 0."""
    config = make_config(pop_size=4, node_add=0.5, conn_add=0.9, node_delete=0.0,
                         conn_delete=0.0, enabled_mutate_rate=0.2)
    return grown_population(config, 10, seed=7).genome(index)


def replay_perturbation(genome: GenomeTensors, config, stream: RngStream):
    """Oracle for mutation step 5 on one genome whose structural rates are 0.

    Replays the dense grids in tape order and applies each rule cell by cell
    in plain python: per attribute with a rate above 0, replace and mutate
    uniforms, then the noise and the replacement normals whose rate is above
    0; the enabled flip; per categorical attribute hit and choice uniforms.
    """
    nodes, conns = genome.nodes.copy(), genome.conns.copy()
    n, c = config.max_nodes, config.max_conns
    stream.uniforms(4)   # structural decisions
    stream.uniforms(4)   # structural picks
    stream.normals(1)    # reserved new-node bias
    stream.normals(1)    # reserved new-connection weight
    for block, col, width, name in ((nodes, NODE_BIAS, n, "bias"),
                                    (nodes, NODE_RESPONSE, n, "response"),
                                    (conns, CONN_WEIGHT, c, "weight")):
        replace_rate = getattr(config, f"{name}_replace_rate")
        mutate_rate = getattr(config, f"{name}_mutate_rate")
        if replace_rate == 0.0 and mutate_rate == 0.0:
            continue
        u_replace, u_mutate = stream.uniforms(width), stream.uniforms(width)
        noise = stream.normals(width) if mutate_rate > 0.0 else None
        fresh = stream.normals(width) if replace_rate > 0.0 else None
        for i in range(width):
            if np.isnan(block[i, 0]):
                continue
            if u_replace[i] < replace_rate:
                value = (getattr(config, f"{name}_init_mean")
                         + getattr(config, f"{name}_init_std") * fresh[i])
            elif u_mutate[i] < mutate_rate:
                value = block[i, col] + getattr(config, f"{name}_mutate_power") * noise[i]
            else:
                continue
            block[i, col] = min(max(value, config.attr_min), config.attr_max)
    if config.enabled_mutate_rate > 0.0:
        flip = stream.uniforms(c)
        for i in range(c):
            if not np.isnan(conns[i, CONN_IN]) and flip[i] < config.enabled_mutate_rate:
                conns[i, CONN_ENABLED] = 1.0 - conns[i, CONN_ENABLED]
    for col, options, rate in ((NODE_ACT, config.activation_option_ids,
                                config.activation_replace_rate),
                               (NODE_AGG, config.aggregation_option_ids,
                                config.aggregation_replace_rate)):
        if rate > 0.0:
            hit, choice = stream.uniforms(n), stream.uniforms(n)
            for i in range(n):
                if not np.isnan(nodes[i, NODE_KEY]) and hit[i] < rate:
                    nodes[i, col] = options[min(int(choice[i] * len(options)), len(options) - 1)]
    return nodes, conns


class TestMutate:
    def test_all_rates_zero_is_identity(self):
        config = quiet_config()
        g = random_genome(1, config)
        out = mutate(g, config, RngStream(0).child(0, 2, 0), NodeKeyAllocator(100))
        assert genomes_equal(out, g)

    def test_forced_node_split(self):
        config = quiet_config(inputs=1, outputs=1, max_nodes=6, max_conns=6,
                              node_add=1.0, response_init_mean=1.0)
        g = init_genome(config, RngStream(5).child(0, 0, 0))
        g = set_conn_attr(g, 0, 1, 1, 0.7)
        allocator = NodeKeyAllocator(2)
        out = mutate(g, config, RngStream(0).child(0, 2, 0), allocator)
        assert allocator.next_key == 3  # one key consumed
        assert sorted(live_node_keys(out)) == [0, 1, 2]
        pairs = dict()
        for row in out.conns:
            if not np.isnan(row[CONN_IN]):
                pairs[(int(row[CONN_IN]), int(row[CONN_OUT]))] = row
        assert pairs[(0, 1)][CONN_ENABLED] == 0.0
        assert pairs[(0, 1)][CONN_WEIGHT] == 0.7
        assert pairs[(0, 2)][CONN_ENABLED] == 1.0 and pairs[(0, 2)][CONN_WEIGHT] == 1.0
        assert pairs[(2, 1)][CONN_ENABLED] == 1.0 and pairs[(2, 1)][CONN_WEIGHT] == 0.7
        new_row = out.nodes[np.nonzero(out.nodes[:, NODE_KEY] == 2.0)[0][0]]
        assert new_row[NODE_RESPONSE] == config.response_init_mean

    def test_node_add_skipped_when_capacity_full(self):
        config = quiet_config(inputs=1, outputs=1, max_nodes=2, max_conns=4, node_add=1.0)
        g = init_genome(config, RngStream(5).child(0, 0, 0))
        allocator = NodeKeyAllocator(2)
        out = mutate(g, config, RngStream(0).child(0, 2, 0), allocator)
        assert genomes_equal(out, g)
        assert allocator.next_key == 2  # infeasible step consumes nothing

    def test_conn_add_on_saturated_pair_set_is_noop(self):
        config = quiet_config(inputs=1, outputs=1, max_nodes=4, max_conns=4, conn_add=1.0)
        g = init_genome(config, RngStream(5).child(0, 0, 0))
        out = mutate(g, config, RngStream(1).child(0, 2, 0), NodeKeyAllocator(2))
        assert genomes_equal(out, g)

    def test_conn_add_only_adds_missing_acyclic_pair(self):
        config = quiet_config(conn_add=1.0)
        for seed in range(10):
            g = random_genome(seed, config, n_ops=20)
            before = set(live_conn_pairs(g))
            out = mutate(g, config, RngStream(seed).child(0, 2, 0), NodeKeyAllocator(500))
            after = set(live_conn_pairs(out))
            assert before <= after and len(after) - len(before) <= 1
            if after != before:
                (src, dst), = after - before
                assert dst >= config.inputs                      # never into an input
                assert not (config.inputs <= src < config.inputs + config.outputs)
            assert not dfs_has_cycle(out)                        # live graph stays acyclic
            check_integrity(out)

    def test_conn_add_beyond_64_live_nodes_stays_acyclic(self):
        config = quiet_config(max_nodes=100, max_conns=400, pop_size=8,
                              node_add=0.9, conn_add=1.0)
        pop = grown_population(config, rounds=90)
        assert (~np.isnan(pop.nodes[:, :, NODE_KEY])).sum(axis=1).min() > 64
        for i in range(pop.size):
            genome = pop.genome(i)
            assert not dfs_has_cycle(genome)
            check_integrity(genome)

    def test_conn_add_candidates_match_brute_force_reachability(self):
        config = quiet_config(max_nodes=100, max_conns=300, pop_size=4,
                              node_add=0.9, conn_add=0.5)
        pop = grown_population(config, rounds=80, seed=3)
        live = (~np.isnan(pop.nodes[:, :, NODE_KEY])).sum(axis=1)
        genome = pop.genome(int(live.argmax()))
        keys = live_node_keys(genome)                    # in row order
        assert len(keys) > 64
        free_row = int(np.isnan(genome.conns[:, CONN_IN]).argmax())
        assert np.isnan(genome.conns[free_row, CONN_IN])

        children: dict[int, list[int]] = {}
        for i, o in live_conn_pairs(genome):
            children.setdefault(i, []).append(o)

        def descendants(key):
            seen, frontier = {key}, [key]
            while frontier:
                for nxt in children.get(frontier.pop(), []):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            return seen

        below = {k: descendants(k) for k in keys}
        present = set(live_conn_pairs(genome))
        n_io = config.inputs + config.outputs
        expected = [(u, v) for u in keys for v in keys
                    if not config.inputs <= u < n_io and v >= config.inputs
                    and (u, v) not in present and u not in below[v]]

        # the i-th of K candidates is picked by u = (i + 0.5) / K
        total = len(expected)
        picked = []
        for lo in range(0, total, 400):
            count = min(400, total - lo)
            nodes = np.repeat(genome.nodes[None], count, axis=0)
            conns = np.repeat(genome.conns[None], count, axis=0)
            u_pick = (np.arange(lo, lo + count) + 0.5) / total
            _add_connections(nodes, conns, config, np.arange(count), u_pick, np.zeros(count))
            picked += [(int(i), int(o)) for i, o in conns[:, free_row, :2]]
        assert picked == expected

    def test_input_arrays_unchanged(self):
        config = busy_config()
        for seed in range(6):
            g = random_genome(seed, config, n_ops=30)
            before = frozen_copy(g.nodes, g.conns)
            out = mutate(g, config, RngStream(seed).child(0, 2, 0), NodeKeyAllocator(500))
            assert frozen_copy(g.nodes, g.conns) == before
            assert not genomes_equal(out, g)

    def test_node_delete_cascades(self):
        config = quiet_config(node_delete=1.0)
        g = random_genome(3, config, n_ops=30)
        hidden = [k for k in live_node_keys(g) if k >= 3]
        out = mutate(g, config, RngStream(2).child(0, 2, 0), NodeKeyAllocator(500))
        if hidden:
            removed = set(live_node_keys(g)) - set(live_node_keys(out))
            assert len(removed) == 1
            check_integrity(out)
        else:
            assert genomes_equal(out, g)

    @pytest.mark.parametrize("rates", list(STEP5_RATES.values()), ids=list(STEP5_RATES))
    def test_attribute_perturbation_matches_scalar_replay_oracle(self, rates):
        config = quiet_config(**rates)
        g = grown_genome()
        out = mutate(g, config, RngStream(11).child(3, 2, 4), NodeKeyAllocator(500))
        nodes, conns = replay_perturbation(g, config, RngStream(11).child(3, 2, 4))
        assert np.array_equal(out.nodes, nodes, equal_nan=True)
        assert np.array_equal(out.conns, conns, equal_nan=True)
        assert not genomes_equal(out, g)

    def test_attribute_clamping(self):
        config = quiet_config(bias_mutate_rate=1.0, bias_mutate_power=1000.0)
        g = random_genome(2, config, n_ops=10)
        out = mutate(g, config, RngStream(1).child(0, 2, 0), NodeKeyAllocator(500))
        bias = out.nodes[:, 1]
        live = ~np.isnan(bias)
        assert np.all(bias[live] >= config.attr_min)
        assert np.all(bias[live] <= config.attr_max)

    def test_enabled_flip_rate(self):
        config = quiet_config(enabled_mutate_rate=1.0)
        g = grown_genome()
        out = mutate(g, config, RngStream(3).child(0, 2, 0), NodeKeyAllocator(500))
        live = ~np.isnan(g.conns[:, CONN_IN])
        assert live.sum() >= 14
        assert np.array_equal(out.conns[live, CONN_ENABLED],
                              1.0 - g.conns[live, CONN_ENABLED])


class TestDistance:
    def test_self_distance_zero(self, config):
        g = random_genome(5, config)
        assert distance(g, g, config) == 0.0

    def test_symmetry(self, config):
        g1 = random_genome(5, config)
        g2 = random_genome(6, config)
        assert distance(g1, g2, config) == pytest.approx(distance(g2, g1, config), abs=1e-12)

    def test_non_negative(self, config):
        for seed in range(10):
            g1 = random_genome(seed, config)
            g2 = random_genome(seed + 50, config)
            assert distance(g1, g2, config) >= 0.0

    def test_one_extra_connection_quantum(self):
        config = make_config(compatibility_disjoint=1.0, compatibility_homologous=0.5)
        g1 = random_genome(9, config, n_ops=12)
        pairs = set(live_conn_pairs(g1))
        keys = live_node_keys(g1)
        # add a connection between existing endpoints that stays acyclic
        from conftest import _reaches
        candidate = next((u, v) for u in keys for v in keys
                         if v >= config.inputs
                         and not (config.inputs <= u < config.inputs + config.outputs)
                         and (u, v) not in pairs and not _reaches(g1, v, u))
        g2 = add_conn(g1, ConnRow(candidate[0], candidate[1], 1.0, 0.4))
        nodes, conns = len(keys), len(pairs)
        expected = 1.0 / max(nodes + conns, nodes + conns + 1)
        assert distance(g1, g2, config) == pytest.approx(expected, abs=1e-12)

    def test_io_mismatch_raises(self):
        g1 = random_genome(1, make_config(inputs=2, outputs=1))
        g2 = random_genome(1, make_config(inputs=1, outputs=1, max_nodes=12, max_conns=24))
        with pytest.raises(ShapeMismatch):
            distance(g1, g2, make_config())


def holey_population(pop_size=40, **overrides):
    """Grown population whose live rows have holes left by node and
    connection deletion."""
    config = busy_config(pop_size=pop_size, **overrides)
    pop = grown_population(config, rounds=10, seed=7)
    for block, col in ((pop.nodes, NODE_KEY), (pop.conns, CONN_IN)):
        live = ~np.isnan(block[:, :, col])
        assert (~live[:, :-1] & live[:, 1:]).any()  # a padding row before a live one
    return config, pop


def second_block(pop, wider):
    """Genomes to measure against: two population members, one with no live
    connections and one with all of them disabled; ``wider`` stores them at a
    larger capacity with the live rows in reverse order."""
    genomes = [pop.genome(i) for i in (0, 5, 9, 13)]
    genomes[2].conns[:] = np.nan
    live = ~np.isnan(genomes[3].conns[:, CONN_IN])
    assert live.any()
    genomes[3].conns[live, CONN_ENABLED] = 0.0
    if not wider:
        return genomes
    stored = []
    for g in genomes:
        nodes = np.full((g.nodes.shape[0] + 7, 5), np.nan)
        conns = np.full((g.conns.shape[0] + 9, 4), np.nan)
        nodes[-g.nodes.shape[0]:] = g.nodes[::-1]
        conns[-g.conns.shape[0]:] = g.conns[::-1]
        stored.append(GenomeTensors(nodes, conns, g.num_inputs, g.num_outputs))
    return stored


class TestDistanceMatrix:
    @pytest.mark.parametrize("wider", [False, True])
    def test_equals_one_row_calls_and_oracle(self, wider):
        config, pop = holey_population()
        others = second_block(pop, wider)
        nodes2 = np.stack([g.nodes for g in others])
        conns2 = np.stack([g.conns for g in others])
        matrix = distance_arrays(pop.nodes, pop.conns, nodes2, conns2, config)
        assert matrix.shape == (len(others), pop.size)
        worst = 0.0
        for j, other in enumerate(others):
            net = decode(other)
            for i in range(pop.size):
                one = distance_arrays(pop.nodes[i:i + 1], pop.conns[i:i + 1],
                                      nodes2[j:j + 1], conns2[j:j + 1], config)
                assert one.shape == (1, 1)
                assert one[0, 0].tobytes() == matrix[j, i].tobytes()
                worst = max(worst, abs(matrix[j, i]
                                       - graph_distance(decode(pop.genome(i)), net, config)))
        assert worst <= 1e-12
        # the bare and the disabled genome are both away from their source
        assert (matrix[2] > 0).all() and matrix[3, 13] > 0 and matrix[1, 5] == 0.0


def check_against_replay(pop, previous, ids, species, config):
    """Oracle: replay the assignment rule over one full-capacity distance
    matrix from every genome to the old representatives and the founders,
    and check the ids and that each representative is the member closest to
    the old one (or to the founder) in that matrix.  Returns the species keys
    in decision order, the founders and the number of nearest joins."""
    old_keys = sorted(sp.species_key for sp in previous)
    founders = [int(sp.member_indices[0]) for sp in species if sp.species_key not in old_keys]
    keys = old_keys + [sp.species_key for sp in species if sp.species_key not in old_keys]
    opens = [-1] * len(old_keys) + founders  # first genome each species is open to
    reps = [sp.representative for sp in sorted(previous, key=lambda sp: sp.species_key)]
    reps += [pop.genome(i) for i in founders]
    matrix = distance_arrays(pop.nodes, pop.conns, np.stack([g.nodes for g in reps]),
                             np.stack([g.conns for g in reps]), config)
    expected, nearest_joins = [], 0
    for i in range(pop.size):
        open_rows = [r for r in range(len(keys)) if opens[r] <= i]
        within = [r for r in open_rows if matrix[r, i] <= config.compatibility_threshold]
        nearest_joins += not within
        expected.append(keys[within[0] if within else int(matrix[:, i].argmin())])
    assert np.array_equal(ids, expected)
    for sp in species:
        row = matrix[keys.index(sp.species_key)]
        closest = sp.member_indices[int(row[sp.member_indices].argmin())]
        assert genomes_equal(sp.representative, pop.genome(int(closest)))
    return keys, founders, nearest_joins


class TestSpeciate:
    def ready_population(self, config, seeds):
        genomes = [random_genome(s, config, n_ops=6) for s in seeds]
        return PopulationTensors.from_genomes(genomes)

    def test_everyone_within_threshold_single_species(self):
        config = make_config(compatibility_threshold=1e9)
        pop = self.ready_population(config, range(10))
        ids, species = speciate(pop, [], config)
        assert len(species) == 1
        assert species[0].member_indices.size == 10
        assert np.all(ids == species[0].species_key)

    def test_zero_threshold_all_distinct_singletons(self):
        config = make_config(compatibility_threshold=0.0, max_species=20, pop_size=40)
        pop = self.ready_population(config, range(6))
        _, species = speciate(pop, [], config)
        assert len(species) == 6
        assert all(sp.member_indices.size == 1 for sp in species)

    def test_species_cap_forces_nearest_join(self):
        # oracle: exhaustive distance table over three mutually distant genomes
        config = make_config(compatibility_threshold=0.0, max_species=2)
        pop = self.ready_population(config, [3, 14, 25])
        ids, species = speciate(pop, [], config)
        assert len(species) == 2
        d = {(i, j): distance(pop.genome(i), pop.genome(j), config)
             for i in range(3) for j in range(2)}
        # genome 0 founds species A, genome 1 founds B, genome 2 joins nearest
        expected_home = 0 if d[(2, 0)] <= d[(2, 1)] else 1
        assert ids[2] == species[expected_home].species_key

    def test_assignment_prefers_first_species_in_key_order(self):
        config = make_config(compatibility_threshold=1e9, max_species=8)
        pop = self.ready_population(config, range(5))
        previous = [
            SpeciesState(species_key=4, representative=pop.genome(0),
                         member_indices=np.array([0])),
            SpeciesState(species_key=9, representative=pop.genome(1),
                         member_indices=np.array([1])),
        ]
        _, species = speciate(pop, previous, config)
        # both match everything; everyone lands in key 4
        assert [sp.species_key for sp in species] == [4]
        assert species[0].member_indices.size == 5

    def test_representative_updates_to_closest_member(self):
        config = make_config(compatibility_threshold=1e9)
        pop = self.ready_population(config, range(8))
        rep = pop.genome(3)
        previous = [SpeciesState(species_key=0, representative=rep,
                                 member_indices=np.array([3]))]
        _, species = speciate(pop, previous, config)
        dists = [distance(pop.genome(i), rep, config) for i in range(8)]
        assert genomes_equal(species[0].representative, pop.genome(int(np.argmin(dists))))

    def test_cap_reached_sequential_path_is_bitwise_equal(self, monkeypatch):
        # two species come in; founders fill the cap, later genomes join the nearest
        config, pop = holey_population(pop_size=60, max_species=5,
                                       compatibility_threshold=1.2)
        previous = [SpeciesState(species_key=key, representative=pop.genome(i),
                                 member_indices=np.array([i]))
                    for key, i in ((3, 0), (8, 1))]
        measured = []  # genomes each representative's distance call measures
        monkeypatch.setattr(evolution, "_distances_to", lambda *a: measured.append(
            a[1].size) or _distances_to(*a))
        fast_ids, fast = speciate(pop, previous, config)
        fast_pairs = sum(measured)
        measured.clear()
        slow_ids, slow = speciate(pop, previous, config, sequential=True)
        assert sum(measured) == fast_pairs
        assert len(measured) == fast_pairs  # one call per genome and representative
        assert np.array_equal(fast_ids, slow_ids)
        assert [sp.species_key for sp in fast] == [sp.species_key for sp in slow]
        for a, b in zip(fast, slow):
            assert np.array_equal(a.member_indices, b.member_indices)
            assert frozen_copy(a.representative.nodes, a.representative.conns) == \
                frozen_copy(b.representative.nodes, b.representative.conns)

        assert len(fast) == config.max_species
        keys, founders, nearest_joins = check_against_replay(pop, previous, fast_ids, fast,
                                                             config)
        assert len(founders) >= 2 and nearest_joins > 0
        # each representative was measured only against the genomes still unassigned
        assert fast_pairs < pop.size * len(keys)

    def test_population_without_live_connections(self):
        # every genome's connection block is padding, so each distance call
        # speciate makes cuts block 1 to zero connection rows
        config, pop = holey_population(pop_size=30, max_species=4,
                                       compatibility_threshold=1.0)
        previous = [SpeciesState(species_key=5, representative=pop.genome(0),
                                 member_indices=np.array([0]))]
        pop.conns[:] = np.nan
        ids, species = speciate(pop, previous, config)
        slow_ids, slow = speciate(pop, previous, config, sequential=True)
        assert np.array_equal(ids, slow_ids)
        assert len(species) == config.max_species
        _, founders, nearest_joins = check_against_replay(pop, previous, ids, species,
                                                          config)
        assert len(founders) == 3 and nearest_joins > 0

    @staticmethod
    def reads(pop, previous, config, sequential):
        """Run speciate, recording every distance it reads as (representative
        nodes, representative conns, genome index, distance)."""
        # the population index of each gathered node gene; every genome has live nodes
        node_owner = evolution._live_genes(pop.nodes, pop.conns)[0][0]
        reads = []

        def recording(genes, live_counts, rep_nodes, rep_conns, config):
            result = _distances_to(genes, live_counts, rep_nodes, rep_conns, config)
            owner, _, _, index = genes[0]
            genomes = np.full(live_counts.size, -1)
            genomes[owner] = node_owner[index]
            reads.extend((rep_nodes, rep_conns, int(g), d) for g, d in zip(genomes, result))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evolution, "_distances_to", recording)
            ids, species = speciate(pop, previous, config, sequential=sequential)
        return reads, ids, species

    @pytest.mark.parametrize("case", ["holey", "no-connections", "stored-width", "cap"])
    def test_every_distance_read_equals_a_one_genome_call(self, case):
        overrides = {"holey": dict(compatibility_threshold=1.5),
                     "no-connections": dict(compatibility_threshold=1.0),
                     "stored-width": dict(max_nodes=24, max_conns=64),
                     "cap": dict(pop_size=60)}[case]
        config, pop = holey_population(**{"pop_size": 40, "max_species": 5,
                                          "compatibility_threshold": 1.2, **overrides})
        previous = [SpeciesState(species_key=key, representative=pop.genome(i),
                                 member_indices=np.array([i]))
                    for key, i in ((3, 0), (8, 1))  # stored at full capacity
                    if case != "holey"]  # there, founders only
        if case == "no-connections":
            pop.conns[:] = np.nan
        if case == "stored-width":
            pop = PopulationTensors(
                with_rows(pop.nodes, stored_width(pop.nodes, config.max_nodes, NODE_HEADROOM)),
                with_rows(pop.conns, stored_width(pop.conns, config.max_conns, CONN_HEADROOM)),
                pop.num_inputs, pop.num_outputs, config.max_nodes, config.max_conns)
            assert pop.nodes.shape[1] < config.max_nodes and pop.conns.shape[1] < config.max_conns
        fast, fast_ids, fast_species = self.reads(pop, previous, config, sequential=False)
        slow, slow_ids, _ = self.reads(pop, previous, config, sequential=True)
        assert np.array_equal(fast_ids, slow_ids)
        assert len(fast) == len(slow) and len(fast) > pop.size
        for (rep_nodes, rep_conns, genome, d), (*rep_slow, genome_slow, d_slow) in zip(fast, slow):
            assert genome >= 0 and genome == genome_slow
            assert rep_nodes.tobytes() == rep_slow[0].tobytes()
            assert rep_conns.tobytes() == rep_slow[1].tobytes()
            alone = distance_arrays(pop.nodes[genome:genome + 1], pop.conns[genome:genome + 1],
                                    rep_nodes[None], rep_conns[None], config)
            assert alone[0, 0].tobytes() == d.tobytes() == d_slow.tobytes()
        _, founders, nearest_joins = check_against_replay(pop, previous, fast_ids,
                                                          fast_species, config)
        assert founders
        if case == "cap":
            assert len(fast_species) == config.max_species and nearest_joins > 0

    def test_species_count_never_exceeds_cap(self):
        config = make_config(compatibility_threshold=0.0, max_species=3)
        pop = self.ready_population(config, range(12))
        ids, species = speciate(pop, [], config)
        assert len(species) == 3
        assert np.all(ids >= 0)


class TestStagnation:
    def build(self, key, members, best, counter):
        g = random_genome(key, make_config())
        return SpeciesState(species_key=key, representative=g,
                            member_indices=np.array(members),
                            best_fitness=best, stagnation_counter=counter)

    def test_elitism_floor_retains_stagnant_single_species(self):
        config = make_config(species_elitism=2, max_stagnation=15)
        sp = self.build(0, [0, 1], 5.0, 100)
        out = update_stagnation([sp], np.array([5.0, 4.0]), config)
        assert len(out) == 1

    def test_third_ranked_stagnant_removed(self):
        config = make_config(species_elitism=2, max_stagnation=15, pop_size=30)
        fitness = np.array([9.0, 8.0, 1.0])
        species = [self.build(0, [0], 9.0, 0), self.build(1, [1], 8.0, 0),
                   self.build(2, [2], 1.0, 15)]
        out = update_stagnation(species, fitness, config)
        assert [sp.species_key for sp in out] == [0, 1]

    def test_tie_advances_counter(self):
        config = make_config()
        sp = self.build(0, [0], 5.0, 3)
        out = update_stagnation([sp], np.array([5.0]), config)  # no strict improvement
        assert out[0].stagnation_counter == 4

    def test_strict_improvement_resets(self):
        config = make_config()
        sp = self.build(0, [0], 5.0, 7)
        out = update_stagnation([sp], np.array([5.0000001]), config)
        assert out[0].stagnation_counter == 0

    def test_best_fitness_is_the_running_max(self):
        config = make_config()
        assert SpeciesState(0, random_genome(0, config), np.array([0])).best_fitness == -np.inf
        sp = self.build(0, [0], 2.0, 0)
        improved = update_stagnation([sp], np.array([3.0]), config)[0]
        assert improved.best_fitness == 3.0 and improved.stagnation_counter == 0
        fell = update_stagnation([improved], np.array([1.0]), config)[0]
        assert fell.best_fitness == 3.0 and fell.stagnation_counter == 1


def spawn_oracle(means, old_sizes, pop_size, rate, eps=1e-9):
    """Scalar reimplementation of the spawn allocation rule."""
    m0 = min(means)
    shifted = [m - m0 + eps for m in means]
    total = sum(shifted)
    targets = [s / total * pop_size for s in shifted]
    new = []
    for target, old in zip(targets, old_sizes):
        move = max(-(rate * old + 1.0), min(target - old, rate * old + 1.0))
        new.append(max(1, round(old + move)))
    residual = pop_size - sum(new)
    largest = new.index(max(new))
    new[largest] += residual
    return new


class TestAllocateSpawns:
    def species_with(self, fitness_values):
        """One species per entry; entry = (mean fitness, size)."""
        fitness = []
        species = []
        start = 0
        for key, (mean, size) in enumerate(fitness_values):
            fitness.extend([mean] * size)
            g = random_genome(key, make_config())
            species.append(SpeciesState(species_key=key, representative=g,
                                        member_indices=np.arange(start, start + size)))
            start += size
        return species, np.array(fitness)

    def test_single_species_gets_everything(self):
        config = make_config(pop_size=37)
        species, fitness = self.species_with([(2.0, 5)])
        out = allocate_spawns(species, fitness, config)
        assert out == {0: 37}

    def test_equal_split_symmetric(self):
        config = make_config(pop_size=20)
        species, fitness = self.species_with([(3.0, 10), (3.0, 10)])
        out = allocate_spawns(species, fitness, config)
        assert list(out.values()) == [10, 10]

    def test_clamped_move_toward_equal_targets(self):
        # sizes (90, 10) with equal fitness, r = 0.5, P = 100; the slow species
        # can move at most r*old+1, the larger one absorbs the residual
        config = make_config(pop_size=100, spawn_number_change_rate=0.5)
        species, fitness = self.species_with([(5.0, 90), (5.0, 10)])
        out = allocate_spawns(species, fitness, config)
        assert list(out.values()) == spawn_oracle([5.0, 5.0], [90, 10], 100, 0.5)
        assert out == {0: 84, 1: 16}

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle_and_conserves_population(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        sizes = rng.integers(1, 30, size=k)
        means = rng.normal(size=k)
        pop_size = int(sizes.sum())
        config = make_config(pop_size=max(pop_size, 4))
        species, fitness = self.species_with(list(zip(means, sizes)))
        out = allocate_spawns(species, fitness, config)
        spawns = list(out.values())
        assert sum(spawns) == config.pop_size
        assert min(spawns) >= 1
        assert spawns == spawn_oracle(list(means), list(sizes), config.pop_size, 0.5)


class TestCrossover:
    def test_identical_parents_identity(self, config):
        g = random_genome(3, config)
        out = crossover(g, g, RngStream(0).child(0, 2, 0))
        assert genomes_equal(out, g)

    def test_topology_from_fitter_parent(self):
        g1, g2 = grown_genome(0), grown_genome(3)
        assert min(len(live_conn_pairs(g1)), len(live_conn_pairs(g2))) >= 14
        out = crossover(g1, g2, RngStream(1).child(0, 2, 0))
        assert live_node_keys(out) == live_node_keys(g1)
        assert live_conn_pairs(out) == live_conn_pairs(g1)
        # padding layout matches the fitter parent exactly
        assert np.array_equal(np.isnan(out.nodes), np.isnan(g1.nodes))
        assert np.array_equal(np.isnan(out.conns), np.isnan(g1.conns))

    def test_attributes_come_from_some_parent(self, config):
        g1 = random_genome(5, config, n_ops=30)
        g2 = random_genome(55, config, n_ops=30)
        out = crossover(g1, g2, RngStream(2).child(0, 2, 0))
        keys2 = {k: i for i, k in enumerate(live_node_keys(g2))}
        g2_rows = g2.nodes[~np.isnan(g2.nodes[:, NODE_KEY])]
        for row, src in zip(out.nodes, g1.nodes):
            if np.isnan(row[NODE_KEY]):
                continue
            key = int(row[NODE_KEY])
            for col in range(1, 5):
                ok = row[col] == src[col]
                if key in keys2:
                    ok = ok or row[col] == g2_rows[keys2[key], col]
                assert ok

    def test_disjoint_genes_of_less_fit_never_appear(self):
        g1, g2 = grown_genome(0), grown_genome(3)
        out = crossover(g1, g2, RngStream(3).child(0, 2, 0))
        only_in_g2 = set(live_conn_pairs(g2)) - set(live_conn_pairs(g1))
        assert len(only_in_g2) >= 14
        assert not (set(live_conn_pairs(out)) & only_in_g2)

    def test_coins_match_scalar_replay_oracle(self):
        fit = grown_genome()
        less = mutate(fit, busy_config(bias_replace_rate=0.5, weight_replace_rate=0.5),
                      RngStream(4).child(1, 2, 0), NodeKeyAllocator(100))
        out = crossover(fit, less, RngStream(5).child(0, 2, 1))
        # oracle: node coins, then connection coins, over the capacity grids;
        # a homologous gene takes attribute a from ``less`` where its coin < 0.5
        replay = RngStream(5).child(0, 2, 1)
        expected = fit.nodes.copy(), fit.conns.copy()
        for block, other, first, attrs, identity in (
                (expected[0], less.nodes, NODE_BIAS, 4, lambda row: row[NODE_KEY]),
                (expected[1], less.conns, CONN_ENABLED, 2,
                 lambda row: (row[CONN_IN], row[CONN_OUT]))):
            coins = replay.uniforms(len(block) * attrs)
            row_of = {identity(row): j for j, row in enumerate(other) if not np.isnan(row[0])}
            for i, row in enumerate(block):
                j = None if np.isnan(row[0]) else row_of.get(identity(row))
                for a in range(attrs if j is not None else 0):
                    if coins[i * attrs + a] < 0.5:
                        row[first + a] = other[j, first + a]
        assert np.array_equal(out.nodes, expected[0], equal_nan=True)
        assert np.array_equal(out.conns, expected[1], equal_nan=True)
        for parent in (fit, less):  # both parents gave some attribute of each kind
            assert not np.array_equal(out.nodes, parent.nodes, equal_nan=True)
            assert not np.array_equal(out.conns, parent.conns, equal_nan=True)

    def test_parents_unchanged(self, config):
        g1 = random_genome(7, config, n_ops=30)
        g2 = random_genome(77, config, n_ops=30)
        before = frozen_copy(g1.nodes, g1.conns, g2.nodes, g2.conns)
        out = crossover(g1, g2, RngStream(4).child(0, 2, 0))
        assert frozen_copy(g1.nodes, g1.conns, g2.nodes, g2.conns) == before
        assert not genomes_equal(out, g1)

    def test_io_mismatch(self):
        g1 = random_genome(1, make_config(inputs=2, outputs=1))
        g2 = random_genome(1, make_config(inputs=1, outputs=1, max_nodes=12, max_conns=24))
        with pytest.raises(ShapeMismatch):
            crossover(g1, g2, RngStream(0))


class TestReproduce:
    def evaluated_state(self, config):
        state = init_state(config)
        problem = make_problem(config)
        fitness = problem.evaluate_population_tensors(
            state.population, rng=RngStream(config.seed).child(0, 1))
        return state, fitness

    def test_population_size_conserved(self):
        for seed in range(5):
            config = make_config(seed=seed, pop_size=21 + seed)
            state, fitness = self.evaluated_state(config)
            species = update_stagnation(state.species, fitness, config)
            spawns = allocate_spawns(species, fitness, config)
            out = reproduce(state.population, species, spawns, fitness,
                            config, RngStream(config.seed).child(0), state.allocator)
            assert out.size == config.pop_size

    def test_degenerate_species_self_crossover(self):
        config = quiet_config(pop_size=4, genome_elitism=2, species_elitism=1,
                              weight_mutate_rate=1.0, weight_mutate_power=0.5)
        g = init_genome(config, RngStream(3).child(0, 0, 0))  # two live conns
        pop = PopulationTensors.from_genomes([g])
        fitness = np.array([1.0])
        species = [SpeciesState(species_key=0, representative=g,
                                member_indices=np.array([0]))]
        out = reproduce(pop, species, {0: 4}, fitness, config,
                        RngStream(0).child(0), NodeKeyAllocator(100))
        assert out.size == 4
        # slots beyond the elites are crossover(g, g) = g, then mutated
        elites = min(config.genome_elitism, 1)
        assert genomes_equal(out.genome(0), g)
        for slot in range(elites, 4):
            child = out.genome(slot)
            assert live_conn_pairs(child) == live_conn_pairs(g)
            assert not genomes_equal(child, g)  # weights perturbed

    def test_zero_rates_full_elitism_copies(self):
        config = quiet_config(pop_size=6, genome_elitism=10)
        state, fitness = self.evaluated_state(config)
        species = update_stagnation(state.species, fitness, config)
        spawns = allocate_spawns(species, fitness, config)
        out = reproduce(state.population, species, spawns, fitness, config,
                        RngStream(config.seed).child(0), state.allocator)
        ranked = np.argsort(-fitness, kind="stable")
        for slot in range(out.size):
            assert genomes_equal(out.genome(slot), state.population.genome(int(ranked[slot])))

    def test_parent_population_unchanged(self):
        config = busy_config(pop_size=30, seed=2)
        state, fitness = self.evaluated_state(config)
        pop = state.population
        species = update_stagnation(state.species, fitness, config)
        spawns = allocate_spawns(species, fitness, config)
        before = frozen_copy(pop.nodes, pop.conns, fitness)
        for threads in (1, 2):
            reproduce(pop, species, spawns, fitness, config,
                      RngStream(config.seed).child(0), state.allocator, threads=threads)
            assert frozen_copy(pop.nodes, pop.conns, fitness) == before

    def test_allocator_reserves_pop_size_keys(self):
        config = make_config(pop_size=20)
        state, fitness = self.evaluated_state(config)
        species = update_stagnation(state.species, fitness, config)
        spawns = allocate_spawns(species, fitness, config)
        before = state.allocator.next_key
        reproduce(state.population, species, spawns, fitness, config,
                  RngStream(config.seed).child(0), state.allocator)
        assert state.allocator.next_key == before + config.pop_size


class TestNodeKeyBound:
    """Node keys stay below 2**26, where connection pair codes alias."""
    LIMIT = 2 ** 26

    def test_reserve_up_to_the_bound(self):
        allocator = NodeKeyAllocator(self.LIMIT - 10)
        assert allocator.reserve(10) == self.LIMIT - 10
        assert allocator.next_key == self.LIMIT
        with pytest.raises(CapacityFull, match=r"2\*\*26"):
            allocator.reserve(1)
        assert allocator.next_key == self.LIMIT
        with pytest.raises(CapacityFull):
            NodeKeyAllocator(self.LIMIT - 10).reserve(11)

    def test_evolve_step_stops_before_the_bound(self):
        config = make_config(seed=5, pop_size=20, node_add=0.5)
        state = init_state(config)
        problem = make_problem(config)
        state.allocator.next_key = self.LIMIT - config.pop_size
        pop, species, _ = evolve_step(state.population, state.species, config,
                                      RngStream(5).child(0), state.allocator, problem)
        assert state.allocator.next_key == self.LIMIT
        assert np.nanmax(pop.nodes[:, :, NODE_KEY]) > self.LIMIT - config.pop_size
        for i in range(pop.size):
            check_integrity(pop.genome(i))
        with pytest.raises(CapacityFull, match="pop_size"):
            evolve_step(pop, species, config, RngStream(5).child(1), state.allocator, problem)
        assert state.allocator.next_key == self.LIMIT


class TestEvolveStep:
    def run_generations(self, config, generations, threads=1, sequential=False):
        state = init_state(config)
        problem = make_problem(config)
        root = RngStream(config.seed)
        history = []
        for g in range(generations):
            pop, species, stats = evolve_step(state.population, state.species, config,
                                              root.child(g), state.allocator, problem,
                                              threads=threads, sequential=sequential)
            state.population, state.species = pop, species
            history.append(stats)
            if stats.solved:
                break
        return state, history

    def test_stops_before_reproducing_when_target_reached(self):
        config = make_config(seed=3, pop_size=30, fitness_target=-10.0)  # trivially met
        state = init_state(config)
        problem = make_problem(config)
        pop, species, stats = evolve_step(state.population, state.species, config,
                                          RngStream(3).child(0), state.allocator, problem)
        assert stats.solved
        # population returned unchanged (evaluated, not reproduced)
        assert np.array_equal(pop.nodes, state.population.nodes, equal_nan=True)
        assert pop is state.population

    def test_best_fitness_monotone_with_elitism_on_deterministic_problem(self):
        config = make_config(seed=1, pop_size=40, genome_elitism=2, generation_limit=25)
        _, history = self.run_generations(config, 25)
        best = [h.best_fitness for h in history]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_population_size_every_generation(self):
        config = make_config(seed=2, pop_size=33)
        state, history = self.run_generations(config, 6)
        assert state.population.size == 33

    def test_species_ids_cover_population(self):
        config = make_config(seed=4, pop_size=25)
        state, _ = self.run_generations(config, 5)
        ids = np.full(25, -1)
        for sp in state.species:
            ids[sp.member_indices] = sp.species_key
        assert np.all(np.isin(ids, [sp.species_key for sp in state.species]))
        covered = np.concatenate([sp.member_indices for sp in state.species])
        assert sorted(covered.tolist()) == list(range(25))

    def test_empty_population_is_a_shape_mismatch(self):
        config = make_config(pop_size=20)
        state = init_state(config)
        pop = state.population
        empty = PopulationTensors(pop.nodes[:0], pop.conns[:0], pop.num_inputs,
                                  pop.num_outputs)
        with pytest.raises(ShapeMismatch, match="no genomes"):
            evolve_step(empty, state.species, config, RngStream(0).child(0),
                        state.allocator, make_problem(config))

    def test_trajectories_bitwise_identical_across_paths(self):
        config = make_config(seed=9, pop_size=24, node_delete=0.05, conn_delete=0.05)
        s1, h1 = self.run_generations(config, 6)
        s2, h2 = self.run_generations(config, 6, sequential=True)
        s3, h3 = self.run_generations(config, 6, threads=8)
        for other in (s2, s3):
            assert np.array_equal(s1.population.nodes, other.population.nodes, equal_nan=True)
            assert np.array_equal(s1.population.conns, other.population.conns, equal_nan=True)
            for a, b in zip(s1.species, other.species, strict=True):
                assert a.species_key == b.species_key
                assert np.array_equal(a.member_indices, b.member_indices)
        assert [h.best_fitness for h in h1] == [h.best_fitness for h in h2]
        assert [h.best_fitness for h in h1] == [h.best_fitness for h in h3]

    def test_feedforward_integrity_over_generations(self):
        config = make_config(seed=5, pop_size=20, node_delete=0.1, conn_delete=0.1)
        state = init_state(config)
        problem = make_problem(config)
        root = RngStream(config.seed)
        for g in range(8):
            pop, species, stats = evolve_step(state.population, state.species, config,
                                              root.child(g), state.allocator, problem)
            state.population, state.species = pop, species
            for i in range(pop.size):
                genome = pop.genome(i)
                check_integrity(genome)
                assert not dfs_has_cycle(genome)  # live graph, hence enabled too

    def test_elite_genomes_are_bitwise_copies(self):
        config = quiet_config(seed=6, pop_size=12, genome_elitism=2,
                              weight_mutate_rate=0.9)
        state = init_state(config)
        problem = make_problem(config)
        fitness = problem.evaluate_population_tensors(
            state.population, rng=RngStream(config.seed).child(0, 1))
        species = update_stagnation(state.species, fitness, config)
        spawns = allocate_spawns(species, fitness, config)
        out = reproduce(state.population, species, spawns, fitness, config,
                        RngStream(config.seed).child(0), state.allocator)
        slot = 0
        for sp in sorted(species, key=lambda s: s.species_key):
            members = sp.member_indices
            ranked = members[np.lexsort((members, -fitness[members]))]
            n_elite = min(config.genome_elitism, spawns[sp.species_key], ranked.size)
            for j in range(n_elite):
                assert genomes_equal(out.genome(slot + j),
                                     state.population.genome(int(ranked[j])))
            slot += spawns[sp.species_key]
