"""Mutation, crossover, distance, speciation, spawn allocation, generation step."""

import numpy as np
import pytest

from arrayneat import (ConnRow, NodeKeyAllocator, PopulationTensors, RngStream,
                       ShapeMismatch, SpeciesState, add_conn, allocate_spawns,
                       crossover, distance, evolve_step, genomes_equal, init_genome,
                       init_state, make_problem, mutate, reproduce, set_conn_attr,
                       speciate, update_stagnation)
from arrayneat.genome import (CONN_ENABLED, CONN_IN, CONN_OUT, CONN_WEIGHT,
                              NODE_KEY, NODE_RESPONSE, check_integrity)

from arrayneat.evolution import _add_connections

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

    def test_weight_mutation_matches_scalar_replay_oracle(self):
        config = quiet_config(weight_mutate_rate=0.6, weight_mutate_power=0.5)
        g = random_genome(7, config, n_ops=20)
        stream = RngStream(11).child(3, 2, 4)
        out = mutate(g, config, stream, NodeKeyAllocator(500))

        # oracle: replay the identical stream and apply the perturbation rule
        # cell by cell in plain python
        replay = RngStream(11).child(3, 2, 4)
        replay.uniforms(4)   # structural decisions
        replay.uniforms(4)   # structural picks
        replay.normals(1)    # reserved new-node bias
        replay.normals(1)    # reserved new-connection weight
        c = config.max_conns
        u_replace = replay.uniforms(c)
        u_mutate = replay.uniforms(c)
        noise = replay.normals(c)
        expected = g.conns[:, CONN_WEIGHT].copy()
        live = ~np.isnan(g.conns[:, CONN_IN])
        for i in range(c):
            if live[i] and not (u_replace[i] < 0.0) and u_mutate[i] < 0.6:
                perturbed = expected[i] + 0.5 * noise[i]
                expected[i] = min(max(perturbed, config.attr_min), config.attr_max)
        assert np.array_equal(out.conns[:, CONN_WEIGHT], expected, equal_nan=True)

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
        g = random_genome(4, config, n_ops=15)
        out = mutate(g, config, RngStream(3).child(0, 2, 0), NodeKeyAllocator(500))
        live = ~np.isnan(g.conns[:, CONN_IN])
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


class TestSpeciate:
    def ready_population(self, config, seeds):
        genomes = [random_genome(s, config, n_ops=6) for s in seeds]
        return PopulationTensors.from_genomes(genomes)

    def test_everyone_within_threshold_single_species(self):
        config = make_config(compatibility_threshold=1e9)
        pop = self.ready_population(config, range(10))
        pop, species = speciate(pop, [], config)
        assert len(species) == 1
        assert species[0].member_indices.size == 10
        assert np.all(pop.species_id == species[0].species_key)

    def test_zero_threshold_all_distinct_singletons(self):
        config = make_config(compatibility_threshold=0.0, max_species=20, pop_size=40)
        pop = self.ready_population(config, range(6))
        pop, species = speciate(pop, [], config)
        assert len(species) == 6
        assert all(sp.member_indices.size == 1 for sp in species)

    def test_species_cap_forces_nearest_join(self):
        # oracle: exhaustive distance table over three mutually distant genomes
        config = make_config(compatibility_threshold=0.0, max_species=2)
        pop = self.ready_population(config, [3, 14, 25])
        pop, species = speciate(pop, [], config)
        assert len(species) == 2
        d = {(i, j): distance(pop.genome(i), pop.genome(j), config)
             for i in range(3) for j in range(2)}
        # genome 0 founds species A, genome 1 founds B, genome 2 joins nearest
        expected_home = 0 if d[(2, 0)] <= d[(2, 1)] else 1
        assert pop.species_id[2] == species[expected_home].species_key

    def test_assignment_prefers_first_species_in_key_order(self):
        config = make_config(compatibility_threshold=1e9, max_species=8)
        pop = self.ready_population(config, range(5))
        previous = [
            SpeciesState(species_key=4, representative=pop.genome(0),
                         member_indices=np.array([0])),
            SpeciesState(species_key=9, representative=pop.genome(1),
                         member_indices=np.array([1])),
        ]
        pop, species = speciate(pop, previous, config)
        # both match everything; everyone lands in key 4
        assert [sp.species_key for sp in species] == [4]
        assert species[0].member_indices.size == 5

    def test_representative_updates_to_closest_member(self):
        config = make_config(compatibility_threshold=1e9)
        pop = self.ready_population(config, range(8))
        rep = pop.genome(3)
        previous = [SpeciesState(species_key=0, representative=rep,
                                 member_indices=np.array([3]))]
        pop, species = speciate(pop, previous, config)
        dists = [distance(pop.genome(i), rep, config) for i in range(8)]
        assert genomes_equal(species[0].representative, pop.genome(int(np.argmin(dists))))

    def test_species_count_never_exceeds_cap(self):
        config = make_config(compatibility_threshold=0.0, max_species=3)
        pop = self.ready_population(config, range(12))
        pop, species = speciate(pop, [], config)
        assert len(species) == 3
        assert np.all(pop.species_id >= 0)


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
        assert out[0].spawn_count == 37

    def test_equal_split_symmetric(self):
        config = make_config(pop_size=20)
        species, fitness = self.species_with([(3.0, 10), (3.0, 10)])
        out = allocate_spawns(species, fitness, config)
        assert [sp.spawn_count for sp in out] == [10, 10]

    def test_clamped_move_toward_equal_targets(self):
        # sizes (90, 10) with equal fitness, r = 0.5, P = 100; the slow species
        # can move at most r*old+1, the larger one absorbs the residual
        config = make_config(pop_size=100, spawn_number_change_rate=0.5)
        species, fitness = self.species_with([(5.0, 90), (5.0, 10)])
        out = allocate_spawns(species, fitness, config)
        assert [sp.spawn_count for sp in out] == spawn_oracle([5.0, 5.0], [90, 10], 100, 0.5)
        assert [sp.spawn_count for sp in out] == [84, 16]

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
        spawns = [sp.spawn_count for sp in out]
        assert sum(spawns) == config.pop_size
        assert min(spawns) >= 1
        assert spawns == spawn_oracle(list(means), list(sizes), config.pop_size, 0.5)


class TestCrossover:
    def test_identical_parents_identity(self, config):
        g = random_genome(3, config)
        out = crossover(g, g, RngStream(0).child(0, 2, 0))
        assert genomes_equal(out, g)

    def test_topology_from_fitter_parent(self, config):
        g1 = random_genome(3, config, n_ops=30)
        g2 = random_genome(44, config, n_ops=30)
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

    def test_disjoint_genes_of_less_fit_never_appear(self, config):
        g1 = random_genome(6, config, n_ops=10)
        g2 = random_genome(66, config, n_ops=40)
        out = crossover(g1, g2, RngStream(3).child(0, 2, 0))
        only_in_g2 = set(live_conn_pairs(g2)) - set(live_conn_pairs(g1))
        assert not (set(live_conn_pairs(out)) & only_in_g2)

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
    def evaluated_state(self, config, fitness_fn=None):
        state = init_state(config)
        problem = make_problem(config)
        fitness = problem.evaluate_population_tensors(
            state.population, rng=RngStream(config.seed).child(0, 1))
        state.population.fitness[:] = fitness
        return state

    def test_population_size_conserved(self):
        for seed in range(5):
            config = make_config(seed=seed, pop_size=21 + seed)
            state = self.evaluated_state(config)
            species = update_stagnation(state.species, state.population.fitness, config)
            species = allocate_spawns(species, state.population.fitness, config)
            out = reproduce(state.population, species, state.population.fitness,
                            config, RngStream(config.seed).child(0), state.allocator)
            assert out.size == config.pop_size

    def test_degenerate_species_self_crossover(self):
        config = quiet_config(pop_size=4, genome_elitism=2, species_elitism=1,
                              weight_mutate_rate=1.0, weight_mutate_power=0.5)
        g = init_genome(config, RngStream(3).child(0, 0, 0))  # two live conns
        pop = PopulationTensors.from_genomes([g])
        fitness = np.array([1.0])
        species = [SpeciesState(species_key=0, representative=g,
                                member_indices=np.array([0]), spawn_count=4)]
        out = reproduce(pop, species, fitness, config,
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
        state = self.evaluated_state(config)
        species = update_stagnation(state.species, state.population.fitness, config)
        species = allocate_spawns(species, state.population.fitness, config)
        out = reproduce(state.population, species, state.population.fitness, config,
                        RngStream(config.seed).child(0), state.allocator)
        ranked = np.argsort(-state.population.fitness, kind="stable")
        for slot in range(out.size):
            assert genomes_equal(out.genome(slot), state.population.genome(int(ranked[slot])))

    def test_parent_population_unchanged(self):
        config = busy_config(pop_size=30, seed=2)
        state = self.evaluated_state(config)
        pop = state.population
        species = allocate_spawns(update_stagnation(state.species, pop.fitness, config),
                                  pop.fitness, config)
        before = frozen_copy(pop.nodes, pop.conns, pop.fitness, pop.species_id)
        for threads in (1, 2):
            reproduce(pop, species, pop.fitness, config,
                      RngStream(config.seed).child(0), state.allocator, threads=threads)
            assert frozen_copy(pop.nodes, pop.conns, pop.fitness, pop.species_id) == before

    def test_allocator_reserves_pop_size_keys(self):
        config = make_config(pop_size=20)
        state = self.evaluated_state(config)
        species = allocate_spawns(update_stagnation(state.species, state.population.fitness,
                                                    config),
                                  state.population.fitness, config)
        before = state.allocator.next_key
        reproduce(state.population, species, state.population.fitness, config,
                  RngStream(config.seed).child(0), state.allocator)
        assert state.allocator.next_key == before + config.pop_size


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
        assert not np.isnan(pop.fitness).any()

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
        keys = {sp.species_key for sp in state.species}
        assert np.all(np.isin(state.population.species_id, list(keys)))
        covered = np.concatenate([sp.member_indices for sp in state.species])
        assert sorted(covered.tolist()) == list(range(25))

    def test_trajectories_bitwise_identical_across_paths(self):
        config = make_config(seed=9, pop_size=24, node_delete=0.05, conn_delete=0.05)
        s1, h1 = self.run_generations(config, 6)
        s2, h2 = self.run_generations(config, 6, sequential=True)
        s3, h3 = self.run_generations(config, 6, threads=8)
        for other in (s2, s3):
            assert np.array_equal(s1.population.nodes, other.population.nodes, equal_nan=True)
            assert np.array_equal(s1.population.conns, other.population.conns, equal_nan=True)
            assert np.array_equal(s1.population.species_id, other.population.species_id)
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
        state.population.fitness[:] = fitness
        species = allocate_spawns(update_stagnation(state.species, fitness, config),
                                  fitness, config)
        out = reproduce(state.population, species, fitness, config,
                        RngStream(config.seed).child(0), state.allocator)
        slot = 0
        for sp in sorted(species, key=lambda s: s.species_key):
            members = sp.member_indices
            ranked = members[np.lexsort((members, -fitness[members]))]
            n_elite = min(config.genome_elitism, sp.spawn_count, ranked.size)
            for j in range(n_elite):
                assert genomes_equal(out.genome(slot + j),
                                     state.population.genome(int(ranked[j])))
            slot += sp.spawn_count
