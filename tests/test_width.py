"""The population's stored width: the rows live in any genome plus mutation's
headroom, capped at the capacity.

Kernels compute the same bits at any width that holds every live row, so a
run kept at the stored width must match, bitwise, a run whose population is
padded back to the capacity before every step.
"""

import json

import numpy as np

from arrayneat import (PopulationTensors, RngStream, evolve_step, genomes_equal, init_state,
                       make_problem, run_experiment)
from arrayneat.genome import CONN_IN, with_rows

from conftest import make_config

# every addition fires, so the widths grow until the connections reach the
# capacity (node addition then stops: it needs two free connection rows);
# they also shrink when the widest genomes leave no offspring
GROW = make_config(seed=1, pop_size=30, max_nodes=24, max_conns=48, node_add=1.0, conn_add=1.0,
                   fitness_target=float("inf"))


def occupied(block: np.ndarray) -> int:
    return int(np.flatnonzero(~np.isnan(block[:, :, 0]).all(axis=0))[-1]) + 1


def at_capacity(pop: PopulationTensors) -> PopulationTensors:
    return PopulationTensors(with_rows(pop.nodes, pop.max_nodes),
                             with_rows(pop.conns, pop.max_conns),
                             pop.num_inputs, pop.num_outputs)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_width_grows_to_the_capacity_and_matches_a_full_capacity_run():
    config = GROW
    cap_nodes, cap_conns = config.max_nodes, config.max_conns
    state, padded = init_state(config), init_state(config)
    assert state.population.nodes.shape[1:] == (config.inputs + config.outputs + 1, 5)
    assert state.population.conns.shape[1:] == (config.inputs * config.outputs + 3, 4)
    problem = make_problem(config)
    root = RngStream(config.seed)
    full_genomes = 0
    for generation in range(80):
        parents = state.population
        expected = (min(cap_nodes, occupied(parents.nodes) + 1),
                    min(cap_conns, occupied(parents.conns) + 3))
        pop, species, stats = evolve_step(parents, state.species, config,
                                          root.child(generation), state.allocator, problem)
        ref_pop, ref_species, ref_stats = evolve_step(
            at_capacity(padded.population), padded.species, config, root.child(generation),
            padded.allocator, problem)
        assert (pop.nodes.shape[1], pop.conns.shape[1]) == expected
        assert same_bits(at_capacity(pop).nodes, at_capacity(ref_pop).nodes)
        assert same_bits(at_capacity(pop).conns, at_capacity(ref_pop).conns)
        assert stats.best_fitness == ref_stats.best_fitness
        assert genomes_equal(stats.best_genome, ref_stats.best_genome)
        assert stats.best_genome.nodes.shape == (cap_nodes, 5)
        assert stats.best_genome.conns.shape == (cap_conns, 4)
        assert pop.genome(0).nodes.shape == (cap_nodes, 5)
        for sp, ref in zip(species, ref_species, strict=True):
            assert sp.species_key == ref.species_key
            assert np.array_equal(sp.member_indices, ref.member_indices)
            assert genomes_equal(sp.representative, ref.representative)
            assert sp.representative.nodes.shape == (cap_nodes, 5)
            assert sp.representative.conns.shape == (cap_conns, 4)
        state.population, state.species = pop, species
        padded.population, padded.species = ref_pop, ref_species
        if pop.conns.shape[1] == cap_conns:
            # genomes with no free connection row, where both additions are no-ops
            full_genomes += int((~np.isnan(pop.conns[:, :, CONN_IN])).all(axis=1).sum())
            if full_genomes >= 20:
                break
    assert full_genomes >= 20


def test_best_genome_file_keeps_the_capacity(tmp_path):
    config = GROW.with_overrides(generation_limit=3)
    run_experiment(config, tmp_path)
    doc = json.loads((tmp_path / "best_genome.json").read_text())
    assert (doc["max_nodes"], doc["max_conns"]) == (config.max_nodes, config.max_conns)
    assert len(doc["nodes"]) == config.max_nodes and len(doc["conns"]) == config.max_conns
