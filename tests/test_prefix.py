"""Kernels on the occupied prefix: the same results as on the whole capacity.

Every kernel computes on the rows up to the last one live in any genome of
its batch (plus headroom for what it adds).  A genome with a gene at the
last row widens every batch it joins to the whole capacity, so comparing a
batch with and without it compares the prefix with the full width.
"""

from dataclasses import replace

import numpy as np
import pytest

from arrayneat import GenomeTensors, RngStream, init_genome
from arrayneat.evolution import _crossover_into, distance_arrays, mutate_arrays
from arrayneat.genome import CONN_IN, NODE_KEY, occupied
from arrayneat.inference import forward_arrays, transform_arrays

from conftest import grown_population, make_config

# every mutation sub-step on, including the live-cell enabled flip and the
# categorical replacements
BUSY = dict(node_add=0.5, node_delete=0.2, conn_add=0.6, conn_delete=0.2,
            enabled_mutate_rate=0.2, response_mutate_rate=0.3, response_replace_rate=0.1,
            activation_options=("tanh", "sigmoid", "identity", "relu"),
            activation_replace_rate=0.3,
            aggregation_options=("sum", "product", "max", "mean"),
            aggregation_replace_rate=0.3)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def last_row_genome(config) -> GenomeTensors:
    """Inputs and outputs, one hidden node at the last node row and one
    connection into it at the last connection row."""
    g = init_genome(config, RngStream(99).child(0, 0, 0))
    nodes, conns = g.nodes.copy(), g.conns.copy()
    key = 10_000
    nodes[-1] = [key, 0.25, 1.0, 0.0, 1.0]
    conns[-1] = [0.0, key, 1.0, -0.75]
    return GenomeTensors(nodes, conns, config.inputs, config.outputs)


def mutated(config, nodes, conns, slots=None):
    """Copies mutated as the genomes of population ``slots`` (default: 0, 1, ...)."""
    nodes, conns = nodes.copy(), conns.copy()
    slots = np.arange(len(nodes)) if slots is None else np.asarray(slots)
    _, _, added = mutate_arrays(nodes, conns, config, RngStream(5).child(1, 2).split(slots),
                                500.0 + slots)
    return nodes, conns, added


def shifted(block: np.ndarray) -> np.ndarray:
    """The same genes moved to the last rows of the capacity."""
    return np.roll(block, block.shape[1] - occupied(block[:, :, 0]), axis=1)


def crossed(nodes, conns, less_nodes, less_conns):
    nodes, conns = nodes.copy(), conns.copy()
    _crossover_into(nodes, conns, less_nodes, less_conns,
                    RngStream(6).child(1, 2).split(np.arange(len(nodes))),
                    (nodes.shape[1], conns.shape[1]))
    return nodes, conns


def forwarded(config, nodes, conns, inputs):
    stacked, cyclic = transform_arrays(nodes, conns, config.inputs, config.outputs,
                                       config.max_nodes)
    return stacked, cyclic, forward_arrays(stacked, None, inputs)


class TestOneGenomeAtTheLastRow:
    """Batches with and without a genome that reaches the last rows."""

    config = make_config(max_nodes=24, max_conns=48, pop_size=16, **BUSY)

    def population(self):
        pop = grown_population(self.config, rounds=10)
        # the prefix without the wide genome must be narrower than the capacity,
        # with room left for the headroom of mutation
        assert occupied(pop.nodes[:, :, NODE_KEY]) + 1 < self.config.max_nodes
        assert occupied(pop.conns[:, :, CONN_IN]) + 3 < self.config.max_conns
        wide = last_row_genome(self.config)
        return pop.nodes, pop.conns, wide.nodes[None], wide.conns[None]

    # with every addition firing, genomes at the edge of the prefix take one
    # node row and three connection rows
    @pytest.mark.parametrize("rates", [{}, dict(node_add=1.0, conn_add=1.0)])
    def test_mutate(self, rates):
        config = replace(self.config, **rates)
        nodes, conns, wide_nodes, wide_conns = self.population()
        count = len(nodes)
        alone = mutated(config, nodes, conns)
        joined = mutated(config, np.concatenate([nodes, wide_nodes]),
                         np.concatenate([conns, wide_conns]))
        assert alone[2].any()
        for a, b in zip(alone, joined):
            assert same_bits(a, b[:count])

    # a shifted side holds its genes past the other side's prefix, where the
    # homologous genes of the other side must still be found
    @pytest.mark.parametrize("shift_fit, shift_less", [(False, False), (True, False),
                                                       (False, True)])
    def test_crossover(self, shift_fit, shift_less):
        nodes, conns, wide_nodes, wide_conns = self.population()
        count = len(nodes)
        rng = np.random.default_rng(3)
        fit, less = rng.integers(0, count, count), rng.integers(0, count, count)
        fit_nodes, fit_conns = nodes[fit], conns[fit]
        less_nodes, less_conns = nodes[less], conns[less]
        if shift_fit:
            fit_nodes, fit_conns = shifted(fit_nodes), shifted(fit_conns)
        if shift_less:
            less_nodes, less_conns = shifted(less_nodes), shifted(less_conns)
        alone = crossed(fit_nodes, fit_conns, less_nodes, less_conns)
        # the wide genome joins once as the fitter and once as the less fit parent
        joined = crossed(np.concatenate([fit_nodes, wide_nodes, nodes[:1]]),
                         np.concatenate([fit_conns, wide_conns, conns[:1]]),
                         np.concatenate([less_nodes, nodes[1:2], wide_nodes]),
                         np.concatenate([less_conns, conns[1:2], wide_conns]))
        assert not same_bits(alone[0], fit_nodes)  # some attribute was taken over
        for a, b in zip(alone, joined):
            assert same_bits(a, b[:count])

    def test_transform_and_forward(self):
        nodes, conns, wide_nodes, wide_conns = self.population()
        count = len(nodes)
        inputs = np.random.default_rng(4).normal(size=(count + 1, 6, self.config.inputs))
        stacked, cyclic, alone = forwarded(self.config, nodes, conns, inputs[:count])
        wide_stack, wide_cyclic, joined = forwarded(
            self.config, np.concatenate([nodes, wide_nodes]),
            np.concatenate([conns, wide_conns]), inputs)
        assert stacked.order.shape[1] < wide_stack.order.shape[1] == self.config.max_nodes
        assert cyclic.size == 0 and wide_cyclic.size == 0
        assert same_bits(alone, joined[:count])

    def test_distance(self):
        nodes, conns, wide_nodes, wide_conns = self.population()
        count = len(nodes)
        reps = np.array([0, 5, 11])
        alone = distance_arrays(nodes, conns, nodes[reps], conns[reps], self.config)
        joined = distance_arrays(np.concatenate([nodes, wide_nodes]),
                                 np.concatenate([conns, wide_conns]),
                                 np.concatenate([nodes[reps], wide_nodes]),
                                 np.concatenate([conns[reps], wide_conns]), self.config)
        assert same_bits(alone, joined[:len(reps), :count])


class TestGenesAtTheLastRows:
    """A population that uses the last node and connection rows: headroom is
    clipped at the capacity, and structural additions that find no free row
    are no-ops."""

    def test_mutation_at_capacity(self):
        grow = make_config(max_nodes=8, max_conns=12, pop_size=40, node_add=0.6, conn_add=0.8,
                           node_delete=0.05, conn_delete=0.1)
        pop = grown_population(grow, rounds=14)
        nodes, conns = pop.nodes, pop.conns
        assert occupied(nodes[:, :, NODE_KEY]) == grow.max_nodes
        assert occupied(conns[:, :, CONN_IN]) == grow.max_conns
        free_nodes = np.isnan(nodes[:, :, NODE_KEY]).sum(axis=1)
        free_conns = np.isnan(conns[:, :, CONN_IN]).sum(axis=1)
        no_node_row = free_nodes == 0
        one_conn_row = free_conns == 1
        no_conn_row = free_conns == 0
        assert no_node_row.any() and one_conn_row.any() and no_conn_row.any()
        assert (~no_node_row & (free_conns >= 2)).any()

        # only the two additions, so a genome they cannot change stays as it was
        config = make_config(max_nodes=8, max_conns=12, node_add=1.0, conn_add=1.0,
                             node_delete=0.0, conn_delete=0.0, bias_mutate_rate=0.0,
                             bias_replace_rate=0.0, weight_mutate_rate=0.0,
                             weight_replace_rate=0.0)
        out_nodes, out_conns, added = mutated(config, nodes, conns)
        assert not added[no_node_row | (free_conns < 2)].any()
        assert added[~no_node_row & (free_conns >= 2)].any()
        assert same_bits(out_nodes[~added], nodes[~added])
        assert same_bits(out_conns[no_conn_row], conns[no_conn_row])
        # one free connection row: node addition is skipped, connection
        # addition fills that row or finds no candidate
        filled = (~np.isnan(out_conns[one_conn_row, :, CONN_IN])).all(axis=1)
        assert filled.any()

        # each genome alone has its own, often narrower, prefix
        for i in range(len(nodes)):
            one = mutated(config, nodes[i:i + 1], conns[i:i + 1], slots=[i])
            assert same_bits(one[0][0], out_nodes[i]) and same_bits(one[1][0], out_conns[i])
            assert one[2][0] == added[i]
