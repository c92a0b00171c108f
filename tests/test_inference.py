"""Transform and forward: topology ordering, the value recurrence, batching."""

import numpy as np
import pytest

from arrayneat import inference
from arrayneat import (ConnRow, CycleDetected, GenomeTensors, InvalidInput,
                       NodeRow, PopulationTensors, RngStream, add_conn, add_node,
                       forward, forward_batch, init_genome, population_forward,
                       population_transform, set_conn_attr, set_node_attr,
                       to_dot, transform)
from arrayneat.functions import ACTIVATION_IDS, AGGREGATION_IDS, DEFAULT_REGISTRY
from arrayneat.genome import CONN_ENABLED, CONN_IN, CONN_OUT, CONN_WEIGHT, NODE_KEY
from arrayneat.inference import StackedNetworks, forward_arrays, transform_arrays

from conftest import make_config, random_genome


def identity_chain_genome():
    """1 input, 1 output, one conn w=2.0, bias 0.5, response 1, identity/sum."""
    config = make_config(inputs=1, outputs=1, max_nodes=4, max_conns=4,
                         bias_init_std=0.0, weight_init_std=0.0)
    g = init_genome(config, RngStream(0).child(0, 0, 0))
    g = set_conn_attr(g, 0, 1, 1, 2.0)
    g = set_node_attr(g, 1, 0, 0.5)                               # bias
    g = set_node_attr(g, 1, 3, ACTIVATION_IDS["identity"])        # activation
    g = set_node_attr(g, 1, 2, AGGREGATION_IDS["sum"])            # aggregation
    return g


class TestTransform:
    def test_chain_topological_order(self):
        config = make_config(inputs=1, outputs=1, max_nodes=5, max_conns=6)
        g = init_genome(config, RngStream(1).child(0, 0, 0))
        g = add_node(g, NodeRow(2, 0.0, 1.0, 0, 1))   # hidden at row 2
        g = set_conn_attr(g, 0, 1, 0, 0.0)            # disable direct conn
        g = add_conn(g, ConnRow(0, 2, 1.0, 1.0))
        g = add_conn(g, ConnRow(2, 1, 1.0, 1.0))
        tn = transform(g)
        assert np.array_equal(tn.order[:3], [0.0, 2.0, 1.0])
        assert np.isnan(tn.order[3:]).all()

    def test_disabled_connection_is_nan_in_expansion(self):
        g = identity_chain_genome()
        g = set_conn_attr(g, 0, 1, 0, 0.0)
        tn = transform(g)
        assert np.isnan(tn.conns_expanded[0, 1, 0])

    def test_enabled_connection_carries_weight(self):
        tn = transform(identity_chain_genome())
        assert tn.conns_expanded[0, 1, 0] == 2.0
        assert tn.conns_expanded.shape == (4, 4, 1)

    def test_cycle_detected(self):
        config = make_config(inputs=1, outputs=1, max_nodes=5, max_conns=8)
        g = init_genome(config, RngStream(1).child(0, 0, 0))
        g = add_node(g, NodeRow(2, 0.0, 1.0, 0, 1))
        g = add_node(g, NodeRow(3, 0.0, 1.0, 0, 1))
        g = add_conn(g, ConnRow(2, 3, 1.0, 1.0))
        g = add_conn(g, ConnRow(3, 2, 1.0, 1.0))  # enabled 2 <-> 3 cycle
        with pytest.raises(CycleDetected):
            transform(g)

    def test_order_contains_each_live_row_once(self):
        config = make_config()
        for seed in range(6):
            g = random_genome(seed, config)
            tn = transform(g)
            live = ~np.isnan(g.nodes[:, 0])
            listed = tn.order[~np.isnan(tn.order)].astype(int)
            assert sorted(listed) == sorted(np.nonzero(live)[0])

    def test_edges_respect_order(self):
        config = make_config()
        g = random_genome(3, config, n_ops=40)
        tn = transform(g)
        position = {int(r): i for i, r in enumerate(tn.order[~np.isnan(tn.order)])}
        src, dst = np.nonzero(~np.isnan(tn.conns_expanded[:, :, 0]))
        for s, d in zip(src, dst):
            assert position[int(s)] < position[int(d)]

    def test_conns_expanded_matches_enabled_connections(self):
        # reference built straight from the connection tensor
        config = make_config()
        checked = 0
        for seed in range(30):
            g = random_genome(seed, config, n_ops=40)
            keys = g.nodes[:, NODE_KEY]
            if not (keys >= config.inputs + config.outputs).any():
                continue  # only genomes with hidden nodes
            checked += 1
            row = {int(k): r for r, k in enumerate(keys) if not np.isnan(k)}
            expected = np.full((keys.size, keys.size), np.nan)
            for conn in g.conns:
                if conn[CONN_ENABLED] == 1.0:
                    expected[row[int(conn[CONN_IN])], row[int(conn[CONN_OUT])]] = conn[CONN_WEIGHT]
            got = transform(g).conns_expanded
            assert got.shape == expected.shape + (1,)
            assert np.array_equal(got[:, :, 0].view(np.uint64), expected.view(np.uint64))
        assert checked >= 10

    def test_connection_into_an_input_is_dropped(self):
        config = make_config()
        g = init_genome(config, RngStream(2).child(0, 0, 0))
        g = add_node(g, NodeRow(3, 0.3, 1.0, 0, 1))
        g = add_conn(g, ConnRow(1, 3, 1.0, 0.8))
        plain = add_conn(g, ConnRow(3, 2, 1.0, -0.4))
        into_input = add_conn(plain, ConnRow(3, 0, 1.0, 0.7))
        tn = transform(into_input)
        assert np.isnan(tn.conns_expanded[3, 0, 0])
        assert np.array_equal(tn.conns_expanded, transform(plain).conns_expanded,
                              equal_nan=True)
        x = [0.5, -1.5]
        assert np.array_equal(forward(tn, inputs=x), forward(transform(plain), inputs=x))


class TestSweep:
    @pytest.fixture(scope="class")
    def corpus(self):
        config = make_config(max_nodes=16, max_conns=40)
        genomes = [random_genome(s, config, n_ops=45) for s in range(40)]
        pop = PopulationTensors.from_genomes(genomes)
        stacked, cyclic = transform_arrays(pop.nodes, pop.conns, config.inputs, config.outputs)
        assert cyclic.size == 0
        inputs = np.random.default_rng(5).normal(size=(pop.size, 6, config.inputs)) * 2.0
        return stacked, inputs

    def test_corpus_mixes_codes_within_a_column(self, corpus):
        stacked, _ = corpus
        assert any(len(c.aggregations) > 1 for c in stacked.columns)
        assert any(len(c.activations) > 1 for c in stacked.columns)

    @pytest.mark.parametrize("idx", [[17], [31, 4, 22, 9, 0, 13, 38],
                                     list(np.random.default_rng(8).permutation(40))])
    def test_take_equals_rows_of_the_full_forward(self, corpus, idx):
        stacked, inputs = corpus
        idx = np.array(idx)
        full = forward_arrays(stacked, DEFAULT_REGISTRY, inputs)
        subset = forward_arrays(stacked.take(idx), DEFAULT_REGISTRY, inputs[idx])
        assert np.array_equal(subset.view(np.uint64), full[idx].view(np.uint64))

    def test_take_drops_columns_no_genome_uses(self, corpus):
        stacked, _ = corpus
        counts = (stacked.sweep_rows < stacked.order.shape[1]).sum(axis=1)
        smallest = int(np.argmin(counts))
        assert counts[smallest] < stacked.sweep_rows.shape[1]
        assert len(stacked.take(np.array([smallest])).columns) == counts[smallest]

    def test_genome_view_round_trips_through_from_networks(self, corpus):
        stacked, inputs = corpus
        rebuilt = StackedNetworks.from_networks(
            [stacked.genome_view(i) for i in range(stacked.size)])
        assert np.array_equal(rebuilt.sweep_rows, stacked.sweep_rows)
        assert np.array_equal(rebuilt.sweep_weights, stacked.sweep_weights, equal_nan=True)
        assert np.array_equal(forward_arrays(rebuilt, DEFAULT_REGISTRY, inputs),
                              forward_arrays(stacked, DEFAULT_REGISTRY, inputs))


class TestForward:
    def test_identity_chain_fixture(self):
        tn = transform(identity_chain_genome())
        out = forward(tn, inputs=[3.0])
        assert out.shape == (1,)
        assert out[0] == pytest.approx(6.5, abs=1e-12)  # 0.5 + 1 * (2 * 3)

    def test_isolated_output_gets_bias(self):
        g = identity_chain_genome()
        from arrayneat import remove_conn
        g = remove_conn(g, 0, 1)
        out = forward(transform(g), inputs=[3.0])
        assert out[0] == pytest.approx(0.5, abs=1e-15)  # act(b + r*0) = b

    def test_invalid_inputs(self):
        tn = transform(identity_chain_genome())
        with pytest.raises(InvalidInput):
            forward(tn, inputs=[1.0, 2.0])
        with pytest.raises(InvalidInput):
            forward(tn, inputs=[np.nan])

    def test_transform_once_bitwise(self):
        config = make_config()
        g = random_genome(11, config, n_ops=35)
        tn = transform(g)
        x = np.linspace(-1, 1, 2)
        repeated = [forward(tn, inputs=x) for _ in range(50)]
        fresh = [forward(transform(g), inputs=x) for _ in range(50)]
        for a, b in zip(repeated, fresh):
            assert np.array_equal(a, b)

    def test_network_is_compiled_once(self, monkeypatch):
        tn = transform(random_genome(4, make_config(), n_ops=20))
        swept = []
        original = inference.forward_arrays
        monkeypatch.setattr(inference, "forward_arrays",
                            lambda stacked, registry, x: swept.append(stacked)
                            or original(stacked, registry, x))
        forward(tn, inputs=[0.1, 0.2])
        forward_batch(tn, inputs=[[0.1, 0.2], [0.3, -0.4]])
        assert len(swept) == 2 and swept[0] is swept[1] is tn.sweep

    def test_nan_containment(self):
        config = make_config()
        for seed in range(10):
            g = random_genome(seed, config, n_ops=30)
            tn = transform(g)
            out = forward(tn, inputs=np.random.default_rng(seed).normal(size=2))
            assert not np.isnan(out).any()

    def test_permutation_invariance(self):
        config = make_config()
        rng = np.random.default_rng(0)
        for seed in range(6):
            g = random_genome(seed, config, n_ops=30)
            node_perm = rng.permutation(g.nodes.shape[0])
            conn_perm = rng.permutation(g.conns.shape[0])
            shuffled = GenomeTensors(g.nodes[node_perm], g.conns[conn_perm],
                                     g.num_inputs, g.num_outputs)
            x = rng.normal(size=2)
            a = forward(transform(g), inputs=x)
            b = forward(transform(shuffled), inputs=x)
            assert np.allclose(a, b, atol=1e-12, rtol=0.0)

    def test_all_aggregations_and_activations_execute(self):
        config = make_config(inputs=2, outputs=1, max_nodes=8, max_conns=16)
        for agg_name, agg_id in AGGREGATION_IDS.items():
            for act_name, act_id in ACTIVATION_IDS.items():
                g = init_genome(config, RngStream(4).child(0, 0, 0))
                g = set_node_attr(g, 2, 2, agg_id)
                g = set_node_attr(g, 2, 3, act_id)
                out = forward(transform(g), inputs=[0.3, -0.7])
                assert np.isfinite(out).all(), (agg_name, act_name)


class TestBatching:
    def test_batch_of_one_equals_forward(self):
        tn = transform(identity_chain_genome())
        single = forward(tn, inputs=[3.0])
        batched = forward_batch(tn, inputs=[[3.0]])
        assert np.array_equal(batched, single[None])

    def test_duplicated_rows_duplicate_outputs(self):
        tn = transform(identity_chain_genome())
        out = forward_batch(tn, inputs=[[2.0], [2.0], [5.0]])
        assert np.array_equal(out[0], out[1])
        assert not np.array_equal(out[0], out[2])

    def test_large_batch_equals_sequential_calls_bitwise(self):
        config = make_config()
        g = random_genome(21, config, n_ops=35)
        tn = transform(g)
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(256, 2))
        batched = forward_batch(tn, inputs=xs)
        looped = np.stack([forward(tn, inputs=x) for x in xs])
        assert np.array_equal(batched, looped)


class TestPopulation:
    def make_population(self, seeds, config):
        genomes = [random_genome(s, config, n_ops=25) for s in seeds]
        return PopulationTensors.from_genomes(genomes), genomes

    def test_identical_genomes_identical_outputs(self):
        config = make_config()
        g = random_genome(5, config)
        pop = PopulationTensors.from_genomes([g, g, g])
        nets = population_transform(pop)
        outs = population_forward(nets, inputs=np.tile([[0.1, 0.2]], (3, 1)))
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[1], outs[2])

    def test_population_of_one_reduces_to_single(self):
        config = make_config()
        g = random_genome(6, config)
        pop = PopulationTensors.from_genomes([g])
        nets = population_transform(pop)
        x = np.array([[0.4, -0.9]])
        assert np.array_equal(population_forward(nets, inputs=x)[0],
                              forward(transform(g), inputs=x[0]))

    def test_population_matches_sequential_loop_exactly(self):
        config = make_config()
        pop, genomes = self.make_population(range(30), config)
        nets = population_transform(pop)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(30, 2))
        batched = population_forward(nets, inputs=xs)
        looped = np.stack([forward(transform(g), inputs=x)
                           for g, x in zip(genomes, xs)])
        assert np.array_equal(batched, looped)

    def test_population_3d_inputs(self):
        config = make_config()
        pop, genomes = self.make_population(range(4), config)
        nets = population_transform(pop)
        xs = np.random.default_rng(1).normal(size=(4, 7, 2))
        out = population_forward(nets, inputs=xs)
        assert out.shape == (4, 7, 1)
        for i, g in enumerate(genomes):
            assert np.array_equal(out[i], forward_batch(transform(g), inputs=xs[i]))

    def test_cycle_reported_with_genome_index(self):
        config = make_config(inputs=1, outputs=1, max_nodes=5, max_conns=8)
        good = init_genome(config, RngStream(1).child(0, 0, 0))
        bad = add_node(good, NodeRow(2, 0.0, 1.0, 0, 1))
        bad = add_node(bad, NodeRow(3, 0.0, 1.0, 0, 1))
        bad = add_conn(bad, ConnRow(2, 3, 1.0, 1.0))
        bad = add_conn(bad, ConnRow(3, 2, 1.0, 1.0))
        pop = PopulationTensors.from_genomes([good, bad, good])
        with pytest.raises(CycleDetected) as err:
            population_transform(pop)
        assert err.value.genome_indices == [1]


class TestDot:
    def test_dot_contains_nodes_and_edges(self, fresh_genome):
        dot = to_dot(fresh_genome)
        assert dot.startswith("digraph")
        assert "n0 -> n2" in dot and "n1 -> n2" in dot

    def test_disabled_edges_dashed(self, fresh_genome):
        g = set_conn_attr(fresh_genome, 0, 2, 0, 0.0)
        assert "style=dashed" in to_dot(g)
        assert "style=dashed" not in to_dot(fresh_genome)
