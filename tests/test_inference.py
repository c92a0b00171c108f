"""Transform and forward: topology ordering, the value recurrence, batching."""

import sys
import threading

import numpy as np
import pytest

from arrayneat import inference
from arrayneat import (ConfigError, ConnRow, CycleDetected, GenomeTensors, InvalidInput,
                       NodeRow, PopulationTensors, RngStream, add_conn, add_node,
                       check_integrity, decode, forward, forward_batch, graph_forward,
                       init_genome, population_forward, population_transform,
                       set_conn_attr, set_node_attr, to_dot, transform)
from arrayneat.functions import ACTIVATION_IDS, AGGREGATION_IDS, DEFAULT_REGISTRY
from arrayneat.genome import CONN_ENABLED, CONN_IN, CONN_OUT, CONN_WEIGHT, NODE_KEY
from arrayneat.inference import forward_arrays, transform_arrays

from conftest import grown_population, make_config, random_genome


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


def conns_expanded(stacked, i=0):
    """(n, n) weight of the enabled edge from row j into row k of network i, else NaN.

    Rebuilt from the sweep, so edges into input rows (which forward never
    computes) read NaN.
    """
    n = stacked.order.shape[1]
    rows = stacked.sweep_rows[i]
    active = rows < n
    expanded = np.full((n, n), np.nan)
    expanded[:, rows[active]] = stacked.sweep_weights[i, active].T
    return expanded


class TestTransform:
    def test_chain_topological_order(self):
        config = make_config(inputs=1, outputs=1, max_nodes=5, max_conns=6)
        g = init_genome(config, RngStream(1).child(0, 0, 0))
        g = add_node(g, NodeRow(2, 0.0, 1.0, 0, 1))   # hidden at row 2
        g = set_conn_attr(g, 0, 1, 0, 0.0)            # disable direct conn
        g = add_conn(g, ConnRow(0, 2, 1.0, 1.0))
        g = add_conn(g, ConnRow(2, 1, 1.0, 1.0))
        tn = transform(g)
        assert tn.size == 1
        assert np.array_equal(tn.order[0, :3], [0.0, 2.0, 1.0])
        assert np.isnan(tn.order[0, 3:]).all()

    def test_disabled_connection_is_nan_in_expansion(self):
        g = identity_chain_genome()
        g = set_conn_attr(g, 0, 1, 0, 0.0)
        tn = transform(g)
        assert np.isnan(conns_expanded(tn)[0, 1])

    def test_enabled_connection_carries_weight(self):
        tn = transform(identity_chain_genome())
        assert np.array_equal(tn.sweep_rows, [[1]])
        assert tn.sweep_weights.shape == (1, 1, 4)
        assert tn.sweep_weights[0, 0, 0] == 2.0

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
            listed = tn.order[0][~np.isnan(tn.order[0])].astype(int)
            assert sorted(listed) == sorted(np.nonzero(live)[0])

    def test_edges_respect_order(self):
        config = make_config()
        g = random_genome(3, config, n_ops=40)
        tn = transform(g)
        position = {int(r): i for i, r in enumerate(tn.order[0][~np.isnan(tn.order[0])])}
        src, dst = np.nonzero(~np.isnan(conns_expanded(tn)))
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
            got = conns_expanded(transform(g))
            # the stack keeps the node width that covers every live row
            n = got.shape[0]
            assert np.isnan(expected[n:]).all() and np.isnan(expected[:, n:]).all()
            assert np.array_equal(got.view(np.uint64), expected[:n, :n].view(np.uint64))
        assert checked >= 10

    def test_connection_into_an_input_is_dropped(self):
        config = make_config()
        g = init_genome(config, RngStream(2).child(0, 0, 0))
        g = add_node(g, NodeRow(3, 0.3, 1.0, 0, 1))
        g = add_conn(g, ConnRow(1, 3, 1.0, 0.8))
        plain = add_conn(g, ConnRow(3, 2, 1.0, -0.4))
        into_input = add_conn(plain, ConnRow(3, 0, 1.0, 0.7))
        tn = transform(into_input)
        assert np.isnan(conns_expanded(tn)[3, 0])
        assert np.array_equal(conns_expanded(tn), conns_expanded(transform(plain)),
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

    def test_reused_stack_equals_a_fresh_stack(self, corpus):
        """Forward caches its buffer positions on the stack, per batch size; calls
        at two batch sizes, from several threads at once and on a ``take``
        subset give the bits of the same call on a stack built afresh."""
        stacked, inputs = corpus
        idx = np.array([31, 4, 22, 9, 0, 13, 38])

        def fresh():
            return inference.StackedNetworks(stacked.nodes, stacked.order, stacked.input_rows,
                                             stacked.output_rows, stacked.sweep_rows,
                                             stacked.sweep_weights)

        cases = [(None, inputs[:, :1]), (None, inputs), (idx, inputs[idx, :1]),
                 (idx, inputs[idx])]
        expected = [forward_arrays(fresh() if rows is None else fresh().take(rows),
                                   DEFAULT_REGISTRY, x).view(np.uint64) for rows, x in cases]
        shared = fresh()
        start = threading.Barrier(4)
        failures = []

        def work():
            try:
                start.wait(timeout=10)
                subset = shared.take(idx)
                for _ in range(20):
                    for (rows, x), want in zip(cases, expected):
                        got = forward_arrays(shared if rows is None else subset,
                                             DEFAULT_REGISTRY, x)
                        if not np.array_equal(got.view(np.uint64), want):
                            failures.append((rows is None, x.shape))
            except Exception as err:  # a thread's error must fail the test, not vanish
                failures.append(repr(err))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        index = shared.flat_index(6)
        with pytest.raises(ValueError):
            index.columns[0, 0] = 0

    def test_take_drops_columns_no_genome_uses(self, corpus):
        stacked, _ = corpus
        counts = (stacked.sweep_rows < stacked.order.shape[1]).sum(axis=1)
        smallest = int(np.argmin(counts))
        assert counts[smallest] < stacked.sweep_rows.shape[1]
        assert len(stacked.take(np.array([smallest])).columns) == counts[smallest]


class TestWideCapacity:
    """More than 64 node rows: the bitset successor sets span several words."""

    @pytest.fixture(scope="class")
    def spread(self):
        # genomes of capacity 40, stored again at capacity 130 with each row r
        # moved to the increasing row rows[r], so most hidden nodes sit past 64
        config = make_config(max_nodes=40, max_conns=80)
        genomes = [random_genome(s, config, n_ops=120) for s in range(24)]
        narrow = PopulationTensors.from_genomes(genomes)
        io = config.inputs + config.outputs
        rng = np.random.default_rng(9)
        rows = np.concatenate([np.arange(io),
                               np.sort(rng.choice(np.arange(61, 130), 40 - io, replace=False))])
        wide_nodes = np.full((narrow.size, 130, 5), np.nan)
        wide_nodes[:, rows] = narrow.nodes
        wide = PopulationTensors(wide_nodes, narrow.conns, config.inputs, config.outputs)
        live_rows = rows[np.nonzero(~np.isnan(narrow.nodes[:, :, NODE_KEY]))[1]]
        assert (live_rows >= 64).sum() > 50
        return narrow, wide, rows

    def test_order_and_sweep_match_capacity_40(self, spread):
        narrow, wide, rows = spread
        a, cyclic_a = transform_arrays(narrow.nodes, narrow.conns, 2, 1)
        b, cyclic_b = transform_arrays(wide.nodes, wide.conns, 2, 1)
        assert cyclic_a.size == 0 and cyclic_b.size == 0
        # capacity 40 keeps its occupied rows rounded up to a multiple of 8;
        # capacity 130 is past the pairwise-sum block and keeps its full width
        occupied = np.nonzero(~np.isnan(narrow.nodes[:, :, NODE_KEY]).all(axis=0))[0][-1] + 1
        width = a.order.shape[1]
        assert width == min(40, -(-occupied // 8) * 8)
        assert b.order.shape[1] == 130
        live = ~np.isnan(a.order)
        moved = np.where(live, rows[np.where(live, a.order, 0).astype(int)], np.nan)
        assert np.array_equal(b.order[:, :width], moved, equal_nan=True)
        assert np.isnan(b.order[:, width:]).all()
        padded = a.sweep_rows == width
        assert np.array_equal(b.sweep_rows,
                              np.where(padded, 130, rows[np.where(padded, 0, a.sweep_rows)]))

    def test_forward_matches_capacity_40_and_oracle(self, spread):
        narrow, wide, _ = spread
        inputs = np.random.default_rng(4).normal(size=(narrow.size, 5, 2))
        a = population_forward(population_transform(narrow), inputs=inputs)
        b = population_forward(population_transform(wide), inputs=inputs)
        # the width-n reductions sum different runs of zeros, so compare to rounding
        assert np.allclose(a, b, atol=1e-12, rtol=0.0)
        for i in range(wide.size):
            net = decode(wide.genome(i))
            for x, out in zip(inputs[i], b[i]):
                assert np.allclose(out, graph_forward(net, None, list(x)), atol=1e-9, rtol=0.0)

    def test_more_than_64_live_nodes_against_oracle(self):
        config = make_config(max_nodes=130, max_conns=360, pop_size=6, node_add=0.9,
                             conn_add=0.8, weight_mutate_power=0.2,
                             activation_options=("tanh", "sigmoid"),
                             activation_replace_rate=0.2)
        pop = grown_population(config, rounds=110)
        live = ~np.isnan(pop.nodes[:, :, NODE_KEY])
        assert live.sum(axis=1).max() > 64
        stacked = population_transform(pop)
        for i in range(pop.size):
            listed = stacked.order[i][~np.isnan(stacked.order[i])].astype(int)
            assert sorted(listed) == list(np.nonzero(live[i])[0])
            position = {r: k for k, r in enumerate(listed)}
            src, dst = np.nonzero(~np.isnan(conns_expanded(stacked, i)))
            assert all(position[s] < position[d] for s, d in zip(src, dst))
        inputs = np.random.default_rng(6).normal(size=(pop.size, 4, 2))
        outputs = population_forward(stacked, inputs=inputs)
        for i in range(pop.size):
            net = decode(pop.genome(i))
            for x, out in zip(inputs[i], outputs[i]):
                assert np.allclose(out, graph_forward(net, None, list(x)), atol=1e-9, rtol=0.0)


    def test_capacity_130_outputs_do_not_depend_on_the_batch(self):
        # a sum output fed by 40 hidden nodes spread over rows 3-109; past 128
        # rows numpy sums in halves, so a node width cut to the genome's own
        # rows would regroup those 40 terms when it is transformed alone
        rng = np.random.default_rng(11)
        hidden_rows = np.linspace(3, 109, 40).astype(int)
        nodes = np.full((130, 5), np.nan)
        nodes[:3] = [[0, 0.0, 1.0, 0, 0], [1, 0.0, 1.0, 0, 0], [2, 0.3, 1.0,
                     AGGREGATION_IDS["sum"], ACTIVATION_IDS["identity"]]]
        conns = np.full((100, 4), np.nan)
        for k, row in enumerate(hidden_rows):
            key = 3 + k
            nodes[row] = [key, rng.normal(), 1.0, 0, ACTIVATION_IDS["tanh"]]
            conns[2 * k] = [k % 2, key, 1.0, rng.normal() * 3.0]
            conns[2 * k + 1] = [key, 2, 1.0, rng.normal() * 10.0 ** rng.integers(-3, 3)]
        spread = GenomeTensors(nodes, conns, 2, 1)
        check_integrity(spread)
        # a second genome whose only hidden node sits at the last row
        nodes = np.full((130, 5), np.nan)
        nodes[:3] = spread.nodes[:3]
        nodes[129] = [43, 0.1, 1.0, 0, ACTIVATION_IDS["tanh"]]
        conns = np.full((100, 4), np.nan)
        conns[:3] = [[0, 43, 1.0, 0.5], [43, 2, 1.0, -0.7], [1, 2, 1.0, 0.2]]
        last = GenomeTensors(nodes, conns, 2, 1)
        check_integrity(last)

        inputs = rng.normal(size=(64, 2)) * 4.0
        alone = forward_batch(transform(spread), inputs=inputs)
        both = population_forward(population_transform(PopulationTensors.from_genomes(
            [spread, last])), inputs=np.stack([inputs, inputs]))
        assert np.array_equal(alone.view(np.uint64), both[0].view(np.uint64))


def test_zero_padded_sum_has_the_bits_of_the_capacity_wide_sum():
    # the node width of a transform (inference.transform_arrays) rests on
    # numpy's pairwise sum: up to 128 elements, summing a zero-padded row over a
    # multiple-of-8 prefix gives the bits of summing it over the whole row
    rng = np.random.default_rng(12)
    for capacity in range(8, 129):
        terms = rng.normal(size=(3, 8, capacity)) * 10.0 ** rng.integers(-6, 6, (3, 8, capacity))
        terms[rng.random(terms.shape) < 0.15] = -0.0
        for width in range(8, capacity + 1, 8):
            # each row keeps a random number of live terms in its first ``width``
            live = rng.random(terms.shape) < rng.random((3, 8, 1))
            padded = np.where(live & (np.arange(capacity) < width), terms, 0.0)
            prefix = np.ascontiguousarray(padded[:, :, :width])
            assert np.array_equal(np.add.reduce(prefix, axis=-1).view(np.uint64),
                                  np.add.reduce(padded, axis=-1).view(np.uint64)), \
                (capacity, width)


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
        compiled, swept = [], []
        compile_, forward_arrays_ = inference._compile, inference.forward_arrays

        def counted_compile(*args):
            compiled.append(compile_(*args))
            return compiled[-1]

        def counted_forward(stacked, registry, x):
            swept.append(stacked)
            return forward_arrays_(stacked, registry, x)

        monkeypatch.setattr(inference, "_compile", counted_compile)
        monkeypatch.setattr(inference, "forward_arrays", counted_forward)
        tn = transform(random_genome(4, make_config(), n_ops=20))
        forward(tn, inputs=[0.1, 0.2])
        forward_batch(tn, inputs=[[0.1, 0.2], [0.3, -0.4]])
        assert len(compiled) == 1 and compiled[0] is tn
        assert len(swept) == 2 and swept[0] is swept[1] is tn

    @pytest.mark.parametrize("column", [2, 3], ids=["aggregation", "activation"])
    def test_unknown_function_code_is_rejected(self, column):
        config = make_config(inputs=2, outputs=1, max_nodes=8, max_conns=16)
        tanh = init_genome(config, RngStream(4).child(0, 0, 0))
        tanh = set_node_attr(tanh, 2, 3, ACTIVATION_IDS["tanh"])
        nodes = tanh.nodes.copy()
        nodes[2, 1 + column] = 9  # set_node_attr refuses the code
        unknown = GenomeTensors(nodes, tanh.conns, tanh.num_inputs, tanh.num_outputs)
        with pytest.raises(ConfigError, match="code 9"):
            forward(transform(unknown), inputs=[0.3, -0.7])
        pop = PopulationTensors.from_genomes([tanh, unknown])
        with pytest.raises(ConfigError, match="code 9"):
            population_forward(population_transform(pop), inputs=[[0.3, -0.7]] * 2)

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
        # inputs is the second positional argument of every forward entry point
        assert np.array_equal(population_forward(nets, xs), out)
        for i, g in enumerate(genomes):
            tn = transform(g)
            assert np.array_equal(out[i], forward_batch(tn, inputs=xs[i]))
            assert np.array_equal(forward_batch(tn, xs[i]), out[i])
            assert np.array_equal(forward(tn, xs[i, 0]), forward(tn, inputs=xs[i, 0]))

    @pytest.mark.parametrize("call", [
        lambda s: population_forward(s, inputs=np.zeros((s.size + 1, 2))),
        lambda s: population_forward(s, inputs=np.zeros((s.size - 1, 5, 2))),
        lambda s: forward(s, inputs=[0.1, 0.2]),
        lambda s: forward_batch(s, inputs=[[0.1, 0.2]]),
    ], ids=["population_forward-2d", "population_forward-3d", "forward", "forward_batch"])
    def test_leading_axis_must_match_the_stack(self, call):
        pop, _ = self.make_population(range(3), make_config())
        with pytest.raises(InvalidInput):
            call(population_transform(pop))

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
