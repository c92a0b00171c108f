"""Tensor encoding: initialization, the primitive edits, and the text format."""

import numpy as np
import pytest

from arrayneat import (CapacityFull, ConnRow, DanglingEndpoint, DuplicateConn,
                       DuplicateKey, IntegrityError, KeyNotFound, NodeRow, ParseError,
                       PopulationTensors, ProtectedNode, BadAttrIndex, RngStream,
                       ShapeMismatch, add_conn, add_node, check_integrity,
                       count_live, genomes_equal, init_genome,
                       parse_genome, remove_conn, remove_node, serialize_genome,
                       set_conn_attr, set_node_attr)
from arrayneat.genome import (CONN_ENABLED, CONN_WEIGHT, NODE_BIAS, NODE_KEY, NODE_RESPONSE,
                              check_blocks, init_arrays)

from conftest import (dfs_has_cycle, live_conn_pairs, live_node_keys,
                      make_config, random_genome, random_valid_op)


def stream(seed=5):
    return RngStream(seed).child(0, 0, 0)


class TestInit:
    def test_full_connectivity_two_in_one_out(self):
        config = make_config(inputs=2, outputs=1, max_nodes=4, max_conns=4)
        g = init_genome(config, stream())
        assert live_node_keys(g) == [0, 1, 2]
        assert live_conn_pairs(g) == [(0, 2), (1, 2)]
        assert np.isnan(g.nodes[3]).all()
        assert np.isnan(g.conns[2:]).all()

    def test_zero_variance_initialization(self):
        config = make_config(inputs=1, outputs=1, max_nodes=4, max_conns=4,
                             bias_init_std=0.0, weight_init_std=0.0,
                             bias_init_mean=0.0, weight_init_mean=0.0,
                             response_init_mean=1.0, response_init_std=0.0)
        g = init_genome(config, stream())
        out_row = g.nodes[1]
        assert out_row[NODE_BIAS] == 0.0 and out_row[2] == 1.0
        conn = g.conns[0]
        assert conn[CONN_WEIGHT] == 0.0 and conn[CONN_ENABLED] == 1.0

    def test_three_in_two_out_combinatorics(self):
        config = make_config(inputs=3, outputs=2, max_nodes=8, max_conns=8)
        g = init_genome(config, stream())
        pairs = set(live_conn_pairs(g))
        assert pairs == {(i, o) for i in (0, 1, 2) for o in (3, 4)}
        assert count_live(g) == (5, 6)

    def test_deterministic_per_stream(self):
        config = make_config()
        assert genomes_equal(init_genome(config, stream(9)), init_genome(config, stream(9)))
        assert not genomes_equal(init_genome(config, stream(9)), init_genome(config, stream(10)))

    @pytest.mark.parametrize("batch", [None, 6])
    def test_draws_equal_the_dense_capacity_grids(self, batch):
        config = make_config(inputs=3, outputs=2, max_nodes=9, max_conns=11,
                             bias_init_std=1.0, response_init_mean=1.0,
                             response_init_std=0.5, weight_init_std=2.0)
        def streams():
            rng = RngStream(4).child(0, 0)
            return rng if batch is None else rng.split(np.arange(batch))
        sparse, dense = streams(), streams()
        nodes, conns = init_arrays(config, sparse)
        bias = config.bias_init_mean + config.bias_init_std * dense.normals(config.max_nodes)
        response = (config.response_init_mean
                    + config.response_init_std * dense.normals(config.max_nodes))
        weight = config.weight_init_mean + config.weight_init_std * dense.normals(config.max_conns)
        assert sparse._counter == dense._counter
        # the first population is stored at its live rows plus mutation's headroom
        assert nodes.shape[-2:] == (5 + 1, 5) and conns.shape[-2:] == (6 + 3, 4)
        for got, want in ((nodes[..., :5, NODE_BIAS], bias[..., :5]),
                          (nodes[..., :5, NODE_RESPONSE], response[..., :5]),
                          (conns[..., :6, CONN_WEIGHT], weight[..., :6])):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestAddRemoveNode:
    def test_fills_first_padding_row(self, fresh_genome):
        g = add_node(fresh_genome, NodeRow(7, 0.5, 1.0, 0, 1))
        assert g.nodes[3, NODE_KEY] == 7.0
        assert np.array_equal(g.nodes[:3], fresh_genome.nodes[:3], equal_nan=True)

    def test_capacity_full(self):
        config = make_config(inputs=2, outputs=1, max_nodes=3, max_conns=4)
        g = init_genome(config, stream())
        with pytest.raises(CapacityFull):
            add_node(g, NodeRow(9, 0.0, 1.0, 0, 1))

    def test_fills_hole_from_prior_removal(self, fresh_genome):
        # oracle: linear scan for the first all-NaN row
        g = add_node(fresh_genome, NodeRow(5, 0.0, 1.0, 0, 1))
        g = add_node(g, NodeRow(6, 0.0, 1.0, 0, 1))
        g = remove_node(g, 5)  # row 3 becomes a hole before row 4 (key 6)
        first_nan = int(np.argmax(np.isnan(g.nodes).all(axis=1)))
        g2 = add_node(g, NodeRow(9, 0.0, 1.0, 0, 1))
        assert g2.nodes[first_nan, NODE_KEY] == 9.0
        assert first_nan == 3

    def test_duplicate_key(self, fresh_genome):
        with pytest.raises(DuplicateKey):
            add_node(fresh_genome, NodeRow(0, 0.0, 1.0, 0, 1))

    @pytest.mark.parametrize("row", [
        NodeRow(-3, 0.0, 1.0, 0, 1),
        NodeRow(7.5, 0.0, 1.0, 0, 1),
        NodeRow(2 ** 26, 0.0, 1.0, 0, 1),
        NodeRow(7, 0.0, 1.0, 0, 9),
        NodeRow(7, 0.0, 1.0, 1.5, 1),
        NodeRow(7, float("nan"), 1.0, 0, 1),
    ], ids=["negative-key", "fractional-key", "key-at-pair-code-limit",
            "unknown-activation", "fractional-aggregation", "nan-bias"])
    def test_refuses_rows_check_integrity_refuses(self, fresh_genome, row):
        nodes = fresh_genome.nodes.copy()
        nodes[3] = row.as_array()
        with pytest.raises(IntegrityError):
            check_integrity(type(fresh_genome)(nodes, fresh_genome.conns, 2, 1))
        before = fresh_genome.nodes.copy()
        with pytest.raises(IntegrityError):
            add_node(fresh_genome, row)
        assert np.array_equal(fresh_genome.nodes, before, equal_nan=True)

    def test_remove_cascades_incident_conns(self, fresh_genome):
        g = add_node(fresh_genome, NodeRow(7, 0.0, 1.0, 0, 1))
        g = add_conn(g, ConnRow(0, 7, 1.0, 0.3))
        g = add_conn(g, ConnRow(7, 2, 1.0, 0.4))
        g = remove_node(g, 7)
        assert 7 not in live_node_keys(g)
        assert (0, 7) not in live_conn_pairs(g)
        assert (7, 2) not in live_conn_pairs(g)
        assert (0, 2) in live_conn_pairs(g)

    def test_remove_input_protected(self, fresh_genome):
        with pytest.raises(ProtectedNode):
            remove_node(fresh_genome, 0)
        with pytest.raises(ProtectedNode):
            remove_node(fresh_genome, 2)  # output

    def test_remove_isolated_hidden_only_touches_node(self, fresh_genome):
        g = add_node(fresh_genome, NodeRow(7, 0.0, 1.0, 0, 1))
        g2 = remove_node(g, 7)
        assert np.array_equal(g2.conns, g.conns, equal_nan=True)
        assert count_live(g2) == count_live(fresh_genome)

    def test_remove_missing_key(self, fresh_genome):
        with pytest.raises(KeyNotFound):
            remove_node(fresh_genome, 99)


class TestAddRemoveConn:
    def test_add_into_first_padding_row(self, fresh_genome):
        g = remove_conn(fresh_genome, 0, 2)
        g = add_conn(g, ConnRow(0, 2, 1.0, 0.9))
        assert g.conns[0, CONN_WEIGHT] == 0.9  # refills the hole at row 0

    def test_duplicate_conn(self, fresh_genome):
        with pytest.raises(DuplicateConn):
            add_conn(fresh_genome, ConnRow(0, 2, 1.0, 1.0))

    @pytest.mark.parametrize("row", [ConnRow(0, 2, 0.5, 0.1), ConnRow(0, 2, 1.0, float("nan"))],
                             ids=["half-enabled", "nan-weight"])
    def test_refuses_rows_check_integrity_refuses(self, fresh_genome, row):
        g = remove_conn(fresh_genome, 0, 2)
        with pytest.raises(IntegrityError):
            add_conn(g, row)

    def test_dangling_endpoint(self, fresh_genome):
        with pytest.raises(DanglingEndpoint):
            add_conn(fresh_genome, ConnRow(0, 9, 1.0, 1.0))

    def test_capacity_full(self):
        config = make_config(inputs=2, outputs=1, max_nodes=4, max_conns=2)
        g = init_genome(config, stream())
        g = add_node(g, NodeRow(3, 0.0, 1.0, 0, 1))
        with pytest.raises(CapacityFull):
            add_conn(g, ConnRow(0, 3, 1.0, 1.0))

    def test_remove_then_remove_again(self, fresh_genome):
        g = remove_conn(fresh_genome, 0, 2)
        assert live_conn_pairs(g) == [(1, 2)]
        with pytest.raises(KeyNotFound):
            remove_conn(g, 0, 2)

    def test_remove_conn_never_removes_nodes(self, fresh_genome):
        g = add_node(fresh_genome, NodeRow(7, 0.0, 1.0, 0, 1))
        g = add_conn(g, ConnRow(0, 7, 1.0, 0.1))
        g = remove_conn(g, 0, 7)  # node 7 becomes isolated but stays live
        assert 7 in live_node_keys(g)


class TestSetAttr:
    def test_set_bias(self, fresh_genome):
        g = set_node_attr(fresh_genome, 2, 0, 0.5)
        assert g.nodes[2, 1] == 0.5
        # only that cell changed
        delta = g.nodes != fresh_genome.nodes
        delta &= ~(np.isnan(g.nodes) & np.isnan(fresh_genome.nodes))
        assert delta.sum() == 1

    def test_set_activation_to_sigmoid_code(self, fresh_genome):
        g = set_node_attr(fresh_genome, 2, 3, 2)  # sigmoid is code 2
        assert g.nodes[2, 4] == 2.0

    def test_bad_node_attr_index(self, fresh_genome):
        with pytest.raises(BadAttrIndex):
            set_node_attr(fresh_genome, 2, 4, 1.0)

    def test_set_conn_weight(self, fresh_genome):
        g = set_conn_attr(fresh_genome, 0, 2, 1, -1.25)
        assert g.conns[0, 3] == -1.25

    def test_disable_is_not_removal(self, fresh_genome):
        g = set_conn_attr(fresh_genome, 0, 2, 0, 0.0)
        assert (0, 2) in live_conn_pairs(g)
        assert g.conns[0, CONN_ENABLED] == 0.0

    def test_bad_conn_attr_index(self, fresh_genome):
        with pytest.raises(BadAttrIndex):
            set_conn_attr(fresh_genome, 0, 2, 2, 1.0)

    @pytest.mark.parametrize("attr, value", [
        (3, 9), (2, 1.5), (0, float("nan")), (1, float("nan")),
    ], ids=["unknown-activation", "fractional-aggregation", "nan-bias", "nan-response"])
    def test_node_values_check_integrity_refuses(self, fresh_genome, attr, value):
        nodes = fresh_genome.nodes.copy()
        nodes[2, 1 + attr] = value
        with pytest.raises(IntegrityError):
            check_integrity(type(fresh_genome)(nodes, fresh_genome.conns, 2, 1))
        with pytest.raises(IntegrityError):
            set_node_attr(fresh_genome, 2, attr, value)

    @pytest.mark.parametrize("attr, value", [
        (0, 0.5), (0, -1.0), (0, float("nan")), (1, float("nan")),
    ], ids=["half-enabled", "negative-enabled", "nan-enabled", "nan-weight"])
    def test_conn_values_check_integrity_refuses(self, fresh_genome, attr, value):
        conns = fresh_genome.conns.copy()
        conns[0, 2 + attr] = value
        with pytest.raises(IntegrityError):
            check_integrity(type(fresh_genome)(fresh_genome.nodes, conns, 2, 1))
        with pytest.raises(IntegrityError):
            set_conn_attr(fresh_genome, 0, 2, attr, value)

    def test_missing_key(self, fresh_genome):
        with pytest.raises(KeyNotFound):
            set_node_attr(fresh_genome, 42, 0, 1.0)
        with pytest.raises(KeyNotFound):
            set_conn_attr(fresh_genome, 2, 0, 0, 1.0)


class TestFromGenomes:
    def test_empty_list_is_a_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match="non-empty"):
            PopulationTensors.from_genomes([])

    def test_mismatched_genomes_are_a_shape_mismatch(self, fresh_genome):
        wider = init_genome(make_config(inputs=2, outputs=1, max_nodes=9), stream())
        with pytest.raises(ShapeMismatch, match="disagree"):
            PopulationTensors.from_genomes([fresh_genome, wider])


class TestStoredWidth:
    def test_genome_pads_back_to_the_capacity(self, fresh_genome):
        pop = PopulationTensors(fresh_genome.nodes[None, :4], fresh_genome.conns[None, :5], 2, 1,
                                fresh_genome.max_nodes, fresh_genome.max_conns)
        assert genomes_equal(pop.genome(0), fresh_genome)
        full = PopulationTensors.from_genomes([fresh_genome])
        assert (full.max_nodes, full.max_conns) == (fresh_genome.max_nodes, fresh_genome.max_conns)

    def test_wider_than_the_capacity_is_a_shape_mismatch(self, fresh_genome):
        with pytest.raises(ShapeMismatch, match="exceed the capacity"):
            PopulationTensors(fresh_genome.nodes[None], fresh_genome.conns[None], 2, 1,
                              fresh_genome.max_nodes - 1, fresh_genome.max_conns)


class TestCountLive:
    def test_fresh(self, fresh_genome):
        assert count_live(fresh_genome) == (3, 2)

    def test_after_connected_hidden_removal(self, fresh_genome):
        g = add_node(fresh_genome, NodeRow(7, 0.0, 1.0, 0, 1))
        g = add_conn(g, ConnRow(0, 7, 1.0, 0.1))
        g = add_conn(g, ConnRow(7, 2, 1.0, 0.1))
        nodes_before, conns_before = count_live(g)
        g = remove_node(g, 7)
        assert count_live(g) == (nodes_before - 1, conns_before - 2)

    def test_all_padding(self, config):
        g = init_genome(config, stream())
        empty = g.nodes.copy()
        empty[:] = np.nan
        empty_conns = g.conns.copy()
        empty_conns[:] = np.nan
        blank = type(g)(empty, empty_conns, config.inputs, config.outputs)
        assert count_live(blank) == (0, 0)


class TestSerialization:
    def test_round_trip_fresh(self, fresh_genome):
        assert genomes_equal(parse_genome(serialize_genome(fresh_genome)), fresh_genome)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_random(self, seed):
        config = make_config()
        g = random_genome(seed, config)
        data = serialize_genome(g)
        assert genomes_equal(parse_genome(data), g)
        # stable: serialize . parse . serialize is the identity on bytes
        assert serialize_genome(parse_genome(data)) == data

    def test_nan_cells_become_null(self, fresh_genome):
        text = serialize_genome(fresh_genome).decode()
        assert "null" in text and "NaN" not in text

    def test_dangling_reference_rejected(self, fresh_genome):
        bad = fresh_genome.conns.copy()
        bad[0, 1] = 57.0
        broken = type(fresh_genome)(fresh_genome.nodes.copy(), bad, 2, 1)
        with pytest.raises(ParseError):
            parse_genome(serialize_genome(broken))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_genome(b"{not json")

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_genome(b'{"num_inputs": 1}')

    def test_key_at_pair_code_limit_rejected(self, fresh_genome):
        # node keys must stay below 2**26, where connection pair codes alias
        for key, ok in ((2.0 ** 26 - 1, True), (2.0 ** 26, False)):
            nodes = fresh_genome.nodes.copy()
            nodes[3] = nodes[2]
            nodes[3, NODE_KEY] = key
            data = serialize_genome(type(fresh_genome)(nodes, fresh_genome.conns.copy(), 2, 1))
            if ok:
                assert parse_genome(data).nodes[3, NODE_KEY] == key
            else:
                with pytest.raises(ParseError, match=r"2\*\*26"):
                    parse_genome(data)

    # a padding row given one number, or a live row given one NaN
    @pytest.mark.parametrize("block, row, col, value, message", [
        ("nodes", 3, NODE_KEY, 5.0, "node row 3 mixes NaN and live entries"),
        ("nodes", 1, NODE_RESPONSE, np.nan, "node row 1 mixes NaN and live entries"),
        ("conns", 0, CONN_WEIGHT, np.nan, "connection row 0 mixes NaN and live entries"),
        ("conns", 5, CONN_ENABLED, 1.0, "connection row 5 mixes NaN and live entries"),
    ])
    def test_mixed_nan_row_message(self, fresh_genome, block, row, col, value, message):
        blocks = {"nodes": np.stack([fresh_genome.nodes] * 3),
                  "conns": np.stack([fresh_genome.conns] * 3)}
        blocks[block][1, row, col] = value
        with pytest.raises(IntegrityError, match=f"^genome 1: {message}$"):
            check_blocks(blocks["nodes"], blocks["conns"], 2, 1, name="genome")

    def test_mixed_nan_row_rejected(self, fresh_genome):
        bad = fresh_genome.nodes.copy()
        bad[3, 0] = 5.0  # key set but attributes NaN
        broken = type(fresh_genome)(bad, fresh_genome.conns.copy(), 2, 1)
        with pytest.raises(ParseError):
            parse_genome(serialize_genome(broken))


class TestInvariantsUnderOpSequences:
    @pytest.mark.parametrize("seed", range(20))
    def test_fuzz_sequences(self, seed):
        config = make_config()
        rng = np.random.default_rng(seed)
        g = init_genome(config, stream(seed))
        next_key = [config.inputs + config.outputs]
        shapes = (g.nodes.shape, g.conns.shape)
        for _ in range(40):
            g = random_valid_op(g, config, rng, next_key)
            assert (g.nodes.shape, g.conns.shape) == shapes
            check_integrity(g)
            assert not dfs_has_cycle(g)

    def test_add_remove_identity_up_to_position(self, fresh_genome):
        row = NodeRow(7, 0.25, 1.0, 0, 1)
        g = add_node(fresh_genome, row)
        g = remove_node(g, 7)
        g = add_node(g, row)
        assert sorted(live_node_keys(g)) == sorted(live_node_keys(add_node(fresh_genome, row)))
        back = remove_node(g, 7)
        assert genomes_equal(back, remove_node(add_node(fresh_genome, row), 7))


class TestPurity:
    def test_operations_do_not_mutate_inputs(self, fresh_genome):
        nodes = fresh_genome.nodes.copy()
        conns = fresh_genome.conns.copy()
        add_node(fresh_genome, NodeRow(7, 0.0, 1.0, 0, 1))
        remove_conn(fresh_genome, 0, 2)
        set_node_attr(fresh_genome, 0, 0, 9.0)
        assert np.array_equal(fresh_genome.nodes, nodes, equal_nan=True)
        assert np.array_equal(fresh_genome.conns, conns, equal_nan=True)
