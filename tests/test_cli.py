"""CLI: run/bench/inspect commands, config handling, checkpoint resume."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import arrayneat
from arrayneat import (ConfigError, NeatConfig, RngStream, init_genome,
                       parse_config_text, serialize_genome)
from arrayneat.cli import main
from arrayneat.genome import CONN_ENABLED, CONN_IN, NODE_BIAS, NODE_KEY, with_rows
from arrayneat.runner import (EXIT_GENERATION_LIMIT, EXIT_SOLVED, load_checkpoint,
                              run_experiment, save_checkpoint)

from conftest import make_config

XOR_CONFIG = """
# tiny xor experiment
seed = 3
pop_size = 30
inputs = 2
outputs = 1
max_nodes = 12
max_conns = 24
problem = xor
fitness_target = 3.5
generation_limit = 60
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "xor.cfg"
    path.write_text(XOR_CONFIG)
    return path


class TestConfigParsing:
    def test_round_trip_keys(self):
        config = parse_config_text(XOR_CONFIG)
        assert config.seed == 3 and config.pop_size == 30
        assert config.fitness_target == 3.5

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("pop_sizee = 100\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text("pop_size = many\n")

    def test_inf_fitness_target(self):
        config = parse_config_text("fitness_target = inf\n")
        assert config.fitness_target == float("inf")

    def test_options_list(self):
        config = parse_config_text("activation_options = tanh, sigmoid\n")
        assert config.activation_options == ("tanh", "sigmoid")

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            parse_config_text("node_add = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config_text("max_nodes = 2\ninputs = 2\noutputs = 1\n")

    def test_recurrent_network_type_rejected(self):
        # inference needs a DAG, so a recurrent run would die mid-run with
        # CycleDetected once connection mutation creates a cycle
        with pytest.raises(ConfigError, match="only feedforward"):
            parse_config_text("network_type = recurrent\n")
        with pytest.raises(ConfigError, match="only feedforward"):
            make_config(network_type="recurrent")
        assert make_config(network_type="feedforward").network_type == "feedforward"

    @pytest.mark.parametrize("line, message", [
        ("seed = 99999999999999999999", "seed must fit in a signed 64-bit integer"),
        ("seed = -9223372036854775809", "seed must fit in a signed 64-bit integer"),
        ("genome_elitism = -1", "genome_elitism must be >= 0"),
        ("species_elitism = -1", "species_elitism must be >= 0"),
        ("spawn_number_change_rate = -0.5", "spawn_number_change_rate must be >= 0"),
        ("compatibility_threshold = -1", "compatibility_threshold must be >= 0"),
        ("compatibility_disjoint = -1", "compatibility_disjoint must be >= 0"),
        ("compatibility_homologous = -0.5", "compatibility_homologous must be >= 0"),
        ("compatibility_disjoint = inf", "compatibility_disjoint must be finite"),
        ("compatibility_homologous = inf", "compatibility_homologous must be finite"),
        ("bias_init_mean = inf", "bias_init_mean must be finite"),
        ("weight_init_std = inf", "weight_init_std must be finite"),
        ("attr_min = -inf", "attr_min must be finite"),
    ])
    def test_value_that_breaks_a_run_rejected(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(line + "\n")

    def test_bounds_of_the_value_checks_accepted(self):
        config = parse_config_text("seed = 9223372036854775807\ncompatibility_threshold = inf\n"
                                   "genome_elitism = 0\nspecies_elitism = 0\n"
                                   "spawn_number_change_rate = 0\nfitness_target = -inf\n")
        assert config.seed == 2 ** 63 - 1 and config.compatibility_threshold == float("inf")
        assert parse_config_text("seed = -9223372036854775808\n").seed == -2 ** 63


    @pytest.mark.parametrize("overrides, name", [
        ({"pop_size": 20.0}, "pop_size"),
        ({"max_nodes": 50.0}, "max_nodes"),
        ({"inputs": 2.0}, "inputs"),
        ({"genome_elitism": 1.0}, "genome_elitism"),
        ({"regression_samples": 10.0, "problem": "regression"}, "regression_samples"),
        ({"max_species": "3"}, "max_species"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"generation_limit": 2.0}, "generation_limit"),
        ({"node_add": True}, "node_add"),
        ({"activation_options": ["tanh"]}, "activation_options"),
    ])
    def test_value_of_another_type_rejected(self, overrides, name):
        # each used to end a run in a bare TypeError, run as another value, or
        # write a checkpoint that load_checkpoint refuses
        with pytest.raises(ConfigError, match=f"{name} must be of type"):
            NeatConfig(**overrides)

    def test_numpy_numbers_accepted(self):
        config = NeatConfig(seed=np.int64(3), pop_size=np.int32(10), node_add=np.float32(0.5),
                            fitness_target=3)
        assert config.seed == 3 and config.pop_size == 10 and config.fitness_target == 3
        with pytest.raises(ConfigError, match="node_add must be a number"):
            NeatConfig(node_add=np.float32("nan"))

    @pytest.mark.parametrize("name", ["weight_mutate_power", "compatibility_threshold",
                                      "attr_min", "bias_init_std"])
    def test_nan_rejected(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be a number"):
            parse_config_text(f"{name} = nan\n")
        with pytest.raises(ConfigError, match=f"{name} must be a number"):
            make_config(**{name: float("nan")})

    @pytest.mark.parametrize("name", ["generation_limit", "max_stagnation"])
    def test_negative_count_rejected(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be >= 0"):
            parse_config_text(f"{name} = -1\n")
        with pytest.raises(ConfigError, match=f"{name} must be >= 0"):
            make_config(**{name: -4})
        assert getattr(make_config(**{name: 0}), name) == 0


class TestRun:
    def test_run_writes_artifacts_and_exit_code(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--out", str(out)])
        assert code in (EXIT_SOLVED, EXIT_GENERATION_LIMIT)
        stats = (out / "stats.csv").read_text().splitlines()
        assert stats[0].startswith("generation,best_fitness")
        assert 1 < len(stats) <= 61
        assert (out / "best_genome.json").exists()
        assert (out / "checkpoint.pkl").exists()
        assert (out / "timings.csv").exists()

    def test_rerun_byte_identical_stats(self, config_file, tmp_path):
        main(["run", "--config", str(config_file), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(config_file), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/stats.csv").read_bytes() == (tmp_path / "b/stats.csv").read_bytes()
        assert (tmp_path / "a/best_genome.json").read_bytes() == \
            (tmp_path / "b/best_genome.json").read_bytes()

    def test_threads_byte_identical(self, config_file, tmp_path):
        main(["run", "--config", str(config_file), "--out", str(tmp_path / "t1"),
              "--threads", "1"])
        main(["run", "--config", str(config_file), "--out", str(tmp_path / "t8"),
              "--threads", "8"])
        assert (tmp_path / "t1/stats.csv").read_bytes() == \
            (tmp_path / "t8/stats.csv").read_bytes()

    def test_unreachable_target_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(XOR_CONFIG.replace("fitness_target = 3.5",
                                          "fitness_target = inf")
                       .replace("generation_limit = 60", "generation_limit = 5"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_GENERATION_LIMIT
        stats = (tmp_path / "o/stats.csv").read_text().splitlines()
        assert len(stats) == 6  # header + 5 generations

    def test_seed_env_override(self, config_file, tmp_path, monkeypatch):
        main(["run", "--config", str(config_file), "--out", str(tmp_path / "base")])
        monkeypatch.setenv("TNEAT_SEED", "99")
        main(["run", "--config", str(config_file), "--out", str(tmp_path / "env")])
        assert (tmp_path / "base/stats.csv").read_bytes() != \
            (tmp_path / "env/stats.csv").read_bytes()

    @pytest.mark.parametrize("source", ["file", "env"])
    def test_huge_seed_exits_1(self, config_file, tmp_path, monkeypatch, capsys, source):
        huge = "99999999999999999999"
        if source == "file":
            config_file.write_text(XOR_CONFIG.replace("seed = 3", f"seed = {huge}"))
        else:
            monkeypatch.setenv("TNEAT_SEED", huge)
        capsys.readouterr()
        assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: seed must fit")

    def test_bad_config_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_undecodable_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("pop_size = 30  # f\xfcnf\n".encode("latin-1"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "not UTF-8" in capsys.readouterr().err


def earlier_format(payload: bytes) -> bytes:
    """A checkpoint whose species keep the best-fitness history list of earlier versions."""
    data = pickle.loads(payload)
    for entry in data["species"]:
        entry["best_fitness_history"] = [entry.pop("best_fitness")]
    return pickle.dumps(data)


def with_earlier_keys(path) -> None:
    """Add the per-generation keys that earlier versions also wrote: each
    genome's species id, NaN fitness, and each species' spawn count."""
    data = pickle.loads(path.read_bytes())
    data["species_id"] = np.full(len(data["nodes"]), -1, dtype=np.int64)
    for entry in data["species"]:
        data["species_id"][entry["member_indices"]] = entry["species_key"]
        entry["spawn_count"] = 0
    data["fitness"] = np.full(len(data["nodes"]), np.nan)
    path.write_bytes(pickle.dumps(data))


def at_full_capacity(path) -> None:
    """Pad the population to the config's capacity, as earlier versions wrote it."""
    data = pickle.loads(path.read_bytes())
    config = parse_config_text(data["config"])
    data["nodes"] = with_rows(data["nodes"], config.max_nodes)
    data["conns"] = with_rows(data["conns"], config.max_conns)
    path.write_bytes(pickle.dumps(data))


def wider(block, rows):
    """Damage that appends ``rows`` padding rows to the population's ``block``."""
    def change(data):
        data[block] = with_rows(data[block], data[block].shape[1] + rows)
    return change


def edited(change):
    """Damage that unpickles a checkpoint, applies ``change`` to its payload and re-pickles it."""
    def damage(payload: bytes) -> bytes:
        data = pickle.loads(payload)
        change(data)
        return pickle.dumps(data)
    return damage


def set_members(members):
    def change(data):
        data["species"][0]["member_indices"] = np.array(members, dtype=np.int64)
    return change


def set_value(**values):
    def change(data):
        data.update(values)
    return change


def set_species(**values):
    def change(data):
        data["species"][0].update(values)
    return change


def add_species(**values):
    """A copy of the first species under other ``values``; it shares that species' members."""
    def change(data):
        data["species"].append(dict(data["species"][0], **values))
    return change


def set_cell(block, index, value):
    """``value`` at ``index`` of the payload's ``block``, or of the first species' block."""
    def change(data):
        (data[block] if block in data else data["species"][0][block])[index] = value
    return change


def plant_key(block):
    """A live node key equal to ``next_key`` in genome 0's last row live in any genome
    (a row past it would change the stored width), or the first representative's last row."""
    def change(data):
        if block == "nodes":
            row = np.flatnonzero(~np.isnan(data["nodes"][:, :, NODE_KEY]).all(axis=0))[-1]
            data["nodes"][0, row, NODE_KEY] = data["next_key"]
        else:
            data["species"][0][block][-1, NODE_KEY] = data["next_key"]
    return change


class TestResume:
    def test_resume_bitwise_matches_uninterrupted(self, tmp_path):
        self.check_resume(tmp_path)

    def test_checkpoint_with_earlier_keys_resumes_bitwise(self, tmp_path):
        self.check_resume(tmp_path, with_earlier_keys)

    def test_full_capacity_checkpoint_resumes_bitwise(self, tmp_path):
        self.check_resume(tmp_path, at_full_capacity)

    def test_checkpoint_holds_the_stored_width(self, tmp_path):
        config = make_config(pop_size=10, generation_limit=3, fitness_target=float("inf"))
        run_experiment(config, tmp_path / "run")
        data = pickle.loads((tmp_path / "run/checkpoint.pkl").read_bytes())
        for block, capacity, headroom in ((data["nodes"], config.max_nodes, 1),
                                          (data["conns"], config.max_conns, 3)):
            occupied = np.flatnonzero(~np.isnan(block[:, :, 0]).all(axis=0))[-1] + 1
            assert block.shape[1] == min(capacity, occupied + headroom) < capacity
        for entry in data["species"]:
            assert entry["rep_nodes"].shape == (config.max_nodes, 5)
            assert entry["rep_conns"].shape == (config.max_conns, 4)
        state = load_checkpoint(tmp_path / "run/checkpoint.pkl")
        assert state.population.genome(0).nodes.shape == (config.max_nodes, 5)
        assert state.population.genome(0).conns.shape == (config.max_conns, 4)

    def check_resume(self, tmp_path, edit=None):
        full_cfg = make_config(seed=5, pop_size=25, generation_limit=12,
                               problem="xor", fitness_target=float("inf"))
        run_experiment(full_cfg, tmp_path / "full")

        half_cfg = full_cfg.with_overrides(generation_limit=6)
        run_experiment(half_cfg, tmp_path / "half")
        ckpt = load_checkpoint(tmp_path / "half/checkpoint.pkl")
        assert ckpt.generation == 6
        # patch the limit back to 12 inside the checkpointed config
        ckpt.config = full_cfg
        from arrayneat.runner import save_checkpoint
        save_checkpoint(tmp_path / "half/checkpoint.pkl", ckpt)
        if edit is not None:
            edit(tmp_path / "half/checkpoint.pkl")

        run_experiment(None, tmp_path / "resumed",
                       resume_path=tmp_path / "half/checkpoint.pkl")
        assert (tmp_path / "full/stats.csv").read_bytes() == \
            (tmp_path / "resumed/stats.csv").read_bytes()
        assert (tmp_path / "full/best_genome.json").read_bytes() == \
            (tmp_path / "resumed/best_genome.json").read_bytes()

    @pytest.mark.parametrize("damage, named", [
        (lambda payload: payload[:len(payload) // 2], "UnpicklingError"),
        (lambda payload: b"not a checkpoint", "UnpicklingError"),
        (earlier_format, "'best_fitness'"),
        (edited(set_members([0, 999])), "member_indices holds indices [999] outside"),
        (edited(set_members([-1, 0])), "member_indices holds indices [-1] outside"),
        (edited(lambda data: data.update(nodes=data["nodes"][:5])), "nodes must be"),
        (edited(lambda data: data.update(nodes=data["nodes"][:, :3])), "nodes must be"),
        (edited(lambda data: data.update(conns=data["conns"][..., :3])), "conns must be"),
        (edited(wider("nodes", 50)), "nodes must be"),
        (edited(wider("conns", 50)), "conns must be"),
        (edited(lambda data: data["species"][0].update(rep_nodes=np.zeros((2, 5)))),
         "rep_nodes must be"),
        (edited(set_value(generation="1")), "generation must be an integer >= 0"),
        (edited(set_value(generation=-3)), "generation must be an integer >= 0"),
        (edited(set_value(generation=1.5)), "generation must be an integer >= 0"),
        (edited(set_value(generation=True)), "generation must be an integer >= 0"),
        (edited(set_value(stats_rows=None)), "stats_rows must be a list of 2 strings"),
        (edited(lambda data: data["stats_rows"].pop()), "stats_rows must be a list of 2"),
        (edited(set_value(next_key=0)), "next_key must be an integer in [3, 67108864]"),
        (edited(set_value(next_key=7.5)), "next_key must be an integer in [3, 67108864]"),
        (edited(set_value(next_key=2 ** 26 + 1)), "next_key must be an integer in [3, "),
        (edited(plant_key("nodes")), "next_key"),
        (edited(plant_key("rep_nodes")), "next_key"),
        (edited(set_species(species_key="a")), "species_key must be an integer >= 0"),
        (edited(set_species(species_key=-1)), "species_key must be an integer >= 0"),
        (edited(add_species(species_key=0)), "species_key values repeat: [0]"),
        (edited(set_species(stagnation_counter="x")), "stagnation_counter must be an integer"),
        (edited(set_species(stagnation_counter=-1)), "stagnation_counter must be an integer"),
        (edited(set_species(best_fitness="abc")), "best_fitness must be a finite number"),
        (edited(set_species(best_fitness=float("nan"))), "best_fitness must be a finite"),
        (edited(set_species(best_fitness=float("inf"))), "best_fitness must be a finite"),
        (edited(set_value(species=[])), "species must be a non-empty list"),
        (edited(set_members([])), "member_indices is empty"),
        (edited(add_species(species_key=99)), "member_indices must partition"),
        (edited(lambda data: data["species"][0].update(
            member_indices=data["species"][0]["member_indices"][1:])),
         "member_indices must partition"),
        (edited(set_value(config=5)), "config must be text, got int"),
        (edited(lambda data: data.update(config=data["config"].encode())),
         "config must be text, got bytes"),
        (edited(set_cell("conns", (0, 0, CONN_ENABLED), 0.5)),
         "genome 0: enabled flags must be 0.0 or 1.0"),
        (edited(set_cell("nodes", (4, 2, NODE_KEY), 2.5)),
         "genome 4: node keys must be non-negative integers"),
        (edited(set_cell("nodes", (0, 0, NODE_BIAS), np.inf)),
         "genome 0: a live node row must hold finite numbers"),
        (edited(set_cell("rep_conns", (0, CONN_ENABLED), 0.5)),
         "representative of species 0: enabled flags must be 0.0 or 1.0"),
        (edited(set_cell("nodes", (3, 1, NODE_KEY), 0.0)),
         "genome 3: live node keys must be pairwise distinct"),
        (edited(set_cell("conns", (2, 0, CONN_IN), 1000.0)),
         "genome 2: connection in_key 1000 does not refer to a live node"),
        (edited(set_cell("nodes", (1, 0), np.nan)),
         "genome 1: input or output node key 0 is missing"),
    ], ids=["truncated", "garbage", "earlier-format", "member-past-population",
            "member-negative", "nodes-of-fewer-genomes", "nodes-narrowed", "conns-narrowed",
            "nodes-past-capacity", "conns-past-capacity",
            "representative-narrowed", "generation-string", "generation-negative",
            "generation-fraction", "generation-bool", "stats-rows-none", "stats-rows-short",
            "next-key-below-io", "next-key-fraction", "next-key-past-2**26",
            "next-key-reissued-in-nodes", "next-key-reissued-in-representative",
            "species-key-string", "species-key-negative", "species-key-repeated",
            "stagnation-string", "stagnation-negative", "best-fitness-string",
            "best-fitness-nan", "best-fitness-inf", "no-species", "species-without-members",
            "members-shared", "member-in-no-species", "config-int", "config-bytes",
            "enabled-fraction", "node-key-fraction", "bias-infinite",
            "representative-enabled-fraction", "node-key-repeated", "endpoint-dangling",
            "input-row-missing"])
    def test_bad_checkpoint_exits_1(self, tmp_path, capsys, damage, named):
        run_experiment(make_config(pop_size=10, generation_limit=2,
                                   fitness_target=float("inf")), tmp_path / "run")
        ckpt = tmp_path / "run/checkpoint.pkl"
        ckpt.write_bytes(damage(ckpt.read_bytes()))
        capsys.readouterr()
        assert main(["run", "--resume", str(ckpt), "--out", str(tmp_path / "resumed")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: checkpoint") and named in err[0]

    def test_resume_at_generation_limit_exits_1_and_writes_nothing(self, tmp_path, capsys):
        run_experiment(make_config(pop_size=10, generation_limit=3,
                                   fitness_target=float("inf")), tmp_path / "run")
        ckpt = load_checkpoint(tmp_path / "run/checkpoint.pkl")
        ckpt.config = ckpt.config.with_overrides(generation_limit=2)
        save_checkpoint(tmp_path / "run/checkpoint.pkl", ckpt)
        capsys.readouterr()
        assert main(["run", "--resume", str(tmp_path / "run/checkpoint.pkl"),
                     "--out", str(tmp_path / "resumed")]) == 1
        err = capsys.readouterr().err
        assert "at generation 3" in err and "generation_limit of 2" in err
        assert not (tmp_path / "resumed").exists()


class TestBench:
    def test_bench_csv_schema(self, config_file, tmp_path):
        code = main(["bench", "--config", str(config_file), "--pop-sizes", "8,16",
                     "--generations", "3", "--out", str(tmp_path / "bench")])
        assert code == 0
        lines = (tmp_path / "bench/bench.csv").read_text().splitlines()
        assert lines[0] == "pop_size,generation,tensorized_seconds,sequential_seconds"
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            pop_size, generation, t_tensor, t_seq = line.split(",")
            assert int(pop_size) in (8, 16)
            assert float(t_tensor) > 0 and float(t_seq) > 0

    def test_single_pop_size(self, config_file, tmp_path):
        main(["bench", "--config", str(config_file), "--pop-sizes", "10",
              "--generations", "2", "--out", str(tmp_path / "bench1")])
        lines = (tmp_path / "bench1/bench.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_bad_pop_sizes(self, config_file, tmp_path):
        assert main(["bench", "--config", str(config_file), "--pop-sizes", "ten",
                     "--generations", "2", "--out", str(tmp_path / "x")]) == 1


class TestInspect:
    def write_genome(self, tmp_path):
        config = make_config(inputs=2, outputs=1, max_nodes=4, max_conns=4)
        genome = init_genome(config, RngStream(7).child(0, 0, 0))
        path = tmp_path / "genome.json"
        path.write_bytes(serialize_genome(genome))
        return path

    def test_text_summary(self, tmp_path, capsys):
        path = self.write_genome(tmp_path)
        assert main(["inspect", "--genome", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 nodes (2 inputs, 1 outputs)" in out
        assert "node 0 (input)" in out and "conn 0 -> 2" in out

    def test_dot_output(self, tmp_path, capsys):
        path = self.write_genome(tmp_path)
        assert main(["inspect", "--genome", str(path), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and "n0 -> n2" in out

    @pytest.mark.parametrize("damage", [
        lambda text: b"{oops",
        lambda text: text.replace(b'"nodes"', '"n\u00f6des"'.encode("latin-1")),
        lambda text: text.replace(b"1.0", b"1e999", 1),
        lambda text: text.replace(b"1.0", b"-Infinity", 1),
        lambda text: text.replace(b"1.0", b"NaN", 1),
        lambda text: text.replace(b"1.0", b"1" + b"0" * 400, 1),
        lambda text: text.replace(b"1.0", b"1" + b"0" * 5000, 1),
        lambda text: text.replace(b"0.0, 1.0],", b"0.0, 9.0],", 1),
        lambda text: text.replace(b"1.0, 0.0, 1.0],", b"1.0, 1.5, 1.0],", 1),
    ], ids=["truncated", "not-utf8", "overflow", "infinity", "nan", "huge-int",
            "too-many-digits", "unknown-activation", "fractional-aggregation"])
    def test_malformed_file_exits_1(self, tmp_path, capsys, damage):
        path = tmp_path / "broken.json"
        path.write_bytes(damage(self.write_genome(tmp_path).read_bytes()))
        assert main(["inspect", "--genome", str(path)]) == 1
        assert "inspect:" in capsys.readouterr().err


def test_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures pulls in logging, queue and more; run_chunked imports it
    # only when it starts a pool, so start-up does not pay for it
    src = str(Path(arrayneat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, arrayneat; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
