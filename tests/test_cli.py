"""CLI: run/bench/inspect commands, config handling, checkpoint resume."""

import numpy as np
import pytest

from arrayneat import (ConfigError, RngStream, init_genome,
                       parse_config_text, serialize_genome)
from arrayneat.cli import main
from arrayneat.runner import (EXIT_GENERATION_LIMIT, EXIT_SOLVED, load_checkpoint,
                              run_experiment)

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

    def test_bad_config_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 1


class TestResume:
    def test_resume_bitwise_matches_uninterrupted(self, tmp_path):
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

        run_experiment(None, tmp_path / "resumed",
                       resume_path=tmp_path / "half/checkpoint.pkl")
        assert (tmp_path / "full/stats.csv").read_bytes() == \
            (tmp_path / "resumed/stats.csv").read_bytes()
        assert (tmp_path / "full/best_genome.json").read_bytes() == \
            (tmp_path / "resumed/best_genome.json").read_bytes()


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

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["inspect", "--genome", str(path)]) == 1
        assert "inspect:" in capsys.readouterr().err
