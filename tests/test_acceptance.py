"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (run with ``-s``
to see them live).  Several criteria share expensive artifacts (the ten-seed
XOR capability runs, the scaling benchmark), provided by module-scoped
fixtures.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from arrayneat import (NeatConfig, RngStream, decode, distance, forward, graph_distance,
                       graph_forward, init_genome, population_forward, run_experiment,
                       transform)
from arrayneat.cli import main
from arrayneat.genome import check_integrity
from arrayneat.inference import transform_arrays

from conftest import dfs_has_cycle, grown_population, make_config, random_valid_op


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared corpora and runs
# ---------------------------------------------------------------------------

RANDOM_GENOME_CONFIG = NeatConfig(
    inputs=3, outputs=2, max_nodes=32, max_conns=64, pop_size=1000,
    node_add=0.5, node_delete=0.1, conn_add=0.6, conn_delete=0.1,
    bias_mutate_rate=0.8, bias_replace_rate=0.1,
    response_init_std=0.3, response_mutate_rate=0.3, response_mutate_power=0.3,
    weight_mutate_rate=0.8, weight_replace_rate=0.1,
    activation_options=("identity", "tanh", "sigmoid", "relu"),
    activation_replace_rate=0.3,
    aggregation_options=("sum", "product", "max", "mean"),
    aggregation_replace_rate=0.3,
)


@pytest.fixture(scope="module")
def genome_corpus():
    """1000 varied feedforward genomes (<= 32 nodes, <= 64 conns)."""
    config = RANDOM_GENOME_CONFIG
    return config, grown_population(config, rounds=8, seed=2024)


def run_xor_seed(seed: int, out_dir, generation_limit=300, fitness_target=3.9,
                 pop_size=150):
    config = NeatConfig(seed=seed, pop_size=pop_size, inputs=2, outputs=1,
                        problem="xor", fitness_target=fitness_target,
                        generation_limit=generation_limit)
    return run_experiment(config, out_dir)


@pytest.fixture(scope="module")
def xor_capability_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("xor_runs")
    started = time.perf_counter()
    outcomes = [run_xor_seed(seed, base / f"seed{seed}") for seed in range(10)]
    elapsed = time.perf_counter() - started
    return outcomes, elapsed


@pytest.fixture(scope="module")
def bench_artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    config_path = base / "bench.cfg"
    config_path.write_text(
        "problem = xor\ninputs = 2\noutputs = 1\n"
        "max_nodes = 12\nmax_conns = 18\nseed = 0\nfitness_target = inf\n")
    threads = min(8, os.cpu_count() or 1)
    code = main(["bench", "--config", str(config_path),
                 "--pop-sizes", "50,200,1000,5000", "--generations", "20",
                 "--out", str(base), "--threads", str(threads)])
    assert code == 0
    totals: dict[int, list[float]] = {}
    for line in (base / "bench.csv").read_text().splitlines()[1:]:
        pop_size, _, t_tensor, t_seq = line.split(",")
        entry = totals.setdefault(int(pop_size), [0.0, 0.0])
        entry[0] += float(t_tensor)
        entry[1] += float(t_seq)
    return totals


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_oracle_equivalence_inference(genome_corpus):
    """Tensorized forward vs graph oracle: 1e-9 over 1000 genomes x 10 inputs."""
    config, pop = genome_corpus
    started = time.perf_counter()
    stacked, cyclic = transform_arrays(pop.nodes, pop.conns, config.inputs, config.outputs)
    assert cyclic.size == 0
    inputs = RngStream(7).child(9).normals(pop.size, 10, config.inputs) \
        .reshape(pop.size, 10, config.inputs)
    outputs = population_forward(stacked, inputs=inputs)

    worst = 0.0
    for i in range(pop.size):
        net = decode(pop.genome(i))
        for b in range(10):
            expected = graph_forward(net, None, list(inputs[i, b]))
            worst = max(worst, float(np.abs(outputs[i, b] - expected).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 60.0
    report("oracle-equivalence-inference", ok,
           f"max |diff| = {worst:.3e}, runtime {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 60.0


def test_oracle_equivalence_distance(genome_corpus):
    """Tensorized distance vs graph oracle: 1e-12 over 1000 random pairs."""
    config, pop = genome_corpus
    worst = 0.0
    nets = [decode(pop.genome(i)) for i in range(pop.size)]
    genomes = [pop.genome(i) for i in range(pop.size)]
    for i in range(pop.size):
        j = (i + 457) % pop.size
        tensor_d = distance(genomes[i], genomes[j], config)
        graph_d = graph_distance(nets[i], nets[j], config)
        worst = max(worst, abs(tensor_d - graph_d))
    ok = worst < 1e-12
    report("oracle-equivalence-distance", ok, f"max |diff| = {worst:.3e}")
    assert ok


def test_invariant_fuzz():
    """10^4 random operation sequences: padding, integrity, keys, acyclicity."""
    violations = 0
    config = make_config(inputs=2, outputs=1, max_nodes=8, max_conns=12)
    for seed in range(10_000):
        rng = np.random.default_rng(seed)
        genome = init_genome(config, RngStream(seed).child(0, 0, 0))
        next_key = [config.inputs + config.outputs]
        for _ in range(8):
            genome = random_valid_op(genome, config, rng, next_key)
        try:
            check_integrity(genome)  # padding discipline, references, key uniqueness
        except Exception:
            violations += 1
            continue
        if dfs_has_cycle(genome):
            violations += 1
    ok = violations == 0
    report("invariant-fuzz", ok, f"{violations} violations in 10000 sequences")
    assert ok


def test_determinism(tmp_path):
    """cmd_run: reruns and thread counts produce byte-identical stats.csv."""
    config_path = tmp_path / "det.cfg"
    config_path.write_text(
        "problem = xor\ninputs = 2\noutputs = 1\nseed = 11\npop_size = 100\n"
        "generation_limit = 40\nfitness_target = inf\n"
        "node_delete = 0.05\nconn_delete = 0.05\n")
    for name, extra in [("a", []), ("b", []), ("t8", ["--threads", "8"])]:
        code = main(["run", "--config", str(config_path),
                     "--out", str(tmp_path / name), *extra])
        assert code == 2
    stats_a = (tmp_path / "a/stats.csv").read_bytes()
    rerun_equal = stats_a == (tmp_path / "b/stats.csv").read_bytes()
    threads_equal = stats_a == (tmp_path / "t8/stats.csv").read_bytes()
    ok = rerun_equal and threads_equal
    report("determinism", ok,
           f"rerun identical = {rerun_equal}, threads 1 vs 8 identical = {threads_equal}")
    assert ok


def test_xor_capability(xor_capability_runs):
    """>= 8 of 10 seeds reach fitness 3.9 within 300 generations, under 5 min."""
    outcomes, elapsed = xor_capability_runs
    solved = sum(1 for outcome in outcomes if outcome.solved)
    ok = solved >= 8 and elapsed < 300.0
    report("xor-capability", ok, f"{solved}/10 seeds solved, total {elapsed:.1f}s")
    assert solved >= 8
    assert elapsed < 300.0


def test_cartpole_capability(tmp_path):
    """>= 8 of 10 seeds reach fitness 500 within 100 generations."""
    solved = 0
    for seed in range(10):
        config = NeatConfig(seed=seed, pop_size=200, inputs=4, outputs=1,
                            problem="cartpole", fitness_target=500.0,
                            generation_limit=100, max_nodes=32, max_conns=64)
        outcome = run_experiment(config, tmp_path / f"seed{seed}")
        solved += outcome.solved
    ok = solved >= 8
    report("cartpole-capability", ok, f"{solved}/10 seeds reached fitness 500")
    assert ok


def test_population_parallel_scaling(bench_artifacts):
    """Tensorized growth factor <= 0.25x sequential; >= 4x speedup at 5000."""
    totals = bench_artifacts
    growth_tensor = totals[5000][0] / totals[50][0]
    growth_seq = totals[5000][1] / totals[50][1]
    ratio = growth_tensor / growth_seq
    speedup = totals[5000][1] / totals[5000][0]
    ok = ratio <= 0.25 and speedup >= 4.0
    report("population-parallel-scaling", ok,
           f"growth tensorized {growth_tensor:.1f}x vs sequential {growth_seq:.1f}x "
           f"(ratio {ratio:.3f}, need <= 0.25); speedup at 5000 = {speedup:.1f}x "
           f"(need >= 4, hardware threads = {os.cpu_count()})")
    assert ratio <= 0.25
    assert speedup >= 4.0


def test_iteration_time_stability(tmp_path):
    """Generation 100 of a 100-generation XOR run costs <= 1.5x the
    median of generations 10-20."""
    outcome = run_xor_seed(0, tmp_path / "run", generation_limit=100,
                           fitness_target=math.inf)
    assert outcome.generations == 100
    rows = Path(outcome.stats_path.parent, "timings.csv").read_text().splitlines()[1:]
    times = [float(line.split(",")[1]) for line in rows]
    final = times[99]
    baseline = float(np.median(times[9:20]))
    ok = final <= 1.5 * baseline
    report("iteration-time-stability", ok,
           f"generation 100 took {final * 1e3:.2f}ms vs median(gen 10-20) "
           f"{baseline * 1e3:.2f}ms (limit 1.5x)")
    assert ok


def test_transform_once_law():
    """1000 forwards on one transformed network equal 1000 transform+forward pairs."""
    config = make_config(inputs=2, outputs=1, max_nodes=16, max_conns=32)
    from conftest import random_genome
    genome = random_genome(3, config, n_ops=30)
    tn = transform(genome)
    inputs = RngStream(5).child(1).normals(1000, 2).reshape(1000, 2)
    reused = [forward(tn, inputs=x) for x in inputs]
    fresh = [forward(transform(genome), inputs=x) for x in inputs]
    identical = all(np.array_equal(a, b) for a, b in zip(reused, fresh))
    report("transform-once-law", identical, "1000 forward calls bitwise identical")
    assert identical


def test_elitism_monotonicity(xor_capability_runs):
    """Best fitness never decreases across generations of the XOR runs."""
    outcomes, _ = xor_capability_runs
    worst_drop = 0.0
    monotone = True
    for outcome in outcomes:
        rows = outcome.stats_path.read_text().splitlines()[1:]
        best = [float(line.split(",")[1]) for line in rows]
        for earlier, later in zip(best, best[1:]):
            if later < earlier:
                monotone = False
                worst_drop = max(worst_drop, earlier - later)
    report("elitism-monotonicity", monotone,
           "non-decreasing best fitness in all 10 runs" if monotone
           else f"fitness dropped by up to {worst_drop}")
    assert monotone
