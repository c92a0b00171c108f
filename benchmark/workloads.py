"""Workloads, timed passes, output checks and metrics of the arrayneat benchmark.

A pass is one fixed piece of work: for each of ``runs`` consecutive seeds,
``init_state`` and ``make_problem``, then ``evolve_step`` once per
generation, then ``save_checkpoint`` - the public loop of the README quick
tour and of ``arrayneat run``.  A measurement repeats the pass until its time
is up, so every pass of one seed yields the same stats rows, and reports
medians over passes and generations.  See README.md for why each workload
exists and which metric each layer should move.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import arrayneat as an
from arrayneat import runner
from arrayneat.problems import XOR_INPUTS

import tracer as tracing

SETUP_REPEATS = 5
ORACLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    problem: str
    pop_size: int
    generations: int  # per evolution run, with fitness_target = inf
    runs: int         # evolution runs per pass, on consecutive seeds
    threads: int
    overrides: dict = field(default_factory=dict)  # further NeatConfig fields

    def config(self, seed: int) -> an.NeatConfig:
        return an.NeatConfig(seed=seed, problem=self.problem, pop_size=self.pop_size,
                             fitness_target=math.inf, generation_limit=self.generations,
                             **self.overrides)

    @property
    def batch(self) -> int:
        """Input rows per genome in one forward call."""
        return XOR_INPUTS.shape[0] if self.problem == "xor" else 1


WORKLOADS = {
    "xor-p5000": Workload("xor", pop_size=5000, generations=6, runs=3, threads=2,
                          overrides={"compatibility_threshold": 0.7}),
    "cartpole-p1000": Workload("cartpole", pop_size=1000, generations=3, runs=4, threads=1,
                               overrides={"inputs": 4, "max_nodes": 32, "max_conns": 64}),
    "xor-p150": Workload("xor", pop_size=150, generations=15, runs=20, threads=1),
}

# sha256 of the stats rows of one pass at seed 0 (columns as in stats.csv)
DIGESTS = {
    "xor-p5000": "468b9198d17f235e79ea83e6490709b57425d16d805d035962dac3c5a23271dc",
    "cartpole-p1000": "c560c30a8b07867d078332da66708e63c70e469b4fe99c2e1ded2a83e0598c67",
    "xor-p150": "1e7b523fb07c446bb4a497bd706df0e31740f565aebc5285dd526fbae7fa3e69",
}


def stats_row(generation: int, stats: an.GenerationStats) -> str:
    return (f"{generation},{stats.best_fitness!r},{stats.mean_fitness!r},"
            f"{stats.species_count},{stats.mean_live_nodes!r},{stats.mean_live_conns!r}")


def rows_digest(rows: list[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


@dataclass
class Pass:
    rows: list[str]
    gen_seconds: list[float]
    wall: float
    best: list[an.GenomeTensors]  # final best genome of each run


def run_pass(spec: Workload, seed: int, out_dir: Path, tracer=None) -> Pass:
    rows: list[str] = []
    gen_seconds: list[float] = []
    best = []
    start = time.perf_counter()
    for k in range(spec.runs):
        config = spec.config(seed + k)
        state = an.init_state(config)
        problem = an.make_problem(config)
        root = an.RngStream(config.seed)
        for generation in range(config.generation_limit):
            if tracer is not None:
                tracer.generation += 1
            step = tracer.span("evolution.step") if tracer is not None else nullcontext()
            tick = time.perf_counter()
            with step:
                state.population, state.species, stats = an.evolve_step(
                    state.population, state.species, config, root.child(generation),
                    state.allocator, problem, threads=spec.threads)
            gen_seconds.append(time.perf_counter() - tick)
            state.stats_rows.append(stats_row(generation, stats))
            state.generation = generation + 1
        runner.save_checkpoint(out_dir / "checkpoint.pkl", state)
        rows.extend(state.stats_rows)
        best.append(stats.best_genome)
    return Pass(rows, gen_seconds, time.perf_counter() - start, best)


def run_passes(spec: Workload, seed: int, seconds: float, out_dir: Path,
               checks: "Checks", tracer=None) -> list[Pass]:
    """Repeat the pass until ``seconds`` have gone by (at least once).

    Every pass of a seed is the same computation, so a generation that raises
    would raise in the first pass: it ends the run without a result.
    """
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(spec, seed, out_dir, tracer))
        checks.attempted += len(passes[-1].gen_seconds)
    return passes


# one set-up in a fresh interpreter; numpy's own import is not the program's
_SETUP_CHILD = """
import sys, time
import numpy
start = time.perf_counter()
import arrayneat as an
config = an.parse_config_text(sys.stdin.read())
an.init_state(config)
an.make_problem(config)
print(time.perf_counter() - start)
"""


def setup_seconds(spec: Workload, seed: int) -> float:
    """Median over fresh processes of import + init_state + make_problem."""
    src = str(Path(an.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    config_text = an.dump_config(spec.config(seed))
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", _SETUP_CHILD], input=config_text,
                               capture_output=True, text=True, env=env, check=True)
        times.append(float(child.stdout))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Checks:
    """Generations run and output checks made, counted as attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{name}: {detail}")


def oracle_inputs(spec: Workload, seed: int) -> np.ndarray:
    if spec.problem == "xor":
        return XOR_INPUTS
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(16, spec.config(seed).inputs))


def check_outputs(spec: Workload, seed: int, passes: list[Pass], out_dir: Path,
                  checks: Checks, digest: str | None) -> None:
    first = passes[0]
    checks.check("rows repeat in every pass",
                 all(p.rows == first.rows for p in passes[1:]),
                 "stats rows differ between passes of one seed")
    if digest is not None:
        got = rows_digest(first.rows)
        checks.check("rows match the recorded digest", got == digest, f"got {got}")
    inputs = oracle_inputs(spec, seed)
    worst = 0.0
    for genome in first.best:
        tensor = an.forward_batch(an.transform(genome), inputs=inputs)
        net = an.decode(genome)
        graph = np.array([an.graph_forward(net, None, list(x)) for x in inputs])
        worst = max(worst, float(np.abs(tensor - graph).max()))
    checks.check("best genomes agree with the graphref oracle",
                 worst <= ORACLE_TOLERANCE, f"max |difference| {worst!r}")
    restored = an.load_checkpoint(out_dir / "checkpoint.pkl")
    last_run = first.rows[-spec.generations:]
    checks.check("checkpoint restores the last run",
                 restored.stats_rows == last_run and restored.generation == spec.generations,
                 "checkpoint rows or generation differ")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _gen_seconds(passes: list[Pass]) -> list[float]:
    return [t for p in passes for t in p.gen_seconds]


def end_to_end(spec: Workload, passes: list[Pass], setup_s: float) -> dict[str, float]:
    gens = _gen_seconds(passes)
    return {
        "gen_s_p50": statistics.median(gens),
        "genomes_per_s": (spec.pop_size * spec.runs * spec.generations
                          / statistics.median(sum(p.gen_seconds) for p in passes)),
        "run_s": statistics.median(p.wall for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


SPANS = ("evolution.step", "problems.evaluate", "inference.transform", "inference.forward",
         "evolution.distance", "search.match", "search.resolve", "evolution.speciate",
         "evolution.reproduce", "evolution.crossover", "evolution.mutate",
         "evolution.select", "parallel.chunk", "runner.checkpoint")

# counters reported per pass, under the same name
_PER_PASS_COUNTERS = ("inference.forward.bytes_computed", "evolution.distance.pairs",
                      "evolution.mutate.node_add_applied", "evolution.mutate.full_nodes",
                      "evolution.mutate.full_conns")


def per_layer(tracer: tracing.Tracer, traced: list[Pass], untraced: list[Pass]
              ) -> dict[str, float]:
    """Self seconds, calls and counters per pass, from the traced passes."""
    n = len(traced)
    totals = tracer.layer_totals()
    counters = tracer.counters
    metrics: dict[str, float] = {}
    for name in SPANS:
        self_s, calls = totals.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = self_s / n
        metrics[f"{name}.calls"] = calls / n
    for name in _PER_PASS_COUNTERS:
        metrics[name] = counters[name] / n
    metrics["inference.forward.useful_frac"] = (counters["inference.forward.useful"]
                                                / counters["inference.forward.slots"])
    metrics["evolution.speciate.species"] = (counters["evolution.speciate.species"]
                                             / totals["evolution.speciate"][1])
    imbalance, overhead = tracer.chunk_balance()
    metrics["parallel.imbalance"] = imbalance
    metrics["parallel.overhead_s"] = overhead / n
    metrics["runner.checkpoint.bytes"] = (counters["runner.checkpoint.bytes"]
                                          / totals["runner.checkpoint"][1])
    untraced_p50 = statistics.median(_gen_seconds(untraced))
    traced_p50 = statistics.median(_gen_seconds(traced))
    metrics["trace.gen_s_p50_untraced"] = untraced_p50
    metrics["trace.gen_s_p50_traced"] = traced_p50
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    return metrics


def run_record(spec: Workload, seed: int, passes: list[Pass]) -> dict:
    """Machine, versions, and shapes and computed bytes of the largest arrays.

    Bytes are what the kernels compute over, not measured memory traffic.
    """
    config = spec.config(seed)
    p, n, c, b = spec.pop_size, config.max_nodes, config.max_conns, spec.batch
    shapes = {"nodes": (p, n, 5), "conns": (p, c, 4),
              "incoming": (p, n, n), "forward_values": (p, b, n)}
    gens = _gen_seconds(passes)
    record = {
        "workload": asdict(spec),
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pass_seconds": [p.wall for p in passes],
        "generations_timed": len(gens),
        "shapes": shapes,
        "bytes_computed": {name: math.prod(shape) * 8 for name, shape in shapes.items()},
    }
    if len(gens) >= 100:  # at least ten samples beyond the 90th percentile
        record["gen_s_p90"] = statistics.quantiles(gens, n=10)[-1]
    return record


def measure(spec: Workload, seed: int, seconds: float, trace: bool, out_dir: Path,
            digest: str | None, declared: list[dict]) -> tuple[dict, dict]:
    """Run one measurement; returns (result object, run record).

    ``declared`` lists the metrics to report, as in BENCHMARK.json: the
    ``end_to_end`` ones untraced, the ``per_layer`` ones traced.
    """
    checks = Checks()
    if trace:
        # untraced and traced passes alternate, so drift in machine speed
        # during the run does not show up as tracing overhead
        untraced: list[Pass] = []
        traced: list[Pass] = []
        tracer = tracing.Tracer()
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced += run_passes(spec, seed, 0.0, out_dir, checks)
            tracing.install(tracer)
            try:
                traced += run_passes(spec, seed, 0.0, out_dir, checks, tracer)
            finally:
                tracer.uninstall()
        tracer.write(out_dir / "spans.jsonl")
        checks.check("traced rows equal untraced rows", traced[0].rows == untraced[0].rows,
                     "tracing changed the stats rows")
        passes = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
    else:
        setup_s = setup_seconds(spec, seed)
        passes = run_passes(spec, seed, seconds, out_dir, checks)
        metrics = end_to_end(spec, passes, setup_s)
    check_outputs(spec, seed, passes, out_dir, checks, digest)
    for message in checks.messages:
        print(f"failed: {message}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return result, run_record(spec, seed, passes)
