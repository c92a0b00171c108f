"""Experiment driver: the generation loop, run artifacts, and benchmarks.

A run writes three artifacts into its output directory:

* ``stats.csv``   - one row per generation with the deterministic summary
                    columns; byte-identical across reruns with the same
                    config and seed, and across thread counts.
* ``timings.csv`` - per-generation wall-clock seconds (not deterministic,
                    kept out of stats.csv on purpose).
* ``best_genome.json`` and ``checkpoint.pkl`` - best genome of the final
                    evaluated generation, and everything needed to resume the
                    run bitwise-identically.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import NeatConfig, dump_config, parse_config_text
from .errors import ConfigError, IntegrityError
from .evolution import (STAGE_INIT, GenerationStats, NodeKeyAllocator,
                        SpeciesState, evolve_step, speciate)
from .genome import (GenomeTensors, PopulationTensors, init_arrays,
                     serialize_genome)
from .problems import make_problem
from .rng import RngStream

STATS_HEADER = ("generation,best_fitness,mean_fitness,species_count,"
                "mean_live_nodes,mean_live_conns")
TIMINGS_HEADER = "generation,elapsed_seconds"

EXIT_SOLVED = 0
EXIT_ERROR = 1
EXIT_GENERATION_LIMIT = 2


@dataclass
class EvolutionState:
    """Everything that advances from one generation to the next."""
    config: NeatConfig
    population: PopulationTensors
    species: list[SpeciesState]
    allocator: NodeKeyAllocator
    generation: int = 0
    stats_rows: list[str] = field(default_factory=list)


def init_state(config: NeatConfig) -> EvolutionState:
    """Fresh, already-speciated initial population."""
    root = RngStream(config.seed)
    streams = root.child(0, STAGE_INIT).split(np.arange(config.pop_size))
    nodes, conns = init_arrays(config, streams)
    pop = PopulationTensors(nodes, conns, config.inputs, config.outputs)
    _, species = speciate(pop, [], config)
    allocator = NodeKeyAllocator(next_key=config.inputs + config.outputs)
    return EvolutionState(config=config, population=pop, species=species,
                          allocator=allocator)


def _stats_row(generation: int, stats: GenerationStats) -> str:
    return (f"{generation},{stats.best_fitness!r},{stats.mean_fitness!r},"
            f"{stats.species_count},{stats.mean_live_nodes!r},{stats.mean_live_conns!r}")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, state: EvolutionState) -> None:
    payload = {
        "config": dump_config(state.config),
        "generation": state.generation,
        "next_key": state.allocator.next_key,
        "nodes": state.population.nodes,
        "conns": state.population.conns,
        "stats_rows": list(state.stats_rows),
        "species": [
            {
                "species_key": sp.species_key,
                "rep_nodes": sp.representative.nodes,
                "rep_conns": sp.representative.conns,
                "member_indices": sp.member_indices,
                "best_fitness": sp.best_fitness,
                "stagnation_counter": sp.stagnation_counter,
            }
            for sp in state.species
        ],
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


_CHECKPOINT_KEYS = ("config", "generation", "next_key", "nodes", "conns", "stats_rows",
                    "species")
_SPECIES_KEYS = ("species_key", "rep_nodes", "rep_conns", "member_indices", "best_fitness",
                 "stagnation_counter")


def _with_keys(entry, keys: tuple[str, ...], what: str) -> dict:
    """``entry`` if it is a dict holding every one of ``keys``; else IntegrityError."""
    missing = [key for key in keys if key not in entry] if isinstance(entry, dict) else keys
    if missing:
        raise IntegrityError(f"{what} lacks {', '.join(map(repr, missing))}")
    return entry


def load_checkpoint(path) -> EvolutionState:
    """Restore a saved run; IntegrityError if the file is not a checkpoint of this format.

    Bytes that do not unpickle and payloads that lack a key ``save_checkpoint``
    writes (a checkpoint of an earlier format, say) are rejected, not converted.
    Keys it does not read are ignored.
    """
    with open(path, "rb") as fh:
        try:
            payload = pickle.load(fh)
        except OSError:
            raise
        except Exception as err:
            raise IntegrityError(
                f"checkpoint {path} is unreadable: {type(err).__name__}: {err}") from None
    payload = _with_keys(payload, _CHECKPOINT_KEYS, f"checkpoint {path}")
    entries = [_with_keys(entry, _SPECIES_KEYS, f"checkpoint {path} species {i}")
               for i, entry in enumerate(payload["species"])]
    config = parse_config_text(payload["config"])
    population = PopulationTensors(payload["nodes"], payload["conns"],
                                   config.inputs, config.outputs)
    species = [
        SpeciesState(
            species_key=entry["species_key"],
            representative=GenomeTensors(entry["rep_nodes"], entry["rep_conns"],
                                         config.inputs, config.outputs),
            member_indices=entry["member_indices"],
            best_fitness=float(entry["best_fitness"]),
            stagnation_counter=entry["stagnation_counter"],
        )
        for entry in entries
    ]
    return EvolutionState(config=config, population=population, species=species,
                          allocator=NodeKeyAllocator(payload["next_key"]),
                          generation=payload["generation"],
                          stats_rows=list(payload["stats_rows"]))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

@dataclass
class RunOutcome:
    exit_code: int
    generations: int
    best_fitness: float
    solved: bool
    stats_path: Path
    genome_path: Path
    checkpoint_path: Path


def run_experiment(config: NeatConfig | None, out_dir, threads: int = 1,
                   resume_path=None, log=None) -> RunOutcome:
    """Evolve until the fitness target or the generation limit is reached."""
    if resume_path is not None:
        state = load_checkpoint(resume_path)
        config = state.config
    elif config is not None:
        state = init_state(config)
    else:
        raise ConfigError("run needs a config or a checkpoint to resume")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = make_problem(config)
    root = RngStream(config.seed)
    timing_rows: list[str] = []
    best: GenomeTensors | None = None
    best_fitness = -math.inf
    solved = False

    while state.generation < config.generation_limit:
        generation = state.generation
        pop, species, stats = evolve_step(
            state.population, state.species, config, root.child(generation),
            state.allocator, problem, threads=threads)
        state.stats_rows.append(_stats_row(generation, stats))
        timing_rows.append(f"{generation},{stats.elapsed_seconds!r}")
        best = stats.best_genome
        best_fitness = stats.best_fitness
        state.population, state.species = pop, species
        state.generation = generation + 1
        if log:
            log(f"generation {generation}: best={stats.best_fitness:.4f} "
                f"mean={stats.mean_fitness:.4f} species={stats.species_count}")
        if stats.solved:
            solved = True
            break

    stats_path = out / "stats.csv"
    stats_path.write_text("\n".join([STATS_HEADER, *state.stats_rows]) + "\n",
                          encoding="utf-8")
    (out / "timings.csv").write_text("\n".join([TIMINGS_HEADER, *timing_rows]) + "\n",
                                     encoding="utf-8")
    genome_path = out / "best_genome.json"
    if best is not None:
        genome_path.write_bytes(serialize_genome(best))
    checkpoint_path = out / "checkpoint.pkl"
    save_checkpoint(checkpoint_path, state)

    return RunOutcome(exit_code=EXIT_SOLVED if solved else EXIT_GENERATION_LIMIT,
                      generations=state.generation,
                      best_fitness=best_fitness, solved=solved,
                      stats_path=stats_path, genome_path=genome_path,
                      checkpoint_path=checkpoint_path)


# ---------------------------------------------------------------------------
# benchmark sweep
# ---------------------------------------------------------------------------

BENCH_HEADER = "pop_size,generation,tensorized_seconds,sequential_seconds"


def _timed_generations(config: NeatConfig, generations: int, threads: int,
                       sequential: bool) -> list[float]:
    state = init_state(config)
    problem = make_problem(config)
    root = RngStream(config.seed)
    times: list[float] = []
    for generation in range(generations):
        start = time.perf_counter()
        pop, species, _ = evolve_step(
            state.population, state.species, config, root.child(generation),
            state.allocator, problem, threads=threads, sequential=sequential)
        times.append(time.perf_counter() - start)
        state.population, state.species = pop, species
        state.generation = generation + 1
    return times


def run_bench(config: NeatConfig, pop_sizes: list[int], generations: int,
              out_dir, threads: int = 1, log=None) -> Path:
    """Tensorized vs forced per-genome wall time, per generation and pop size.

    Both paths run the identical algorithm (same seeds, same trajectories);
    the sequential path applies the same tensor kernels one genome at a time,
    so population-level data parallelism is the only variable measured.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[str] = []
    for pop_size in pop_sizes:
        bench_config = config.with_overrides(pop_size=pop_size,
                                             generation_limit=generations,
                                             fitness_target=math.inf)
        if log:
            log(f"pop_size={pop_size}: tensorized path")
        tensorized = _timed_generations(bench_config, generations, threads, False)
        if log:
            log(f"pop_size={pop_size}: sequential path")
        sequential = _timed_generations(bench_config, generations, threads, True)
        for generation, (t_tensor, t_seq) in enumerate(zip(tensorized, sequential)):
            rows.append(f"{pop_size},{generation},{t_tensor!r},{t_seq!r}")
    bench_path = out / "bench.csv"
    bench_path.write_text("\n".join([BENCH_HEADER, *rows]) + "\n", encoding="utf-8")
    return bench_path
