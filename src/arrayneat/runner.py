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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import NeatConfig, dump_config, parse_config_text
from .errors import ConfigError, IntegrityError
from .evolution import (STAGE_INIT, GenerationStats, NodeKeyAllocator,
                        SpeciesState, evolve_step, speciate)
from .genome import (CONN_HEADROOM, NODE_HEADROOM, NODE_KEY, GenomeTensors,
                     PopulationTensors, check_blocks, init_arrays, serialize_genome,
                     stored_width, with_rows)
from .problems import make_problem
from .rng import RngStream
from .search import PAIR_SHIFT

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
    pop = PopulationTensors(nodes, conns, config.inputs, config.outputs,
                            config.max_nodes, config.max_conns)
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
    """Pickle ``state``; the population is written at the stored widths of its
    content (``genome.stored_width``), the representatives at full capacity."""
    pop = state.population
    payload = {
        "config": dump_config(state.config),
        "generation": state.generation,
        "next_key": state.allocator.next_key,
        "nodes": with_rows(pop.nodes, stored_width(pop.nodes, pop.max_nodes, NODE_HEADROOM)),
        "conns": with_rows(pop.conns, stored_width(pop.conns, pop.max_conns, CONN_HEADROOM)),
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


def _with_shape(array, shapes: list[tuple[int, ...]], what: str) -> np.ndarray:
    """``array`` if it is a float64 array of one of ``shapes``; else IntegrityError."""
    if not (isinstance(array, np.ndarray) and array.dtype == np.float64
            and array.shape in shapes):
        found = (f"{array.dtype} array of shape {array.shape}"
                 if isinstance(array, np.ndarray) else type(array).__name__)
        raise IntegrityError(f"{what} must be a float64 array of shape "
                             f"{' or '.join(map(str, dict.fromkeys(shapes)))}, got {found}")
    return array


def _population_block(block, pop_size: int, capacity: int, headroom: int, cols: int,
                      what: str) -> np.ndarray:
    """``block`` if it is a float64 (pop_size, rows, cols) array whose rows are the
    width ``save_checkpoint`` writes for its content or, as earlier versions
    wrote, ``capacity``; else IntegrityError."""
    width = capacity
    if (isinstance(block, np.ndarray) and block.dtype == np.float64 and block.ndim == 3
            and block.shape[2] > 0):
        width = stored_width(block, capacity, headroom)
    return _with_shape(block, [(pop_size, width, cols), (pop_size, capacity, cols)], what)


def _members(members, pop_size: int, what: str) -> np.ndarray:
    """``members`` as population indices, each in [0, pop_size); else IntegrityError."""
    members = np.asarray(members)
    if members.ndim != 1 or not np.issubdtype(members.dtype, np.integer):
        raise IntegrityError(f"{what} must be a 1-D integer array of population indices")
    outside = members[(members < 0) | (members >= pop_size)]
    if outside.size:
        raise IntegrityError(f"{what} holds indices {outside.tolist()} outside the "
                             f"population of {pop_size}")
    if members.size == 0:
        raise IntegrityError(f"{what} is empty; every species has a member")
    return members


def _integer(value, what: str, low: int, high: float = math.inf) -> int:
    """``value`` as an int in [low, high]; else IntegrityError.  Bools are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value <= high):
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise IntegrityError(f"{what} must be an integer {bounds}, got {value!r}")
    return int(value)


def _best_fitness(value, what: str) -> float:
    """``value`` as a float if it is a finite number or -inf; else IntegrityError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or math.isnan(value) or value == math.inf):
        raise IntegrityError(f"{what} must be a finite number or -inf, got {value!r}")
    return float(value)


def _highest_key(nodes: np.ndarray) -> float:
    keys = nodes[..., NODE_KEY]
    return float(np.max(keys, initial=-1.0, where=~np.isnan(keys)))


def load_checkpoint(path) -> EvolutionState:
    """Restore a saved run; IntegrityError if the file is not a checkpoint of this format.

    Bytes that do not unpickle, payloads that lack a key ``save_checkpoint``
    writes (a checkpoint of an earlier format, say), and values a run could
    not have written are rejected, not converted: a config that is not text,
    node and connection blocks at another width than their content's stored
    width or the config's capacity, or of another population size, genomes
    or representatives that ``check_integrity`` refuses, a negative or
    fractional generation, stats rows that do not number one per generation,
    a next node key at or below a live key, species keys that repeat, and
    species whose members do not partition the population.  Keys it does not
    read are ignored.
    """
    with open(path, "rb") as fh:
        try:
            payload = pickle.load(fh)
        except OSError:
            raise
        except Exception as err:
            raise IntegrityError(
                f"checkpoint {path} is unreadable: {type(err).__name__}: {err}") from None
    where = f"checkpoint {path}"
    payload = _with_keys(payload, _CHECKPOINT_KEYS, where)
    if not isinstance(payload["species"], list) or not payload["species"]:
        raise IntegrityError(f"{where} species must be a non-empty list")
    entries = [_with_keys(entry, _SPECIES_KEYS, f"{where} species {i}")
               for i, entry in enumerate(payload["species"])]
    if not isinstance(payload["config"], str):
        raise IntegrityError(f"{where} config must be text, "
                             f"got {type(payload['config']).__name__}")
    config = parse_config_text(payload["config"])
    generation = _integer(payload["generation"], f"{where} generation", 0)
    stats_rows = payload["stats_rows"]
    if not (isinstance(stats_rows, list) and len(stats_rows) == generation
            and all(isinstance(row, str) for row in stats_rows)):
        raise IntegrityError(f"{where} stats_rows must be a list of {generation} strings, "
                             f"one per generation")
    population = PopulationTensors(
        _population_block(payload["nodes"], config.pop_size, config.max_nodes, NODE_HEADROOM,
                          5, f"{where} nodes"),
        _population_block(payload["conns"], config.pop_size, config.max_conns, CONN_HEADROOM,
                          4, f"{where} conns"),
        config.inputs, config.outputs, config.max_nodes, config.max_conns)
    species = []
    for i, entry in enumerate(entries):
        what = f"{where} species {i}"
        species.append(SpeciesState(
            species_key=_integer(entry["species_key"], f"{what} species_key", 0),
            representative=GenomeTensors(
                _with_shape(entry["rep_nodes"], [(config.max_nodes, 5)], f"{what} rep_nodes"),
                _with_shape(entry["rep_conns"], [(config.max_conns, 4)], f"{what} rep_conns"),
                config.inputs, config.outputs),
            member_indices=_members(entry["member_indices"], config.pop_size,
                                    f"{what} member_indices"),
            best_fitness=_best_fitness(entry["best_fitness"], f"{what} best_fitness"),
            stagnation_counter=_integer(entry["stagnation_counter"],
                                        f"{what} stagnation_counter", 0),
        ))
    keys = [sp.species_key for sp in species]
    if len(set(keys)) != len(keys):
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        raise IntegrityError(f"{where} species_key values repeat: {repeated}")
    counts = np.bincount(np.concatenate([sp.member_indices for sp in species]),
                         minlength=config.pop_size)
    if (counts != 1).any():
        raise IntegrityError(
            f"{where} species member_indices must partition the population of "
            f"{config.pop_size}: genomes {np.nonzero(counts == 0)[0].tolist()} are in no "
            f"species, genomes {np.nonzero(counts > 1)[0].tolist()} in more than one")
    next_key = _integer(payload["next_key"], f"{where} next_key",
                        config.inputs + config.outputs, int(PAIR_SHIFT))
    highest = max(_highest_key(population.nodes),
                  *(_highest_key(sp.representative.nodes) for sp in species))
    if next_key <= highest:
        raise IntegrityError(f"{where} next_key {next_key} must exceed every live node key, "
                             f"up to {highest:.0f}")
    check_blocks(population.nodes, population.conns, config.inputs, config.outputs,
                 name=f"{where} genome")
    check_blocks(np.stack([sp.representative.nodes for sp in species]),
                 np.stack([sp.representative.conns for sp in species]),
                 config.inputs, config.outputs, name=f"{where} representative of species")
    return EvolutionState(config=config, population=population, species=species,
                          allocator=NodeKeyAllocator(next_key), generation=generation,
                          stats_rows=list(stats_rows))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _generations(state: EvolutionState, threads: int, sequential: bool = False):
    """Evolve ``state`` in place until its fitness target or generation limit,
    yielding each generation's number and stats after its stats row is kept."""
    config = state.config
    problem = make_problem(config)
    root = RngStream(config.seed)
    while state.generation < config.generation_limit:
        generation = state.generation
        state.population, state.species, stats = evolve_step(
            state.population, state.species, config, root.child(generation),
            state.allocator, problem, threads=threads, sequential=sequential)
        state.stats_rows.append(_stats_row(generation, stats))
        state.generation = generation + 1
        yield generation, stats
        if stats.solved:
            return


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
        if state.generation >= config.generation_limit:
            raise ConfigError(f"checkpoint {resume_path} is at generation {state.generation}, "
                              f"already at its generation_limit of "
                              f"{config.generation_limit}; there is nothing to resume")
    elif config is not None:
        state = init_state(config)
    else:
        raise ConfigError("run needs a config or a checkpoint to resume")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timing_rows: list[str] = []
    best: GenomeTensors | None = None
    best_fitness = -math.inf
    solved = False

    for generation, stats in _generations(state, threads):
        timing_rows.append(f"{generation},{stats.elapsed_seconds!r}")
        best, best_fitness, solved = stats.best_genome, stats.best_fitness, stats.solved
        if log:
            log(f"generation {generation}: best={stats.best_fitness:.4f} "
                f"mean={stats.mean_fitness:.4f} species={stats.species_count}")

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
        times = []
        for sequential in (False, True):
            if log:
                log(f"pop_size={pop_size}: {'sequential' if sequential else 'tensorized'} path")
            times.append([stats.elapsed_seconds for _, stats in
                          _generations(init_state(bench_config), threads, sequential)])
        for generation, (t_tensor, t_seq) in enumerate(zip(*times)):
            rows.append(f"{pop_size},{generation},{t_tensor!r},{t_seq!r}")
    bench_path = out / "bench.csv"
    bench_path.write_text("\n".join([BENCH_HEADER, *rows]) + "\n", encoding="utf-8")
    return bench_path
