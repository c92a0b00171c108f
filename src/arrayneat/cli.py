"""Command-line front end: run experiments, benchmarks, and genome inspection."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ArrayNeatError, ParseError
from .config import load_config
from .functions import ACTIVATIONS, AGGREGATIONS
from .genome import (CONN_ENABLED, CONN_IN, CONN_OUT, CONN_WEIGHT, NODE_ACT,
                     NODE_AGG, NODE_BIAS, NODE_KEY, NODE_RESPONSE, count_live,
                     parse_genome)
from .inference import to_dot
from .runner import EXIT_ERROR, run_bench, run_experiment


def _seed_override() -> dict:
    """TNEAT_SEED in the environment overrides the config seed."""
    raw = os.environ.get("TNEAT_SEED")
    if raw is None:
        return {}
    try:
        return {"seed": int(raw)}
    except ValueError:
        raise ArrayNeatError(f"TNEAT_SEED must be an integer, got {raw!r}") from None


def cmd_run(args) -> int:
    if args.resume is None and args.config is None:
        print("run: need --config or --resume", file=sys.stderr)
        return EXIT_ERROR
    config = None
    if args.resume is None:
        config = load_config(args.config, overrides=_seed_override())
    outcome = run_experiment(config, args.out, threads=args.threads,
                             resume_path=args.resume,
                             log=print if args.verbose else None)
    status = "fitness target reached" if outcome.solved else "generation limit reached"
    print(f"{status} after {outcome.generations} generations; "
          f"best fitness {outcome.best_fitness:.6f}")
    print(f"artifacts in {outcome.stats_path.parent}")
    return outcome.exit_code


def cmd_bench(args) -> int:
    config = load_config(args.config, overrides=_seed_override())
    try:
        pop_sizes = [int(part) for part in args.pop_sizes.split(",") if part.strip()]
    except ValueError:
        print(f"bench: bad --pop-sizes value {args.pop_sizes!r}", file=sys.stderr)
        return EXIT_ERROR
    if not pop_sizes:
        print("bench: --pop-sizes must list at least one population size", file=sys.stderr)
        return EXIT_ERROR
    path = run_bench(config, pop_sizes, args.generations, args.out,
                     threads=args.threads, log=print if args.verbose else None)
    print(f"wrote {path}")
    return 0


def _text_summary(genome) -> str:
    live_nodes, live_conns = count_live(genome)
    enabled = int(np.nansum(genome.conns[:, CONN_ENABLED] == 1.0))
    lines = [f"genome: {live_nodes} nodes ({genome.num_inputs} inputs, "
             f"{genome.num_outputs} outputs), {live_conns} connections "
             f"({enabled} enabled), capacity {genome.max_nodes}x{genome.max_conns}"]
    n_io = genome.num_inputs + genome.num_outputs
    for row in genome.nodes:
        if np.isnan(row[NODE_KEY]):
            continue
        key = int(row[NODE_KEY])
        kind = ("input" if key < genome.num_inputs
                else "output" if key < n_io else "hidden")
        act = ACTIVATIONS[int(row[NODE_ACT])][0]
        agg = AGGREGATIONS[int(row[NODE_AGG])][0]
        lines.append(f"node {key} ({kind}): bias={row[NODE_BIAS]:.6f} "
                     f"response={row[NODE_RESPONSE]:.6f} agg={agg} act={act}")
    for row in genome.conns:
        if np.isnan(row[CONN_IN]):
            continue
        state = "enabled" if row[CONN_ENABLED] == 1.0 else "disabled"
        lines.append(f"conn {int(row[CONN_IN])} -> {int(row[CONN_OUT])}: "
                     f"weight={row[CONN_WEIGHT]:.6f} ({state})")
    return "\n".join(lines) + "\n"


def cmd_inspect(args) -> int:
    try:
        with open(args.genome, "rb") as fh:
            genome = parse_genome(fh.read())
    except (ParseError, OSError) as err:
        print(f"inspect: {err}", file=sys.stderr)
        return EXIT_ERROR
    if args.format == "dot":
        sys.stdout.write(to_dot(genome))
    else:
        sys.stdout.write(_text_summary(genome))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrayneat",
        description="Data-parallel NEAT on NaN-padded fixed-shape arrays")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evolve a population from a config file")
    run_p.add_argument("--config", help="config file (key = value lines)")
    run_p.add_argument("--out", required=True, help="output directory for artifacts")
    run_p.add_argument("--threads", type=int, default=1, help="worker thread bound")
    run_p.add_argument("--resume", help="checkpoint file to resume from")
    run_p.add_argument("--verbose", action="store_true", help="per-generation progress")
    run_p.set_defaults(handler=cmd_run)

    bench_p = sub.add_parser("bench", help="tensorized vs per-genome scaling sweep")
    bench_p.add_argument("--config", required=True)
    bench_p.add_argument("--pop-sizes", required=True,
                         help="comma-separated population sizes, e.g. 50,200,1000")
    bench_p.add_argument("--generations", type=int, default=20)
    bench_p.add_argument("--out", required=True)
    bench_p.add_argument("--threads", type=int, default=1)
    bench_p.add_argument("--verbose", action="store_true")
    bench_p.set_defaults(handler=cmd_bench)

    inspect_p = sub.add_parser("inspect", help="print a genome file as text or DOT")
    inspect_p.add_argument("--genome", required=True, help="genome JSON document")
    inspect_p.add_argument("--format", choices=("dot", "text"), default="text")
    inspect_p.set_defaults(handler=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ArrayNeatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
