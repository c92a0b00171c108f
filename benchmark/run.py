"""Benchmark of arrayneat: runs one workload, checks it and prints its metrics.

Run from the repository root:

    python3 benchmark/run.py --workload xor-p5000 --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run, together with the tracing overhead.  The
line before it is the run record (machine, versions, array shapes).  Working
files (checkpoints, the span dump) go to ``.bench_out/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arrayneat" / "__init__.py").is_file():
        print(f"benchmark: no arrayneat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    out_dir = OUT / f"{args.workload}-trace{args.trace}"  # reused by every seed
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = workloads.DIGESTS[args.workload] if args.seed == 0 else None
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    result, record = workloads.measure(workloads.WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace), out_dir,
                                       digest, declared)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
