"""Train-and-parse benchmark of tagparse.

    python3 bench/run.py --workload short-joint --seed 0 --seconds 60 --trace 0

Runs one workload (see README.md) from the root of a source checkout and
prints, as its last line of output, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end figures; with `--trace 1` they are the per-layer
figures of a traced run.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BLAS threads per workload, never more than the machine has: a second
# thread costs time at hidden 64 and pays off only at the paper's sizes.
BLAS_THREADS = {"short-joint": 1, "paper-dims": 2}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLAS_THREADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tagparse" / "model.py").is_file():
        print(f"bench: no tagparse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS[args.workload], os.cpu_count() or 1)
    for var in BLAS_VARS:  # must be set before numpy loads its BLAS
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))

    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
