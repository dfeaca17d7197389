"""Per-call times of the persistence layer, run from one source tree.

    python3 tools/layers.py [--src TREE] [--sides 64,128,256] [--fields 10] [--repeats 7]

Imports persint from ``TREE/src`` (default: the tree this script sits in),
writing no bytecode there, and uses only numpy and persint's public
names, so ``--src`` can time an older checkout. For each side it builds
``--fields`` seeded KDE fields on a fixed box (circle-contaminated
uniform clouds of 200 points at bandwidth 0.1, ``fig4``'s trial
parameters), then times ``persistence.grid_persistence`` of each
field's superlevel filtration at max_dim 0 and at max_dim 1. One repeat calls it once per field; its
time is the mean per call. After one untimed warm-up repeat, it prints
one JSON line per (layer, side) with the median and the minimum over
``--repeats`` repeats, in milliseconds. BLAS runs in one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
import time
from pathlib import Path


def parse_sides(text):
    """Grid sides from a list like ``64,128,256``."""
    return [int(s) for s in text.split(",")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source tree whose src/ is timed")
    parser.add_argument("--sides", type=parse_sides, default=[64, 128, 256])
    parser.add_argument("--fields", type=int, default=10, help="fields per side")
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats per layer")
    return parser.parse_args(argv)


def kde_fields(side, count):
    """``count`` seeded superlevel KDE fields of side x side nodes."""
    from persint import GridSpec, gen_circle_contamination, kde_grid

    spec = GridSpec(-1.8, 1.8, -1.8, 1.8, side, side)
    return [kde_grid(gen_circle_contamination(200, 0.1 * (s % 4), 900 + s), 0.1, spec).values
            for s in range(count)]


def time_layer(fn, fields, repeats):
    """(median, minimum) over ``repeats`` of the mean seconds per call of fn on the fields."""
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        for values in fields:
            fn(values)
        times.append((time.perf_counter() - start) / len(fields))
    return statistics.median(times[1:]), min(times[1:])


def main(argv=None):
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.src.resolve() / "src"))
    from persint.persistence import grid_persistence

    for side in args.sides:
        fields = kde_fields(side, args.fields)
        for max_dim in (0, 1):
            median, least = time_layer(
                lambda v: grid_persistence(v, "superlevel", max_dim), fields, args.repeats
            )
            print(json.dumps({
                "layer": f"persistence.maxdim{max_dim}", "side": side, "fields": args.fields,
                "repeats": args.repeats, "median_ms": round(median * 1e3, 4),
                "min_ms": round(least * 1e3, 4),
            }), flush=True)


if __name__ == "__main__":
    main()
