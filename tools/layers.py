"""Per-call times of persint's layers, for one source tree or two in one process.

    python3 tools/layers.py [--src TREE] [--against TREE] [--sides 64,128,256]
                            [--fields 10] [--repeats 7]

Imports persint from ``TREE/src`` (default: the tree this script sits in),
writing no bytecode there, and uses only numpy and persint's public
module-level names, so ``--src`` can time an older checkout. Each tree
builds its inputs with its own persint from fixed seeds. The layers, at
every side:

- ``persistence.maxdim0`` and ``persistence.maxdim1``: ``grid_persistence``
  of the superlevel filtration of ``--fields`` seeded KDE fields of side x
  side nodes (circle-contaminated uniform clouds of 200 points at
  bandwidth 0.1 on a fixed box, ``fig4``'s trial parameters);
- ``field.kde``: ``kde_grid`` of those clouds on that side x side grid;
- ``intensity.smooth``: ``smooth_diagram`` of one diagram at a time, the
  dim-0 and dim-1 pairs of each of those fields built at 64 x 64, at tau
  0.025 on the side x side grid that ``default_intensity_spec`` gives all
  of them (``fig4``'s intensity grid at side 64);
- ``intensity.mean``: ``mean_intensity_values`` of the ``mise`` workload's
  2,560 reference diagrams (its synthetic generator, seed 1) at its
  tau_ref, on a side x side box padded by 4 of its largest sweep tau
  (the ``mise`` reference call at side 64).

One repeat calls a layer once per item; its time is the mean per call.
After one untimed warm-up repeat, it prints one JSON line per (layer,
side) with the median and the minimum over ``--repeats`` repeats, in
milliseconds. BLAS runs in one thread.

``--against TREE`` imports a second tree's persint as its own set of
modules in the same process and times the two trees alternately, repeat
by repeat, the tree that goes first alternating. Each line then holds
both trees' times, the median over repeats of the per-repeat ratio
``src / against`` and the number of repeats in which ``--src`` was
faster. Timing both trees in one process keeps them on one CPU state:
across processes, per-call times at 64 x 64 can be bimodal.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

BOX = (-1.8, 1.8, -1.8, 1.8)  # the KDE box of fig4-style clouds
FIG4_TAU = 0.025
MISE_PROCESS = dict(mean_pairs=8, birth_center=0.5, birth_sd=0.25, life_mean=0.3)
MISE_TAU_MAX = 0.12 * 8 ** (-1 / 6)  # the largest sweep tau, at N = 8
MISE_TAU_REF = 0.5 * 0.12 * 128 ** (-1 / 6)  # half the smallest, at N = 128


def parse_sides(text):
    """Grid sides from a list like ``64,128,256``."""
    return [int(s) for s in text.split(",")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source tree whose src/ is timed")
    parser.add_argument("--against", type=Path, default=None,
                        help="second source tree, timed alternately with --src in this process")
    parser.add_argument("--sides", type=parse_sides, default=[64, 128, 256])
    parser.add_argument("--fields", type=int, default=10, help="fields (and clouds) per side")
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats per layer")
    return parser.parse_args(argv)


def _is_persint(name):
    return name == "persint" or name.startswith("persint.")


def load_persint(tree):
    """``tree/src``'s persint package, imported as its own set of modules.

    ``sys.modules`` is left as it was found, so each loaded tree keeps the
    modules it imported and another tree can be loaded beside it.
    """
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _is_persint(name)}
    sys.path.insert(0, str(tree.resolve() / "src"))
    try:
        return importlib.import_module("persint")  # imports every submodule
    finally:
        sys.path.pop(0)
        for name in [name for name in sys.modules if _is_persint(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def clouds(pkg, count):
    return [pkg.gen_circle_contamination(200, 0.1 * (s % 4), 900 + s) for s in range(count)]


def kde_values(pkg, side, count):
    spec = pkg.GridSpec(*BOX, side, side)
    return [pkg.kde_grid(cloud, 0.1, spec).values for cloud in clouds(pkg, count)]


def persistence_layer(max_dim):
    def setup(pkg, side, count):
        persist = pkg.persistence.grid_persistence
        return lambda v: persist(v, "superlevel", max_dim), kde_values(pkg, side, count)

    return setup


def kde_layer(pkg, side, count):
    spec = pkg.GridSpec(*BOX, side, side)
    return lambda cloud: pkg.kde_grid(cloud, 0.1, spec), clouds(pkg, count)


def smooth_layer(pkg, side, count):
    persist = pkg.persistence.grid_persistence
    diagrams = [persist(v, "superlevel", 1) for v in kde_values(pkg, 64, count)]
    spec = pkg.intensity.default_intensity_spec(diagrams, FIG4_TAU, side, side)
    return lambda d: pkg.smooth_diagram(d, FIG4_TAU, spec=spec), diagrams


def mean_layer(pkg, side, count):
    source = pkg.inference.synthetic_diagram_source(**MISE_PROCESS)
    births, deaths, weights, counts = source(pkg.seeding.child_seeds(1, (0,), 2560))
    spec = pkg.field.box_spec(births, deaths, 4.0 * MISE_TAU_MAX, side, side)
    mean = pkg.intensity.mean_intensity_values
    return lambda _: mean(births, deaths, weights, counts, MISE_TAU_REF, spec), [None]


# Each layer's setup takes (persint package, side, --fields) and returns
# the function to time and the items to call it on.
LAYERS = {
    "persistence.maxdim0": persistence_layer(0),
    "persistence.maxdim1": persistence_layer(1),
    "field.kde": kde_layer,
    "intensity.smooth": smooth_layer,
    "intensity.mean": mean_layer,
}


def mean_call_seconds(fn, items):
    start = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - start) / len(items)


def time_layers(calls, repeats):
    """Per-call seconds of each (fn, items) over ``repeats`` timed repeats,
    after one untimed warm-up; the first call of a repeat alternates."""
    times = [[] for _ in calls]
    for r in range(repeats + 1):
        order = range(len(calls)) if r % 2 == 0 else reversed(range(len(calls)))
        for k in order:
            t = mean_call_seconds(*calls[k])
            if r:
                times[k].append(t)
    return times


def summary(times):
    return {"median_ms": round(statistics.median(times) * 1e3, 4),
            "min_ms": round(min(times) * 1e3, 4)}


def main(argv=None):
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    trees = [load_persint(args.src)]
    if args.against is not None:
        trees.append(load_persint(args.against))

    for side in args.sides:
        for layer, setup in LAYERS.items():
            calls = [setup(pkg, side, args.fields) for pkg in trees]
            times = time_layers(calls, args.repeats)
            row = {"layer": layer, "side": side, "items": len(calls[0][1]),
                   "repeats": args.repeats}
            if args.against is None:
                row.update(summary(times[0]))
            else:
                ratios = [a / b for a, b in zip(*times)]
                row.update(src=summary(times[0]), against=summary(times[1]),
                           ratio_median=round(statistics.median(ratios), 4),
                           src_faster=sum(r < 1 for r in ratios))
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
