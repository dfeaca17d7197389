"""Command-line interface.

Subcommands mirror the pipeline stages (`synth`, `field`, `persist`,
`intensity`, `analyze`, `infer`) plus the canned experiment runners
(`run fig2|fig4|mise`) and `validate`. Every stage reads and writes the
CSV interchange formats, so any intermediate artifact can be re-fed to the
next stage by hand.

The parser is the only router: one parser per process, built on the first
`main` call; each leaf subcommand's defaults carry its handler and the global
flags it reads. Handlers look up pipeline functions by name when they run.

Exit codes: 0 success, 2 configuration/usage error, 3 runtime stage or file error.
"""

import argparse
import functools
import sys
from pathlib import Path

from . import __version__, pipelines
from .analyze import (
    DistanceMatrix,
    classical_mds,
    kmeans,
    read_matrix,
    similarity_from_distance,
    spectral_embed,
    write_embedding,
    write_matrix,
)
from .config import load_config
from .errors import ConfigError, InvalidInputError, PersintError
from .field import (
    GridSpec,
    _write_json,
    default_kde_spec,
    distance_grid,
    kde_grid,
    read_field,
    write_field,
)
from .inference import permutation_test
from .intensity import (
    WeightSpec,
    average_intensity,
    default_intensity_spec,
    read_intensity,
    smooth_diagram,
    write_intensity,
)
from .persistence import compute_persistence, read_diagram, write_diagram
from .synth import POPULATIONS, generate_population, read_cloud, write_cloud


@functools.cache
def _build_parser():
    root = argparse.ArgumentParser(prog="persint", description=__doc__)
    root.add_argument("--version", action="version", version=f"persint {__version__}")
    root.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    root.add_argument("--out-dir", default=None, help="output directory for run commands")
    sub = root.add_subparsers(required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", dest="own_seed", type=int, default=None)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=int, nargs=2, default=(128, 128), metavar=("NX", "NY"))
    grid.add_argument("--bounds", type=float, nargs=4, default=None,
                      metavar=("XLO", "XHI", "YLO", "YHI"),
                      help="grid bounds; default is the data box plus 4 bandwidths")

    def leaf(subparsers, name, handler, reads=(), **kw):
        p = subparsers.add_parser(name, **kw)
        p.set_defaults(handler=handler, command=p.prog.partition(" ")[2], reads=reads)
        return p

    p = leaf(sub, "synth", _cmd_synth, reads=("--seed",),
             help="generate a synthetic point cloud", parents=[seed])
    p.add_argument("--pop", required=True, choices=POPULATIONS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=0.0, help="contamination fraction")
    p.add_argument("--out", required=True)

    p = leaf(sub, "field", _cmd_field, parents=[grid],
             help="evaluate a density or distance field on a grid")
    p.add_argument("--mode", required=True, choices=("kde", "dist"))
    p.add_argument("--h", type=float, default=None, help="KDE bandwidth")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = leaf(sub, "persist", _cmd_persist, help="persistence diagram of a grid field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--direction", choices=("super", "sub"), default="super")
    p.add_argument("--maxdim", type=int, choices=(0, 1), default=1)
    p.add_argument("--out", required=True)

    p = leaf(sub, "intensity", _cmd_intensity, parents=[grid],
             help="smooth a diagram into an intensity grid")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--g0", type=float, default=1.0)
    p.add_argument("--g1", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = leaf(sub, "intensity-avg", _cmd_intensity_avg, help="pointwise mean of intensity grids")
    p.add_argument("--in", dest="infiles", nargs="+", required=True)
    p.add_argument("--out", required=True)

    analyze = sub.add_parser("analyze", help="distances, MDS, spectral clustering")
    asub = analyze.add_subparsers(required=True)
    p = leaf(asub, "dist", _cmd_dist, help="pairwise L1 distance matrix of intensities")
    p.add_argument("--in", dest="infiles", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p = leaf(asub, "mds", _cmd_mds, help="classical MDS embedding of a distance matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out", required=True)
    p = leaf(asub, "spectral", _cmd_spectral, reads=("--seed",), parents=[seed],
             help="normalized-Laplacian embedding (+ optional k-means)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--kmeans", type=int, default=None, metavar="K")
    p.add_argument("--out", required=True)

    isub = sub.add_parser("infer", help="permutation two-sample test").add_subparsers(required=True)
    p = leaf(isub, "test", _cmd_infer, reads=("--seed",), parents=[seed],
             help="permutation two-sample test on intensity dirs")
    p.add_argument("--a", required=True, help="directory of intensity CSVs (group 1)")
    p.add_argument("--b", required=True, help="directory of intensity CSVs (group 2)")
    p.add_argument("--perms", type=int, default=1000)
    p.add_argument("--json", dest="json_out", required=True)

    run = sub.add_parser("run", help="run a canned experiment from a config file")
    rsub = run.add_subparsers(required=True)
    for name in ("fig2", "fig4", "mise"):
        p = leaf(rsub, name, functools.partial(_cmd_run, name), reads=("--seed", "--out-dir"))
        p.add_argument("--config", required=True)

    p = leaf(sub, "validate", _cmd_validate, help="validate a config file, reporting every violation")
    p.add_argument("config")

    return root


def _check_global_flags(args):
    """A global flag the command does not read is an error, and so is a second --seed."""
    if args.seed is not None and getattr(args, "own_seed", None) is not None:
        raise InvalidInputError("--seed is given twice")
    for flag, value in (("--seed", args.seed), ("--out-dir", args.out_dir)):
        if value is not None and flag not in args.reads:
            raise InvalidInputError(f"{flag} is not read by {args.command}")


def _effective_seed(args):
    return args.own_seed or args.seed or 0  # _check_global_flags lets at most one be set


def _cmd_synth(args):
    write_cloud(generate_population(args.pop, args.n, _effective_seed(args), q=args.q), args.out)


def _grid_spec(args, default, *data):
    """The grid of --bounds, else ``default(*data, nx, ny)``, with --grid's node counts."""
    nx, ny = args.grid
    return GridSpec(*args.bounds, nx, ny) if args.bounds is not None else default(*data, nx, ny)


def _cmd_field(args):
    cloud = read_cloud(args.infile)
    if args.mode == "dist":
        if args.h is not None:
            raise InvalidInputError("--h is not read by --mode dist")
        if args.bounds is None:
            raise InvalidInputError("--bounds is required for --mode dist")
        fld = distance_grid(cloud, _grid_spec(args, None))
    elif args.h is None:
        raise InvalidInputError("--h is required for --mode kde")
    else:
        fld = kde_grid(cloud, args.h, _grid_spec(args, default_kde_spec, cloud, args.h))
    write_field(fld, args.out)


def _cmd_persist(args):
    fld = read_field(args.infile)
    direction = "superlevel" if args.direction == "super" else "sublevel"
    write_diagram(compute_persistence(fld, direction, args.maxdim), args.out)


def _cmd_intensity(args):
    diag = read_diagram(args.infile)
    w = WeightSpec(args.g0, args.g1)
    spec = _grid_spec(args, default_intensity_spec, [diag], args.tau)
    write_intensity(smooth_diagram(diag, args.tau, w=w, spec=spec), args.out)


def _cmd_intensity_avg(args):
    write_intensity(average_intensity([read_intensity(p) for p in args.infiles]), args.out)


def _cmd_dist(args):
    from .analyze import distance_matrix

    write_matrix(distance_matrix([read_intensity(p) for p in args.infiles]).entries, args.out)


def _cmd_mds(args):
    d = DistanceMatrix(entries=read_matrix(args.infile))
    write_embedding(classical_mds(d, args.k), args.out)


def _cmd_spectral(args):
    if args.kmeans is None and (args.seed, args.own_seed) != (None, None):
        raise InvalidInputError("--seed is not read by analyze spectral without --kmeans")
    d = DistanceMatrix(entries=read_matrix(args.infile))
    emb = spectral_embed(similarity_from_distance(d, args.scale), args.k)
    labels = None
    if args.kmeans is not None:
        labels = kmeans(emb, args.kmeans, _effective_seed(args)).labels.tolist()
    write_embedding(emb, args.out, labels=labels)


def _read_intensity_dir(path):
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise InvalidInputError(f"no intensity CSVs found in {path}")
    return [read_intensity(p) for p in files]


def _cmd_infer(args):
    res = permutation_test(
        _read_intensity_dir(args.a),
        _read_intensity_dir(args.b),
        args.perms,
        _effective_seed(args),
    )
    _write_json(args.json_out, res.to_dict())
    print(f"T1={res.statistic!r} p={res.p_value!r} B={res.permutations}")


def _cmd_run(recipe, args):
    config = load_config(args.config, seed=args.seed)
    manifest = getattr(pipelines, f"run_{recipe}")(config, out_dir=args.out_dir)
    for stage in manifest.stages:
        print(f"stage {stage['name']}: {len(stage['outputs'])} outputs in {stage['seconds']:.2f}s")
    for key, value in manifest.extras.items():
        print(f"{key}: {value}")


def _cmd_validate(args):
    load_config(args.config)  # a ConfigError lists every violation
    print("config ok")


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_global_flags(args)
        args.handler(args)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    except PersintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a missing input file or an output path that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
