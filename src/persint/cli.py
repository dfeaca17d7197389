"""Command-line interface.

Subcommands mirror the pipeline stages (`synth`, `field`, `persist`,
`intensity`, `analyze`, `infer`) plus the canned experiment runners
(`run fig2|fig4|mise`) and `validate`. Every stage reads and writes the
CSV interchange formats, so any intermediate artifact can be re-fed to the
next stage by hand.

Exit codes: 0 success, 2 configuration/usage error, 3 runtime stage or file error.
"""

import argparse
import sys
from pathlib import Path

from . import __version__
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
from .pipelines import run_fig2, run_fig4, run_mise
from .synth import POPULATIONS, generate_population, read_cloud, write_cloud


def _build_parser():
    root = argparse.ArgumentParser(prog="persint", description=__doc__)
    root.add_argument("--version", action="version", version=f"persint {__version__}")
    root.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    root.add_argument("--out-dir", default=None, help="output directory for run commands")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic point cloud")
    p.add_argument("--pop", required=True, choices=POPULATIONS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=0.0, help="contamination fraction")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("field", help="evaluate a density or distance field on a grid")
    p.add_argument("--mode", required=True, choices=("kde", "dist"))
    p.add_argument("--h", type=float, default=None, help="KDE bandwidth")
    p.add_argument("--grid", type=int, nargs=2, default=(128, 128), metavar=("NX", "NY"))
    p.add_argument(
        "--bounds",
        type=float,
        nargs=4,
        default=None,
        metavar=("XLO", "XHI", "YLO", "YHI"),
        help="grid bounds; default for kde is the data box plus 4h",
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("persist", help="persistence diagram of a grid field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--direction", choices=("super", "sub"), default="super")
    p.add_argument("--maxdim", type=int, choices=(0, 1), default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("intensity", help="smooth a diagram into an intensity grid")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--g0", type=float, default=1.0)
    p.add_argument("--g1", type=float, default=1.0)
    p.add_argument("--grid", type=int, nargs=2, default=(128, 128), metavar=("NX", "NY"))
    p.add_argument("--bounds", type=float, nargs=4, default=None, metavar=("XLO", "XHI", "YLO", "YHI"))
    p.add_argument("--out", required=True)

    p = sub.add_parser("intensity-avg", help="pointwise mean of intensity grids")
    p.add_argument("--in", dest="infiles", nargs="+", required=True)
    p.add_argument("--out", required=True)

    analyze = sub.add_parser("analyze", help="distances, MDS, spectral clustering")
    asub = analyze.add_subparsers(dest="analyze_command", required=True)
    p = asub.add_parser("dist", help="pairwise L1 distance matrix of intensities")
    p.add_argument("--in", dest="infiles", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p = asub.add_parser("mds", help="classical MDS embedding of a distance matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out", required=True)
    p = asub.add_parser("spectral", help="normalized-Laplacian embedding (+ optional k-means)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--kmeans", type=int, default=None, metavar="K")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--skip-trivial", action="store_true", help="drop the constant eigenvector")
    p.add_argument("--dhalf-rescale", action="store_true", help="rescale rows by D^-1/2")
    p.add_argument("--row-normalize", action="store_true", help="normalize embedded rows")
    p.add_argument("--out", required=True)

    infer = sub.add_parser("infer", help="permutation two-sample test")
    isub = infer.add_subparsers(dest="infer_command", required=True)
    p = isub.add_parser("test", help="permutation two-sample test on intensity dirs")
    p.add_argument("--a", required=True, help="directory of intensity CSVs (group 1)")
    p.add_argument("--b", required=True, help="directory of intensity CSVs (group 2)")
    p.add_argument("--perms", type=int, default=1000)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--json", dest="json_out", required=True)

    run = sub.add_parser("run", help="run a canned experiment from a config file")
    rsub = run.add_subparsers(dest="run_command", required=True)
    for name in ("fig2", "fig4", "mise"):
        p = rsub.add_parser(name)
        p.add_argument("--config", required=True)

    p = sub.add_parser("validate", help="validate a config file, reporting every violation")
    p.add_argument("config")

    return root


def _effective_seed(args):
    seed = getattr(args, "seed", None)
    return 0 if seed is None else seed


def _cmd_synth(args):
    cloud = generate_population(args.pop, args.n, _effective_seed(args), q=args.q)
    write_cloud(cloud, args.out)
    return 0


def _cmd_field(args):
    cloud = read_cloud(args.infile)
    nx, ny = args.grid
    if args.mode == "kde":
        if args.h is None:
            raise InvalidInputError("--h is required for --mode kde")
        spec = (
            GridSpec(*args.bounds, nx, ny)
            if args.bounds is not None
            else default_kde_spec(cloud, args.h, nx, ny)
        )
        fld = kde_grid(cloud, args.h, spec)
    else:
        if args.bounds is None:
            raise InvalidInputError("--bounds is required for --mode dist")
        fld = distance_grid(cloud, GridSpec(*args.bounds, nx, ny))
    write_field(fld, args.out)
    return 0


def _cmd_persist(args):
    fld = read_field(args.infile)
    direction = "superlevel" if args.direction == "super" else "sublevel"
    write_diagram(compute_persistence(fld, direction, args.maxdim), args.out)
    return 0


def _cmd_intensity(args):
    diag = read_diagram(args.infile)
    w = WeightSpec(args.g0, args.g1)
    nx, ny = args.grid
    spec = (
        GridSpec(*args.bounds, nx, ny)
        if args.bounds is not None
        else default_intensity_spec([diag], args.tau, nx, ny)
    )
    write_intensity(smooth_diagram(diag, args.tau, w=w, spec=spec), args.out)
    return 0


def _cmd_intensity_avg(args):
    grids = [read_intensity(p) for p in args.infiles]
    write_intensity(average_intensity(grids), args.out)
    return 0


def _cmd_analyze(args):
    if args.analyze_command == "dist":
        from .analyze import distance_matrix

        grids = [read_intensity(p) for p in args.infiles]
        write_matrix(distance_matrix(grids).entries, args.out)
        return 0
    if args.analyze_command == "mds":
        d = DistanceMatrix(entries=read_matrix(args.infile))
        write_embedding(classical_mds(d, args.k), args.out)
        return 0
    d = DistanceMatrix(entries=read_matrix(args.infile))
    s = similarity_from_distance(d, args.scale)
    emb = spectral_embed(
        s,
        args.k,
        rescale_degree=args.dhalf_rescale,
        row_normalize=args.row_normalize,
        skip_trivial=args.skip_trivial,
    )
    labels = None
    if args.kmeans is not None:
        labels = kmeans(emb, args.kmeans, _effective_seed(args)).labels.tolist()
    write_embedding(emb, args.out, labels=labels)
    return 0


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
    return 0


def _cmd_run(args):
    config = load_config(args.config, seed=args.seed)
    runner = {"fig2": run_fig2, "fig4": run_fig4, "mise": run_mise}[args.run_command]
    manifest = runner(config, out_dir=args.out_dir)
    for stage in manifest.stages:
        print(f"stage {stage['name']}: {len(stage['outputs'])} outputs in {stage['seconds']:.2f}s")
    for key, value in manifest.extras.items():
        print(f"{key}: {value}")
    return 0


def _cmd_validate(args):
    load_config(args.config)  # a ConfigError lists every violation
    print("config ok")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "synth": _cmd_synth,
        "field": _cmd_field,
        "persist": _cmd_persist,
        "intensity": _cmd_intensity,
        "intensity-avg": _cmd_intensity_avg,
        "analyze": _cmd_analyze,
        "infer": _cmd_infer,
        "run": _cmd_run,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
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


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
