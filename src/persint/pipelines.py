"""End-to-end experiment recipes and their run manifests.

Each runner executes the staged pipeline for one canned experiment,
writes plot-ready CSV artifacts plus a ``manifest.json`` (config snapshot,
tool version, per-stage outputs, timings), and returns the manifest.
Outputs are byte-stable for a fixed config: all randomness flows from the
master seed through documented child-seed paths, and floats are written
with full round-trip precision.

Child-seed paths used here:

* fig2 clouds:   child_seed(master, 10, population_index, cloud_index)
* fig4 trials:   child_seed(master, 40, q_index, trial)  (inside power_study)
* mise:          child_seed(master, 0|1, ...)            (inside mise_study)
"""

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .analyze import classical_mds, distance_matrix, write_embedding, write_matrix
from .config import DEFAULT_GENERATOR, _expect_experiment
from .errors import InvalidParameterError, StageError
from .field import GridSpec, _write_csv, _write_json, default_kde_spec, kde_grid, write_field
from .inference import (
    field_diagram_source,
    mise_study,
    power_study,
    synthetic_diagram_source,
)
from .intensity import WeightSpec, default_intensity_spec, smooth_diagram, write_intensity
from .persistence import compute_persistence, write_diagram
from .seeding import child_seed
from .synth import generate_population, write_cloud

FIG2_POPULATIONS = ("circle", "three-circles", "gauss3")


@dataclass
class RunManifest:
    experiment: str
    version: str
    config: dict
    master_seed: int
    seed_note: str
    stages: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @contextmanager
    def stage(self, name, params):
        """Run one named stage: yield its output list, then record it with its
        wall time, or re-raise the stage's error as a StageError."""
        outputs = []
        start = time.perf_counter()
        try:
            yield outputs
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, params, exc) from exc
        seconds = time.perf_counter() - start
        self.stages.append({"name": name, "outputs": list(map(str, outputs)), "seconds": seconds})

    def output_files(self):
        return [p for s in self.stages for p in s["outputs"]]

    def save(self, path):
        _write_json(path, asdict(self))


def _resolve_out_dir(config, out_dir):
    from pathlib import Path

    target = out_dir if out_dir is not None else config.out_dir
    if target is None:
        raise InvalidParameterError("an output directory is required (config out_dir or --out-dir)")
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _new_manifest(config):
    return RunManifest(
        experiment=config.experiment,
        version=__version__,
        config=config.to_dict(),
        master_seed=config.master_seed(),
        seed_note=config.seed_note(),
    )


def run_fig2(config, out_dir=None):
    """Three-population clustering pipeline.

    For each population and cloud index: sample -> KDE -> superlevel
    persistence -> smoothed intensity; then the pairwise L1 distance matrix
    and a 2D classical MDS embedding, written with population labels.
    """
    _expect_experiment(config, "fig2")
    out = _resolve_out_dir(config, out_dir)
    manifest = _new_manifest(config)
    master = config.master_seed()
    weights = WeightSpec(config.g0, config.g1)
    save = config.save_intermediates

    labels = [pop for pop in FIG2_POPULATIONS for _ in range(config.N)]
    stems = [f"{pop}_{i:03d}" for pop in FIG2_POPULATIONS for i in range(config.N)]

    def sample(_):
        return [
            generate_population(pop, config.n, child_seed(master, 10, pi, i))
            for pi, pop in enumerate(FIG2_POPULATIONS)
            for i in range(config.N)
        ]

    def estimate(clouds):
        nx, ny = config.field_grid
        if config.field_bounds is not None:
            spec = GridSpec(*config.field_bounds, nx, ny)
            return [kde_grid(cloud, config.h, spec) for cloud in clouds]
        return [kde_grid(c, config.h, default_kde_spec(c, config.h, nx, ny)) for c in clouds]

    def persist(fields):
        return [compute_persistence(f, "superlevel", config.max_dim) for f in fields]

    def smooth(diagrams):
        ispec = default_intensity_spec(diagrams, config.tau, *config.intensity_grid)
        return [smooth_diagram(d, config.tau, w=weights, spec=ispec) for d in diagrams]

    # Each stage maps the previous stage's items, one per cloud, to its own
    # and saves them to its subdirectory. Steps and writers use this module's
    # names as looked up during the run, so wrappers set on them see each call.
    stages = (
        ("synth", {"n": config.n, "N": config.N}, "clouds", write_cloud, sample),
        ("field", {"h": config.h, "grid": config.field_grid}, "fields", write_field, estimate),
        ("persistence", {"max_dim": config.max_dim}, "diagrams", write_diagram, persist),
        ("intensity", {"tau": config.tau}, "intensities", write_intensity, smooth),
    )
    items = None
    for name, params, subdir, write, step in stages:
        with manifest.stage(name, params) as outputs:
            items = step(items)
            if save:
                (out / subdir).mkdir(exist_ok=True)
                for stem, item in zip(stems, items):
                    path = out / subdir / f"{stem}.csv"
                    write(item, path)
                    outputs.append(path.relative_to(out))

    with manifest.stage("distances", {}) as outputs:
        delta = distance_matrix(items)
        write_matrix(delta.entries, out / "delta.csv")
        outputs.append("delta.csv")

    with manifest.stage("mds", {"k": 2}) as outputs:
        emb = classical_mds(delta, 2)
        write_embedding(emb, out / "coords.csv", labels=labels)
        outputs.append("coords.csv")

    manifest.save(out / "manifest.json")
    return manifest


def run_fig4(config, out_dir=None):
    """Two-sample power sweep over the contamination fraction q."""
    _expect_experiment(config, "fig4")
    out = _resolve_out_dir(config, out_dir)
    manifest = _new_manifest(config)
    with manifest.stage("power", {"q_values": config.q_values}) as outputs:
        curve = power_study(
            q_values=config.q_values,
            n=config.n,
            N=config.N,
            h=config.h,
            tau=config.tau,
            B=config.B,
            trials=config.trials,
            seed=config.master_seed(),
            alphas=tuple(config.alphas),
            field_grid=tuple(config.field_grid),
            intensity_grid=tuple(config.intensity_grid),
        )
        cols = ",".join(f"rate_{a}" for a in curve.alphas)
        _write_csv(out / "curve.csv", f"q,{cols}\n", np.column_stack([curve.q_values, *curve.rates]))
        outputs.append("curve.csv")
        rows = [[float(q), t, float(s), float(p)] for q, t, s, p in curve.records]
        _write_csv(out / "pvalues.csv", "q,trial,T1,p\n", rows)
        outputs.append("pvalues.csv")
    manifest.extras["rates"] = {
        str(a): list(r) for a, r in zip(curve.alphas, curve.rates)
    }
    manifest.save(out / "manifest.json")
    return manifest


def make_generator(spec_dict):
    """Diagram source from a validated config ``generator`` object.

    Its keys other than ``kind`` are the source function's arguments; an
    absent one takes that function's default, except a field grid's, which
    is ``DEFAULT_GENERATOR``'s.
    """
    params = dict(spec_dict)
    kind = params.pop("kind", "field")
    if kind == "field":
        return field_diagram_source(**{"grid": DEFAULT_GENERATOR["grid"], **params})
    if kind == "synthetic":
        return synthetic_diagram_source(**params)
    raise InvalidParameterError(f"unknown generator kind {kind!r}")


def run_mise(config, out_dir=None):
    """Bandwidth-rate study: integrated squared error vs diagram count."""
    _expect_experiment(config, "mise")
    out = _resolve_out_dir(config, out_dir)
    manifest = _new_manifest(config)
    with manifest.stage("mise", {"N_values": config.N_values}) as outputs:
        curve = mise_study(
            source=make_generator(config.generator),
            n_values=config.N_values,
            tau_scale=config.tau_scale,
            reps=config.reps,
            seed=config.master_seed(),
            n_ref=config.N_ref,
            tau_ref=config.tau_ref,
        )
        rows = zip(curve.n_values, curve.tau_values, curve.mise)
        _write_csv(out / "curve.csv", "N,tau,mise\n", [[n, float(tau), float(m)] for n, tau, m in rows])
        outputs.append("curve.csv")
    manifest.extras["tau_rule"] = curve.tau_rule
    manifest.extras["loglog_slope"] = curve.slope
    manifest.save(out / "manifest.json")
    return manifest
