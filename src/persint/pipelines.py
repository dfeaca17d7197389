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

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analyze import classical_mds, distance_matrix, write_embedding, write_matrix
from .errors import InvalidParameterError, StageError
from .field import GridSpec, _write_rows, default_kde_spec, kde_grid, write_field
from .inference import (
    field_diagram_source,
    mise_study,
    population_field_spec,
    power_study,
    synthetic_diagram_source,
)
from .intensity import default_intensity_spec, smooth_diagram, weight_spec, write_intensity
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

    def add_stage(self, name, outputs, seconds):
        self.stages.append(
            {"name": name, "outputs": [str(p) for p in outputs], "seconds": seconds}
        )

    def output_files(self):
        return [p for s in self.stages for p in s["outputs"]]

    def save(self, path):
        payload = {
            "experiment": self.experiment,
            "version": self.version,
            "config": self.config,
            "master_seed": self.master_seed,
            "seed_note": self.seed_note,
            "stages": self.stages,
            "extras": self.extras,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


class _StageTimer:
    """Runs one named stage, recording outputs and wall time in the manifest."""

    def __init__(self, manifest, name, params):
        self.manifest = manifest
        self.name = name
        self.params = params
        self.outputs = []

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            if isinstance(exc, StageError):
                return False
            raise StageError(self.name, self.params, exc) from exc
        self.manifest.add_stage(self.name, self.outputs, time.perf_counter() - self._start)
        return False


def _expect_experiment(config, name):
    if config.experiment != name:
        raise InvalidParameterError(f"config experiment is {config.experiment!r}, expected {name!r}")


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
    weights = weight_spec(config.g0, config.g1)
    save = config.save_intermediates

    clouds, labels = [], []
    with _StageTimer(manifest, "synth", {"n": config.n, "N": config.N}) as st:
        if save:
            (out / "clouds").mkdir(exist_ok=True)
        for pi, pop in enumerate(FIG2_POPULATIONS):
            for i in range(config.N):
                cloud = generate_population(pop, config.n, child_seed(master, 10, pi, i))
                clouds.append(cloud)
                labels.append(pop)
                if save:
                    path = out / "clouds" / f"{pop}_{i:03d}.csv"
                    write_cloud(cloud, path)
                    st.outputs.append(path.relative_to(out))

    fields = []
    with _StageTimer(manifest, "field", {"h": config.h, "grid": config.field_grid}) as st:
        if save:
            (out / "fields").mkdir(exist_ok=True)
        nx, ny = config.field_grid
        for idx, cloud in enumerate(clouds):
            if config.field_bounds is not None:
                spec = GridSpec(*config.field_bounds, nx, ny)
            else:
                spec = default_kde_spec(cloud, config.h, nx, ny)
            fld = kde_grid(cloud, config.h, spec)
            fields.append(fld)
            if save:
                path = out / "fields" / f"{labels[idx]}_{idx % config.N:03d}.csv"
                write_field(fld, path)
                st.outputs.append(path.relative_to(out))

    diagrams = []
    with _StageTimer(manifest, "persistence", {"max_dim": config.max_dim}) as st:
        if save:
            (out / "diagrams").mkdir(exist_ok=True)
        for idx, fld in enumerate(fields):
            diag = compute_persistence(fld, "superlevel", config.max_dim)
            diagrams.append(diag)
            if save:
                path = out / "diagrams" / f"{labels[idx]}_{idx % config.N:03d}.csv"
                write_diagram(diag, path)
                st.outputs.append(path.relative_to(out))

    grids = []
    with _StageTimer(manifest, "intensity", {"tau": config.tau}) as st:
        inx, iny = config.intensity_grid
        ispec = default_intensity_spec(diagrams, config.tau, inx, iny)
        if save:
            (out / "intensities").mkdir(exist_ok=True)
        for idx, diag in enumerate(diagrams):
            grid = smooth_diagram(diag, config.tau, w=weights, spec=ispec)
            grids.append(grid)
            if save:
                path = out / "intensities" / f"{labels[idx]}_{idx % config.N:03d}.csv"
                write_intensity(grid, path)
                st.outputs.append(path.relative_to(out))

    with _StageTimer(manifest, "distances", {}) as st:
        delta = distance_matrix(grids)
        write_matrix(delta.entries, out / "delta.csv")
        st.outputs.append("delta.csv")

    with _StageTimer(manifest, "mds", {"k": 2}) as st:
        emb = classical_mds(delta, 2)
        write_embedding(emb, out / "coords.csv", labels=labels)
        st.outputs.append("coords.csv")

    manifest.save(out / "manifest.json")
    return manifest


def write_power_curve(config, path):
    """Run a fig4 config's power sweep, write its curve.csv to ``path``, return it."""
    _expect_experiment(config, "fig4")
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
        threads=config.threads,
    )
    with open(path, "w") as fh:
        cols = ",".join(f"rate_{a}" for a in curve.alphas)
        fh.write(f"q,{cols}\n")
        _write_rows(fh, np.column_stack([curve.q_values, *curve.rates]))
    return curve


def run_fig4(config, out_dir=None):
    """Two-sample power sweep over the contamination fraction q."""
    _expect_experiment(config, "fig4")
    out = _resolve_out_dir(config, out_dir)
    manifest = _new_manifest(config)
    with _StageTimer(manifest, "power", {"q_values": config.q_values}) as st:
        curve = write_power_curve(config, out / "curve.csv")
        st.outputs.append("curve.csv")
        with open(out / "pvalues.csv", "w") as fh:
            fh.write("q,trial,T1,p\n")
            _write_rows(fh, [[float(q), t, float(s), float(p)] for q, t, s, p in curve.records])
        st.outputs.append("pvalues.csv")
    manifest.extras["rates"] = {
        str(a): list(r) for a, r in zip(curve.alphas, curve.rates)
    }
    manifest.save(out / "manifest.json")
    return manifest


def make_generator(spec_dict):
    """Diagram source from a config ``generator`` object."""
    kind = spec_dict.get("kind", "field")
    if kind == "field":
        population = spec_dict.get("population", "uniform")
        h = spec_dict.get("h", 0.25)
        nx, ny = spec_dict.get("grid", [48, 48])
        return field_diagram_source(
            population=population,
            n=spec_dict.get("n", 60),
            h=h,
            q=spec_dict.get("q", 0.0),
            spec=population_field_spec(population, h, nx, ny),
            max_dim=0,
        )
    if kind == "synthetic":
        return synthetic_diagram_source(
            mean_pairs=spec_dict.get("mean_pairs", 8.0),
            birth_center=spec_dict.get("birth_center", 0.4),
            birth_sd=spec_dict.get("birth_sd", 0.1),
            life_mean=spec_dict.get("life_mean", 0.15),
        )
    raise InvalidParameterError(f"unknown generator kind {kind!r}")


def write_mise_curve(config, path):
    """Run a mise config's MISE sweep, write its curve.csv to ``path``, return it."""
    _expect_experiment(config, "mise")
    curve = mise_study(
        source=make_generator(config.generator),
        n_values=config.N_values,
        tau_scale=config.tau_scale,
        reps=config.reps,
        seed=config.master_seed(),
        n_ref=config.N_ref,
        tau_ref=config.tau_ref,
    )
    with open(path, "w") as fh:
        fh.write("N,tau,mise\n")
        rows = zip(curve.n_values, curve.tau_values, curve.mise)
        _write_rows(fh, [[n, float(tau), float(m)] for n, tau, m in rows])
    return curve


def run_mise(config, out_dir=None):
    """Bandwidth-rate study: integrated squared error vs diagram count."""
    _expect_experiment(config, "mise")
    out = _resolve_out_dir(config, out_dir)
    manifest = _new_manifest(config)
    with _StageTimer(manifest, "mise", {"N_values": config.N_values}) as st:
        curve = write_mise_curve(config, out / "curve.csv")
        st.outputs.append("curve.csv")
    manifest.extras["tau_rule"] = curve.tau_rule
    manifest.extras["loglog_slope"] = curve.slope
    manifest.save(out / "manifest.json")
    return manifest
