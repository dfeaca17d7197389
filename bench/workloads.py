"""The benchmark's four workloads: inputs from a seed, one run, output checks.

Each workload drives a public entry point of persint (a recipe runner or
``persint.cli.main``) on inputs derived from the workload seed, writes into
a scratch directory, and checks what it wrote. Module attributes are looked
up at call time (``pipelines.run_fig2``, ``cli.main``) so that the tracer in
``spans.py`` can wrap them.

Output checks:

* clouds, fields and diagrams (``fig2``, ``stages``) must be byte-identical
  between iterations of a run and, where this platform and seed have a
  recorded digest in ``digests.json``, equal to it;
* outputs that a fix of the permutation p-value's tie handling may move
  are checked against their acceptance rules instead: k-means purity of the
  ``fig2`` embedding, the ``mise`` log-log slope, and the p-value lattice
  (1 + k) / (B + 1) with a finite, positive statistic.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from persint import cli, pipelines
from persint.analyze import Embedding, confusion_matrix, kmeans
from persint.config import config_from_dict
from persint.persistence import read_diagram
from persint.seeding import child_seed

FIG2_POPULATIONS = ("circle", "three-circles", "gauss3")


def tree_digest(root, subdir):
    """SHA-256 over the relative names and bytes of every file under a directory."""
    h = hashlib.sha256()
    base = Path(root) / subdir
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(base)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def purity(truth, labels, k=3):
    table = confusion_matrix(truth, labels, k, k)
    return max(
        sum(table[i, perm[i]] for i in range(k)) for perm in itertools.permutations(range(k))
    ) / len(truth)


def p_value_problems(stat, p, B, where):
    """Violations of p = (1 + k) / (B + 1) with 0 <= k <= B and a finite statistic > 0."""
    problems = []
    if not (math.isfinite(stat) and stat > 0):
        problems.append(f"{where}: statistic {stat!r} is not finite and > 0")
    k = round(p * (B + 1)) - 1
    if not (0 <= k <= B and p == (1 + k) / (B + 1)):
        problems.append(f"{where}: p={p!r} is not (1 + k) / ({B} + 1) for an integer k in [0, {B}]")
    return problems


class Fig2:
    """``run_fig2`` at the C06 config with intermediates saved."""

    name = "fig2"
    digest_dirs = ("clouds", "fields", "diagrams")
    # Recipe stage of each wrapped binding in persint.pipelines, for the
    # trace cross-check against the manifest's stage seconds.
    stage_of_site = {
        "pipelines.generate_population": "synth",
        "pipelines.write_cloud": "synth",
        "pipelines.kde_grid": "field",
        "pipelines.write_field": "field",
        "pipelines.compute_persistence": "persistence",
        "pipelines.write_diagram": "persistence",
        "pipelines.smooth_diagram": "intensity",
        "pipelines.write_intensity": "intensity",
        "pipelines.distance_matrix": "distances",
        "pipelines.write_matrix": "distances",
        "pipelines.classical_mds": "mds",
        "pipelines.write_embedding": "mds",
    }

    def __init__(self, seed, smoke=False):
        grid = [48, 48] if smoke else [128, 128]
        self.config = {
            "experiment": "fig2",
            "seed": seed,
            "n": 200,
            "N": 2 if smoke else 20,
            "h": 0.07,
            "tau": 0.1,
            "field_grid": grid,
            "intensity_grid": grid,
            "max_dim": 1,
            "save_intermediates": True,
        }
        self.items = 3 * self.config["N"]
        self.statistical_checks = not smoke

    def run(self, out):
        return pipelines.run_fig2(config_from_dict(self.config), out_dir=out)

    def check(self, out, manifest):
        problems = []
        lines = (out / "coords.csv").read_text().splitlines()[1:]
        if len(lines) != self.items:
            problems.append(f"coords.csv has {len(lines)} rows, expected {self.items}")
        elif self.statistical_checks:
            coords = np.array([[float(v) for v in line.split(",")[1:3]] for line in lines])
            truth = np.array([FIG2_POPULATIONS.index(line.split(",")[-1]) for line in lines])
            labels = kmeans(Embedding(coords=coords, method="mds"), 3, seed=11).labels
            got = purity(truth, labels)
            if got < 0.9:
                problems.append(f"k-means purity {got:.3f} < 0.9")
        return problems


class Fig4:
    """``run_fig4`` at the C07/C08 trial parameters, single-threaded."""

    name = "fig4"
    digest_dirs = ()
    stage_of_site = {}

    def __init__(self, seed, smoke=False):
        self.config = {
            "experiment": "fig4",
            "seed": seed,
            "n": 200,
            "N": 4 if smoke else 20,
            "h": 0.1,
            "tau": 0.025,
            "q_values": [0.0, 0.1] if smoke else [0.0, 0.05, 0.10],
            "B": 20 if smoke else 200,
            # One trial per q: an iteration of about a second gives a timed
            # run dozens of samples, so its median rides out host slowdowns
            # that last ten-odd seconds.
            "trials": 1,
            "field_grid": [64, 64],
            "intensity_grid": [64, 64],
            "threads": 1,
        }
        self.items = len(self.config["q_values"]) * self.config["trials"]

    def run(self, out):
        return pipelines.run_fig4(config_from_dict(self.config), out_dir=out)

    def check(self, out, manifest):
        problems = []
        rows = (out / "pvalues.csv").read_text().splitlines()[1:]
        if len(rows) != self.items:
            problems.append(f"pvalues.csv has {len(rows)} rows, expected {self.items}")
        for row in rows:
            q, trial, stat, p = row.split(",")
            where = f"q={q} trial={trial}"
            problems += p_value_problems(float(stat), float(p), self.config["B"], where)
        return problems


class Mise:
    """``run_mise`` at the C04 config with the wide synthetic generator."""

    name = "mise"
    digest_dirs = ()
    stage_of_site = {}

    def __init__(self, seed, smoke=False):
        n_values = [4, 8] if smoke else [8, 16, 32, 64, 128]
        self.config = {
            "experiment": "mise",
            "seed": seed,
            "N_values": n_values,
            "tau_scale": 0.12,
            "reps": 2 if smoke else 10,
            "generator": {
                "kind": "synthetic",
                "mean_pairs": 8,
                "birth_center": 0.5,
                "birth_sd": 0.25,
                "life_mean": 0.3,
            },
        }
        # Diagrams drawn and smoothed: the 20x reference plus reps per sweep point.
        self.items = 20 * max(n_values) + self.config["reps"] * sum(n_values)
        self.statistical_checks = not smoke

    def run(self, out):
        return pipelines.run_mise(config_from_dict(self.config), out_dir=out)

    def check(self, out, manifest):
        slope = manifest.extras.get("loglog_slope")
        rows = (out / "curve.csv").read_text().splitlines()[1:]
        problems = []
        if len(rows) != len(self.config["N_values"]):
            problems.append(f"curve.csv has {len(rows)} rows")
        if slope is None or not math.isfinite(slope):
            problems.append(f"log-log slope {slope!r} is not finite")
        elif self.statistical_checks and abs(slope + 2.0 / 3.0) > 0.25:
            problems.append(f"log-log slope {slope:.4f} not within -2/3 +/- 0.25")
        return problems


class Stages:
    """The CSV-interchange chain, stage by stage, through ``persint.cli.main``."""

    name = "stages"
    digest_dirs = ("clouds", "fields", "diagrams")
    stage_of_site = {}
    # One distance-field box for all three populations, and one intensity
    # box that holds every (birth, death) pair of those fields plus 4 tau.
    FIELD_BOUNDS = (-1.5, 2.3, -1.5, 1.5)
    INTENSITY_BOUNDS = (-0.1, 1.0, -0.1, 1.1)
    TAU = 0.02

    def __init__(self, seed, smoke=False):
        self.seed = seed
        # Four clouds per population keep an iteration near two seconds,
        # for the same reason as fig4's single trial.
        self.clouds = 2 if smoke else 4
        self.grid = 48 if smoke else 96
        self.perms = 50 if smoke else 1000
        self.items = 3 * self.clouds
        self.config = {
            "experiment": "custom",
            "seed": seed,
            "n": 200,
            "N": self.clouds,
            "tau": self.TAU,
            "field_grid": [self.grid, self.grid],
            "field_bounds": list(self.FIELD_BOUNDS),
        }

    def _cli(self, *argv):
        code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"persint {' '.join(map(str, argv))} exited with {code}")

    def run(self, out):
        # `infer test` prints its result; the benchmark's stdout is its report.
        with contextlib.redirect_stdout(io.StringIO()):
            self._run(out)

    def _run(self, out):
        for sub in ("clouds", "fields", "diagrams", "intensities"):
            for pop in FIG2_POPULATIONS:
                (out / sub / pop).mkdir(parents=True, exist_ok=True)
        for pi, pop in enumerate(FIG2_POPULATIONS):
            for i in range(self.clouds):
                rel = Path(pop) / f"{i:03d}.csv"
                self._cli("synth", "--pop", pop, "--n", self.config["n"],
                          "--seed", child_seed(self.seed, pi, i), "--out", out / "clouds" / rel)
                self._cli("field", "--mode", "dist", "--grid", self.grid, self.grid,
                          "--bounds", *self.FIELD_BOUNDS,
                          "--in", out / "clouds" / rel, "--out", out / "fields" / rel)
                self._cli("persist", "--in", out / "fields" / rel, "--direction", "sub",
                          "--maxdim", 1, "--out", out / "diagrams" / rel)
                self._cli("intensity", "--in", out / "diagrams" / rel, "--tau", self.TAU,
                          "--bounds", *self.INTENSITY_BOUNDS,
                          "--out", out / "intensities" / rel)
        intensities = sorted((out / "intensities").rglob("*.csv"))
        self._cli("analyze", "dist", "--in", *intensities, "--out", out / "delta.csv")
        self._cli("analyze", "spectral", "--in", out / "delta.csv", "--scale", 1.0,
                  "--k", 3, "--kmeans", 3, "--seed", 1, "--out", out / "labels.csv")
        self._cli("--seed", child_seed(self.seed, 9), "infer", "test",
                  "--a", out / "intensities" / FIG2_POPULATIONS[0],
                  "--b", out / "intensities" / FIG2_POPULATIONS[1],
                  "--perms", self.perms, "--json", out / "test.json")

    def check(self, out, manifest):
        problems = []
        lo_b, hi_b, lo_d, hi_d = self.INTENSITY_BOUNDS
        pad = 4 * self.TAU
        for path in sorted((out / "diagrams").rglob("*.csv")):
            _, births, deaths = read_diagram(path, "sublevel").arrays()
            if births.size and not (
                births.min() - pad >= lo_b and births.max() + pad <= hi_b
                and deaths.min() - pad >= lo_d and deaths.max() + pad <= hi_d
            ):
                problems.append(f"{path.relative_to(out)}: pairs plus 4 tau leave the intensity box")
        labels = (out / "labels.csv").read_text().splitlines()[1:]
        if len(labels) != self.items:
            problems.append(f"labels.csv has {len(labels)} rows, expected {self.items}")
        result = json.loads((out / "test.json").read_text())
        problems += p_value_problems(result["T1"], result["p"], result["B"], "infer test")
        return problems


WORKLOADS = {cls.name: cls for cls in (Fig2, Fig4, Mise, Stages)}
