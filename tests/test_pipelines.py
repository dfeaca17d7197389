import json

import numpy as np
import pytest

from persint.config import config_from_dict
from persint.errors import ConfigError, InvalidParameterError, StageError
from persint.pipelines import make_generator, run_fig2, run_fig4, run_mise

FIG2_TINY = {
    "experiment": "fig2",
    "seed": 5,
    "n": 50,
    "N": 2,
    "h": 0.1,
    "tau": 0.1,
    "field_grid": [32, 32],
    "intensity_grid": [32, 32],
}


def _run_fig2(tmp_path, name, **overrides):
    cfg = config_from_dict({**FIG2_TINY, **overrides})
    out = tmp_path / name
    manifest = run_fig2(cfg, out_dir=out)
    return out, manifest


def test_fig2_outputs_exist(tmp_path):
    out, manifest = _run_fig2(tmp_path, "a")
    assert (out / "coords.csv").exists()
    assert (out / "delta.csv").exists()
    assert (out / "manifest.json").exists()
    for stage in manifest.stages:
        for rel in stage["outputs"]:
            assert (out / rel).exists()
    lines = (out / "coords.csv").read_text().splitlines()
    assert lines[0] == "id,c1,c2,label"
    assert len(lines) == 1 + 3 * 2  # three populations, N clouds each
    labels = [l.split(",")[-1] for l in lines[1:]]
    assert labels == ["circle"] * 2 + ["three-circles"] * 2 + ["gauss3"] * 2


def test_fig2_single_cloud_per_population(tmp_path):
    out, _ = _run_fig2(tmp_path, "single", N=1, n=40)
    lines = (out / "coords.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 rows, 2 coordinates each
    assert all(len(l.split(",")) == 4 for l in lines[1:])


def test_fig2_deterministic(tmp_path):
    out1, _ = _run_fig2(tmp_path, "r1")
    out2, _ = _run_fig2(tmp_path, "r2")
    files = sorted(p.relative_to(out1) for p in out1.rglob("*.csv"))
    assert files
    for rel in files:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_fig2_manifest_contents(tmp_path):
    out, manifest = _run_fig2(tmp_path, "m")
    data = json.loads((out / "manifest.json").read_text())
    assert data["experiment"] == "fig2"
    assert data["master_seed"] == 5
    assert [s["name"] for s in data["stages"]] == [
        "synth",
        "field",
        "persistence",
        "intensity",
        "distances",
        "mds",
    ]
    assert all(s["seconds"] >= 0 for s in data["stages"])
    assert data["config"]["n"] == 50


def test_fig2_requires_out_dir():
    cfg = config_from_dict(FIG2_TINY)
    with pytest.raises(InvalidParameterError):
        run_fig2(cfg)


def test_fig2_wrong_experiment(tmp_path):
    cfg = config_from_dict(
        {
            "experiment": "fig4",
            "n": 10,
            "N": 2,
            "h": 0.1,
            "tau": 0.1,
            "q_values": [0.0],
            "B": 5,
            "trials": 1,
        }
    )
    with pytest.raises(ConfigError, match="experiment: must be 'fig2', got 'fig4'"):
        run_fig2(cfg, out_dir=tmp_path / "x")
    assert not (tmp_path / "x").exists()


def test_fig4_curve(tmp_path):
    cfg = config_from_dict(
        {
            "experiment": "fig4",
            "seed": 6,
            "n": 40,
            "N": 3,
            "h": 0.15,
            "tau": 0.05,
            "q_values": [0.0, 0.5],
            "B": 19,
            "trials": 2,
            "field_grid": [24, 24],
            "intensity_grid": [24, 24],
        }
    )
    out = tmp_path / "fig4"
    manifest = run_fig4(cfg, out_dir=out)
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "q,rate_0.05,rate_0.01"
    assert len(lines) == 3
    rates = [float(v) for l in lines[1:] for v in l.split(",")[1:]]
    assert all(0.0 <= r <= 1.0 for r in rates)
    pv = (out / "pvalues.csv").read_text().splitlines()
    assert pv[0] == "q,trial,T1,p"
    assert len(pv) == 1 + 2 * 2
    assert "rates" in manifest.extras


def test_mise_curve_and_slope(tmp_path):
    cfg = config_from_dict(
        {
            "experiment": "mise",
            "seed": 7,
            "N_values": [2, 4],
            "tau_scale": 0.15,
            "reps": 1,
            "N_ref": 16,
            "generator": {"kind": "synthetic"},
        }
    )
    out = tmp_path / "mise"
    manifest = run_mise(cfg, out_dir=out)
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "N,tau,mise"
    assert len(lines) == 3
    assert isinstance(manifest.extras["loglog_slope"], float)


def test_stage_error_carries_context(tmp_path):
    cfg = config_from_dict(
        {
            "experiment": "mise",
            "N_values": [2],
            "tau_scale": 0.15,
            "reps": 1,
            "N_ref": 8,
        }
    )
    cfg.generator = {"kind": "bogus"}  # bypass validation to hit the stage guard
    with pytest.raises(StageError) as err:
        run_mise(cfg, out_dir=tmp_path / "boom")
    assert err.value.stage == "mise"
    assert "N_values" in err.value.params


def test_make_generator_kinds():
    field_src = make_generator({"kind": "field", "n": 20, "h": 0.3, "grid": [16, 16]})
    diag = field_src(3)
    assert all(p.dim == 0 for p in diag.pairs)
    synth_src = make_generator({"kind": "synthetic", "mean_pairs": 3.0})
    assert synth_src(3).multiset() == synth_src(3).multiset()
    with pytest.raises(InvalidParameterError):
        make_generator({"kind": "nope"})


def test_make_generator_defaults():
    from persint.inference import field_diagram_source, synthetic_diagram_source

    # The defaults a generator object without keys has always had.
    expected = {
        "field": field_diagram_source(population="uniform", n=60, h=0.25, q=0.0, grid=(48, 48)),
        "synthetic": synthetic_diagram_source(
            mean_pairs=8.0, birth_center=0.4, birth_sd=0.1, life_mean=0.15
        ),
    }
    for kind, source in expected.items():
        for seed in (1, 2):
            got = make_generator({"kind": kind})(seed).arrays()
            assert all(np.array_equal(a, b) for a, b in zip(got, source(seed).arrays()))
