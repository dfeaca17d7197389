import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import persint
from persint.config import (
    config_from_dict,
    load_config,
    validate_config_dict,
)
from persint.errors import ConfigError

FIG4_PAPER = {
    "experiment": "fig4",
    "seed": 1,
    "n": 500,
    "N": 50,
    "h": 0.1,
    "tau": 0.025,
    "q_values": [0.0, 0.02, 0.04, 0.06, 0.08, 0.1],
    "B": 1000,
    "trials": 50,
}


def test_paper_fig4_config_passes():
    assert validate_config_dict(FIG4_PAPER) == []
    cfg = config_from_dict(FIG4_PAPER)
    assert cfg.B == 1000 and cfg.q_values[-1] == 0.1


def test_tau_zero_names_field():
    raw = dict(FIG4_PAPER, tau=0.0)
    errors = validate_config_dict(raw)
    assert len(errors) == 1
    assert errors[0].startswith("tau:")
    assert "> 0" in errors[0]


def test_all_violations_reported():
    raw = dict(FIG4_PAPER, tau=-1.0, h=0, B=0, q_values=[2.0], bogus=1)
    errors = validate_config_dict(raw)
    joined = "\n".join(errors)
    for token in ("tau:", "h:", "B:", "q_values[0]:", "bogus:"):
        assert token in joined
    assert len(errors) == 5


def test_missing_seed_accepted():
    raw = {k: v for k, v in FIG4_PAPER.items() if k != "seed"}
    assert validate_config_dict(raw) == []
    cfg = config_from_dict(raw)
    assert cfg.master_seed() == 0
    assert "defaulted" in cfg.seed_note()


def test_required_fields_per_experiment():
    errors = validate_config_dict({"experiment": "fig2"})
    assert {e.split(":")[0] for e in errors} == {"n", "N", "h", "tau"}
    errors = validate_config_dict({"experiment": "mise"})
    assert {e.split(":")[0] for e in errors} == {"N_values", "tau_scale", "reps"}
    assert validate_config_dict({"experiment": "unknown"}) != []


def test_mise_reference_constraint():
    raw = {
        "experiment": "mise",
        "N_values": [8, 16],
        "tau_scale": 0.2,
        "reps": 2,
        "N_ref": 16,
    }
    errors = validate_config_dict(raw)
    assert any(e.startswith("N_ref:") for e in errors)


def test_file_round_trip(tmp_path):
    raw = dict(FIG4_PAPER, out_dir="results")
    cfg = config_from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    back = load_config(path)
    assert back == cfg
    # the snapshot of a loaded config is the same JSON
    assert json.dumps(back.to_dict()) == json.dumps(cfg.to_dict())


def test_a_utf8_config_loads_under_an_ascii_locale(tmp_path):
    """Config files are read as UTF-8 whatever the locale's encoding."""
    cfg = config_from_dict(dict(FIG4_PAPER, out_dir="r\u00e9sum\u00e9"))
    src = tmp_path / "cfg.json"
    src.write_text(json.dumps(dict(FIG4_PAPER, out_dir=cfg.out_dir), ensure_ascii=False),
                   encoding="utf-8")
    script = (
        "import json, sys, persint.config as c; "
        "print(json.dumps(c.load_config(sys.argv[1]).to_dict()))"
    )
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C.ISO-8859-1",
               PYTHONPATH=str(Path(persint.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script, src], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == cfg.to_dict()


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "JSON" in err.value.errors[0]
    bad.write_bytes(b'{"experiment": "\xff\xfe"}')
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "not valid JSON" in err.value.errors[0]


def test_generator_validation():
    raw = {
        "experiment": "mise",
        "N_values": [4],
        "tau_scale": 0.2,
        "reps": 1,
        "generator": {"kind": "wat"},
    }
    errors = validate_config_dict(raw)
    assert any(e.startswith("generator:") for e in errors)
    raw["generator"] = {"kind": "field", "grid": [1, 1]}
    errors = validate_config_dict(raw)
    assert any(e.startswith("generator.grid:") for e in errors)


FIG2 = {"experiment": "fig2", "n": 10, "N": 2, "h": 0.1, "tau": 0.1}
MISE = {"experiment": "mise", "N_values": [4, 8], "tau_scale": 0.2, "reps": 1}
GRID_MSG = "must be [nx, ny] with integer nx, ny >= 2"

# One violating config per rule, with the exact messages in report order.
PINNED_VIOLATIONS = [
    ([1, 2], ["config root must be a JSON object"]),
    (
        dict(FIG2, zz=1, aa=2),
        ["aa: not read by experiment 'fig2'", "zz: not read by experiment 'fig2'"],
    ),
    (
        {"experiment": "fig3", "bogus": 1},
        ["experiment: must be one of ('fig2', 'fig4', 'mise', 'custom'), got 'fig3'"],
    ),
    (
        {"experiment": "fig4", "n": None},
        [
            f"{k}: required for experiment 'fig4'"
            for k in ("n", "N", "h", "tau", "q_values", "B", "trials")
        ],
    ),
    (
        {"experiment": "mise"},
        [f"{k}: required for experiment 'mise'" for k in ("N_values", "tau_scale", "reps")],
    ),
    ({"experiment": "custom"}, []),
    (dict(FIG2, seed=-1), ["seed: must be a 64-bit unsigned integer, got -1"]),
    (dict(FIG2, seed=2**64), [f"seed: must be a 64-bit unsigned integer, got {2**64}"]),
    (dict(FIG2, seed=1.0), ["seed: must be a 64-bit unsigned integer, got 1.0"]),
    (dict(FIG2, seed=None, out_dir=None, field_bounds=None), []),
    (dict(FIG2, threads=0), ["threads: must be 1 (trials run in one thread), got 0"]),
    (dict(FIG2, threads=2), ["threads: must be 1 (trials run in one thread), got 2"]),
    (dict(FIG2, threads=None), ["threads: must be 1 (trials run in one thread), got None"]),
    (dict(FIG2, threads=1.0), ["threads: must be 1 (trials run in one thread), got 1.0"]),
    (dict(FIG2, threads=1), []),
    (dict(FIG2, n=0), ["n: must be an integer >= 1, got 0"]),
    (dict(FIG2, N=1.5), ["N: must be an integer >= 1, got 1.5"]),
    (dict(FIG2, h=0), ["h: must be a float > 0, got 0"]),
    (dict(FIG2, tau="x"), ["tau: must be a float > 0, got 'x'"]),
    (dict(FIG2, field_grid=[1, 2]), [f"field_grid: {GRID_MSG}, got [1, 2]"]),
    (dict(FIG2, intensity_grid=None), [f"intensity_grid: {GRID_MSG}, got None"]),
    (
        dict(FIG2, field_bounds=[0, 1, 1, 0]),
        ["field_bounds: must be [x_lo, x_hi, y_lo, y_hi] with lo < hi, got [0, 1, 1, 0]"],
    ),
    (dict(FIG2, max_dim=2), ["max_dim: must be 0 or 1, got 2"]),
    (dict(FIG2, g0=-1), ["g0: must be a number >= 0, got -1"]),
    (dict(FIG2, g1="a"), ["g1: must be a number >= 0, got 'a'"]),
    (dict(FIG4_PAPER, q_values=[]), ["q_values: must be a nonempty list, got []"]),
    (
        dict(FIG4_PAPER, q_values=[0.5, 2, "a"]),
        ["q_values[1]: must lie in [0, 1], got 2", "q_values[2]: must lie in [0, 1], got 'a'"],
    ),
    (dict(FIG4_PAPER, B=0), ["B: must be an integer >= 1, got 0"]),
    (dict(FIG4_PAPER, trials=0.5), ["trials: must be an integer >= 1, got 0.5"]),
    (dict(FIG4_PAPER, alphas=None), ["alphas: must be a nonempty list, got None"]),
    (
        dict(FIG4_PAPER, alphas=[0, 0.5, 1]),
        ["alphas[0]: must lie in (0, 1), got 0", "alphas[2]: must lie in (0, 1), got 1"],
    ),
    (dict(MISE, N_values="x"), ["N_values: must be a nonempty list, got 'x'"]),
    (
        dict(MISE, N_values=[0, 2.5]),
        [
            "N_values[0]: must be an integer >= 1, got 0",
            "N_values[1]: must be an integer >= 1, got 2.5",
        ],
    ),
    (dict(MISE, tau_scale=0), ["tau_scale: must be a float > 0, got 0"]),
    (dict(MISE, reps=0), ["reps: must be an integer >= 1, got 0"]),
    (dict(MISE, N_ref=1), ["N_ref: must be an integer >= 2, got 1"]),
    (dict(MISE, N_ref=8), ["N_ref: must exceed the largest N in N_values, got 8"]),
    # The cross-check needs integer N_values, valid or not.
    (
        dict(MISE, N_ref=8, N_values=[0, 8.0]),
        [
            "N_values[0]: must be an integer >= 1, got 0",
            "N_values[1]: must be an integer >= 1, got 8.0",
        ],
    ),
    (
        dict(MISE, N_ref=5, N_values=[0, 9], tau_ref=0),
        [
            "N_values[0]: must be an integer >= 1, got 0",
            "N_ref: must exceed the largest N in N_values, got 5",
            "tau_ref: must be a float > 0, got 0",
        ],
    ),
    (dict(MISE, tau_ref=-1.0), ["tau_ref: must be a float > 0, got -1.0"]),
    (
        dict(MISE, generator=None),
        ["generator: must be an object with kind 'field' or 'synthetic', got None"],
    ),
    (
        dict(MISE, generator={"kind": "x"}),
        ["generator: must be an object with kind 'field' or 'synthetic', got {'kind': 'x'}"],
    ),
    (
        dict(MISE, generator={"kind": "field", "grid": [2], "h": 0, "n": 0}),
        [
            f"generator.grid: {GRID_MSG}, got [2]",
            "generator.h: must be a float > 0, got 0",
            "generator.n: must be an integer >= 1, got 0",
        ],
    ),
    (
        dict(MISE, generator={"kind": "field", "h": None}),
        ["generator.h: must be a float > 0, got None"],
    ),
    # Keys of other experiments are rejected, whatever their values.
    (
        dict(MISE, h=-1, q_values="x", g0=-1),
        [f"{k}: not read by experiment 'mise'" for k in ("g0", "h", "q_values")],
    ),
    (
        dict(FIG2, q_values="x", N_values=0, generator=None),
        [f"{k}: not read by experiment 'fig2'" for k in ("N_values", "generator", "q_values")],
    ),
    (
        dict(FIG2, experiment="custom", n=0, B=0),
        ["B: not read by experiment 'custom'", "n: must be an integer >= 1, got 0"],
    ),
    # Every violation at once keeps the report order.
    (
        dict(
            FIG4_PAPER, seed=-1, threads=0, n=0, N=0, h=0, tau=0, field_grid=0,
            intensity_grid=0, field_bounds=0, max_dim=5, g0=-1, g1=-1, q_values=[5],
            B=0, trials=0, alphas=[5], zz=0,
        ),
        [
            *[f"{k}: not read by experiment 'fig4'"
              for k in ("field_bounds", "g0", "g1", "max_dim", "zz")],
            "seed: must be a 64-bit unsigned integer, got -1",
            "threads: must be 1 (trials run in one thread), got 0",
            "n: must be an integer >= 1, got 0",
            "N: must be an integer >= 1, got 0",
            "h: must be a float > 0, got 0",
            "tau: must be a float > 0, got 0",
            f"field_grid: {GRID_MSG}, got 0",
            f"intensity_grid: {GRID_MSG}, got 0",
            "q_values[0]: must lie in [0, 1], got 5",
            "B: must be an integer >= 1, got 0",
            "trials: must be an integer >= 1, got 0",
            "alphas[0]: must lie in (0, 1), got 5",
        ],
    ),
    (
        dict(MISE, N_values=[0], tau_scale=0, reps=0, N_ref=0, tau_ref=0,
             generator={"kind": "field", "grid": 0, "h": 0, "n": 0}),
        [
            "N_values[0]: must be an integer >= 1, got 0",
            "tau_scale: must be a float > 0, got 0",
            "reps: must be an integer >= 1, got 0",
            "N_ref: must be an integer >= 2, got 0",
            "tau_ref: must be a float > 0, got 0",
            f"generator.grid: {GRID_MSG}, got 0",
            "generator.h: must be a float > 0, got 0",
            "generator.n: must be an integer >= 1, got 0",
        ],
    ),
    # Per experiment, valid values of keys its recipe does not read.
    (
        dict(FIG2, B=200, alphas=[0.05]),
        [f"{k}: not read by experiment 'fig2'" for k in ("B", "alphas")],
    ),
    (
        dict(FIG4_PAPER, field_bounds=[0, 1, 0, 1], max_dim=1, g0=1.0, g1=1.0,
             save_intermediates=True),
        [
            f"{k}: not read by experiment 'fig4'"
            for k in ("field_bounds", "g0", "g1", "max_dim", "save_intermediates")
        ],
    ),
    (
        dict(MISE, n=10, field_grid=[8, 8], save_intermediates=False),
        [f"{k}: not read by experiment 'mise'" for k in ("field_grid", "n", "save_intermediates")],
    ),
    ({"experiment": "custom", "N_values": [4]}, ["N_values: not read by experiment 'custom'"]),
]


@pytest.mark.parametrize("raw, expected", PINNED_VIOLATIONS)
def test_validator_messages_are_pinned(raw, expected):
    assert validate_config_dict(raw) == expected


def _generator(**keys):
    return dict(MISE, generator=keys)


# The configs that validated before the rule table and are rejected now.
NEW_REJECTIONS = [
    *[
        (dict(base, **{key: True}), [f"{key}: must be an integer >= {lo}, got True"])
        for base, key, lo in [
            (FIG2, "n", 1), (FIG2, "N", 1), (FIG4_PAPER, "B", 1),
            (FIG4_PAPER, "trials", 1), (MISE, "reps", 1),
        ]
    ],
    (dict(FIG2, threads=True), ["threads: must be 1 (trials run in one thread), got True"]),
    (dict(MISE, N_ref=True), ["N_ref: must be an integer >= 2, got True"]),  # already rejected
    (dict(MISE, N_values=[4, True]), ["N_values[1]: must be an integer >= 1, got True"]),
    (
        dict(MISE, N_values=[4, 8, 4, 4]),
        [
            "N_values[2]: repeats an earlier entry, got 4",
            "N_values[3]: repeats an earlier entry, got 4",
        ],
    ),
    (dict(FIG4_PAPER, q_values=[0.0, 0]), ["q_values[1]: repeats an earlier entry, got 0"]),
    (dict(FIG4_PAPER, alphas=[0.05, 0.1, 0.05]), ["alphas[2]: repeats an earlier entry, got 0.05"]),
    (dict(FIG2, seed=True), ["seed: must be a 64-bit unsigned integer, got True"]),
    (_generator(kind="field", n=True), ["generator.n: must be an integer >= 1, got True"]),
    (dict(FIG2, save_intermediates="no"), ["save_intermediates: must be true or false, got 'no'"]),
    (dict(FIG2, save_intermediates=None), ["save_intermediates: must be true or false, got None"]),
    (dict(MISE, out_dir=5), ["out_dir: must be a string, got 5"]),
    (
        _generator(kind="field", population="torus", q=1.5, mean_pairs=3),
        [
            "generator.mean_pairs: unknown configuration key",
            "generator.population: must be one of "
            "('circle', 'three-circles', 'gauss3', 'uniform', 'contaminated'), got 'torus'",
            "generator.q: must lie in [0, 1], got 1.5",
        ],
    ),
    (
        _generator(kind="synthetic", mean_pair=3, mean_pairs=0, birth_center="x", birth_sd=-0.1,
                   life_mean=0, grid=[8, 8]),
        [
            "generator.grid: unknown configuration key",
            "generator.mean_pair: unknown configuration key",
            "generator.mean_pairs: must be a float > 0, got 0",
            "generator.birth_center: must be a number, got 'x'",
            "generator.birth_sd: must be a number >= 0, got -0.1",
            "generator.life_mean: must be a float > 0, got 0",
        ],
    ),
]


@pytest.mark.parametrize("raw, expected", NEW_REJECTIONS)
def test_new_rejections(raw, expected):
    assert validate_config_dict(raw) == expected


# Values that Python's json reads from NaN, Infinity, true and false, where a
# finite number is meant.
NONFINITE_AND_BOOL_REJECTIONS = [
    (FIG2, "g0", "NaN", "g0: must be a number >= 0, got nan"),
    (FIG2, "h", "Infinity", "h: must be a float > 0, got inf"),
    (FIG2, "tau", "Infinity", "tau: must be a float > 0, got inf"),
    (
        FIG2,
        "field_bounds",
        "[-Infinity, 1, 0, 1]",
        "field_bounds: must be [x_lo, x_hi, y_lo, y_hi] with lo < hi, got [-inf, 1, 0, 1]",
    ),
    (
        MISE,
        "generator",
        '{"kind": "synthetic", "birth_center": NaN}',
        "generator.birth_center: must be a number, got nan",
    ),
    (FIG2, "max_dim", "true", "max_dim: must be 0 or 1, got True"),
    (FIG4_PAPER, "q_values", "[true]", "q_values[0]: must lie in [0, 1], got True"),
    (
        FIG2,
        "field_bounds",
        "[false, true, false, true]",
        "field_bounds: must be [x_lo, x_hi, y_lo, y_hi] with lo < hi, "
        "got [False, True, False, True]",
    ),
]


@pytest.mark.parametrize("base, key, text, message", NONFINITE_AND_BOOL_REJECTIONS)
def test_json_nonfinite_and_bool_values_are_rejected(base, key, text, message):
    assert validate_config_dict(dict(base, **{key: json.loads(text)})) == [message]


def test_generator_keys_of_each_kind_validate():
    field_gen = {"kind": "field", "population": "circle", "n": 5, "h": 0.2, "q": 0.5,
                 "grid": [8, 8]}
    synthetic = {"kind": "synthetic", "mean_pairs": 3, "birth_center": -1, "birth_sd": 0,
                 "life_mean": 0.2}
    for gen in (field_gen, synthetic, {"kind": "field"}, {"kind": "synthetic"}):
        assert validate_config_dict(_generator(**gen)) == []
    assert validate_config_dict(dict(FIG2, save_intermediates=False, out_dir="out", seed=0)) == []


def _readme():
    from pathlib import Path

    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _table_rows(table):
    """Cells of each body row of a Markdown table."""
    return [[cell.strip() for cell in row.split("|")[1:-1]] for row in table.splitlines()[2:]]


def test_readme_documents_every_config_key():
    import inspect
    import re

    from dataclasses import fields

    from persint.config import _GENERATOR_RULES, DEFAULT_GENERATOR, EXPERIMENTS, ExperimentConfig
    from persint.inference import field_diagram_source, synthetic_diagram_source

    schema = _readme().split("### Config schema", 1)[1]
    keys_table, generator_table = re.findall(r"(?:^\|.*\n)+", schema, flags=re.M)[:2]
    keys = [k for row in _table_rows(keys_table) for k in re.findall(r"`([^`]+)`", row[0])]
    declared = fields(ExperimentConfig)
    assert sorted(keys) == sorted(f.name for f in declared) and len(keys) == len(set(keys))
    assert all("rule" in f.metadata for f in declared[1:])  # every key has its rule
    # The experiments column lists the experiments whose recipe reads each key.
    readers = {f.name: f.metadata.get("experiments", EXPERIMENTS) for f in declared}
    for row in _table_rows(keys_table):
        listed = EXPERIMENTS if row[1] == "all" else tuple(row[1].split(", "))
        for key in re.findall(r"`([^`]+)`", row[0]):
            assert sorted(listed) == sorted(readers[key]), key

    # Generator keys per kind, with the source function's default.
    sources = {"field": field_diagram_source, "synthetic": synthetic_diagram_source}
    listed = {kind: {} for kind in _GENERATOR_RULES}
    for key, kind, default, _ in _table_rows(generator_table):
        listed[kind.strip("`")][key.strip("`")] = json.loads(default.strip("`"))
    for kind, rules in _GENERATOR_RULES.items():
        assert sorted(listed[kind]) == sorted(rules), kind
        params = inspect.signature(sources[kind]).parameters
        for key, default in listed[kind].items():
            want = DEFAULT_GENERATOR["grid"] if key == "grid" else params[key].default
            assert default == want, (kind, key)


def test_readme_fig4_example_validates():
    block = _readme().split("Example fig4 config", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    raw = json.loads(block)
    assert raw["experiment"] == "fig4"
    assert validate_config_dict(raw) == []


def test_every_benchmark_workload_config_validates(monkeypatch):
    """bench/workloads.py's configs, full size and smoke size, pass the config rules."""
    import importlib.util

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # import bench/ read-only
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        for smoke in (False, True):
            raw = workload(1, smoke=smoke).config
            assert validate_config_dict(raw) == [], (name, smoke)
