import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from persint.analyze import read_matrix
from persint.cli import _build_parser, main
from persint.field import read_field
from persint.intensity import read_intensity
from persint.persistence import read_diagram
from persint.synth import generate_population, read_cloud, write_cloud

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


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_synth_cli(tmp_path):
    out = tmp_path / "cloud.csv"
    assert main(["synth", "--pop", "circle", "--n", "30", "--seed", "3", "--out", str(out)]) == 0
    cloud = read_cloud(out)
    assert len(cloud) == 30
    out2 = tmp_path / "cloud2.csv"
    main(["synth", "--pop", "circle", "--n", "30", "--seed", "3", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("pop", ["circle", "uniform", "contaminated"])
@pytest.mark.parametrize("q", ["2", "-0.5", "nan"])
def test_synth_checks_q_for_every_population(tmp_path, capsys, pop, q):
    out = tmp_path / "cloud.csv"
    argv = ["synth", "--pop", pop, "--n", "5", "--q", q, "--out", str(out)]
    assert main(argv) == 3
    assert "q must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_global_seed_flag(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["--seed", "9", "synth", "--pop", "uniform", "--n", "10", "--out", str(a)]) == 0
    assert main(["synth", "--pop", "uniform", "--n", "10", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_flag_carries_over_to_the_next_call(tmp_path):
    """One parser serves every call, and a call's flags do not outlive it."""
    synth = ["synth", "--pop", "uniform", "--n", "10"]
    zero, plain = tmp_path / "zero.csv", tmp_path / "plain.csv"
    write_cloud(generate_population("uniform", 10, 0), zero)
    for seeded in (["--seed", "9", *synth], [*synth, "--seed", "9"]):
        assert main([*seeded, "--out", str(tmp_path / "seeded.csv")]) == 0
        assert main([*synth, "--out", str(plain)]) == 0
        assert plain.read_bytes() == zero.read_bytes() != (tmp_path / "seeded.csv").read_bytes()
    # A refused --out-dir leaves nothing behind for the next call either.
    assert main(["--out-dir", str(tmp_path / "runs"), *synth, "--out", str(plain)]) == 3
    assert main([*synth, "--out", str(plain)]) == 0
    assert plain.read_bytes() == zero.read_bytes()


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch):
    argv = ["synth", "--pop", "circle", "--n", "5", "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    assert _build_parser() is _build_parser()

    def refuse(*args, **kwargs):
        raise RuntimeError("a second parser was built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert main(argv) == 0


LEAVES = [
    ("synth",),
    ("field",),
    ("persist",),
    ("intensity",),
    ("intensity-avg",),
    ("analyze", "dist"),
    ("analyze", "mds"),
    ("analyze", "spectral"),
    ("infer", "test"),
    ("run", "fig2"),
    ("run", "fig4"),
    ("run", "mise"),
    ("validate",),
]


def _leaves(parser, path=()):
    """(path, parser) of every subcommand that takes no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, (*path, name))


def test_every_leaf_carries_its_handler():
    leaves = dict(_leaves(_build_parser()))
    assert sorted(leaves) == sorted(LEAVES)
    assert all(callable(p.get_default("handler")) for p in leaves.values())
    assert _build_parser().get_default("handler") is None


@pytest.mark.parametrize("path", LEAVES, ids=" ".join)
def test_every_leaf_prints_its_help(capsys, path):
    assert main([*path, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: persint {' '.join(path)} [-h]")


def test_stage_chain(tmp_path):
    cloud = tmp_path / "cloud.csv"
    fieldf = tmp_path / "field.csv"
    diagf = tmp_path / "diag.csv"
    intf = tmp_path / "intensity.csv"
    assert main(["synth", "--pop", "gauss3", "--n", "80", "--seed", "2", "--out", str(cloud)]) == 0
    assert (
        main(
            [
                "field",
                "--mode",
                "kde",
                "--h",
                "0.15",
                "--grid",
                "24",
                "24",
                "--in",
                str(cloud),
                "--out",
                str(fieldf),
            ]
        )
        == 0
    )
    fld = read_field(fieldf)
    assert fld.kind == "density" and fld.spec.nx == 24
    assert (
        main(
            [
                "persist",
                "--in",
                str(fieldf),
                "--direction",
                "super",
                "--maxdim",
                "1",
                "--out",
                str(diagf),
            ]
        )
        == 0
    )
    diag = read_diagram(diagf)
    assert len(diag) > 0
    assert (
        main(
            [
                "intensity",
                "--in",
                str(diagf),
                "--tau",
                "0.1",
                "--grid",
                "20",
                "20",
                "--out",
                str(intf),
            ]
        )
        == 0
    )
    grid = read_intensity(intf)
    assert grid.tau == 0.1
    assert grid.values.shape == (20, 20)


def test_field_dist_mode(tmp_path):
    cloud = tmp_path / "cloud.csv"
    fieldf = tmp_path / "dist.csv"
    main(["synth", "--pop", "uniform", "--n", "20", "--seed", "1", "--out", str(cloud)])
    rc = main(
        [
            "field",
            "--mode",
            "dist",
            "--bounds",
            "-1.2",
            "1.2",
            "-1.2",
            "1.2",
            "--grid",
            "16",
            "16",
            "--in",
            str(cloud),
            "--out",
            str(fieldf),
        ]
    )
    assert rc == 0
    assert read_field(fieldf).kind == "distance"
    # dist mode without bounds is a runtime error (exit 3)
    assert (
        main(["field", "--mode", "dist", "--in", str(cloud), "--out", str(fieldf)]) == 3
    )


def test_intensity_avg_alias(tmp_path):
    diagf = tmp_path / "diag.csv"
    diagf.write_text("dim,birth,death\n0,0.2,0.6\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    avg = tmp_path / "avg.csv"
    common = ["--tau", "0.1", "--grid", "8", "8", "--bounds", "0", "1", "0", "1"]
    main(["intensity", "--in", str(diagf), *common, "--out", str(a)])
    main(["intensity", "--in", str(diagf), *common, "--out", str(b)])
    assert main(["intensity-avg", "--in", str(a), str(b), "--out", str(avg)]) == 0
    ga, gavg = read_intensity(a), read_intensity(avg)
    assert np.array_equal(ga.values, gavg.values)


def test_analyze_chain(tmp_path):
    # build three intensity files from tiny diagrams
    paths = []
    for i, (b, d) in enumerate([(0.2, 0.6), (0.25, 0.65), (0.6, 1.2)]):
        diagf = tmp_path / f"d{i}.csv"
        diagf.write_text(f"dim,birth,death\n0,{b},{d}\n")
        intf = tmp_path / f"i{i}.csv"
        main(
            [
                "intensity",
                "--in",
                str(diagf),
                "--tau",
                "0.1",
                "--grid",
                "16",
                "16",
                "--bounds",
                "0",
                "1.5",
                "0",
                "1.5",
                "--out",
                str(intf),
            ]
        )
        paths.append(str(intf))
    delta = tmp_path / "delta.csv"
    assert main(["analyze", "dist", "--in", *paths, "--out", str(delta)]) == 0
    m = read_matrix(delta)
    assert m.shape == (3, 3)
    assert m[0, 1] < m[0, 2]  # similar diagrams are closer
    coords = tmp_path / "coords.csv"
    assert main(["analyze", "mds", "--in", str(delta), "--k", "2", "--out", str(coords)]) == 0
    assert coords.read_text().splitlines()[0] == "id,c1,c2"
    labels = tmp_path / "labels.csv"
    rc = main(
        [
            "analyze",
            "spectral",
            "--in",
            str(delta),
            "--scale",
            "1.0",
            "--k",
            "2",
            "--kmeans",
            "2",
            "--seed",
            "4",
            "--out",
            str(labels),
        ]
    )
    assert rc == 0
    lines = labels.read_text().splitlines()
    assert lines[0] == "id,c1,c2,label"
    lab = [l.split(",")[-1] for l in lines[1:]]
    assert lab[0] == lab[1] != lab[2]


def test_infer_test_cli(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    diagf = tmp_path / "d.csv"
    for k, (target, shift) in enumerate([(dir_a, 0.0), (dir_b, 0.3)]):
        for i in range(3):
            b = 0.2 + 0.01 * i + shift
            diagf.write_text(f"dim,birth,death\n0,{b},{b + 0.4}\n")
            main(
                [
                    "intensity",
                    "--in",
                    str(diagf),
                    "--tau",
                    "0.08",
                    "--grid",
                    "12",
                    "12",
                    "--bounds",
                    "0",
                    "1.2",
                    "0",
                    "1.2",
                    "--out",
                    str(target / f"i{i}.csv"),
                ]
            )
    out = tmp_path / "result.json"
    rc = main(
        ["infer", "test", "--a", str(dir_a), "--b", str(dir_b), "--perms", "49", "--seed", "3", "--json", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data) == {"T1", "p", "B", "seed", "n1", "n2"}
    assert data["B"] == 49 and data["n1"] == 3 and data["n2"] == 3
    assert 0 < data["p"] <= 1


def test_intensity_rejects_an_infinite_tau(tmp_path, capsys):
    """tau is checked before a default grid is padded by it, and with --bounds."""
    diagf = tmp_path / "diag.csv"
    diagf.write_text("dim,birth,death\n0,0.2,0.6\n")
    out = tmp_path / "i.csv"
    for tau in ("inf", "nan", "0"):
        for bounds in ([], ["--bounds", "0", "1", "0", "1"]):
            argv = ["intensity", "--in", str(diagf), "--tau", tau, *bounds, "--out", str(out)]
            assert main(argv) == 3
            assert capsys.readouterr().err == f"error: tau must be finite and > 0, got {float(tau)}\n"
            assert not out.exists()


def test_intensity_avg_mismatch_exit_code(tmp_path):
    diagf = tmp_path / "diag.csv"
    diagf.write_text("dim,birth,death\n0,0.2,0.6\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["intensity", "--in", str(diagf), "--tau", "0.1", "--grid", "8", "8",
          "--bounds", "0", "1", "0", "1", "--out", str(a)])
    main(["intensity", "--in", str(diagf), "--tau", "0.2", "--grid", "8", "8",
          "--bounds", "0", "1", "0", "1", "--out", str(b)])
    assert main(["intensity-avg", "--in", str(a), str(b), "--out", str(tmp_path / "avg.csv")]) == 3


POWER_TINY = {
    "experiment": "fig4",
    "seed": 3,
    "n": 40,
    "N": 3,
    "h": 0.15,
    "tau": 0.05,
    "q_values": [0.0, 0.5],
    "B": 9,
    "trials": 2,
    "field_grid": [16, 16],
    "intensity_grid": [16, 16],
}
MISE_TINY = {
    "experiment": "mise",
    "seed": 4,
    "N_values": [2, 4],
    "tau_scale": 0.15,
    "reps": 1,
    "N_ref": 12,
    "generator": {"kind": "synthetic"},
}


def test_run_power_and_mise_cli(tmp_path, capsys):
    out = tmp_path / "power"
    cfg = _write_config(tmp_path, POWER_TINY, name="power.json")
    assert main(["--out-dir", str(out), "run", "fig4", "--config", str(cfg)]) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "q,rate_0.05,rate_0.01"
    assert len(lines) == 3

    out = tmp_path / "mise"
    cfg = _write_config(tmp_path, MISE_TINY, name="mise.json")
    assert main(["--out-dir", str(out), "run", "mise", "--config", str(cfg)]) == 0
    assert (out / "curve.csv").read_text().splitlines()[0] == "N,tau,mise"
    assert "loglog_slope: " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["power", "mise"])
def test_infer_runs_no_config_sweep(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, MISE_TINY)
    assert main(["infer", command, "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_global_seed_reaches_run(tmp_path):
    run_dir = tmp_path / "flag"
    cfg = _write_config(tmp_path, MISE_TINY)
    assert main(["--seed", "7", "--out-dir", str(run_dir), "run", "mise", "--config", str(cfg)]) == 0
    assert json.loads((run_dir / "manifest.json").read_text())["master_seed"] == 7
    seeded_dir = tmp_path / "config"
    seeded = _write_config(tmp_path, dict(MISE_TINY, seed=7), name="seeded.json")
    assert main(["--out-dir", str(seeded_dir), "run", "mise", "--config", str(seeded)]) == 0
    assert (run_dir / "curve.csv").read_bytes() == (seeded_dir / "curve.csv").read_bytes()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "seed: must be a 64-bit unsigned integer, got -1"),
    ],
)
def test_global_flags_are_checked_by_the_config_rules(tmp_path, capsys, flags, message):
    cfg = _write_config(tmp_path, POWER_TINY)
    out = tmp_path / "out"
    assert main([*flags, "--out-dir", str(out), "run", "fig4", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_threads_is_no_flag(tmp_path, capsys):
    cfg = _write_config(tmp_path, POWER_TINY)
    out = tmp_path / "out"
    assert main(["--threads", "2", "--out-dir", str(out), "run", "fig4", "--config", str(cfg)]) == 2
    assert "invalid choice: '2'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--skip-trivial", "--dhalf-rescale", "--row-normalize"])
def test_spectral_embedding_has_no_variant_flags(tmp_path, capsys, flag):
    out = tmp_path / "labels.csv"
    argv = ["analyze", "spectral", "--in", str(tmp_path / "delta.csv"), "--scale", "1", "--k", "1"]
    assert main([*argv, flag, "--out", str(out)]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["synth", "--pop", "circle", "--n", "50", "--out", "nodir/c.csv"],
            "[Errno 2] No such file or directory: 'nodir/c.csv'",
        ),
        (
            ["--out-dir", "a-file", "run", "fig4", "--config", "p.json"],
            "[Errno 17] File exists: 'a-file'",
        ),
        (
            ["field", "--mode", "kde", "--h", "0.1", "--in", "missing.csv", "--out", "f.csv"],
            "[Errno 2] No such file or directory: 'missing.csv'",
        ),
    ],
)
def test_a_missing_path_is_an_error_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-file").write_text("")
    _write_config(tmp_path, POWER_TINY, name="p.json")
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_readme_global_flags_match_the_parser():
    """The flags of README's "Global flags:" sentence are the root parser's options."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = readme.split("Global flags:", 1)[1].split(".\n", 1)[0]
    listed = set(re.findall(r"`(--[a-z-]+)`", sentence))
    options = {s for a in _build_parser()._actions for s in a.option_strings}
    assert listed == options - {"-h", "--help", "--version"}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["run", "fig2"], POWER_TINY),
        (["run", "mise"], FIG2_TINY),
        (["run", "fig4"], MISE_TINY),
        (["run", "mise"], POWER_TINY),
    ],
)
def test_config_of_another_experiment_is_a_config_error(tmp_path, capsys, argv, payload):
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), *argv, "--config", str(cfg)]) == 2
    want, got = argv[1], payload["experiment"]
    assert capsys.readouterr().err == f"error: experiment: must be {want!r}, got {got!r}\n"
    assert not out.exists()


def test_readme_command_lines_parse():
    """Every command in README's Command-line block is one the parser accepts."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("persint ")]
    assert len(lines) >= 10
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_validate_cli(tmp_path, capsys):
    good = _write_config(
        tmp_path,
        {
            "experiment": "fig4",
            "n": 500,
            "N": 50,
            "h": 0.1,
            "tau": 0.025,
            "q_values": [0.0, 0.02, 0.04, 0.06, 0.08, 0.1],
            "B": 1000,
            "trials": 50,
        },
    )
    assert main(["validate", str(good)]) == 0
    bad = _write_config(tmp_path, {"experiment": "fig4", "tau": 0}, name="bad.json")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "tau" in err
    # A mean pair count whose exp(-mean) is 0.0 fails validation, before any draw.
    endless = {"experiment": "mise", "N_values": [2], "tau_scale": 0.1, "reps": 1,
               "generator": {"kind": "synthetic", "mean_pairs": 1000}}
    assert main(["validate", str(_write_config(tmp_path, endless, name="endless.json"))]) == 2
    assert "generator.mean_pairs: must be a float in (0, 700]" in capsys.readouterr().err


def test_run_fig2_cli_and_exit_codes(tmp_path):
    cfg = _write_config(tmp_path, FIG2_TINY)
    out_dir = tmp_path / "out"
    rc = main(["--out-dir", str(out_dir), "run", "fig2", "--config", str(cfg)])
    assert rc == 0
    assert (out_dir / "coords.csv").exists()
    # config errors exit 2
    bad = _write_config(tmp_path, {"experiment": "fig2", "tau": 0}, name="bad.json")
    assert main(["run", "fig2", "--config", str(bad)]) == 2
    # runtime errors exit 3 (malformed CSV into a stage)
    junk = tmp_path / "junk.csv"
    junk.write_text("not,a,field\n")
    assert main(["persist", "--in", str(junk), "--out", str(tmp_path / "d.csv")]) == 3
    # argparse usage errors exit 2
    assert main(["synth", "--pop", "unknown-pop", "--n", "3", "--out", "x.csv"]) == 2


@pytest.mark.parametrize(
    "command, text, line",
    [
        (["field", "--mode", "kde", "--h", "0.3"], "x,y\n0.0,0.0\nnan,1.0\n", 3),
        (["persist"], "kind,x_lo,x_hi,y_lo,y_hi,nx,ny\ndensity,0,1,0,1,2,2\n0,1\n1,nan\n", 4),
        (["analyze", "mds", "--k", "1"], "0.0,1.0\n1.0,nan\n", 2),
    ],
)
def test_cli_names_file_and_line_of_a_nan(tmp_path, capsys, command, text, line):
    src = tmp_path / "in.csv"
    src.write_text(text)
    assert main([*command, "--in", str(src), "--out", str(tmp_path / "out.csv")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {src}:{line}: values must be finite")


def test_stage_reload_equivalence(tmp_path):
    """Re-running downstream stages from saved intermediates reproduces the
    end-to-end artifacts byte for byte."""
    from persint.config import config_from_dict
    from persint.pipelines import run_fig2

    cfg = config_from_dict(FIG2_TINY)
    out = tmp_path / "e2e"
    run_fig2(cfg, out_dir=out)

    # persistence stage from the saved field
    fieldf = out / "fields" / "circle_000.csv"
    rediag = tmp_path / "re_diag.csv"
    assert (
        main(["persist", "--in", str(fieldf), "--direction", "super", "--maxdim", "1", "--out", str(rediag)])
        == 0
    )
    assert rediag.read_bytes() == (out / "diagrams" / "circle_000.csv").read_bytes()

    # intensity stage from the saved diagram, on the recorded shared grid
    ref = read_intensity(out / "intensities" / "circle_000.csv")
    s = ref.spec
    reint = tmp_path / "re_int.csv"
    rc = main(
        [
            "intensity",
            "--in",
            str(out / "diagrams" / "circle_000.csv"),
            "--tau",
            repr(ref.tau),
            "--grid",
            str(s.nx),
            str(s.ny),
            "--bounds",
            repr(s.x_lo),
            repr(s.x_hi),
            repr(s.y_lo),
            repr(s.y_hi),
            "--out",
            str(reint),
        ]
    )
    assert rc == 0
    assert reint.read_bytes() == (out / "intensities" / "circle_000.csv").read_bytes()

    # distance stage from all saved intensities
    files = [
        str(out / "intensities" / f"{pop}_{i:03d}.csv")
        for pop in ("circle", "three-circles", "gauss3")
        for i in range(2)
    ]
    redelta = tmp_path / "re_delta.csv"
    assert main(["analyze", "dist", "--in", *files, "--out", str(redelta)]) == 0
    assert redelta.read_bytes() == (out / "delta.csv").read_bytes()

    # MDS stage from the saved distance matrix (coords match, labels aside)
    recoords = tmp_path / "re_coords.csv"
    assert main(["analyze", "mds", "--in", str(out / "delta.csv"), "--k", "2", "--out", str(recoords)]) == 0
    got = recoords.read_text().splitlines()[1:]
    want = [l.rsplit(",", 1)[0] for l in (out / "coords.csv").read_text().splitlines()[1:]]
    assert got == want


_BOUNDS = [[], ["--bounds", "-2", "2", "-2", "2"]]


@pytest.fixture
def cloud_csv(tmp_path):
    path = tmp_path / "cloud.csv"
    write_cloud(generate_population("circle", 20, 0), path)
    return path


@pytest.mark.parametrize("bounds", _BOUNDS, ids=["derived", "given"])
@pytest.mark.parametrize("h", ["inf", "nan", "0"])
def test_field_rejects_a_bandwidth_that_is_not_finite_and_positive(
    tmp_path, capsys, cloud_csv, h, bounds
):
    out = tmp_path / "field.csv"
    argv = ["field", "--mode", "kde", "--h", h, "--grid", "8", "8", *bounds]
    assert main([*argv, "--in", str(cloud_csv), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: h must be finite and > 0, got {float(h)}\n"
    assert not out.exists()


@pytest.mark.parametrize("scale", ["inf", "nan", "0"])
def test_spectral_rejects_a_scale_that_is_not_finite_and_positive(tmp_path, capsys, scale):
    delta = tmp_path / "delta.csv"
    delta.write_text("0.0,1.0,2.0\n1.0,0.0,1.0\n2.0,1.0,0.0\n")
    out = tmp_path / "labels.csv"
    argv = ["analyze", "spectral", "--in", str(delta), "--scale", scale, "--k", "1"]
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: scale must be finite and > 0, got {float(scale)}\n"
    assert not out.exists()


@pytest.mark.parametrize("bounds", _BOUNDS, ids=["missing", "given"])
def test_field_dist_rejects_a_bandwidth(tmp_path, capsys, cloud_csv, bounds):
    """Every flag has an effect: --mode dist reads no --h, so one is an error."""
    out = tmp_path / "field.csv"
    argv = ["field", "--mode", "dist", "--h", "0.1", "--grid", "8", "8", *bounds]
    assert main([*argv, "--in", str(cloud_csv), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: --h is not read by --mode dist\n"
    assert not out.exists()


@pytest.fixture
def field_csv(tmp_path, cloud_csv):
    out = tmp_path / "field.csv"
    assert main(["field", "--mode", "kde", "--h", "0.3", "--grid", "8", "8",
                 "--in", str(cloud_csv), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "5"], "--seed is not read by persist"),
        (["--out-dir", "od"], "--out-dir is not read by persist"),
        (["--seed", "0"], "--seed is not read by persist"),
    ],
)
def test_a_global_flag_the_command_does_not_read_is_an_error(
    tmp_path, capsys, field_csv, flags, message
):
    """Every flag has an effect: --out-dir is read only by run, the global
    --seed only by run, synth, analyze spectral --kmeans and infer test."""
    out = tmp_path / "diagram.csv"
    assert main([*flags, "persist", "--in", str(field_csv), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert not (tmp_path / "od").exists()


@pytest.mark.parametrize(
    "flags, own, message",
    [
        (["--out-dir", "od", "--seed", "5"], ["--seed", "2"], "--seed is given twice"),
        (["--seed", "5"], ["--seed", "2"], "--seed is given twice"),
        (["--out-dir", "od"], [], "--out-dir is not read by synth"),
    ],
)
def test_synth_refuses_an_out_dir_and_a_second_seed(tmp_path, capsys, monkeypatch, flags, own, message):
    monkeypatch.chdir(tmp_path)
    assert main([*flags, "synth", "--pop", "circle", "--n", "5", *own, "--out", "a.csv"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "a.csv").exists()
    assert not (tmp_path / "od").exists()


@pytest.mark.parametrize("where", ["global", "own"])
def test_spectral_reads_a_seed_only_with_kmeans(tmp_path, capsys, where):
    delta = tmp_path / "delta.csv"
    delta.write_text("0.0,1.0,2.0\n1.0,0.0,1.0\n2.0,1.0,0.0\n")
    out = tmp_path / "labels.csv"
    seed = ["--seed", "3"]
    argv = ["analyze", "spectral", "--in", str(delta), "--scale", "2", "--k", "1", "--out", str(out)]
    argv = [*seed, *argv] if where == "global" else [*argv, *seed]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: --seed is not read by analyze spectral without --kmeans\n"
    )
    assert not out.exists()
    assert main([*argv, "--kmeans", "2"]) == 0
    assert out.exists()
