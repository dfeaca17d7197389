"""tools/outputs.py: seed lists, manifest timings dropped, compare's verdicts."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "outputs_tool", Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
)
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)


def test_parse_seeds():
    assert outputs.parse_seeds("1-5") == [1, 2, 3, 4, 5]
    assert outputs.parse_seeds("1,3,7-9") == [1, 3, 7, 8, 9]
    with pytest.raises(ValueError):
        outputs.parse_seeds("a")


def _manifest(seconds):
    stage = {"name": "mise", "outputs": ["curve.csv"], "seconds": seconds}
    return {"experiment": "mise", "stages": [stage]}


def test_manifest_digest_ignores_stage_seconds_only(tmp_path):
    maps = []
    manifests = [_manifest(0.5), _manifest(1.5), {**_manifest(0.5), "experiment": "x"}]
    for i, manifest in enumerate(manifests):
        run = tmp_path / str(i)
        (run / "sub").mkdir(parents=True)
        (run / "manifest.json").write_text(json.dumps(manifest))
        (run / "sub" / "a.csv").write_bytes(b"1,2\n")
        maps.append({"files": outputs._digests(run)})
    assert sorted(maps[0]["files"]) == ["manifest.json", "sub/a.csv"]
    assert outputs.compare(maps[0], maps[1]) == []
    assert outputs.compare(maps[0], maps[2]) == [("manifest.json", "digests differ")]


def test_compare_names_every_differing_file(tmp_path, capsys):
    a = {"files": {"fig2/1/x.csv": "0", "mise/1/curve.csv": "1", "mise/1/z.csv": "2"}}
    b = {"files": {"fig2/1/x.csv": "0", "mise/1/z.csv": "3", "mise/2/new.csv": "4"}}
    assert outputs.compare(a, a) == []
    assert outputs.compare(a, b, names=("A", "B")) == [
        ("mise/1/curve.csv", "missing from B"),
        ("mise/1/z.csv", "digests differ"),
        ("mise/2/new.csv", "missing from A"),
    ]
    paths = []
    for name, digests in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(json.dumps(digests))
    assert outputs.main(["compare", paths[0], paths[0]]) == 0
    assert capsys.readouterr().out == "3 files equal\n"
    assert outputs.main(["compare", *paths]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"mise/1/curve.csv (missing from {paths[1]})",
        "mise/1/z.csv (digests differ)",
        f"mise/2/new.csv (missing from {paths[0]})",
        "3 files differ",
    ]
