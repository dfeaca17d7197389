"""tools/layers.py: two trees load as separate module sets, and every layer runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "layers.py"
LAYERS = ["persistence.maxdim0", "persistence.maxdim1", "field.kde", "intensity.smooth",
          "intensity.mean"]


def _run(args):
    run = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_two_trees_load_as_separate_module_sets(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "persint" / "field.py", "a", encoding="utf-8") as f:
        f.write("\nMARK = 1\n")
    script = f"""
import runpy, sys
from pathlib import Path
sys.dont_write_bytecode = True
load = runpy.run_path({str(TOOL)!r})["load_persint"]
a, b = load(Path({str(ROOT)!r})), load(Path({str(tmp_path)!r}))
print(hasattr(a.field, "MARK"), hasattr(b.field, "MARK"), a.field is b.field,
      a.intensity.smoothed_sum.__globals__["_gaussian_rows"] is a.field._gaussian_rows,
      b.intensity.smoothed_sum.__globals__["_gaussian_rows"] is b.field._gaussian_rows,
      not any(m.split(".")[0] == "persint" for m in sys.modules))
"""
    assert _run(["-c", script]).split() == ["False", "True", "False", "True", "True", "True"]


def test_every_layer_runs_against_a_second_tree():
    out = _run([str(TOOL), "--sides", "8", "--fields", "1", "--repeats", "2",
                "--against", str(ROOT)])
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["layer"] for row in rows] == LAYERS
    for row in rows:
        assert row["side"] == 8 and row["repeats"] == 2
        assert row["src"]["min_ms"] > 0 and row["against"]["min_ms"] > 0
        assert row["ratio_median"] > 0 and 0 <= row["src_faster"] <= 2
