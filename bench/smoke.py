"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json once at reduced size (``--smoke``)
untraced and twice traced, prints every metric by name with its unit, and
fails (exit 1) unless each result line has exactly the contract's keys,
reports every end-to-end or per-layer metric, passes its output checks, and
repeats each count metric exactly between the two traced runs.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "B")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, 0), run(workload, 1), run(workload, 1)]
        for result, group in zip(results, ("end_to_end", "per_layer", "per_layer")):
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload}: output check failed ({group})")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{workload}: {group} metrics differ: {sorted(set(got) ^ set(want))}")
            for name, metric in result["metrics"].items():
                print(f"{workload:7s} {name:36s} {metric['value']!r} {metric['unit']}")
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
            for r in results[1:]
        ]
        if counts[0] != counts[1]:
            errors.append(f"{workload}: traced counts differ between runs")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
