"""Steadiness proof and baseline of the benchmark.

    python3 bench/prove.py [--workloads fig2,fig4] [--seeds 1-10] [--sets 2] [--traced 1]
                           [--write-baseline]

Runs ``bench/run.py`` untraced once per workload and seed, seed by seed
across the workloads (seed 1: every workload, then seed 2, ...), for each
of ``--sets`` sets, at the ``run_seconds`` of BENCHMARK.json. For every
end-to-end metric it prints, per set, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread
(q3 - q1) / median against a third of the metric's bound, and the ratio of
each set's median to the first set's. ``--traced 1`` adds traced runs
(the first seed twice, then the second) and checks that every count metric
repeats between the two runs of the first seed.

``--write-baseline`` stores everything in ``bench/baseline.json``. Exits 1
if a run fails its output checks, a spread other than setup_s passes its
bound, a set's median is worse than the first set's by more than the bound,
or a traced count differs.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COUNT_UNITS = ("count", "B")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def worse_by(metric, first, later):
    """Share by which ``later`` is worse than ``first`` for this metric."""
    return (later - first) / first if metric["better"] == "lower" else (first - later) / first


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    errors = []
    results = {w: {"end_to_end": {m["name"]: {"unit": m["unit"]} for m in spec["end_to_end"]}}
               for w in workloads}
    env = None
    started = time.time()

    for set_index in range(args.sets):
        values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
        for seed in seeds:
            for w in workloads:
                record, result = run(w, seed, seconds, 0)
                env = record["env"]
                if not result["correct"] or result["failed"]:
                    errors.append(f"{w} seed {seed}: output check failed")
                for name, metric in result["metrics"].items():
                    values[w][name].append(metric["value"])
                print(f"set {set_index} seed {seed} {w}: attempted {result['attempted']} "
                      f"run_s {result['metrics']['run_s']['value']:.4f} "
                      f"steal {record['steal']} [{time.time() - started:.0f}s]", flush=True)
        for w in workloads:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                summary = summarize(values[w][name])
                results[w]["end_to_end"][name][f"set_{set_index}"] = summary
                first = results[w]["end_to_end"][name]["set_0"]["median"]
                drift = worse_by(metric, first, summary["median"])
                print(f"set {set_index} {w:7s} {name:12s} median {summary['median']:.5g} "
                      f"spread {summary['spread']:.3f} (bound {metric['bound']}, target "
                      f"{metric['bound'] / 3:.3f}) worse than set 0 by {drift:+.3f}")
                if name != "setup_s" and summary["spread"] > metric["bound"]:
                    errors.append(f"{w} {name}: spread {summary['spread']:.3f} in set {set_index}")
                if drift > metric["bound"]:
                    errors.append(f"{w} {name}: set {set_index} median worse by {drift:.3f}")

    traced_seeds = [seeds[0], seeds[0]] + seeds[1:2]
    if args.traced:
        for w in workloads:
            runs = [run(w, seed, seconds, 1)[1] for seed in traced_seeds]
            if not all(r["correct"] for r in runs):
                errors.append(f"{w}: traced output check failed")
            results[w]["per_layer"] = {
                name: {"unit": metric["unit"], "runs": [r["metrics"][name]["value"] for r in runs]}
                for name, metric in runs[0]["metrics"].items()
            }
            counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
                      for r in runs[:2]]
            if counts[0] != counts[1]:
                errors.append(f"{w}: traced counts differ between two runs of seed {seeds[0]}")
            print(f"traced {w}: {len(runs)} runs, counts repeat: {counts[0] == counts[1]}",
                  flush=True)

    if args.write_baseline:
        baseline = {
            "measured": f"{platform.machine()} host, nproc {env['nproc']}, one core per run",
            "protocol": (
                f"end_to_end: {args.sets} sets of untraced runs, seeds {args.seeds}, "
                f"--seconds {seconds}, seed by seed across the workloads; per set the median, "
                "quartiles and quartile spread (q3 - q1) / median of the run values. "
                f"per_layer: traced runs at --seconds {seconds}, values in run order, "
                f"seeds {traced_seeds}."
            ),
            "command": "python3 bench/prove.py " + " ".join(argv or sys.argv[1:]),
            "workloads": results,
            "env": env,
        }
        (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("prove: ok" if not errors else f"prove: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
