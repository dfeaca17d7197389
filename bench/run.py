"""persint benchmark: one workload, one seed, timed for a fixed number of seconds.

    python3 bench/run.py --workload fig2|fig4|mise|stages --seed N --seconds S --trace 0|1

Run it from the repository root; it imports persint from ``src/``. One
process runs one workload: it repeats the workload on the inputs of
``--seed`` until ``--seconds`` have passed (an iteration is not started
when it would end more than half an iteration late), checks every
iteration's outputs (see ``workloads.py``), and prints two lines: a
``record`` JSON object with per-iteration times, output checks, host steal
time and versions, then the result as the last line of standard output::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

``attempted`` counts iterations and ``failed`` those whose output check
failed, so the failed fraction is failed / attempted.

With ``--trace 0`` the metrics are end to end, as medians over the
iterations: ``run_s`` (wall seconds per iteration), ``items_per_s``,
``cpu_s`` (user + sys of this process and its children), ``peak_rss_mb``
(of this process) and ``setup_s``, the median over fresh interpreters of
starting Python, importing persint and validating the workload's config.
With ``--trace 1`` iterations alternate untraced and traced; the traced
ones give the per-layer metrics (see ``spans.py``), and
``trace.overhead_frac`` is the traced median wall time over the untraced
one, minus 1.

BLAS and OpenMP pools are pinned to one thread, so each run uses one core.
Scratch outputs go to ``bench/_work`` and are removed after each iteration.
``--smoke`` runs each workload at a reduced size, without the statistical
acceptance checks; ``python3 bench/smoke.py`` runs it for every workload.
``--record-digests`` stores this run's output digests in ``digests.json``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 7
# The wrapped calls of a traced fig2 stage must cover the manifest's
# seconds for that stage to within the tracing overhead (at least 2%, as
# one traced and one untraced iteration measure it noisily) plus 25 ms for
# the recipe's own glue between calls: directories, paths, bookkeeping
# (about 6 ms in the synth stage at the C06 config on a 2-vCPU host).
STAGE_TOLERANCE_FLOOR = 0.02
STAGE_GLUE_S = 0.025


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, no statistical checks")
    p.add_argument("--record-digests", action="store_true")
    return p.parse_args(argv)


def read_steal():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    values = [int(v) for v in fields[1:]]
    return values[7], sum(values[:8])


def steal_delta(start, end):
    return None if start is None or end is None else end[0] - start[0]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "persint").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def platform_fingerprint(np):
    """Platform traits the float outputs may depend on, for the recorded digests."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    features = ",".join(sorted(k for k, v in __cpu_features__.items() if v))
    simd = hashlib.sha256(features.encode()).hexdigest()[:12]
    return f"python-{platform.python_version()}-numpy-{np.__version__}-{platform.machine()}-{simd}"


def cpu_seconds():
    """User + sys CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def measure_setup(config):
    """Seconds from a fresh interpreter to persint imported and the config validated."""
    code = (
        "import json, persint, persint.cli\n"
        "from persint.config import config_from_dict\n"
        f"config_from_dict(json.loads({json.dumps(config)!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def per_layer_metrics(names, summaries, overhead):
    """Per-layer metrics from the summaries of the traced iterations."""
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = overhead
        elif name.endswith(".us_per_cell"):
            layer = name.removesuffix(".us_per_cell")
            values = [
                s[f"{layer}.busy_s"] / s[f"{layer}.cells"] * 1e6 if s.get(f"{layer}.cells") else 0.0
                for s in summaries
            ]
            out[name] = statistics.median(values)
        else:
            out[name] = statistics.median(s.get(name, 0.0) for s in summaries)
    return out


def run_iteration(workload, out, traced):
    """Run and check the workload once into ``out``.

    Returns the iteration's record, the digests of its outputs (None if it
    raised) and the tracer that recorded its spans when ``traced``.
    """
    from spans import Tracer
    from workloads import tree_digest

    tracer = Tracer()
    out.mkdir()
    problems, digests, stage_check = [], None, None
    steal0, c0, t0 = read_steal(), cpu_seconds(), time.perf_counter()
    try:
        with tracer.installed() if traced else nullcontext():
            result = workload.run(out)
        t1, c1 = time.perf_counter(), cpu_seconds()
        problems += workload.check(out, result)
        digests = {d: tree_digest(out, d) for d in workload.digest_dirs}
        if traced and workload.stage_of_site:
            spans = tracer.stage_seconds(workload.stage_of_site)
            stage_check = {s["name"]: (s["seconds"], spans.get(s["name"], 0.0))
                           for s in result.stages}
    except Exception as exc:  # noqa: BLE001 - a failed iteration is counted, not fatal
        t1, c1 = time.perf_counter(), cpu_seconds()
        traceback.print_exc()
        problems.append(f"{type(exc).__name__}: {exc}")
    steal = steal_delta(steal0, read_steal())
    shutil.rmtree(out)
    record = {
        "traced": traced,
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "steal_jiffies": steal,
        "problems": problems,
        "stage_check": stage_check,
    }
    return record, digests, tracer


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "persint" / "__init__.py").is_file():
        print(f"error: persint sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    fingerprint = platform_fingerprint(np)
    recorded_all = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded = None
    if not args.smoke:
        recorded = recorded_all.get(fingerprint, {}).get(args.workload, {}).get(str(args.seed))
    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    try:
        setup = [] if args.trace else [measure_setup(workload.config) for _ in range(SETUP_REPEATS)]
        # Warm-up at reduced size: imports, lazily built objects and caches.
        warm = WORKLOADS[args.workload](args.seed, smoke=True)
        warm.run(work / "warm")
        shutil.rmtree(work / "warm")

        steal_start = read_steal()
        iterations, summaries, first_digests, first_counts = [], [], None, None
        started = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 1
            it, digests, tracer = run_iteration(workload, work / f"iter{len(iterations)}", traced)
            if digests is not None:
                first_digests = first_digests or digests
                if digests != first_digests:
                    it["problems"].append("outputs differ from the run's first iteration")
                if recorded is not None and digests != recorded:
                    it["problems"].append("outputs differ from the digests recorded for this seed")
            if traced and not it["problems"]:
                summary = tracer.summarize()
                counts = {k: v for k, v in summary.items() if not k.endswith("_s")}
                first_counts = first_counts or counts
                if counts != first_counts:
                    it["problems"].append("trace counts differ from the first traced iteration")
                summaries.append(summary)
            iterations.append(it)
            elapsed = time.perf_counter() - started
            need_traced = bool(args.trace) and not summaries and not it["problems"]
            if elapsed + it["wall_s"] / 2 >= args.seconds and not need_traced:
                break
        steal_end = read_steal()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    plain = [i for i in iterations if not i["traced"]]
    walls = [i["wall_s"] for i in plain]
    overhead = None
    if args.trace and summaries:
        traced_wall = statistics.median(i["wall_s"] for i in iterations if i["traced"])
        overhead = traced_wall / statistics.median(walls) - 1.0
        tolerance = max(overhead, STAGE_TOLERANCE_FLOOR)
        for it in iterations:
            for stage, (manifest_s, span_s) in (it["stage_check"] or {}).items():
                if abs(manifest_s - span_s) > tolerance * manifest_s + STAGE_GLUE_S:
                    it["problems"].append(
                        f"traced stage {stage}: spans {span_s:.4f}s vs manifest {manifest_s:.4f}s")
    failed = sum(1 for i in iterations if i["problems"])

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer_metrics(names, summaries, overhead) if summaries else {}
    else:
        values = {
            "run_s": statistics.median(walls),
            "items_per_s": statistics.median(workload.items / w for w in walls),
            "cpu_s": statistics.median(i["cpu_s"] for i in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    steal = None
    if steal_start and steal_end:
        d_steal, d_total = (e - s for s, e in zip(steal_start, steal_end))
        steal = {"jiffies": d_steal, "share": d_steal / d_total if d_total else 0.0}
    digests_now = first_digests or {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "items": workload.items,
        "iterations": iterations,
        "failed_frac": failed / len(iterations),
        "setup_samples_s": setup,
        "digests": digests_now,
        "digest_check": (
            "against the digests recorded for this seed and platform" if recorded is not None
            else "between iterations only: no digest recorded for this seed and platform"
        ),
        "steal": steal,
        "env": {
            "git_sha": git_sha(),
            "src_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "platform": fingerprint,
        },
    }
    if args.record_digests and digests_now and not failed and not args.smoke:
        recorded_all.setdefault(fingerprint, {}).setdefault(args.workload, {})[
            str(args.seed)] = digests_now
        DIGESTS.write_text(json.dumps(recorded_all, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
