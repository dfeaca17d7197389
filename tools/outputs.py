"""Byte-equality of the benchmark's outputs between two source trees.

    python3 tools/outputs.py digest TREE --seeds 1-5 --out map.json
    python3 tools/outputs.py compare A.json B.json

``digest`` imports TREE's ``bench/workloads.py`` and TREE's ``src/``
(writing no bytecode there), runs every workload's ``run`` and ``check``
at full size for each seed into a temporary directory, and records the
SHA-256 of every output file, keyed ``workload/seed/path``. A manifest is
hashed without its stages' ``seconds``, the one output that is a timing.
BLAS runs in one thread, as in ``bench/run.py``. A failed output check is
an error (exit 1).

``compare`` prints the number of files when both maps hold the same files
with the same digests; otherwise it names every differing file in sorted
order, each with "missing from MAP" or "digests differ", and exits 1.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path


def parse_seeds(text):
    """Seeds from a list like ``1-5`` or ``1,3,7-9``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _manifest_bytes(path):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for stage in manifest["stages"]:
        del stage["seconds"]
    return json.dumps(manifest, sort_keys=True).encode()


def _digests(run_dir):
    out = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(run_dir).as_posix()
        data = _manifest_bytes(path) if path.name == "manifest.json" else path.read_bytes()
        out[rel] = hashlib.sha256(data).hexdigest()
    return out


def digest(tree, seeds):
    """Digest map of every output file of every workload and seed, run from ``tree``."""
    tree = Path(tree).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from workloads import WORKLOADS

    files = {}
    with tempfile.TemporaryDirectory(prefix="persint-outputs-") as tmp:
        for name in sorted(WORKLOADS):
            for seed in seeds:
                workload = WORKLOADS[name](seed)
                run_dir = Path(tmp) / f"{name}-{seed}"
                run_dir.mkdir()
                problems = workload.check(run_dir, workload.run(run_dir))
                if problems:
                    raise SystemExit(f"{name} seed {seed} failed its check: {problems}")
                for rel, sha in _digests(run_dir).items():
                    files[f"{name}/{seed}/{rel}"] = sha
    return {"tree": str(tree), "seeds": seeds, "files": files}


def compare(a, b, names=("a", "b")):
    """Each differing file of two maps in sorted order, with why it differs;
    empty when the maps are equal. ``names`` name the maps in the reasons."""
    fa, fb = a["files"], b["files"]
    out = []
    for key in sorted(fa.keys() | fb.keys()):
        if key not in fa:
            out.append((key, f"missing from {names[0]}"))
        elif key not in fb:
            out.append((key, f"missing from {names[1]}"))
        elif fa[key] != fb[key]:
            out.append((key, "digests differ"))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    d = sub.add_parser("digest", help="digest every output file of a tree's workloads")
    d.add_argument("tree")
    d.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"))
    d.add_argument("--out", required=True)
    c = sub.add_parser("compare", help="compare two digest maps")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)

    if args.command == "digest":
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"  # before the tree's modules import numpy
        result = digest(args.tree, args.seeds)
        text = json.dumps(result, indent=1, sort_keys=True) + "\n"
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{len(result['files'])} files digested from {result['tree']}")
        return 0
    maps = [json.loads(Path(f).read_text(encoding="utf-8")) for f in (args.a, args.b)]
    differences = compare(*maps, names=(args.a, args.b))
    for key, why in differences:
        print(f"{key} ({why})")
    if differences:
        print(f"{len(differences)} files differ")
        return 1
    print(f"{len(maps[0]['files'])} files equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
