"""Every BENCH_*.json at the repository root is a complete A/B record.

A record holds parent and change rows from one alternating session of
``bench/run.py``. The timings are evidence for a change, never a gate:
this only checks that a record loads and carries what a reader needs to
judge it.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
# The stages workload spreads widely on identical code, so it needs more pairs.
MIN_PAIRS = {"stages": 10}


def test_a_bench_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_has_its_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert {"host", "protocol", "rows"} <= set(record)
    assert {"fingerprint", "nproc"} <= set(record["host"])
    assert record["protocol"]["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert {"command", "trees"} <= set(record["protocol"])
    rows = {row["side"]: row for row in record["rows"]}
    assert set(rows) == {"parent", "change"}
    for row in rows.values():
        assert isinstance(row["src_lines"], int) and row["src_lines"] > 0
        assert set(row["runs"]) == WORKLOADS
        for name, runs in row["runs"].items():
            assert len(runs) >= MIN_PAIRS.get(name, 5), name
            for run in runs:
                assert {"seed", "pair", "first", "attempted", "failed"} <= set(run)
                assert {"run_s", "items_per_s", "cpu_s", "peak_rss_mb", "setup_s"} <= set(run["metrics"])
