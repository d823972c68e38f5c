"""The benchmark's own test: tiny runs of every workload.

Run from the repository root::

    python3 -m pytest perfbench -q

Checks that the printed metric names and units match ``BENCHMARK.json``
in both modes, that a corrupted expected table and a forced spec
failure each raise the error ratio above 0, that a checkout without the
sources exits non-zero without a result line, that the metric catalog
names every registered policy and committed table, and the tracer's
self-time arithmetic.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import util  # noqa: E402
from regen import driver_key  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, root: Path = ROOT, check: bool = True):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    if check:
        assert proc.returncode == 0, proc.stderr[-3000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])
    return proc


def tiny(workload: str, trace: int, *extra: str) -> dict:
    return bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny", *extra,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_names_and_units_match_benchmark_json(workload, trace):
    result = tiny(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_expected_table_fails(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(ROOT / "benchmarks" / "_results", expected)
    table = expected / "table_1.txt"
    table.write_text(table.read_text().replace("dram", "DRAM", 1))
    result = tiny("regen", 0, "--expected-dir", str(expected))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("workload", ["sweep_cold", "sweep_warm", "serve"])
def test_forced_spec_failure_counts(workload):
    result = tiny(workload, 0, "--inject-failure")
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_incomplete_checkout_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("_*", "__pycache__"),
    )
    proc = bench(
        "--workload", "regen", "--seed", "1", "--seconds", "1",
        "--trace", "0", root=tmp_path, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()

    def parent(request=None):
        outer = tracer.enter("b.parent", request)
        inner = tracer.enter("a.child")
        time.sleep(0.02)
        tracer.exit(inner)
        time.sleep(0.01)
        tracer.exit(outer)

    parent("r1")
    parent()
    totals = tracer.totals()
    calls, total, own = totals["b.parent"]
    assert calls == 2
    assert own == total - totals["a.child"][1]
    assert 0.015e9 < own < total
    spans = {span[3]: span for span in tracer.spans}
    child_span = next(s for s in tracer.spans if s[0] == "a.child")
    assert spans[child_span[4]][0] == "b.parent"
    assert child_span[5] == "r1"


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct, count = util.tail(values)
    assert count == 100
    assert sum(1 for v in values if v > value) == 10
    assert pct == pytest.approx(90.0)


def test_catalog_covers_every_policy_and_driver():
    util.prepare_process()
    from repro.core.policy import available_policies

    assert sorted(metrics.POLICIES) == sorted(available_policies())
    tables = sorted((ROOT / "benchmarks" / "_results").glob("*.txt"))
    keys = {
        driver_key(path.stem)
        for path in tables
        if path.stem.startswith(("table_", "figure_", "ablation_"))
    }
    assert keys == set(metrics.DRIVERS)
