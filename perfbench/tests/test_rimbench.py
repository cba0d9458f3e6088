"""Self-tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke tests run each workload for two seconds through ``run.py`` and
require its oracle checks to pass; the first run simulates and caches
the inputs, which takes a minute or two.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from rimbench import layers, report, stats  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed():
    names = [name for name, _ in report.END_TO_END]
    names += [name for name, _, _ in layers.LAYER_METRICS]
    for name in names:
        assert stats.METRIC_NAME.match(name), name
        assert all(ch.isalnum() or ch in "_.-" for ch in name), name
    assert len(names) == len(set(names))
    with pytest.raises(ValueError):
        stats.check_metric_names(["ok_name", "bad name"])


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in report.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(report.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in layers.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["batch_office", "live_fleet", "wire_replay"]


@pytest.mark.parametrize("q", [0, 5, 25, 50, 75, 95, 99, 100])
def test_percentile_agrees_with_numpy(q):
    rng = np.random.default_rng(7)
    for data in (
        [3.0],
        [1.0, 2.0],
        [5.0, 1.0, 4.0, 2.0, 3.0],
        list(rng.exponential(size=201)),
        list(rng.normal(size=1000)),
    ):
        assert stats.percentile(data, q) == pytest.approx(np.percentile(data, q), abs=1e-12)


def test_percentile_edges():
    assert np.isnan(stats.percentile([], 50))
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize("workload", ["batch_office", "live_fleet", "wire_replay"])
def test_smoke_run_passes_its_oracle_checks(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "2", "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in report.END_TO_END}
    for name, unit in report.END_TO_END:
        value = result["metrics"][name]["value"]
        assert result["metrics"][name]["unit"] == unit
        assert np.isfinite(value) and value > 0, (name, value)
