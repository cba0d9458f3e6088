"""Tests for the experiment-matrix harness (repro.bench).

Locks down the PR-10 acceptance criteria:

* matrix specs validate eagerly (bad axes, values, and knobs fail
  before anything runs) and expand deterministically;
* the aggregation math is correct on known distributions (percentiles,
  mean/stdev/spread, histogram merging);
* the capacity fit recovers synthetic linear data exactly;
* a run table is **bit-identical** (same digest) when re-run with the
  same seed, every shard count of one workload yields the same
  updates, and the digest detects tampering;
* ``compare_tables``' capacity slope gate and the linear-scaling gate
  fire on synthetic regressions with the uniform failure format;
* the ``bench`` CLI verb works end-to-end (run/table/compare).
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from repro.bench import (
    MIN_LINEAR_EFFICIENCY,
    BenchError,
    Cell,
    MatrixSpec,
    build_row,
    capacity_models,
    compare_tables,
    expand_matrix,
    fit_linear,
    format_gate_failure,
    gate_linear_scaling,
    load_spec,
    merge_histograms,
    render_bench_table,
    run_matrix,
    summarize,
    table_digest,
    validate_run_table,
)


def tiny_spec(**overrides) -> MatrixSpec:
    """The smallest useful matrix: 1 serve cell, short workload."""
    kwargs = dict(
        name="tiny",
        axes={"sessions": [2], "kernel": ["reference"]},
        repetitions=2,
        seed=0,
        duration_s=0.5,
        block_seconds=0.25,
    )
    kwargs.update(overrides)
    return MatrixSpec(**kwargs)


# ---------------------------------------------------------------- spec


def test_spec_rejects_unknown_axis():
    with pytest.raises(BenchError, match="unknown axes"):
        MatrixSpec(name="x", axes={"cores": [1]})


def test_spec_rejects_bad_values():
    with pytest.raises(BenchError, match="sessions"):
        MatrixSpec(name="x", axes={"sessions": [0]})
    with pytest.raises(BenchError, match="kernel"):
        MatrixSpec(name="x", axes={"kernel": ["auto"]})
    with pytest.raises(BenchError, match="dtype"):
        MatrixSpec(name="x", axes={"dtype": ["float16"]})
    with pytest.raises(BenchError, match="backpressure"):
        MatrixSpec(name="x", axes={"backpressure": ["yolo"]})
    with pytest.raises(BenchError, match="duplicate"):
        MatrixSpec(name="x", axes={"shards": [1, 1]})
    with pytest.raises(BenchError, match="repetitions"):
        MatrixSpec(name="x", repetitions=0)


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(BenchError, match="unknown spec keys"):
        MatrixSpec.from_dict({"name": "x", "bogus": 1})
    with pytest.raises(BenchError, match="needs a 'name'"):
        MatrixSpec.from_dict({"axes": {}})


def test_expand_matrix_deterministic_order():
    spec = MatrixSpec(
        name="x", axes={"shards": [1, 2], "kernel": ["reference", "batched"]}
    )
    cells = expand_matrix(spec)
    assert [(c.shards, c.kernel) for c in cells] == [
        (1, "reference"), (1, "batched"), (2, "reference"), (2, "batched"),
    ]
    # unswept axes pin to defaults
    assert all(c.sessions == 4 for c in cells)
    assert expand_matrix(spec) == cells


def test_cell_key_and_seed_stable():
    cell = expand_matrix(MatrixSpec(name="x"))[0]
    assert cell.key == "sessions=4/shards=0/kernel=batched"
    # a row records the spec seed, the one that sampled its workload
    assert build_row(cell, 7, [_rep()])["seed"] == 7


def test_load_spec_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "j", "axes": {"sessions": [2]}}))
    spec = load_spec(path)
    assert spec.name == "j" and spec.axes == {"sessions": [2]}
    with pytest.raises(BenchError, match="not found"):
        load_spec(tmp_path / "missing.json")
    bad = tmp_path / "m.yaml"
    bad.write_text("name: y")
    with pytest.raises(BenchError, match=".toml or .json"):
        load_spec(bad)


def test_load_spec_toml(tmp_path):
    pytest.importorskip("tomllib")  # python >= 3.11 only
    path = tmp_path / "m.toml"
    path.write_text('name = "t"\nrepetitions = 2\n[axes]\nshards = [1, 2]\n')
    spec = load_spec(path)
    assert spec.name == "t" and spec.axes == {"shards": [1, 2]}
    assert spec.repetitions == 2


MATRIX_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "matrices"


@pytest.mark.parametrize(
    "path", sorted(MATRIX_DIR.iterdir()), ids=lambda path: path.name
)
def test_committed_matrix_loads(path):
    if path.suffix == ".toml":
        pytest.importorskip("tomllib")
    spec = load_spec(path)
    assert spec.name == path.stem
    assert expand_matrix(spec)


# ----------------------------------------------------------- aggregate


def test_summarize_known_distribution():
    stats = summarize([2.0, 4.0, 6.0])
    assert stats["mean"] == pytest.approx(4.0)
    assert stats["min"] == 2.0 and stats["max"] == 6.0
    assert stats["stdev"] == pytest.approx(2.0)  # sample stdev
    assert stats["spread_frac"] == pytest.approx(1.0)
    single = summarize([3.0])
    assert single["stdev"] == 0.0 and single["spread_frac"] == 0.0
    with pytest.raises(BenchError):
        summarize([])


def test_merge_histograms():
    a = {"type": "histogram", "bounds": [1.0], "counts": [2, 0],
         "count": 2, "sum": 1.0, "min": 0.3, "max": 0.7}
    b = {"type": "histogram", "bounds": [1.0], "counts": [1, 1],
         "count": 2, "sum": 2.5, "min": 0.5, "max": 2.0}
    merged = merge_histograms([a, None, b])
    assert merged["counts"] == [3, 1] and merged["count"] == 4
    assert merged["sum"] == pytest.approx(3.5)
    assert merged["min"] == 0.3 and merged["max"] == 2.0
    assert merge_histograms([None, None]) is None
    c = dict(a, bounds=[2.0])
    with pytest.raises(BenchError, match="different bounds"):
        merge_histograms([a, c])


def _rep(updates=5, distance=1.25, rate=10.0):
    return {
        "wall_s": 0.5, "n_sessions": 2, "total_samples": 100,
        "sessions_per_second": rate, "samples_per_second": 200.0,
        "n_updates": updates, "total_distance_m": distance,
        "health": {"blocked": 0, "shed": 0, "rejected": 0,
                   "degraded_blocks": 0},
        "latency": None,
    }


def test_build_row_flags_determinism_violation():
    cell = expand_matrix(MatrixSpec(name="x"))[0]
    row = build_row(cell, 7, [_rep(), _rep()])  # identical reps: fine
    assert row["latency_p95_s"] is None  # no latency recorded: null, not NaN
    with pytest.raises(BenchError, match="diverged"):
        build_row(cell, 7, [_rep(updates=5), _rep(updates=6)])
    with pytest.raises(BenchError, match="diverged"):
        build_row(cell, 7, [_rep(distance=1.25), _rep(distance=1.26)])


def test_table_digest_covers_deterministic_fields_only():
    cell = expand_matrix(MatrixSpec(name="x"))[0]
    row_a = build_row(cell, 7, [_rep(rate=10.0)])
    row_b = build_row(cell, 7, [_rep(rate=99.0)])  # wall-clock noise
    assert table_digest([row_a]) == table_digest([row_b])
    row_c = build_row(cell, 7, [_rep(updates=6)])
    assert table_digest([row_a]) != table_digest([row_c])


# ------------------------------------------------------------ capacity


def test_fit_linear_exact():
    fit = fit_linear([1, 2, 3, 4], [3.0, 5.0, 7.0, 9.0])
    assert fit["slope"] == pytest.approx(2.0)
    assert fit["intercept"] == pytest.approx(1.0)
    assert fit["r2"] == pytest.approx(1.0)
    flat = fit_linear([1, 1], [2.0, 4.0])  # zero x-variance degenerates
    assert flat["slope"] == 0.0 and flat["intercept"] == pytest.approx(3.0)
    constant = fit_linear([1, 2], [5.0, 5.0])
    assert constant["r2"] == 1.0


# ----------------------------------------------------------- run_matrix


def test_run_matrix_bit_identical_digest():
    spec = tiny_spec()
    p1 = run_matrix(spec)
    p2 = run_matrix(spec)
    validate_run_table(p1)
    assert p1["digest"] == p2["digest"]
    assert p1["n_cells"] == 1 and len(p1["rows"][0]["reps"]) == 2
    row = p1["rows"][0]
    assert row["seed"] == spec.seed  # the seed that sampled the workload
    assert row["n_updates"] > 0
    assert row["latency_p95_s"] is not None  # obs histogram captured
    assert row["health"]["shed"] == 0


def test_run_matrix_fleet_rows_match_in_process_row():
    spec = tiny_spec(
        axes={"sessions": [2], "shards": [0, 1, 2], "kernel": ["reference"]},
        repetitions=1,
    )
    payload = run_matrix(spec)
    rows = payload["rows"]
    assert [row["cell"]["shards"] for row in rows] == [0, 1, 2]
    # one workload through one manager or a fleet: identical estimates
    assert len({row["n_updates"] for row in rows}) == 1
    assert len({repr(row["total_distance_m"]) for row in rows}) == 1
    assert all(row["latency_p95_s"] is not None for row in rows[1:])
    assert [model["group"] for model in payload["capacity"]] == [
        "sessions=2/kernel=reference"
    ]
    validate_run_table(payload)
    assert compare_tables(payload, payload) == []


def test_run_matrix_counts_usable_cpus(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_matrix(tiny_spec(repetitions=1))["n_cpus"] == 1


def test_validate_run_table_rejects_tampering():
    payload = run_matrix(tiny_spec(repetitions=1))
    broken = copy.deepcopy(payload)
    broken["rows"][0]["n_updates"] += 1
    with pytest.raises(BenchError, match="digest"):
        validate_run_table(broken)
    wrong = copy.deepcopy(payload)
    wrong["schema"] = "bogus"
    with pytest.raises(BenchError, match="schema"):
        validate_run_table(wrong)


def test_render_outputs():
    payload = run_matrix(tiny_spec(repetitions=1))
    md = render_bench_table(payload)
    assert payload["digest"] in md and "| cell |" in md
    assert f"| `{payload['rows'][0]['key']}` |" in md


# ---------------------------------------------------------------- gates


def test_format_gate_failure_uniform():
    text = format_gate_failure("a.b", measured="1.0/s", baseline="2.0/s",
                               budget="-20%", note="why")
    assert text == "[a.b] measured 1.0/s vs baseline 2.0/s (budget -20%) — why"


def test_compare_tables_pass_and_fail():
    old = run_matrix(tiny_spec(repetitions=1))
    assert compare_tables(old, old) == []
    slow = copy.deepcopy(old)
    slow["rows"][0]["sessions_per_second"]["mean"] /= 10.0
    failures = compare_tables(old, slow)
    assert len(failures) == 1
    assert failures[0].startswith("[bench[") and "budget" in failures[0]
    shrunk = copy.deepcopy(old)
    shrunk["rows"] = []
    assert any(".present]" in f for f in compare_tables(old, shrunk))


def _scaling_rows(rates, shards=None):
    """Run-table rows of one group with the given mean sessions/sec."""
    shards = shards or list(range(1, len(rates) + 1))
    spec = MatrixSpec(name="x", axes={"shards": shards})
    return [
        build_row(cell, 0, [_rep(rate=rate)])
        for cell, rate in zip(expand_matrix(spec), rates)
    ]


def _scaling_table(rates):
    rows = _scaling_rows(rates)
    return {"rows": rows, "capacity": capacity_models(rows)}


def test_compare_tables_capacity_gates_fire():
    linear = _scaling_table([2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
    assert compare_tables(linear, linear) == []
    # slope regression beyond the budget
    halved = _scaling_table([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert halved["capacity"][0]["fit"]["slope"] == pytest.approx(1.0)
    failures = compare_tables(linear, halved)
    assert any("].capacity.slope]" in f for f in failures)


_GATE_FORMAT = re.compile(r"^\[.+\] measured .+ vs baseline .+ \(budget .+\)$")


def test_scaling_gate_fails_demonstrable_rows_below_floor():
    # 1 -> 2 shards: 1.8x (0.90x-linear); 1 -> 3 shards: 2.0x (0.67x-linear)
    rows = _scaling_rows([10.0, 18.0, 20.0])
    failures, report = gate_linear_scaling(rows, n_cpus=4)
    assert len(failures) == 1
    assert _GATE_FORMAT.match(failures[0])
    assert failures[0].startswith("[bench[sessions=4/shards=3/")
    assert f">= {MIN_LINEAR_EFFICIENCY:.2f}x-linear" in failures[0]
    assert [line.split(":")[0] for line in report] == [
        f"gated {rows[1]['key']}", f"gated {rows[2]['key']}",
    ]
    assert gate_linear_scaling(rows[:2], n_cpus=4)[0] == []


def test_scaling_gate_skips_rows_the_host_cannot_demonstrate():
    rows = _scaling_rows([10.0, 18.0, 12.0, 11.0])
    failures, report = gate_linear_scaling(rows, n_cpus=2)
    assert failures == []  # the 3- and 4-shard rows scale badly, ungated
    skipped = [line for line in report if line.startswith("skipped")]
    assert len(skipped) == 2
    assert "4 shards on a 2-cpu host" in skipped[1]
    assert rows[3]["key"] in skipped[1]


def test_scaling_gate_skips_group_without_one_shard_row():
    rows = _scaling_rows([10.0, 11.0], shards=[2, 4])
    failures, report = gate_linear_scaling(rows, n_cpus=8)
    assert failures == []
    assert report == [
        "skipped sessions=4/kernel=batched: no 1-shard row to scale from"
    ]


# ------------------------------------------------------------------ cli


def test_cli_bench_end_to_end(tmp_path, capsys):
    from repro.cli import main

    spec_path = tmp_path / "m.json"
    spec_path.write_text(json.dumps({
        "name": "cli", "axes": {"sessions": [2], "kernel": ["reference"]},
        "repetitions": 1, "seed": 0, "duration_s": 0.5,
        "block_seconds": 0.25,
    }))
    out = tmp_path / "out"
    rc = main([
        "bench", "run", "--matrix", str(spec_path), "--out", str(out),
    ])
    assert rc == 0
    table_path = out / "run_table.json"
    assert table_path.is_file()
    assert sorted(path.name for path in out.iterdir()) == [
        "run_table.json", "run_table.md",
    ]
    payload = json.loads(table_path.read_text())
    validate_run_table(payload)
    capsys.readouterr()

    rc = main(["bench", "table", str(table_path)])
    assert rc == 0
    assert capsys.readouterr().out == (out / "run_table.md").read_text()

    rc = main(["bench", "compare", str(table_path), str(table_path)])
    assert rc == 0
    assert "ok" in capsys.readouterr().out
