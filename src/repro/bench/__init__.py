"""``repro.bench`` — config-driven experiment-matrix benchmarking.

The subsystem turns a declarative matrix spec (TOML/JSON) into a
deterministic run table with fitted capacity lines:

* :mod:`repro.bench.spec` — spec parsing/validation and matrix
  expansion;
* :mod:`repro.bench.runner` — the executor driving
  :func:`repro.serve.simulate.run_serve_sim` per cell, in process or
  over a shard fleet, on workloads sampled from the spec seed;
* :mod:`repro.bench.aggregate` — repetition stats, histogram merging,
  the deterministic table digest, table validation and comparison;
* :mod:`repro.bench.capacity` — least-squares sessions/sec vs shards;
* :mod:`repro.bench.render` — the Markdown table;
* :mod:`repro.bench.gates` — the uniform gate-failure format and the
  same-host linear shard-scaling gate.

See ``docs/benchmarking.md`` for the spec reference and CLI examples.
"""

from repro.bench.aggregate import (
    TABLE_SCHEMA,
    build_row,
    compare_tables,
    merge_histograms,
    summarize,
    table_digest,
    validate_run_table,
)
from repro.bench.capacity import capacity_models, fit_linear
from repro.bench.gates import (
    MIN_LINEAR_EFFICIENCY,
    format_gate_failure,
    gate_linear_scaling,
)
from repro.bench.render import render_bench_table, render_capacity_table
from repro.bench.runner import run_cell, run_matrix
from repro.bench.spec import (
    AXES,
    AXIS_DEFAULTS,
    BenchError,
    Cell,
    MatrixSpec,
    expand_matrix,
    load_spec,
)

__all__ = [
    "AXES",
    "AXIS_DEFAULTS",
    "BenchError",
    "Cell",
    "MIN_LINEAR_EFFICIENCY",
    "MatrixSpec",
    "TABLE_SCHEMA",
    "build_row",
    "capacity_models",
    "compare_tables",
    "expand_matrix",
    "fit_linear",
    "format_gate_failure",
    "gate_linear_scaling",
    "load_spec",
    "merge_histograms",
    "render_bench_table",
    "render_capacity_table",
    "run_cell",
    "run_matrix",
    "summarize",
    "table_digest",
    "validate_run_table",
]
