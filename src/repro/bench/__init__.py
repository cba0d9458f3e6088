"""``repro.bench`` — config-driven experiment-matrix benchmarking.

The subsystem turns a declarative matrix spec (TOML/JSON) into a
deterministic run table with fitted capacity models:

* :mod:`repro.bench.spec` — spec parsing/validation, matrix expansion,
  cell filters;
* :mod:`repro.bench.runner` — the executor driving the existing
  ``serve``/``shard``/``net`` entry points per cell with warmup,
  cooldown, and fixed seeds;
* :mod:`repro.bench.aggregate` — repetition stats, histogram merging,
  the deterministic table digest, table validation and comparison;
* :mod:`repro.bench.capacity` — least-squares sessions/sec vs shards
  with knee detection;
* :mod:`repro.bench.render` — Markdown/CSV tables;
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
from repro.bench.capacity import capacity_models, fit_capacity, fit_linear
from repro.bench.gates import (
    MIN_LINEAR_EFFICIENCY,
    format_gate_failure,
    gate_linear_scaling,
)
from repro.bench.render import (
    render_bench_csv,
    render_bench_table,
    render_capacity_table,
)
from repro.bench.runner import run_cell, run_matrix
from repro.bench.spec import (
    AXES,
    AXIS_DEFAULTS,
    BenchError,
    Cell,
    MatrixSpec,
    cell_seed,
    expand_matrix,
    load_spec,
    match_cell,
    parse_filters,
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
    "cell_seed",
    "compare_tables",
    "expand_matrix",
    "fit_capacity",
    "fit_linear",
    "format_gate_failure",
    "gate_linear_scaling",
    "load_spec",
    "match_cell",
    "merge_histograms",
    "parse_filters",
    "render_bench_csv",
    "render_bench_table",
    "render_capacity_table",
    "run_cell",
    "run_matrix",
    "summarize",
    "table_digest",
    "validate_run_table",
]
