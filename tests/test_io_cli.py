"""Tests for legacy trace loading (repro.io) and the CLI (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import load_trace
from repro.motionsim.profiles import line_trajectory
from repro.store import TraceReader


class TestTraceIO:
    def test_roundtrip(self, tmp_path, fast_sampler, three_antenna, write_legacy_npz):
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 0.5)
        trace = fast_sampler.sample(traj, three_antenna)
        path = tmp_path / "trace.npz"
        write_legacy_npz(path, trace)
        loaded = load_trace(path)

        np.testing.assert_array_equal(loaded.data, trace.data)
        np.testing.assert_array_equal(loaded.times, trace.times)
        np.testing.assert_array_equal(
            loaded.array.local_positions, trace.array.local_positions
        )
        assert loaded.array.name == trace.array.name
        assert loaded.carrier_wavelength == pytest.approx(trace.carrier_wavelength)
        np.testing.assert_array_equal(
            loaded.trajectory.positions, trace.trajectory.positions
        )

    def test_loaded_trace_processes_identically(
        self, tmp_path, fast_sampler, three_antenna, write_legacy_npz
    ):
        from repro.core.config import RimConfig
        from repro.core.rim import Rim

        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 1.0)
        trace = fast_sampler.sample(traj, three_antenna)
        path = tmp_path / "trace.npz"
        write_legacy_npz(path, trace)
        loaded = load_trace(path)

        rim = Rim(RimConfig(max_lag=40))
        a = rim.process(trace)
        b = rim.process(loaded)
        assert a.total_distance == pytest.approx(b.total_distance, rel=1e-9)

    def test_bad_version_rejected(
        self, tmp_path, fast_sampler, three_antenna, write_legacy_npz
    ):
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 0.2)
        trace = fast_sampler.sample(traj, three_antenna)
        path = tmp_path / "trace.npz"
        write_legacy_npz(path, trace)
        with np.load(path) as archive:
            contents = {k: archive[k] for k in archive.files}
        contents["format_version"] = np.int64(99)
        np.savez_compressed(path, **contents)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_hexagonal_roundtrip_keeps_circular(
        self, tmp_path, fast_sampler, hexagon, write_legacy_npz
    ):
        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 0.2)
        trace = fast_sampler.sample(traj, hexagon)
        path = tmp_path / "hex.npz"
        write_legacy_npz(path, trace)
        loaded = load_trace(path)
        assert loaded.array.circular
        assert loaded.array.n_nics == 2

    def test_nan_rows_survive_roundtrip(
        self, tmp_path, fast_sampler, three_antenna, write_legacy_npz
    ):
        """Lost-packet NaN rows must persist bit-exactly through .npz."""
        from dataclasses import replace

        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 0.5)
        trace = fast_sampler.sample(traj, three_antenna)
        data = trace.data.copy()
        data[3:7] = np.nan  # a whole lost burst
        data[10, 1] = np.nan  # one dead-chain row
        trace = replace(trace, data=data)
        path = tmp_path / "lossy.npz"
        write_legacy_npz(path, trace)
        loaded = load_trace(path)
        np.testing.assert_array_equal(
            np.isnan(loaded.data.real), np.isnan(trace.data.real)
        )
        finite = np.isfinite(trace.data.real)
        np.testing.assert_array_equal(loaded.data[finite], trace.data[finite])
        assert loaded.data.dtype == trace.data.dtype

    def test_faulted_trace_roundtrip_processes(
        self, tmp_path, fast_sampler, three_antenna, write_legacy_npz
    ):
        from repro import FaultPlan, Rim, RimConfig

        traj = line_trajectory((10.0, 8.0), 0.0, 0.5, 1.0)
        trace = fast_sampler.sample(traj, three_antenna)
        faulted = FaultPlan(seed=3, loss_rate=0.1, loss_burst=6).apply(trace)
        path = tmp_path / "faulted.npz"
        write_legacy_npz(path, faulted)
        loaded = load_trace(path)
        rim = Rim(RimConfig(max_lag=40))
        a = rim.process(faulted)
        b = rim.process(loaded)
        assert a.total_distance == pytest.approx(b.total_distance, rel=1e-9)
        assert b.health is not None


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out
        assert "ablation-metric" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_demo_fault_plan_flag(self):
        args = build_parser().parse_args(
            ["demo", "--fault-plan", "dead_chain=1,loss=0.1"]
        )
        assert args.fault_plan == "dead_chain=1,loss=0.1"

    def test_convert_imports_legacy_archive(
        self, tmp_path, line_trace, write_legacy_npz, capsys
    ):
        npz = tmp_path / "legacy.npz"
        write_legacy_npz(npz, line_trace)
        dest = tmp_path / "store"
        assert main(["convert", str(npz), str(dest), "--chunk-samples", "64"]) == 0
        assert "-> store" in capsys.readouterr().out
        with TraceReader(dest, policy="raise") as reader:
            out = reader.read_trace()
        np.testing.assert_array_equal(out.data, line_trace.data)
        np.testing.assert_array_equal(out.times, line_trace.times)
        np.testing.assert_array_equal(out.tx_positions, line_trace.tx_positions)
        np.testing.assert_array_equal(
            out.trajectory.positions, line_trace.trajectory.positions
        )
        assert out.array.name == line_trace.array.name
        assert out.carrier_wavelength == line_trace.carrier_wavelength

    def test_convert_refuses_a_store_source(self, tmp_path, line_trace, capsys):
        from repro.store import write_trace

        write_trace(tmp_path / "store", line_trace)
        assert main(["convert", str(tmp_path / "store"), str(tmp_path / "out")]) == 2
        assert "not a legacy .npz archive" in capsys.readouterr().err

    def test_run_parser_flags(self):
        args = build_parser().parse_args(["run", "fig11", "--full", "--seed", "3"])
        assert args.experiment == "fig11"
        assert args.full
        assert args.seed == 3

    @pytest.mark.slow
    def test_run_fig8_quick(self, capsys):
        assert main(["run", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "sign_flip_detected" in out
