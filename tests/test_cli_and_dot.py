"""Tests for the CLI and the Graphviz export."""

import pytest

from repro.cli import main
from repro.graph.dot import to_dot
from repro.apps import build_image_pipeline
from repro.transform import compile_application

from helpers import SMALL_PROC


class TestDotExport:
    def test_logical_graph_shapes(self):
        dot = to_dot(build_image_pipeline(24, 16, 100.0))
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert 'shape="oval"' in dot       # application boundaries
        assert 'shape="box"' in dot        # computation kernels
        assert "style=dashed" in dot       # the replicated coeff edge
        assert "style=dotted" in dot       # the dependency edge

    def test_compiled_graph_structural_shapes(self):
        compiled = compile_application(
            build_image_pipeline(24, 16, 1000.0), SMALL_PROC
        )
        dot = to_dot(compiled.graph)
        assert 'shape="parallelogram"' in dot  # buffers
        assert 'shape="diamond"' in dot        # split/join
        assert 'shape="invhouse"' in dot       # the inset kernel

    def test_every_kernel_appears(self):
        app = build_image_pipeline(24, 16, 100.0)
        dot = to_dot(app)
        for name in app.kernels:
            assert f'"{name}"' in dot

    def test_quoting(self):
        app = build_image_pipeline(24, 16, 100.0)
        dot = to_dot(app)
        # kernel names with dots (buf_X.in style) must be quoted; the
        # logical graph has none, but the syntax must still be valid when
        # they appear.
        compiled = compile_application(app, SMALL_PROC)
        dot = to_dot(compiled.graph)
        assert '"buf_Median3x3.in"' in dot


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("1", "1F", "2", "2F", "3", "4", "SS", "SF", "BS", "BF"):
            assert f"{key:>3}" in out or f" {key} " in out

    def test_describe(self, capsys):
        assert main(["describe", "SS"]) == 0
        assert "Median3x3" in capsys.readouterr().out

    def test_compile(self, capsys):
        assert main(["compile", "SS"]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out and "mapping" in out

    def test_simulate_meets(self, capsys):
        assert main(["simulate", "2", "--frames", "3"]) == 0
        assert "MEETS" in capsys.readouterr().out

    def test_dot_logical(self, capsys):
        assert main(["dot", "SS"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_dot_compiled(self, capsys):
        assert main(["dot", "SS", "--compiled"]) == 0
        assert "parallelogram" in capsys.readouterr().out

    def test_unknown_benchmark(self, capsys):
        assert main(["describe", "nope"]) == 2

    def test_mapping_option(self, capsys):
        assert main(["--mapping", "1:1", "compile", "SS"]) == 0
        assert "1:1" in capsys.readouterr().out

    def test_processor_options(self, capsys):
        assert main(["--clock-mhz", "200", "--memory-words", "4096",
                     "compile", "SS"]) == 0
        out = capsys.readouterr().out
        assert "200 MHz" in out

    def test_schedule_admissible(self, capsys):
        assert main(["schedule", "SS"]) == 0
        out = capsys.readouterr().out
        assert "ADMISSIBLE" in out and "cycles/frame" in out

    def test_energy(self, capsys):
        assert main(["energy", "2", "--frames", "2"]) == 0
        out = capsys.readouterr().out
        assert "uJ" in out and "leakage" in out

    def test_energy_with_placement(self, capsys):
        assert main(["energy", "SS", "--frames", "2", "--place"]) == 0
        out = capsys.readouterr().out
        assert "annealed placement" in out


class TestMappedDot:
    def test_clusters_by_processor(self):
        compiled = compile_application(
            build_image_pipeline(24, 16, 1000.0), SMALL_PROC
        )
        dot = to_dot(compiled.graph, mapping=compiled.mapping)
        assert "subgraph cluster_pe0" in dot
        assert 'label="PE0"' in dot
        # Off-chip kernels drawn outside the clusters.
        assert '"Input"' in dot

    def test_cli_mapped(self, capsys):
        assert main(["dot", "SS", "--mapped"]) == 0
        assert "cluster_pe" in capsys.readouterr().out

    def test_cli_trace(self, capsys):
        assert main(["trace", "2", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "gantt over" in out


class TestTelemetryCli:
    """The observability surface: simulate flags, profile, trace errors."""

    def test_trace_empty_fails_loudly(self, capsys):
        """Zero frames means zero firings: diagnose, don't print a
        blank chart and exit 0."""
        with pytest.raises(SystemExit) as usage:
            main(["trace", "1", "--frames", "0"])
        assert usage.value.code == 2
        captured = capsys.readouterr()
        assert "--frames: must be at least 1, got 0" in captured.err
        assert "gantt" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["simulate", "2", "--frames", "0", "--json"],
        ["profile", "2", "--frames", "-1"],
        ["energy", "2", "--frames", "0"],
    ])
    def test_frames_below_one_is_a_usage_error(self, argv, capsys):
        """A zero-frame run used to report ``"meets": true``: a vacuous
        pass.  Every ``--frames`` rejects it before anything compiles."""
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        captured = capsys.readouterr()
        assert "--frames: must be at least 1" in captured.err
        assert captured.out == ""

    def test_simulate_telemetry_artifacts(self, tmp_path, capsys):
        import json

        from repro.obs import validate_perfetto

        perfetto = tmp_path / "trace.json"
        spans = tmp_path / "spans.jsonl"
        assert main([
            "simulate", "2", "--frames", "2",
            "--perfetto", str(perfetto), "--spans", str(spans),
            "--critical-path",
        ]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        counts = validate_perfetto(json.loads(perfetto.read_text()))
        assert counts["X"] > 0
        for line in spans.read_text().splitlines():
            json.loads(line)

    def test_simulate_json_sections(self, capsys):
        import json

        assert main(["simulate", "2", "--frames", "2", "--critical-path",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry"]["spans"]["firing"] > 0
        cp = payload["critical_path"]
        assert cp["path_s"] == pytest.approx(cp["makespan_s"], rel=1e-9)

    def test_simulate_without_flags_has_no_telemetry(self, capsys):
        import json

        assert main(["simulate", "2", "--frames", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "telemetry" not in payload and "critical_path" not in payload

    def test_profile_text(self, capsys):
        assert main(["profile", "2", "--frames", "2", "--timeline",
                     "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "firing latency" in out
        assert "critical path" in out
        assert "channel occupancy" in out

    def test_profile_json(self, capsys):
        import json

        assert main(["profile", "2", "--frames", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry"]["spans"]["firing"] > 0
        assert payload["critical_path"]["path_s"] == pytest.approx(
            payload["makespan_s"], rel=1e-9
        )
