"""Tests for repro.obs: spans, metrics, exporters, and the critical path.

The load-bearing invariants pinned here:

* telemetry is purely observational — every result section except
  ``telemetry`` is identical with collection on and off;
* per-PE busy accounting from the span stream equals
  :class:`~repro.sim.ProcessorStats` busy time on all five Figure 13
  applications, and busy + idle spans tile the makespan;
* per-PE firing timelines never overlap (hypothesis, over the random
  pipelines of :mod:`test_random_pipelines`);
* span digests are deterministic across processes (hash randomization
  does not leak into the canonical serialization);
* the collector's flat rows and the typed spans are one stream: the row
  serializer is byte-identical to ``json.dumps(span_as_dict(span),
  sort_keys=True)``, nothing in-tree builds a span object unless
  ``Telemetry.spans`` is read, and metric handles are bound once;
* the Perfetto export is structurally valid trace_event JSON;
* the reconstructed critical path tiles the makespan exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_random_pipelines import pipelines

from repro.apps import build_image_pipeline
from repro.apps.suite import BENCHMARK_PROCESSOR, benchmark as suite_benchmark
from repro.errors import SimulationError
from repro.machine import ProcessorSpec
from repro.obs import (
    FaultSpan,
    FiringSpan,
    IdleSpan,
    StallSpan,
    TelemetryConfig,
    TransferSpan,
    WaitSpan,
    analyze_critical_path,
    span_as_dict,
    spans_digest,
    spans_jsonl,
    timeline,
    to_perfetto,
    validate_perfetto,
    write_perfetto,
    write_spans_jsonl,
)
from repro.obs import collect as obs_collect
from repro.obs import metrics as obs_metrics
from repro.obs.collect import Telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SPAN_TYPES, span_from_row, span_line, span_row
from repro.sim import SimulationOptions, simulate
from repro.transform import CompileOptions, compile_application

from helpers import SMALL_PROC

#: The five Figure 13 applications (suite keys).
FIGURE13_KEYS = ("1", "2", "3", "4", "5")


@lru_cache(maxsize=None)
def _small_pair():
    """(telemetry-off result, telemetry-on result) for a small pipeline."""
    compiled = compile_application(
        build_image_pipeline(24, 16, 100.0), SMALL_PROC
    )
    off = simulate(compiled, SimulationOptions(frames=2))
    on = simulate(compiled, SimulationOptions(frames=2, telemetry=True))
    return off, on


@lru_cache(maxsize=None)
def _figure13(key: str):
    bench = suite_benchmark(key)
    compiled = compile_application(
        bench.application(), BENCHMARK_PROCESSOR,
        CompileOptions(mapping="greedy"),
    )
    return simulate(compiled, SimulationOptions(frames=2, telemetry=True))


class TestTelemetryConfig:
    def test_coerce_disabled(self):
        assert TelemetryConfig.coerce(None) is None
        assert TelemetryConfig.coerce(False) is None

    def test_coerce_enabled(self):
        cfg = TelemetryConfig.coerce(True)
        assert isinstance(cfg, TelemetryConfig)
        assert cfg.max_spans is None

    def test_coerce_mapping_and_passthrough(self):
        cfg = TelemetryConfig.coerce({"max_spans": 100})
        assert cfg.max_spans == 100
        assert TelemetryConfig.coerce(cfg) is cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(SimulationError, match="unknown telemetry"):
            TelemetryConfig.coerce({"max_span": 100})

    def test_bad_values_rejected(self):
        with pytest.raises(SimulationError):
            TelemetryConfig(max_spans=0)
        with pytest.raises(SimulationError):
            TelemetryConfig(reservoir_size=0)
        with pytest.raises(SimulationError):
            TelemetryConfig.coerce(3.14)

    def test_options_normalize(self):
        """telemetry=False is byte-identical to the default options."""
        assert (SimulationOptions(frames=1, telemetry=False)
                == SimulationOptions(frames=1))
        opts = SimulationOptions(frames=1, telemetry=True)
        assert isinstance(opts.telemetry, TelemetryConfig)


class TestCollection:
    def test_off_by_default(self):
        off, on = _small_pair()
        assert off.telemetry is None
        assert on.telemetry is not None

    def test_observation_free(self):
        """Collection changes nothing but the telemetry section."""
        off, on = _small_pair()
        d_off, d_on = off.as_dict(), on.as_dict()
        tele = d_on.pop("telemetry")
        assert tele["spans"]["firing"] > 0
        assert "telemetry" not in d_off
        assert d_on == d_off
        assert on.events_processed == off.events_processed

    def test_seq_strictly_increasing(self):
        _, on = _small_pair()
        seqs = [s.seq for s in on.telemetry.spans]
        assert all(b > a for a, b in zip(seqs, seqs[1:]))

    def test_expected_span_kinds(self):
        _, on = _small_pair()
        counts = on.telemetry.span_counts()
        for kind in ("firing", "transfer", "wait", "idle"):
            assert counts.get(kind, 0) > 0, counts

    def test_busy_consistency_small(self):
        _, on = _small_pair()
        busy = on.telemetry.busy_by_processor()
        stats = on.utilization.processors
        assert set(busy) == set(stats)
        for idx, ps in stats.items():
            assert busy[idx] == pytest.approx(ps.busy_s, rel=1e-12)

    def test_busy_plus_idle_tiles_makespan(self):
        _, on = _small_pair()
        tele = on.telemetry
        busy = tele.busy_by_processor()
        idle: dict[int, float] = {}
        for span in tele.spans_of("idle"):
            idle[span.processor] = idle.get(span.processor, 0.0) \
                + span.duration_s
        for proc, busy_s in busy.items():
            assert busy_s + idle.get(proc, 0.0) == pytest.approx(
                tele.makespan_s, rel=1e-9
            )

    def test_wait_spans_causal(self):
        """Every wait starts at delivery and ends at its consumer."""
        _, on = _small_pair()
        firing_by_seq = {
            s.seq: s for s in on.telemetry.firing_spans()
        }
        waits = on.telemetry.spans_of("wait")
        assert waits
        for w in waits:
            assert w.duration_s >= 0.0
            consumer = firing_by_seq[w.consumer_seq]
            assert w.end_s == pytest.approx(consumer.start_s, abs=1e-15)

    def test_max_spans_cap(self):
        compiled = compile_application(
            build_image_pipeline(24, 16, 100.0), SMALL_PROC
        )
        capped = simulate(compiled, SimulationOptions(
            frames=2, telemetry={"max_spans": 50}
        ))
        _, full = _small_pair()
        tele = capped.telemetry
        assert len(tele.spans) <= 50
        assert tele.dropped_spans > 0
        # Online metrics always cover the full run, cap or no cap (the
        # idle gauges are derived from retained spans, so they may not).
        assert (tele.metrics.as_dict()["counters"]
                == full.telemetry.metrics.as_dict()["counters"])
        assert (tele.metrics.as_dict()["histograms"]
                == full.telemetry.metrics.as_dict()["histograms"])

    def test_deterministic(self):
        compiled = compile_application(
            build_image_pipeline(24, 16, 100.0), SMALL_PROC
        )
        opts = SimulationOptions(frames=1, telemetry=True)
        first = simulate(compiled, opts).telemetry
        second = simulate(compiled, opts).telemetry
        assert spans_digest(first.spans) == spans_digest(second.spans)
        assert first.as_dict() == second.as_dict()


class TestDigests:
    def test_span_round_trip(self):
        _, on = _small_pair()
        for span in on.telemetry.spans[:200]:
            d = span_as_dict(span)
            assert d["kind"] == span.kind
            assert d["seq"] == span.seq
            json.dumps(d)  # JSON-safe

    def test_digest_sensitivity(self):
        _, on = _small_pair()
        spans = on.telemetry.firing_spans()[:10]
        bumped = list(spans)
        s = bumped[0]
        bumped[0] = FiringSpan(
            seq=s.seq, start_s=s.start_s + 1e-9, kernel=s.kernel,
            method=s.method, processor=s.processor, read_s=s.read_s,
            run_s=s.run_s, write_s=s.write_s, firing_index=s.firing_index,
        )
        assert spans_digest(spans) != spans_digest(bumped)

    def test_digests_stable_across_processes(self):
        """Neither digest may depend on interpreter hash randomization."""
        _, on = _small_pair()
        program = (
            "from repro.apps import build_image_pipeline\n"
            "from repro.obs import spans_digest\n"
            "from repro.machine import ProcessorSpec\n"
            "from repro.sim import SimulationOptions, simulate, trace_digest\n"
            "from repro.transform import compile_application\n"
            "proc = ProcessorSpec(clock_hz=20e6, memory_words=512)\n"
            "compiled = compile_application("
            "build_image_pipeline(24, 16, 100.0), proc)\n"
            "res = simulate(compiled, SimulationOptions("
            "frames=2, trace=True, telemetry=True))\n"
            "print(spans_digest(res.telemetry.spans))\n"
            "print(trace_digest(res.trace))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = str(src)
        out = subprocess.run(
            [sys.executable, "-c", program], env=env, text=True,
            capture_output=True, check=True,
        ).stdout.split()
        assert out[0] == spans_digest(on.telemetry.spans)
        traced = simulate(
            compile_application(build_image_pipeline(24, 16, 100.0),
                                SMALL_PROC),
            SimulationOptions(frames=2, trace=True),
        )
        from repro.sim import trace_digest

        assert out[1] == trace_digest(traced.trace)


#: One hand-built span per row shape, awkward values included: a routed
#: and an unrouted transfer, names that need escaping, non-finite floats
#: and an int where a float belongs.
_HAND_BUILT = (
    FiringSpan(seq=1, start_s=0.0, kernel='k"1', method="run",
               processor=None, read_s=0.0, run_s=1e-07, write_s=2.5,
               firing_index=3),
    FiringSpan(seq=2, start_s=float("inf"), kernel="k", method="m",
               processor=4, read_s=float("nan"), run_s=float("-inf"),
               write_s=0, firing_index=0),
    TransferSpan(seq=3, start_s=1.5, src="a", src_port="out", dst="b\\c",
                 dst_port="in", bytes=64, token=False, occupancy=2),
    TransferSpan(seq=4, start_s=1.5, src="a", src_port="out", dst="b",
                 dst_port="in", bytes=0, token=True, occupancy=1, hops=3,
                 link_wait_s=1e-09, route="(0,0)->(1,0)"),
    WaitSpan(seq=5, consumer_seq=2, start_s=0.25, duration_s=0.0,
             kernel="k\u00e9", port="in", src="a\n"),
    StallSpan(seq=6, start_s=2.0, kernel="k", processor=None),
    FaultSpan(seq=7, start_s=2.0, action="retry", kernel="k", processor=1,
              busy_s=1e-06, duration_s=3e-06, detail="run"),
    FaultSpan(seq=8, start_s=2.0, action="pe_death", processor=1),
    IdleSpan(seq=9, start_s=0.0, duration_s=2.0, processor=1),
)


class TestRows:
    def test_row_round_trip(self):
        assert {type(s) for s in _HAND_BUILT} == set(SPAN_TYPES.values())
        for span in _HAND_BUILT:
            row = span_row(span)
            assert row[0] == span.kind
            again = span_from_row(row)
            assert type(again) is type(span)
            assert span_row(again) == row

    def test_line_is_the_canonical_json(self):
        for span in _HAND_BUILT:
            assert span_line(span_row(span)) == json.dumps(
                span_as_dict(span), sort_keys=True)

    def test_collected_lines_are_the_canonical_json(self):
        _, on = _small_pair()
        tele = on.telemetry
        lines = list(spans_jsonl(tele))
        assert lines == [
            json.dumps(span_as_dict(s), sort_keys=True) for s in tele.spans
        ]
        assert spans_digest(tele.spans) == tele.sha256

    def test_telemetry_from_spans(self):
        """Typed spans in, rows kept: the two constructors agree."""
        _, on = _small_pair()
        tele = on.telemetry
        rebuilt = Telemetry(
            config=tele.config, spans=tele.spans, metrics=tele.metrics,
            makespan_s=tele.makespan_s,
        )
        assert rebuilt.rows == tele.rows
        assert rebuilt.as_dict() == tele.as_dict()

    def test_digest_hashed_once(self, monkeypatch):
        _, on = _small_pair()
        tele = Telemetry(config=on.telemetry.config, metrics=MetricsRegistry(),
                         makespan_s=1.0, rows=on.telemetry.rows)
        calls = []
        real = obs_collect.rows_digest
        monkeypatch.setattr(
            obs_collect, "rows_digest",
            lambda rows: calls.append(1) or real(rows))
        assert tele.as_dict()["sha256"] == tele.as_dict()["sha256"]
        assert len(calls) == 1

    def test_no_span_objects_unless_asked(self, monkeypatch, tmp_path):
        """Collection and every in-tree consumer read rows."""
        def refuse(row):
            raise AssertionError(f"built a span object for {row[0]!r}")

        monkeypatch.setattr(obs_collect, "span_from_row", refuse)
        compiled = compile_application(
            build_image_pipeline(24, 16, 100.0), SMALL_PROC
        )
        result = simulate(compiled, SimulationOptions(
            frames=2, telemetry=True, channel_capacity=4))
        tele = result.telemetry
        result.as_dict()
        tele.busy_by_processor()
        analyze_critical_path(tele)
        validate_perfetto(to_perfetto(tele))
        write_spans_jsonl(tele, str(tmp_path / "spans.jsonl"))
        timeline(tele)
        with pytest.raises(AssertionError):
            tele.spans

    def test_metric_handles_bound_once(self, monkeypatch):
        """Label keys are built per distinct metric, not per event."""
        calls = []
        real = obs_metrics._key
        monkeypatch.setattr(
            obs_metrics, "_key",
            lambda name, labels: calls.append(name) or real(name, labels))
        compiled = compile_application(
            build_image_pipeline(24, 16, 100.0), SMALL_PROC
        )
        tele = simulate(
            compiled, SimulationOptions(frames=2, telemetry=True)
        ).telemetry
        dump = tele.metrics.as_dict()
        distinct = sum(len(rows) for rows in dump.values())
        assert distinct <= len(calls) <= 2 * distinct
        assert len(tele.rows) > 20 * distinct


class TestFigure13:
    """The acceptance invariants, on all five Figure 13 applications."""

    @pytest.mark.parametrize("key", FIGURE13_KEYS)
    def test_busy_consistency(self, key):
        result = _figure13(key)
        busy = result.telemetry.busy_by_processor()
        stats = result.utilization.processors
        assert set(busy) == set(stats)
        for idx, ps in stats.items():
            assert busy[idx] == pytest.approx(ps.busy_s, rel=1e-12), (
                f"app {key} PE{idx}: span busy {busy[idx]} != "
                f"stats busy {ps.busy_s}"
            )

    @pytest.mark.parametrize("key", FIGURE13_KEYS)
    def test_critical_path_tiles_makespan(self, key):
        result = _figure13(key)
        report = analyze_critical_path(result.telemetry)
        assert report.total_s == pytest.approx(result.makespan_s, rel=1e-9)
        # Segments are chronological and contiguous.
        for a, b in zip(report.segments, report.segments[1:]):
            assert b.start_s == pytest.approx(a.end_s, rel=1e-9)

    @pytest.mark.parametrize("key", FIGURE13_KEYS)
    def test_perfetto_valid(self, key):
        result = _figure13(key)
        doc = json.loads(json.dumps(to_perfetto(result.telemetry, app=key)))
        counts = validate_perfetto(doc)
        assert counts.get("X", 0) > 0 and counts.get("M", 0) > 0


class TestNonOverlap:
    PROC = ProcessorSpec(clock_hz=50e6, memory_words=2048)

    @given(pipelines())
    @settings(max_examples=10, deadline=None)
    def test_per_pe_timelines_never_overlap(self, case):
        """A processing element runs one firing at a time — the span
        stream must say so for any compiled pipeline."""
        app, extent, rate = case
        compiled = compile_application(
            app, self.PROC, CompileOptions(mapping="greedy")
        )
        result = simulate(
            compiled, SimulationOptions(frames=1, telemetry=True)
        )
        by_pe: dict[int, list[FiringSpan]] = {}
        for span in result.telemetry.firing_spans():
            if span.processor is not None:
                by_pe.setdefault(span.processor, []).append(span)
        assert by_pe
        for spans in by_pe.values():
            spans.sort(key=lambda s: (s.start_s, s.seq))
            for a, b in zip(spans, spans[1:]):
                assert b.start_s >= a.end_s - 1e-15

    @given(pipelines())
    @settings(max_examples=10, deadline=None)
    def test_telemetry_is_observation_free(self, case):
        app, extent, rate = case
        compiled = compile_application(
            app, self.PROC, CompileOptions(mapping="greedy")
        )
        on = simulate(compiled, SimulationOptions(frames=1, telemetry=True))
        off = simulate(compiled, SimulationOptions(frames=1))
        d_on, d_off = on.as_dict(), off.as_dict()
        d_on.pop("telemetry")
        assert d_on == d_off


class TestPerfettoExport:
    def test_deterministic(self):
        _, on = _small_pair()
        assert to_perfetto(on.telemetry) == to_perfetto(on.telemetry)

    def test_write_and_validate(self, tmp_path):
        _, on = _small_pair()
        path = tmp_path / "trace.json"
        write_perfetto(on.telemetry, str(path), app="smoke")
        doc = json.loads(path.read_text())
        counts = validate_perfetto(doc)
        assert counts["X"] > 0
        assert doc["otherData"]["makespan_s"] == on.telemetry.makespan_s
        names = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "simulation (smoke)" in names and "channels" in names

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_perfetto([])
        with pytest.raises(ValueError, match="traceEvents"):
            validate_perfetto({})
        with pytest.raises(ValueError, match="unknown phase"):
            validate_perfetto({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(ValueError, match="numeric 'ts'"):
            validate_perfetto({"traceEvents": [
                {"ph": "X", "name": "a", "pid": 1}
            ]})
        with pytest.raises(ValueError, match="negative 'dur'"):
            validate_perfetto({"traceEvents": [
                {"ph": "X", "name": "a", "pid": 1, "ts": 0, "dur": -1}
            ]})


class TestJsonlAndTimeline:
    def test_jsonl_round_trip(self, tmp_path):
        _, on = _small_pair()
        path = tmp_path / "spans.jsonl"
        count = write_spans_jsonl(on.telemetry, str(path))
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(on.telemetry.spans)
        parsed = [json.loads(line) for line in lines]
        assert [d["seq"] for d in parsed] == [
            s.seq for s in on.telemetry.spans
        ]
        assert list(spans_jsonl(on.telemetry)) == lines

    def test_timeline_extends_gantt(self):
        _, on = _small_pair()
        text = timeline(on.telemetry, width=40)
        assert "gantt over" in text
        assert "channel occupancy" in text
        # Occupancy cells are depth digits, '.', or '+', one per column.
        rows = text.splitlines()
        occ = rows[rows.index(
            "channel occupancy (items queued at quantum start):"
        ) + 1:]
        assert occ
        for row in occ:
            cells = row.strip().split()[0]
            assert len(cells) == 40
            assert set(cells) <= set(".+0123456789")


class TestCriticalPath:
    def test_tiles_makespan_small(self):
        _, on = _small_pair()
        report = analyze_critical_path(on.telemetry)
        assert report.total_s == pytest.approx(on.makespan_s, rel=1e-9)
        assert report.makespan_s == on.makespan_s

    def test_slack_nonnegative_and_path_kernels_tight(self):
        _, on = _small_pair()
        report = analyze_critical_path(on.telemetry)
        assert report.slack_by_kernel
        for kernel, slack in report.slack_by_kernel.items():
            assert slack >= -1e-12, (kernel, slack)
        # Something must be on the path with (near-)zero slack.
        assert min(report.slack_by_kernel.values()) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_report_serializes(self):
        _, on = _small_pair()
        report = analyze_critical_path(on.telemetry)
        d = json.loads(json.dumps(report.as_dict()))
        assert d["path_s"] == pytest.approx(d["makespan_s"], rel=1e-9)
        assert d["bound"] in ("input", "compute", "faults")
        segs = report.segments_as_dicts()
        assert len(segs) == d["segments"]
        text = report.describe()
        assert "critical path" in text

    def test_empty_telemetry(self):
        from repro.obs.collect import Telemetry

        empty = Telemetry(
            config=TelemetryConfig(), spans=[],
            metrics=MetricsRegistry(), makespan_s=0.0,
        )
        report = analyze_critical_path(empty)
        assert report.segments == []
        assert any("no firings" in h for h in report.hints)

    def test_hints_name_compile_options(self):
        """Hints must be actionable: they reference CompileOptions knobs
        or SimulationOptions capacities, not vague advice."""
        for key in ("1", "5"):
            report = analyze_critical_path(_figure13(key).telemetry)
            for hint in report.hints:
                assert ("CompileOptions" in hint or "rate_hz" in hint
                        or "SimulationOptions" in hint), hint


class TestMetricsRegistry:
    def test_counter_gauge(self):
        reg = MetricsRegistry()
        reg.counter("events", kind="a").inc()
        reg.counter("events", kind="a").inc(2)
        reg.counter("events", kind="b").inc()
        g = reg.gauge("depth", edge="x")
        g.set(3)
        g.set(1)
        d = reg.as_dict()
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in d["counters"]
        }
        assert counters[("events", (("kind", "a"),))] == 3
        assert counters[("events", (("kind", "b"),))] == 1
        gauge = d["gauges"][0]
        assert gauge["value"] == 1 and gauge["max"] == 3

    def test_histogram_deterministic(self):
        a, b = MetricsRegistry(reservoir_size=64), MetricsRegistry(
            reservoir_size=64
        )
        for reg in (a, b):
            h = reg.histogram("lat")
            for i in range(1000):
                h.observe(float(i))
        ha = a.histogram("lat")
        assert ha.count == 1000
        assert ha.min == 0.0 and ha.max == 999.0
        assert ha.total == pytest.approx(sum(range(1000)))
        # Reservoir sampling is seeded: identical streams, identical
        # quantiles, across registries.
        assert a.as_dict() == b.as_dict()
        assert 0.0 <= ha.quantile(0.5) <= 999.0
        assert ha.quantile(0.99) >= ha.quantile(0.5)
