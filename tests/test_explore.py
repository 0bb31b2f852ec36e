"""Tests for the design-space exploration engine (spec, cache, store,
serial execution, cached rate probes, and the CLI surface)."""

import inspect
import itertools
import json
import pickle
from collections import Counter

import pytest

from repro.apps import benchmark, benchmark_suite, build_image_pipeline
from repro.cli import main
from repro.explore import (
    APP_TEMPLATES,
    CACHE_SCHEMA,
    STORE_SCHEMA,
    DiskProbeCache,
    EventLog,
    ExploreError,
    Job,
    JobCacheHit,
    JobFinished,
    JobScheduled,
    JobStarted,
    ResultCache,
    ResultStore,
    SweepFinished,
    SweepSpec,
    SweepStarted,
    aggregate,
    execute_job,
    find_max_rate_cached,
    run_sweep,
)
from repro.transform import compile_application, find_max_rate

from helpers import SMALL_PROC

PIPELINE_SPEC = {
    "name": "unit",
    "app": "image_pipeline",
    "axes": {"rate_hz": [50.0, 100.0]},
    "fixed": {"width": 16, "height": 12},
    "frames": 2,
}


#: (output, chunks per frame, frame rate) of every Figure 13 key.
SUITE_CONTRACTS = {
    "1": ("Video", 128, 200.0), "1F": ("Video", 128, 1200.0),
    "2": ("result", 1, 200.0), "2F": ("result", 1, 800.0),
    "3": ("Out", 1620, 50.0), "4": ("Out", 448, 100.0),
    "SS": ("result", 1, 100.0), "SF": ("result", 1, 1000.0),
    "BS": ("result", 1, 100.0), "BF": ("result", 1, 400.0),
    "5": ("result", 1, 400.0), "FB": ("Out", 240, 100.0),
}

#: Output and chunks per frame of every template, by width and height
#: (other builder parameters at their defaults).
TEMPLATE_CONTRACTS = {
    "image_pipeline": ("result", lambda w, h: 1),
    "histogram": ("result", lambda w, h: 1),
    "bayer": ("Video", lambda w, h: (w // 2) * (h // 2)),
    "buffer_test": ("Out", lambda w, h: (w - 6) * (h - 6)),
    "multi_conv": ("Out", lambda w, h: (w - 4) * (h - 4)),
    "filter_bank": ("Out", lambda w, h: (w - 4) * (h - 4)),
}


def tiny_jobs():
    return SweepSpec.from_dict(PIPELINE_SPEC).jobs()


class TestSweepSpec:
    def test_grid_expansion_is_deterministic(self):
        spec = SweepSpec.from_dict({
            "app": "image_pipeline",
            "axes": {"rate_hz": [50, 100], "width": [16, 24]},
            "fixed": {"height": 12},
        })
        jobs = spec.jobs()
        assert len(jobs) == 4
        assert jobs == spec.jobs()  # same order every expansion
        labels = [j.label for j in jobs]
        assert len(set(labels)) == 4

    def test_axis_routing(self):
        spec = SweepSpec.from_dict({
            "app": "image_pipeline",
            "axes": {"clock_mhz": [20, 40]},
            "fixed": {"width": 16, "height": 12, "rate_hz": 50,
                      "mapping": "1:1", "frames": 5},
        })
        job = spec.jobs()[0]
        assert dict(job.processor)["clock_mhz"] == 20
        assert job.build_processor().clock_hz == 20e6
        assert job.build_options().mapping == "1:1"
        assert job.frames == 5
        assert set(job.param_dict) == {"width", "height", "rate_hz"}

    def test_points_list_sweep(self):
        spec = SweepSpec.from_dict({
            "app": "image_pipeline",
            "points": [
                {"width": 16, "height": 12, "rate_hz": 50},
                {"width": 24, "height": 16, "rate_hz": 100},
            ],
        })
        assert len(spec.jobs()) == 2

    def test_benchmark_key_app(self):
        spec = SweepSpec.from_dict({"app": "2", "axes": {"frames": [2, 3]}})
        assert [j.frames for j in spec.jobs()] == [2, 3]

    def test_contract_is_derived_from_the_compiled_graph(self):
        # The tuples the suite and the templates used to declare by
        # hand, now read off the compiled graph.
        for key, (output, chunks, rate) in SUITE_CONTRACTS.items():
            for mapping in ("greedy", "1:1"):
                job = Job(sweep="t", app=key,
                          options=(("mapping", mapping),))
                got = job.measurement()
                assert got == (output, chunks, rate), (key, mapping)
                assert type(got[2]) is float
        grid = itertools.product([(24, 16), (48, 20)], [None, 60, 62.5])
        for (width, height), rate in grid:
            params = {"width": width, "height": height}
            if rate is not None:
                params["rate_hz"] = rate
            for app, (output, chunks) in TEMPLATE_CONTRACTS.items():
                job = SweepSpec.from_dict(
                    {"app": app, "fixed": params}).jobs()[0]
                expected = rate
                if rate is None:  # the builder's default applies
                    expected = inspect.signature(
                        APP_TEMPLATES[app].build
                    ).parameters["rate_hz"].default
                got = job.measurement()
                assert got == (output, chunks(width, height), expected), \
                    job.label
                assert type(got[2]) is float

    def test_job_stats_rate_is_a_float(self):
        # bench/'s job goldens digest stats["rate_hz"]: an int rate axis
        # must still come out as a float.
        job = SweepSpec.from_dict({**PIPELINE_SPEC,
                                   "axes": {"rate_hz": [50]}}).jobs()[0]
        rate = execute_job(job)["rate_hz"]
        assert rate == 50.0 and type(rate) is float

    def test_window_axis_moves_the_frame_boundary(self):
        # window=5 on 48x16 makes 44*12 chunks a frame; the declared
        # (w-6)*(h-6) said 420 and cut every frame short.
        job = SweepSpec.from_dict({
            "app": "buffer_test",
            "fixed": {"width": 48, "height": 16, "rate_hz": 40, "window": 5},
        }).jobs()[0]
        assert job.measurement() == ("Out", 528, 40.0)
        stats = execute_job(job)
        assert stats["meets"]
        assert stats["worst_interval_s"] == pytest.approx(1 / 40, rel=1e-3)

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ExploreError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"app": "2", "axis": {}})

    def test_empty_axis_rejected(self):
        with pytest.raises(ExploreError, match="non-empty list"):
            SweepSpec.from_dict({"app": "2", "axes": {"frames": []}})

    def test_spec_frames_below_one_rejected(self):
        with pytest.raises(ExploreError, match="'frames' must be at least 1, "
                                               "got -1"):
            SweepSpec.from_dict({"app": "2", "frames": -1})

    def test_frames_axis_below_one_rejected_at_expansion(self):
        spec = SweepSpec.from_dict({"app": "2", "axes": {"frames": [2, 0]}})
        with pytest.raises(ExploreError, match="'frames' must be at least 1, "
                                               "got 0"):
            spec.jobs()

    def test_job_frames_below_one_rejected(self):
        wire = SweepSpec.from_dict({"app": "2"}).jobs()[0].to_dict()
        assert Job.from_dict(wire).frames == 3
        with pytest.raises(ExploreError, match="'frames' must be at least 1, "
                                               "got 0"):
            Job.from_dict({**wire, "frames": 0})

    def test_measure_refuses_a_verdict_over_no_frames(self):
        """Where every front end lands: a zero-frame run completes zero
        of zero expected frames, which used to read ``"meets": true``."""
        from repro.errors import SimulationError
        from repro.explore.executor import measure
        from repro.transform import CompileOptions

        with pytest.raises(SimulationError, match="at least one frame"):
            measure(benchmark("2").application(), SMALL_PROC,
                    CompileOptions(), frames=0)

    def test_unknown_app_rejected(self):
        spec = SweepSpec.from_dict({"app": "not_an_app"})
        with pytest.raises(ExploreError, match="unknown app"):
            spec.jobs()

    def test_bad_builder_parameter_rejected_before_running(self):
        spec = SweepSpec.from_dict({
            "app": "image_pipeline",
            "fixed": {"width": 16, "height": 12, "wdith": 1},
        })
        with pytest.raises(ExploreError, match="rejects parameters"):
            spec.jobs()

    def test_benchmark_with_parameters_rejected(self):
        spec = SweepSpec.from_dict({"app": "2", "fixed": {"width": 16}})
        with pytest.raises(ExploreError, match="'2' rejects parameters"):
            spec.jobs()


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fp = "a" * 64
        record = {"kind": "result", "stats": {"meets": True}}
        assert cache.get(fp) is None
        cache.put(fp, record)
        assert cache.get(fp) == record
        assert fp in cache
        assert len(cache) == 1
        assert list(cache.fingerprints()) == [fp]
        assert cache.clear() == 1
        assert cache.get(fp) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "b" * 64
        (tmp_path / f"{fp}.json").write_text("{not json", encoding="utf-8")
        assert cache.get(fp) is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "c" * 64
        (tmp_path / f"{fp}.json").write_text(
            json.dumps({"schema": CACHE_SCHEMA + 1, "fingerprint": fp,
                        "record": {}}),
            encoding="utf-8",
        )
        assert cache.get(fp) is None

    def test_malformed_fingerprint_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.get("../escape")
        with pytest.raises(ValueError):
            cache.put("", {})


class TestResultStore:
    def test_round_trip_with_schema(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append({"kind": "result", "label": "a"})
        store.append({"kind": "failure", "label": "b"})
        records = store.load()
        assert [r["label"] for r in records] == ["a", "b"]
        assert all(r["schema"] == STORE_SCHEMA for r in records)

    def test_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.append({"kind": "result", "label": "ok"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": 1, "kind": "resu')  # crash mid-write
        assert [r["label"] for r in store.load()] == ["ok"]

    def test_skips_foreign_schema_and_blank_lines(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.append({"label": "mine"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
            fh.write(json.dumps({"schema": 99, "label": "foreign"}) + "\n")
        assert [r["label"] for r in store.load()] == ["mine"]

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path / "never.jsonl").load() == []


class TestSweepReport:
    @staticmethod
    def _result(app, count, rate, util, meets=True):
        return {"kind": "result", "label": app, "job": {"app": app},
                "stats": {"processor_count": count, "rate_hz": rate,
                          "avg_utilization": util, "meets": meets}}

    def test_frontier_and_utilization(self):
        report = aggregate([
            self._result("a", 4, 100.0, 0.5),
            self._result("a", 4, 200.0, 0.7),
            self._result("a", 8, 400.0, 0.6),
            self._result("a", 4, 300.0, 0.9, meets=False),  # excluded
            {"kind": "failure", "label": "a", "failure": {"kind": "crash",
                                                          "message": "x"}},
        ])
        frontier = report.frontier()
        assert [(r["processor_count"], r["rate_hz"]) for r in frontier] == \
            [(4, 200.0), (8, 400.0)]
        util = report.utilization_by_processors()
        assert util[0]["processor_count"] == 4
        assert util[0]["points"] == 3
        assert util[0]["mean_utilization"] == pytest.approx((0.5 + 0.7 + 0.9) / 3)
        data = report.as_dict()
        assert data["failed"] == 1
        assert data["failures"][0]["kind"] == "crash"
        assert "crash" in report.describe()


class TestSerialSweep:
    def test_runs_and_caches(self, tmp_path):
        jobs = tiny_jobs()
        cache = ResultCache(tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")

        log = EventLog()
        first = run_sweep(jobs, cache=cache, store=store, on_event=log)
        assert first.succeeded == len(jobs)
        assert first.failed == 0
        assert first.cache_hits == 0
        kinds = Counter(type(e) for e in log.events)
        assert kinds[SweepStarted] == 1
        assert kinds[JobScheduled] == len(jobs)
        assert kinds[JobStarted] == len(jobs)
        assert kinds[JobFinished] == len(jobs)
        assert kinds[SweepFinished] == 1
        for record in first.records:
            assert record["kind"] == "result"
            assert record["attempts"] == 1
            stats = record["stats"]
            assert stats["processor_count"] >= 1
            assert isinstance(stats["meets"], bool)

        log2 = EventLog()
        second = run_sweep(jobs, cache=cache, store=store, on_event=log2)
        assert second.cache_hits == len(jobs)
        assert second.succeeded == len(jobs)
        kinds = Counter(type(e) for e in log2.events)
        assert kinds[JobCacheHit] == len(jobs)
        assert not kinds[JobStarted]  # nothing executed

        # Both runs appended one terminal record per job to the store.
        assert len(store.load()) == 2 * len(jobs)

    def test_event_dicts_are_versioned(self):
        event = JobFinished("x", elapsed_s=1.0, meets=True, processor_count=2)
        data = event.as_dict()
        assert data["event"] == "JobFinished"
        assert data["schema"]
        assert "done" in event.describe()


class TestCompiledAppPicklable:
    def test_every_suite_app_pickles_compiled(self):
        for bench in benchmark_suite():
            compiled = compile_application(bench.application(), SMALL_PROC)
            clone = pickle.loads(pickle.dumps(compiled))
            assert clone.processor_count == compiled.processor_count
            assert set(clone.graph.kernels) == set(compiled.graph.kernels)


class _MemoryProbeCache:
    def __init__(self):
        self.decisions = {}

    def get_decision(self, key):
        return self.decisions.get(key)

    def put_decision(self, key, accepted):
        self.decisions[key] = accepted


class TestCachedRateSearch:
    def test_second_search_answers_from_cache(self):
        def build(rate):
            return build_image_pipeline(24, 16, rate)

        cache = _MemoryProbeCache()
        first = find_max_rate(build, SMALL_PROC, processor_budget=8,
                              low_hz=50.0, probe_cache=cache)
        assert first.cache_hits == 0
        second = find_max_rate(build, SMALL_PROC, processor_budget=8,
                               low_hz=50.0, probe_cache=cache)
        assert second.cache_hits == second.probes
        assert second.best_rate_hz == first.best_rate_hz
        assert second.history == first.history
        # The winner still ships a real compiled artifact.
        assert second.compiled.processor_count <= 8

    def test_disk_probe_cache(self, tmp_path):
        def build(rate):
            return build_image_pipeline(24, 16, rate)

        first = find_max_rate_cached(build, SMALL_PROC,
                                     cache_dir=tmp_path, processor_budget=8,
                                     low_hz=50.0)
        second = find_max_rate_cached(build, SMALL_PROC,
                                      cache_dir=tmp_path, processor_budget=8,
                                      low_hz=50.0)
        assert second.cache_hits == second.probes == first.probes
        assert second.best_rate_hz == first.best_rate_hz

    def test_disk_probe_cache_counts(self, tmp_path):
        cache = DiskProbeCache(ResultCache(tmp_path))
        assert cache.get_decision("d" * 64) is None
        cache.put_decision("d" * 64, True)
        assert cache.get_decision("d" * 64) is True
        assert (cache.hits, cache.misses) == (1, 1)


class TestCliExplore:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(PIPELINE_SPEC), encoding="utf-8")
        return path

    def test_run_twice_hits_cache(self, spec_path, tmp_path, capsys):
        argv = ["explore", str(spec_path),
                "--cache-dir", str(tmp_path / "cache"),
                "--store", str(tmp_path / "results.jsonl"), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["succeeded"] == first["jobs"]
        assert first["cache_hits"] == 0

        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cache_hits"] == second["jobs"]
        assert second["succeeded"] == second["jobs"]
        assert second["frontier"] == first["frontier"]
        assert len(ResultStore(tmp_path / "results.jsonl").load()) == \
            2 * first["jobs"]

    def test_progress_rendering(self, spec_path, tmp_path, capsys):
        assert main(["explore", str(spec_path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "queued" in out and "done" in out
        assert "records" in out  # the report footer

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["explore", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_spec(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("garbage{", encoding="utf-8")
        assert main(["explore", str(path)]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_malformed_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"app": "2", "bogus": 1}),
                        encoding="utf-8")
        assert main(["explore", str(path)]) == 2
        assert "unknown sweep spec keys" in capsys.readouterr().err


class TestCliJson:
    def test_simulate_json(self, capsys):
        assert main(["simulate", "2", "--frames", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["benchmark"] == "2"
        assert data["verdict"]["meets"] is True
        assert data["utilization"]["processor_count"] >= 1
        assert 0.0 < data["utilization"]["average_utilization"] <= 1.0

    def test_schedule_json(self, capsys):
        assert main(["schedule", "SS", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["admissible"] is True
        assert data["processors"]
        entry = data["processors"][0]
        assert entry["cycles_per_frame"] <= entry["budget_cycles"]

    def test_suite_json(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.cli.benchmark_suite",
                            lambda: [benchmark("2")])
        assert main(["suite", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == 1
        row = data["rows"][0]
        assert row["benchmark"] == "2"
        assert row["meets"] is True
        assert row["gain"] == pytest.approx(
            row["utilization_greedy"] / row["utilization_1to1"])
        assert data["geometric_mean_gain"] == pytest.approx(row["gain"])


class TestTelemetryAxis:
    def test_job_routing_and_fingerprint(self):
        spec = SweepSpec.from_dict({
            "app": "image_pipeline",
            "axes": {"telemetry": [False, True]},
            "fixed": {"width": 16, "height": 12, "rate_hz": 50.0},
            "frames": 1,
        })
        plain, instrumented = spec.jobs()
        assert not plain.telemetry and instrumented.telemetry
        # Distinct design points, and the off-job fingerprints exactly
        # like a pre-telemetry job (old cache entries stay valid).
        assert plain.fingerprint != instrumented.fingerprint
        assert "telemetry" in instrumented.label
        round_tripped = Job.from_dict(instrumented.to_dict())
        assert round_tripped.fingerprint == instrumented.fingerprint

    def test_executed_job_carries_telemetry_stats(self):
        from repro.explore.executor import execute_job

        spec = SweepSpec.from_dict({
            "app": "image_pipeline",
            "axes": {"telemetry": [True]},
            "fixed": {"width": 16, "height": 12, "rate_hz": 50.0},
            "frames": 1,
        })
        stats = execute_job(spec.jobs()[0])
        tele = stats["telemetry"]
        assert tele["spans"]["firing"] > 0
        cp = tele["critical_path"]
        assert cp["path_s"] == pytest.approx(cp["makespan_s"], rel=1e-9)
