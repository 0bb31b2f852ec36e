"""The dashboard aggregation layer's contract.

The load-bearing invariant (ISSUE 9's acceptance criterion): the
:class:`MetricsAggregator` is a *pure consumer* of the event stream and
record store — replaying a completed run's NDJSON event log offline
yields a snapshot whose canonical JSON is byte-identical to the one the
live service's observer produced for the same terminal state.  The fold
never reads a clock; everything time-shaped travels in the events.

Unit tests pin the counting rules (they must match ``RunHandle``
accounting bit for bit), the seq-dedup on replayed envelopes, and the
authoritative ``RunFinished`` overwrite.  End-to-end tests drive the
real service with ``--dashboard`` and ``repro dash`` — the same HTTP
server with no scheduler — over the same data dir, which reading never
changes.
"""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.dash import (
    DASH_SCHEMA,
    MetricsAggregator,
    canonical_json,
    dashboard_page,
    telemetry_drilldown,
)
from repro.serve import ServiceClient

from test_serve import SPEC, _LiveService, tree


def envelopes(run_id, events):
    """Wire envelopes with 1-based per-run seqs, like RunHandle.emit."""
    return [{"seq": seq, "run": run_id, **event}
            for seq, event in enumerate(events, start=1)]


ACCEPTED = {"event": "RunAccepted", "label": "demo", "run_id": "r1",
            "total": 4, "priority": 2, "tenant": "alice"}


class TestFoldRules:
    def test_job_lifecycle_counting(self):
        agg = MetricsAggregator()
        for env in envelopes("r1", [
            ACCEPTED,
            {"event": "JobScheduled", "label": "a", "fingerprint": "fa"},
            {"event": "JobStarted", "label": "a", "attempt": 1},
            {"event": "JobFinished", "label": "a", "elapsed_s": 0.5,
             "meets": True, "processor_count": 4},
            {"event": "JobCacheHit", "label": "b", "fingerprint": "fb"},
            {"event": "JobStarted", "label": "c", "attempt": 1},
            {"event": "JobRetried", "label": "c", "attempt": 2,
             "reason": "crash", "delay_s": 0.1},
            {"event": "JobFailed", "label": "c", "kind": "error",
             "message": "boom", "attempts": 2},
            {"event": "JobFailed", "label": "d", "kind": "cancelled",
             "message": "", "attempts": 0},
        ]):
            agg.envelope(env)
        (run,) = agg.snapshot().as_dict()["runs"]
        assert run["name"] == "demo" and run["tenant"] == "alice"
        assert run["priority"] == 2 and run["total"] == 4
        assert run["done"] == 4
        assert run["succeeded"] == 2  # finished + cache hit
        assert run["cache_hits"] == 1
        assert run["failed"] == 1 and run["cancelled"] == 1
        assert run["retries"] == 1
        assert run["jobs"] == {"a": "done", "b": "cached", "c": "failed",
                               "d": "cancelled"}

    def test_quarantine_counts_as_failed_and_quarantined(self):
        agg = MetricsAggregator()
        for env in envelopes("r1", [
            ACCEPTED,
            {"event": "JobFailed", "label": "a", "kind": "quarantined",
             "message": "3 crashes", "attempts": 3},
        ]):
            agg.envelope(env)
        (run,) = agg.snapshot().as_dict()["runs"]
        assert run["failed"] == 1 and run["quarantined"] == 1
        assert run["jobs"]["a"] == "quarantined"

    def test_replayed_seqs_fold_once(self):
        agg = MetricsAggregator()
        stream = envelopes("r1", [
            ACCEPTED,
            {"event": "JobCacheHit", "label": "a", "fingerprint": "fa"},
        ])
        for env in stream + stream:  # a reconnecting watch replays
            agg.envelope(env)
        (run,) = agg.snapshot().as_dict()["runs"]
        assert run["done"] == 1 and run["cache_hits"] == 1
        assert run["last_seq"] == 2

    def test_run_finished_counters_are_authoritative(self):
        # A log truncated of its job events still folds to the right
        # terminal state: RunFinished overwrites the tallies.
        agg = MetricsAggregator()
        for env in envelopes("r1", [
            ACCEPTED,
            {"event": "RunFinished", "status": "failed", "total": 4,
             "succeeded": 2, "failed": 1, "cancelled": 1,
             "cache_hits": 2, "elapsed_s": 8.0},
        ]):
            agg.envelope(env)
        snap = agg.snapshot().as_dict()
        (run,) = snap["runs"]
        assert run["state"] == "terminal" and run["status"] == "failed"
        assert run["done"] == 4 and run["succeeded"] == 2
        assert run["jobs_per_s"] == pytest.approx(0.5)
        assert run["events_per_s"] == pytest.approx(2 / 8.0)
        assert snap["totals"]["cache_hit_ratio"] == pytest.approx(0.5)
        assert snap["totals"]["active"] == 0

    def test_unknown_events_and_runs_are_tolerated(self):
        agg = MetricsAggregator()
        agg.envelope({"seq": 1, "run": "r1", "event": "FutureThing"})
        agg.envelope({"event": "NoRunKey"})
        agg.envelope({"seq": "bogus", "run": "r2", "event": "JobStarted"})
        snap = agg.snapshot().as_dict()
        assert snap["dash_schema"] == DASH_SCHEMA
        assert snap["totals"]["events"] == 1  # r1's seq advanced

    def test_records_feed_frontier_and_drilldown(self):
        agg = MetricsAggregator()
        agg.record({"kind": "result", "label": "fast", "run": "r1",
                    "job": {"app": "image_pipeline"},
                    "stats": {"meets": True, "rate_hz": 100.0,
                              "processor_count": 4,
                              "avg_utilization": 0.8,
                              "makespan_s": 0.02,
                              "noc": {"placement": "row-major",
                                      "mean_link_utilization": 0.1,
                                      "worst_link": {"link": "0>1",
                                                     "busy_s": 0.5,
                                                     "utilization": 0.3}}},
                    "cache_hit": True})
        agg.record({"kind": "failure", "label": "broken", "run": "r1",
                    "job": {"app": "image_pipeline"},
                    "failure": {"kind": "error", "message": "boom"},
                    "chaos": True})
        snap = agg.snapshot().as_dict()
        assert snap["totals"]["records"] == {
            "total": 2, "results": 1, "failures": 1, "cache_hits": 1,
            "chaos": 1,
        }
        (point,) = snap["frontier"]
        assert point["rate_hz"] == 100.0
        assert point["processor_count"] == 4
        (run,) = snap["runs"]
        rows = {row["label"]: row for row in run["drilldown"]}
        assert rows["fast"]["noc"]["worst_link"]["link"] == "0>1"
        assert rows["fast"]["cache_hit"] is True
        assert rows["broken"]["failure"]["kind"] == "error"

    def test_progress_line_shapes(self):
        agg = MetricsAggregator()
        assert agg.progress_line("nope") is None
        for env in envelopes("r1", [
            ACCEPTED,
            {"event": "JobFinished", "label": "a", "elapsed_s": 0.5,
             "meets": True, "processor_count": 4},
        ]):
            agg.envelope(env)
        # Live: rate comes from the caller's wall clock...
        assert agg.progress_line("r1", elapsed_s=2.0) == \
            "[1/4 jobs, 25%, 0.50 jobs/s]"
        # ...and without one, the rate is omitted, never invented.
        assert agg.progress_line("r1") == "[1/4 jobs, 25%]"
        agg.envelope({"seq": 3, "run": "r1", "event": "RunFinished",
                      "status": "succeeded", "total": 4, "succeeded": 4,
                      "failed": 0, "cancelled": 0, "cache_hits": 0,
                      "elapsed_s": 2.0})
        # Terminal: the run's own elapsed_s wins over the wall clock.
        assert agg.progress_line("r1", elapsed_s=999.0) == \
            "[4/4 jobs, 100%, 2.00 jobs/s]"


class TestTelemetryDrilldown:
    def test_composes_timeline_path_and_noc(self):
        from repro.apps import BENCHMARK_PROCESSOR, benchmark
        from repro.machine import NocModel, fit_chip, row_major_placement
        from repro.sim import SimulationOptions, simulate
        from repro.transform import CompileOptions, compile_application

        bench = benchmark("SS")
        compiled = compile_application(
            bench.application(), BENCHMARK_PROCESSOR, CompileOptions()
        )
        chip = fit_chip(compiled.mapping.processor_count,
                        compiled.processor)
        noc = NocModel(placement=row_major_placement(compiled.mapping,
                                                     chip))
        result = simulate(compiled, SimulationOptions(
            frames=2, telemetry=True, noc=noc,
        ))
        view = telemetry_drilldown(result.telemetry)
        assert view["makespan_s"] == result.makespan_s
        # Timeline rows cover every PE that fired, busy time adds up.
        fired = {s.processor for s in result.telemetry.firing_spans()
                 if s.processor is not None}
        assert {row["processor"] for row in view["timeline"]} == fired
        for row in view["timeline"]:
            assert row["busy_s"] == pytest.approx(
                sum(seg["duration_s"] for seg in row["segments"])
            )
        # The critical path serializes with its full segment list.
        path = view["critical_path"]
        assert path["makespan_s"] == pytest.approx(result.makespan_s)
        assert path["segments"], "path must carry its segment list"
        assert all({"kind", "start_s", "duration_s"} <= set(seg)
                   for seg in path["segments"])
        # NoC links: per-link busy seconds within [0, makespan].
        assert view["noc_links"], "NoC run must produce link occupancy"
        for link in view["noc_links"]:
            assert 0.0 < link["busy_s"] <= result.makespan_s + 1e-9
            assert 0.0 < link["utilization"] <= 1.0
        # Pure function: same telemetry, same JSON.
        assert canonical_json(view) == \
            canonical_json(telemetry_drilldown(result.telemetry))


@pytest.fixture
def dash_live(tmp_path):
    with _LiveService(tmp_path / "data", dashboard=True) as service:
        yield service


class TestLiveDashboard:
    def test_live_and_offline_snapshots_are_identical(self, dash_live,
                                                      tmp_path):
        client = ServiceClient(dash_live.url)
        info = client.submit(SPEC, tenant="alice")
        events = list(client.events(info["run"]))
        assert events[-1]["event"] == "RunFinished"

        live_snap = client.metrics()
        assert live_snap["dash_schema"] == DASH_SCHEMA
        (run,) = live_snap["runs"]
        assert run["state"] == "terminal"
        assert run["status"] == "succeeded"
        assert run["done"] == run["total"] == 2
        assert len(run["drilldown"]) == 2
        assert live_snap["totals"]["records"]["results"] == 2
        assert live_snap["frontier"]

        # THE acceptance criterion: offline replay of the data dir's
        # NDJSON logs + JSONL store folds to the same canonical bytes.
        offline = MetricsAggregator.from_data_dir(tmp_path / "data")
        assert canonical_json(live_snap) == offline.snapshot().canonical()

    def test_dashboard_page_is_served(self, dash_live):
        for path in ("/", "/v1/dashboard"):
            with urllib.request.urlopen(dash_live.url + path) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/html")
                page = response.read().decode("utf-8")
            assert page == dashboard_page()
            assert "/v1/metrics" in page and "/healthz" in page

    def test_watch_prints_progress_lines(self, dash_live, capsys):
        client = ServiceClient(dash_live.url)
        info = client.submit(SPEC, tenant="cli")
        list(client.events(info["run"]))  # settle first

        assert main(["watch", info["run"], "--url", dash_live.url]) == 0
        out = capsys.readouterr().out
        assert "[1/2 jobs, 50%" in out
        assert "[2/2 jobs, 100%" in out
        # The terminal line uses the run's own elapsed_s (jobs/s shown).
        assert "jobs/s]" in out.splitlines()[-1]

        # Machine-readable output stays pure envelopes: no progress art.
        assert main(["watch", info["run"], "--url", dash_live.url,
                     "--json"]) == 0
        json_out = capsys.readouterr().out
        assert "jobs," not in json_out
        for line in json_out.splitlines():
            json.loads(line)


class _DashProcess:
    """``python -m repro dash`` over a data dir, stopped with SIGINT."""

    def __init__(self, data_dir):
        self.argv = [sys.executable, "-m", "repro", "dash",
                     "--data-dir", str(data_dir), "--port", "0"]

    def __enter__(self):
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        self.proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE,
                                     text=True, env=env)
        self.url = re.search(r"http://[\d.]+:\d+",
                             self.proc.stdout.readline()).group(0)
        return self

    def get(self, path):
        with urllib.request.urlopen(self.url + path, timeout=30) as resp:
            return resp.read().decode("utf-8")

    def __exit__(self, *exc):
        self.proc.send_signal(signal.SIGINT)
        self.code = self.proc.wait(timeout=30)
        self.proc.stdout.close()


class TestStandaloneDash:
    def _completed_data_dir(self, tmp_path):
        data_dir = tmp_path / "data"
        with _LiveService(data_dir) as live:
            client = ServiceClient(live.url)
            info = client.submit(SPEC, tenant="alice")
            events = list(client.events(info["run"]))
            assert events[-1]["event"] == "RunFinished"
        return data_dir

    def test_serves_metrics_and_page_over_data_dir(self, tmp_path):
        data_dir = self._completed_data_dir(tmp_path)
        before = tree(data_dir)
        with _DashProcess(data_dir) as dash:
            health = json.loads(dash.get("/healthz"))
            assert health == {"ok": True, "mode": "dash",
                              "version": repro.__version__,
                              "data_dir": str(data_dir)}

            snap = json.loads(dash.get("/v1/metrics"))
            assert canonical_json(snap) == MetricsAggregator \
                .from_data_dir(data_dir).snapshot().canonical()
            (run,) = snap["runs"]
            assert run["status"] == "succeeded"

            assert dash.get("/v1/dashboard") == dashboard_page()
            # No scheduler: the run routes (and anything else) are 404.
            for path in ("/nope", "/v1/runs", f"/v1/runs/{run['run']}"):
                with pytest.raises(urllib.error.HTTPError, match="404"):
                    dash.get(path)
        assert dash.code == 0  # SIGINT is a clean stop
        assert tree(data_dir) == before  # serving read, never wrote

    def test_cli_snapshot_mode(self, tmp_path, capsys):
        data_dir = self._completed_data_dir(tmp_path)
        before = tree(data_dir)
        assert main(["dash", "--data-dir", str(data_dir),
                     "--snapshot"]) == 0
        out = capsys.readouterr().out.strip()
        snap = json.loads(out)
        assert snap["dash_schema"] == DASH_SCHEMA
        assert snap["totals"]["succeeded"] == 2
        # Canonical form: refolding prints the same bytes.
        assert out == MetricsAggregator.from_data_dir(
            data_dir).snapshot().canonical()
        assert tree(data_dir) == before

    def test_cli_snapshot_of_empty_dir_is_empty_not_an_error(
            self, tmp_path, capsys):
        fresh = tmp_path / "fresh"
        assert main(["dash", "--data-dir", str(fresh), "--snapshot"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["runs"] == [] and snap["totals"]["runs"] == 0
        with _DashProcess(fresh) as dash:
            assert json.loads(dash.get("/v1/metrics")) == snap
        assert not fresh.exists()  # reading state never creates it
