"""One typed record loader behind every JSON surface.

``repro.records`` reads a dataclass's field declarations as its wire
format.  This module pins what that buys, surface by surface:

* the loader's own contract — strict JSON types, field paths in every
  refusal, ``dump`` the inverse of ``load``, ``conform`` the same checks
  for a directly constructed record;
* **the defect table** — every malformed input that used to be a bare
  ``ValueError`` / ``TypeError`` / ``AttributeError``, an HTTP 500, a
  retry storm in a worker or a silently different design point now
  raises the surface's named error with the field path, at load /
  expansion time, through the Python API, ``POST /v1/runs`` and the CLI;
* **crash-freedom as a property** — arbitrary JSON into every loader
  returns or raises a ``BlockParallelError`` subclass, nothing else;
* **valid bytes do not move** — canonical JSON, ``Job.to_dict()`` and
  fingerprints equal literals captured from the hand-written loaders
  (``tests/regen_records_compat.py``);
* a value is checked once per spec, not once per expanded point;
* every declared bound (``Annotated[X, domain]``) takes its boundary
  values and refuses their neighbours, constructed and loaded, in the
  words of a type refusal;
* the field tables in the docs are the declarations, rendered.
"""

from __future__ import annotations

import dataclasses
import http.client
import inspect
import json
import math
import os
import subprocess
import sys
import typing
from collections import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Any, Literal, Mapping
from urllib.parse import urlsplit

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from regen_records_compat import FIXTURE, grid_digest, jobs_of
from test_serve import _LiveService

from repro import records
from repro.apps import build_bayer_app, build_buffer_test_app
from repro.chaos import ChaosSpec, WorkerChaos
from repro.cli import main
from repro.errors import (
    BlockParallelError,
    ChaosSpecError,
    FaultSpecError,
    GraphError,
    SimulationError,
    TransformError,
)
from repro.explore import executor
from repro.explore import spec as spec_module
from repro.explore.spec import (
    APP_TEMPLATES,
    JOB_AXES,
    NOC_KEYS,
    OPTION_AXES,
    OPTION_KEYS,
    PROCESSOR_AXES,
    PROCESSOR_KEYS,
    ExploreError,
    Job,
    NocKnobs,
    SweepSpec,
)
from repro.faults import FaultSpec, PEFailure
from repro.machine import ManyCoreChip, NocModel
from repro.machine.energy import EnergySpec
from repro.obs import TelemetryConfig
from repro.serve import ServeError, ServiceClient, SweepPlan
from repro.sim import SimulationOptions
from repro.transform import CompileOptions

ROOT = Path(__file__).resolve().parent.parent


class Refused(Exception):
    """The error class the loader is handed in these tests."""


# ---------------------------------------------------------------------------
# The loader itself


@dataclass(frozen=True)
class Inner:
    weight: float
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Outer:
    count: int = 0
    ratio: float = 0.5
    on: bool = False
    label: str = ""
    mode: Literal["a", "b"] = "a"
    limit: int | None = None
    pair: tuple[int, float] = (0, 1.0)
    inner: Inner = Inner(1.0)
    inners: tuple[Inner, ...] = ()
    table: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        records.conform(self, error=Refused, where="outer")


def load_outer(data):
    return records.load(Outer, data, error=Refused, where="outer")


class TestLoader:
    def test_defaults_come_from_the_declarations(self):
        assert load_outer({}) == Outer()
        assert records.defaults(Outer)["ratio"] == 0.5
        assert "table" not in records.defaults(Outer)  # a factory

    def test_dump_is_the_inverse_of_load_in_declared_order(self):
        data = {
            "count": 3, "ratio": 0.25, "on": True, "label": "x",
            "mode": "b", "limit": 7, "pair": [1, 2.5],
            "inner": {"weight": 2.0, "tags": ["p", "q"]},
            "inners": [{"weight": 1.0, "tags": []}],
            "table": {"k": [1, {"deep": None}]},
        }
        record = load_outer(data)
        assert records.dump(record) == data
        assert list(records.dump(record)) == [
            f.name for f in dataclasses.fields(Outer)]
        assert load_outer(records.dump(record)) == record

    def test_coerces_exactly_as_the_hand_written_loaders_did(self):
        record = load_outer({"count": 2.0, "ratio": 8, "pair": [3.0, 4],
                             "limit": 5.0})
        assert (record.count, record.ratio, record.pair, record.limit) == (
            2, 8.0, (3, 4.0), 5)
        assert [type(v) for v in (record.count, record.ratio, record.limit,
                                  *record.pair)] == [int, float, int, int,
                                                     float]

    @pytest.mark.parametrize("data,message", [
        ({"count": True}, "count must be an integer, got True"),
        ({"count": 2.7}, "count must be an integer, got 2.7"),
        ({"count": "3"}, "count must be an integer, got '3'"),
        ({"ratio": "0.5"}, "ratio must be a number, got '0.5'"),
        ({"ratio": False}, "ratio must be a number, got False"),
        ({"ratio": float("nan")}, "ratio must be a number, got nan"),
        ({"ratio": float("inf")}, "ratio must be a number, got inf"),
        ({"ratio": 10 ** 400}, "ratio must be a number, got 1000"),
        ({"on": "no"}, "on must be true or false, got 'no'"),
        ({"on": 0}, "on must be true or false, got 0"),
        ({"label": 5}, "label must be a string, got 5"),
        ({"mode": "c"}, "mode must be one of ['a', 'b'], got 'c'"),
        ({"mode": ["a"]}, "mode must be one of ['a', 'b'], got ['a']"),
        ({"limit": "x"}, "limit must be an integer, got 'x'"),
        ({"pair": [1]}, "pair must be a list of 2 items, got [1]"),
        ({"pair": "ab"}, "pair must be a list of 2 items, got 'ab'"),
        ({"pair": [1, "b"]}, "pair[1] must be a number, got 'b'"),
        ({"inner": 5}, "inner must be a JSON object, got 5"),
        ({"inner": {}}, "inner needs ['inner.weight']"),
        ({"inner": {"weight": 1, "tags": "pq"}},
         "inner.tags must be a list, got 'pq'"),
        ({"inners": [{"weight": 1}, {"weight": "w"}]},
         "inners[1].weight must be a number, got 'w'"),
        ({"inners": {"weight": 1}}, "inners must be a list, got"),
        ({"table": []}, "table must be a JSON object, got []"),
        ({"table": {1: 2}}, "table key must be a string, got 1"),
        ({"cuont": 1, 2: 3},
         "unknown outer keys: [2, 'cuont'] (known: ['count', 'inner', "),
        ([], "outer must be a JSON object, got []"),
        (None, "outer must be a JSON object, got None"),
    ])
    def test_a_refusal_names_the_field_path(self, data, message):
        with pytest.raises(Refused) as caught:
            load_outer(data)
        assert message in str(caught.value)

    def test_a_huge_integer_is_still_an_integer(self):
        assert load_outer({"count": 10 ** 400}).count == 10 ** 400

    def test_conform_holds_a_constructed_record_to_the_same_checks(self):
        assert Outer(count=2.0, pair=[1, 2]).pair == (1, 2.0)
        assert Outer(inner={"weight": 3}).inner == Inner(3.0)
        with pytest.raises(Refused, match=r"outer\.mode must be one of"):
            Outer(mode="weird")
        with pytest.raises(Refused,
                           match=r"outer\.inner\.weight must be a number"):
            Outer(inner={"weight": "heavy"})

    def test_an_annotation_without_a_check_is_loud_not_skipped(self):
        @dataclass
        class Odd:
            values: set[int] = frozenset()

        with pytest.raises(TypeError, match="no record check"):
            records.load(Odd, {}, error=Refused, where="odd")

    def test_the_one_json_reader(self, tmp_path):
        assert records.parse_json(b'{"a": 1}', error=Refused,
                                  what="doc") == {"a": 1}
        for text in ("{nope", b"\xff\xfe", "[" * 100_000):
            with pytest.raises(Refused, match="doc is not JSON"):
                records.parse_json(text, error=Refused, what="doc")
        path = tmp_path / "bad.json"
        path.write_text('{"count": "x"}', encoding="utf-8")
        with pytest.raises(Refused) as caught:
            records.load_file(str(path), load_outer, error=Refused,
                              what="outer")
        assert str(caught.value) == (
            f"{path}: count must be an integer, got 'x'")
        with pytest.raises(OSError):
            records.load_file(str(tmp_path / "absent.json"), load_outer,
                              error=Refused, what="outer")

    def test_the_module_imports_nothing_from_repro(self):
        source = Path(records.__file__).read_text(encoding="utf-8")
        assert "from ." not in source and "import repro" not in source


# ---------------------------------------------------------------------------
# The defect table


def fixed(values):
    return {"app": "2", "fixed": values}


#: (sweep spec, the field path its refusal names).  The first twenty are
#: the specs measured at the parent commit: ten bare ValueError /
#: TypeError / AttributeError, nine accepted, one named.
SWEEP_DEFECTS = [
    ({"app": "2", "axes": {"frames": ["x"]}}, "frames must be an integer"),
    ({"app": "2", "timeout_s": "abc"}, "timeout_s must be a number"),
    ({"app": "2", "points": [1]}, "points[0] must be a JSON object"),
    ({"app": "2", "axes": []}, "axes must be a JSON object"),
    ({"app": "2", "fixed": []}, "fixed must be a JSON object"),
    ({"app": "2", "axes": {"clock_mhz": ["fast"]}},
     "clock_mhz must be a number"),
    (fixed({"noc": {"mesh": "big"}}), "noc.mesh must be an integer"),
    (fixed({"fault_seed": "s", "faults": {}}),
     "fault_seed must be an integer"),
    (fixed({"faults": {"slow_pes": [1]}}),
     "slow_pes[0] must be a list of 2 items"),
    (fixed({"faults": {"transient": {"kernels": 5}}}),
     "transient.kernels must be a list"),
    (fixed({"faults": {"pe_failures": [{"processor": "a", "time_s": 1}]}}),
     "pe_failures[0].processor must be an integer"),
    ({"app": 2}, "app must be a string"),
    ({"app": "2", "name": 5}, "name must be a string"),
    (fixed({"mapping": "weird"}),
     "mapping must be one of ['greedy', '1:1'], got 'weird'"),
    (fixed({"telemetry": "no"}), "telemetry must be true or false"),
    ({"app": "2", "frames": "3"}, "frames must be an integer, got '3'"),
    ({"app": "2", "frames": 2.7}, "frames must be an integer, got 2.7"),
    (fixed({"memory_words": "lots"}), "memory_words must be an integer"),
    (fixed({"utilization_target": "high"}),
     "utilization_target must be a number"),
    ({"app": "image_pipeline", "fixed": {"width": "wide"}},
     "width must be an integer"),
    (fixed({"parallelize": "no"}), "parallelize must be true or false"),
    (fixed({"clock_mhz": True}), "clock_mhz must be a number, got True"),
    (fixed({"alignment_policy": "stretch"}),
     "alignment_policy must be one of ['trim', 'pad']"),
    (fixed({"replay": 1}), "replay must be true or false"),
    (fixed({"noc": "yes"}), "noc must be a JSON object"),
    (fixed({"noc": {"hops": 3}}), "unknown noc keys: ['hops']"),
    (fixed({"noc": True, "placement": "spiral"}),
     "placement must be one of"),
    (fixed({"faults": "none"}), "fault spec must be a JSON object"),
    ({"app": "image_pipeline", "points": [{"rate_hz": "fast"}]},
     "rate_hz must be a number"),
    ({"app": "2", "axes": {"frames": 5}}, "axes.frames must be a list"),
    ({"app": "2", "fixed": {"frames": None}}, "frames must be an integer"),
]
#: Specs only the builder can refuse: a named GraphError at admission
#: (the fingerprint builds the graph), where a bare ValueError /
#: ZeroDivisionError was a 500 — and a retryable ``error`` in a worker.
BUILDER_DEFECTS = [
    ({"app": "bayer", "fixed": {"width": 15}}, "even dimensions"),
    ({"app": "buffer_test", "fixed": {"window": 0}},
     "window must be at least 1"),
]
FAULT_DEFECTS = [
    ({"transient": {"kernels": "conv"}}, "transient.kernels must be a list"),
    ({"recovery": {"migrate": "no"}},
     "recovery.migrate must be true or false"),
    ({"seed": "s"}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"transient": None}, "transient must be a JSON object"),
    ({"transient": {"schedule": [["conv"]]}},
     "transient.schedule[0] must be a list of 2 items"),
    ({"channel": {"edges": [["a", "out", "b", 4]]}},
     "channel.edges[0][3] must be a string"),
    ({"pe_failures": [{"processor": 1}]},
     "pe_failures[0] needs ['pe_failures[0].time_s']"),
    ({"recovery": {"backoff_cycles": "8"}},
     "recovery.backoff_cycles must be a number"),
    ([1], "fault spec must be a JSON object"),
]
CHAOS_DEFECTS = [
    ({"http": {"reset_probability": True}},
     "http.reset_probability must be a number, got True"),
    ({"worker": 5}, "worker must be a JSON object, got 5"),
    ([1], "chaos spec must be a JSON object"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"worker": {"match": 7}}, "worker.match must be a string"),
    ({"storage": {"cache_corrupt_probability": "0.1"}},
     "storage.cache_corrupt_probability must be a number"),
]


def ids(table):
    return [json.dumps(case[0], default=str)[:60] for case in table]


def write_json(tmp_path, document) -> str:
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def refused_by_cli(capsys, argv, fragment):
    """``repro <argv>`` exits 2 with ``error: ...<fragment>...``."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert fragment in captured.err
    assert "Traceback" not in captured.err


class TestDefectTableInPython:
    @pytest.mark.parametrize("spec,fragment", SWEEP_DEFECTS,
                             ids=ids(SWEEP_DEFECTS))
    def test_a_sweep_spec_is_refused_at_expansion(self, spec, fragment,
                                                  monkeypatch):
        def built(*args, **kwargs):  # pragma: no cover - the assertion
            raise AssertionError("refused too late: a graph was built")

        monkeypatch.setattr(spec_module, "_graph_digest", built)
        with pytest.raises(ExploreError) as caught:
            SweepSpec.from_dict(spec).jobs()
        assert fragment in str(caught.value)
        with pytest.raises(ExploreError):
            SweepPlan.compile(spec, run_id="r")

    @pytest.mark.parametrize("spec,fragment", BUILDER_DEFECTS,
                             ids=ids(BUILDER_DEFECTS))
    def test_a_builders_refusal_is_a_named_error_at_admission(
            self, spec, fragment):
        with pytest.raises(GraphError, match=fragment):
            SweepPlan.compile(spec, run_id="r")

    def test_builders_raise_graph_errors(self):
        with pytest.raises(GraphError, match="even dimensions"):
            build_bayer_app(width=16, height=7)
        with pytest.raises(GraphError, match="at least 1"):
            build_buffer_test_app(window=-3)

    @pytest.mark.parametrize("data,fragment", FAULT_DEFECTS,
                             ids=ids(FAULT_DEFECTS))
    def test_a_fault_spec_is_refused(self, data, fragment):
        with pytest.raises(FaultSpecError) as caught:
            FaultSpec.from_dict(data)
        assert fragment in str(caught.value)

    @pytest.mark.parametrize("data,fragment", CHAOS_DEFECTS,
                             ids=ids(CHAOS_DEFECTS))
    def test_a_chaos_spec_is_refused(self, data, fragment):
        with pytest.raises(ChaosSpecError) as caught:
            ChaosSpec.from_dict(data)
        assert fragment in str(caught.value)

    @pytest.mark.parametrize("value,fragment", [
        ({"max_spans": "many"}, "max_spans must be an integer"),
        ({"reservoir_size": 2.5}, "reservoir_size must be an integer"),
        ({"max_span": 1}, "unknown telemetry config keys: ['max_span']"),
        ("no", "telemetry config must be a JSON object, got 'no'"),
        (1, "telemetry config must be a JSON object, got 1"),
    ])
    def test_a_telemetry_config_is_refused(self, value, fragment):
        with pytest.raises(SimulationError) as caught:
            TelemetryConfig.coerce(value)
        assert fragment in str(caught.value)

    def test_telemetry_config_still_coerces_its_valid_forms(self):
        assert TelemetryConfig.coerce(None) is None
        assert TelemetryConfig.coerce(False) is None
        assert TelemetryConfig.coerce(True) == TelemetryConfig()
        tuned = TelemetryConfig.coerce({"max_spans": 10.0})
        assert tuned == TelemetryConfig(max_spans=10)
        assert TelemetryConfig.coerce(tuned) is tuned

    @pytest.mark.parametrize("build,error,fragment", [
        (lambda: CompileOptions(mapping="weird"), TransformError,
         "CompileOptions.mapping must be one of ['greedy', '1:1']"),
        (lambda: CompileOptions(parallelize="no"), TransformError,
         "CompileOptions.parallelize must be true or false"),
        (lambda: CompileOptions(utilization_target="high"), TransformError,
         "CompileOptions.utilization_target must be a number"),
        (lambda: SimulationOptions(trace="no"), SimulationError,
         "SimulationOptions.trace must be true or false"),
        (lambda: SimulationOptions(frames="4"), SimulationError,
         "SimulationOptions.frames must be an integer, got '4'"),
        (lambda: SimulationOptions(telemetry={"reservoir_size": "x"}),
         SimulationError, "reservoir_size must be an integer, got 'x'"),
        (lambda: SimulationOptions(replay=1), SimulationError,
         "SimulationOptions.replay must be true or false"),
        (lambda: SimulationOptions(faults=5), SimulationError,
         "SimulationOptions.faults must be a JSON object"),
        (lambda: SimulationOptions(noc={"per_hop_cycles": 1}),
         SimulationError, "SimulationOptions.noc must be a NocModel"),
        (lambda: SimulationOptions(channel_capacity_overrides={
            ("a", "out", "b"): 4}), SimulationError,
         "must be a list of 4 items"),
        (lambda: WorkerChaos(slow_probability="lots"), ChaosSpecError,
         "worker.slow_probability must be a number"),
        (lambda: PEFailure(processor="a", time_s=1), FaultSpecError,
         "pe_failures.processor must be an integer"),
    ])
    def test_a_constructed_record_is_held_to_its_declarations(
            self, build, error, fragment):
        with pytest.raises(error) as caught:
            build()
        assert fragment in str(caught.value)

    def test_constructed_options_still_coerce_their_valid_forms(self):
        options = SimulationOptions(
            frames=2.0, throughput_tolerance=1,
            faults={"transient": {"probability": 0.5}}, telemetry=True)
        assert (options.frames, options.throughput_tolerance) == (2, 1.0)
        assert isinstance(options.frames, int)
        assert options.faults.transient.probability == 0.5
        assert options.telemetry == TelemetryConfig()
        # A nested bound is refused like a nested type: in the words and
        # the class of the record being constructed.
        with pytest.raises(SimulationError) as caught:
            SimulationOptions(faults={"transient": {"probability": 5}})
        assert str(caught.value) == ("SimulationOptions.faults.transient."
                                     "probability must be in [0, 1], got 5.0")

    @pytest.mark.parametrize("data,fragment", [
        ([1], "job must be a JSON object"),
        ({}, "app must be a string, got None"),
        ({"app": "2", "frames": "x"}, "frames must be an integer"),
        ({"app": "2", "frames": 0}, "'frames' must be at least 1, got 0"),
        ({"app": "2", "params": []}, "params must be a JSON object"),
        ({"app": "2", "timeout_s": "soon"}, "timeout_s must be a number"),
        ({"app": "2", "telemetry": "no"}, "telemetry must be true or false"),
        ({"app": "2", "noc": {"mesh": "big"}}, "noc.mesh must be an integer"),
        ({"app": "2", "placement": "energy"}, "only affects timing"),
        ({"app": "2", "faults": {"seed": "s"}}, "seed must be an integer"),
        ({"app": "2", "fingerprint": 5}, "fingerprint must be a string"),
    ])
    def test_a_job_document_is_refused(self, data, fragment):
        with pytest.raises(ExploreError) as caught:
            Job.from_dict(data)
        assert fragment in str(caught.value)


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One resident service for the whole HTTP / CLI table, with every
    worker fork recorded."""
    forks = []

    class Recorded(executor._Worker):
        def __init__(self):
            super().__init__()
            forks.append(self.proc.pid)

    patch = pytest.MonkeyPatch()
    patch.setattr(executor, "_Worker", Recorded)
    try:
        with _LiveService(tmp_path_factory.mktemp("serve")) as service:
            service.forks = forks
            yield service
    finally:
        patch.undo()


def post(live, body: bytes, content_length: str = "") -> tuple[int, dict]:
    """A raw POST /v1/runs: the status and the decoded answer."""
    host = urlsplit(live.url)
    connection = http.client.HTTPConnection(host.hostname, host.port,
                                            timeout=30)
    try:
        connection.putrequest("POST", "/v1/runs")
        connection.putheader("Content-Length",
                             content_length or str(len(body)))
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def assert_untouched(live):
    client = ServiceClient(live.url)
    assert client.runs() == []
    assert client.health()["ok"] is True
    assert live.forks == []


class TestDefectTableOverHttp:
    @pytest.mark.parametrize("spec,fragment",
                             SWEEP_DEFECTS + BUILDER_DEFECTS,
                             ids=ids(SWEEP_DEFECTS + BUILDER_DEFECTS))
    def test_a_malformed_spec_is_a_400(self, live, spec, fragment):
        status, answer = post(live, json.dumps({"spec": spec}).encode())
        assert status == 400, answer
        assert fragment in answer["error"]
        assert_untouched(live)

    @pytest.mark.parametrize("body,fragment", [
        ({"spec": {"app": "2"}, "priority": "high"},
         "priority must be an integer, got 'high'"),
        ({"spec": {"app": "2"}, "priority": 1.5},
         "priority must be an integer, got 1.5"),
        ({"spec": {"app": "2"}, "tenant": 5},
         "tenant must be a string, got 5"),
        ({"spec": [1]}, "body needs a 'spec' object"),
        ([1], "request body must be a JSON object"),
    ])
    def test_a_malformed_body_is_a_400(self, live, body, fragment):
        status, answer = post(live, json.dumps(body).encode())
        assert status == 400, answer
        assert fragment in answer["error"]
        assert_untouched(live)

    @pytest.mark.parametrize("raw,content_length,fragment", [
        (b"{nope", "", "request body is not JSON"),
        (b'{"spec": "\xff"}', "", "request body is not JSON"),
        (b"{}", "two",
         "Content-Length must be a non-negative integer, got 'two'"),
        (b"{}", "-2",
         "Content-Length must be a non-negative integer, got '-2'"),
    ])
    def test_malformed_bytes_are_a_400(self, live, raw, content_length,
                                       fragment):
        status, answer = post(live, raw, content_length)
        assert status == 400, answer
        assert fragment in answer["error"]
        assert_untouched(live)

    def test_a_malformed_shutdown_does_not_shut_down(self, live):
        with pytest.raises(ServeError, match="drain must be true or false"):
            ServiceClient(live.url)._request("POST", "/v1/shutdown",
                                             {"drain": "no"})
        assert_untouched(live)

    def test_a_valid_priority_still_admits(self, live):
        """The table's control: the same route answers 202 for a sound
        body, so the 400s above are about the bodies."""
        run = ServiceClient(live.url).submit(
            {"app": "2", "frames": 1, "fixed": {"mapping": "1:1"}},
            priority=3.0, tenant="control")
        assert (run["priority"], run["tenant"]) == (3, "control")
        ServiceClient(live.url).cancel(run["run"])


class TestDefectTableFromTheCli:
    """``repro`` exits 2 with ``error: ...`` — never a traceback.
    (Collected after the HTTP table: ``submit`` shares its service.)"""

    @pytest.mark.parametrize("spec,fragment",
                             SWEEP_DEFECTS + BUILDER_DEFECTS,
                             ids=ids(SWEEP_DEFECTS + BUILDER_DEFECTS))
    def test_explore_and_submit(self, live, tmp_path, capsys, spec,
                                fragment):
        path = write_json(tmp_path, spec)
        refused_by_cli(capsys, ["explore", path, "--no-cache", "--quiet"],
                       fragment)
        refused_by_cli(capsys, ["submit", path, "--url", live.url],
                       fragment)

    @pytest.mark.parametrize("data,fragment", FAULT_DEFECTS,
                             ids=ids(FAULT_DEFECTS))
    def test_faults_flag(self, tmp_path, capsys, data, fragment):
        path = write_json(tmp_path, data)
        refused_by_cli(capsys, ["simulate", "2", "--faults", path],
                       f"{path}: {fragment}")

    @pytest.mark.parametrize("data,fragment", CHAOS_DEFECTS,
                             ids=ids(CHAOS_DEFECTS))
    def test_serve_chaos_flag(self, tmp_path, capsys, data, fragment):
        path = write_json(tmp_path, data)
        refused_by_cli(capsys, ["serve", "--port", "0", "--chaos", path],
                       f"{path}: {fragment}")

    @pytest.mark.parametrize("command", ["explore", "submit"])
    def test_a_file_that_is_not_json(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        refused_by_cli(capsys, [command, str(path)],
                       f"{path}: sweep spec is not JSON")

    def test_a_real_process_prints_no_traceback(self, tmp_path):
        path = write_json(tmp_path, fixed({"memory_words": "lots"}))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "explore", path],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "error: memory_words must be an integer, got 'lots'\n")


# ---------------------------------------------------------------------------
# Crash-freedom is a property

#: ``--hypothesis-profile=wide`` (registered in conftest.py) is the
#: run-once wide search; tier-1 runs a derandomised sample.
FUZZ = (settings(deadline=None) if settings.default.max_examples >= 2000
        else settings(max_examples=300, derandomize=True, deadline=None))

VALID_FAULTS = {
    "seed": 3,
    "transient": {"probability": 0.5, "kernels": ["conv"],
                  "schedule": [["conv", 2]]},
    "pe_failures": [{"processor": 1, "time_s": 0.5}],
    "slow_pes": [[0, 2.0]],
    "channel": {"drop_probability": 0.1, "duplicate_probability": 0.1,
                "edges": [["a", "out", "b", "in"]]},
    "recovery": {"max_retries": 2, "backoff_cycles": 8, "migrate": True,
                 "migration_cycles": 100, "shed": False},
}
VALID_CHAOS = {
    "seed": 7,
    "worker": {"crash_probability": 0.2, "hang_probability": 0.0,
               "slow_probability": 0.1, "slow_s": 0.5, "match": "rate"},
    "storage": {"cache_corrupt_probability": 0.05,
                "cache_truncate_probability": 0.05,
                "store_torn_write_probability": 0.1},
    "http": {"reset_probability": 0.1, "stream_break_probability": 0.2},
}
VALID_SWEEP = {
    "name": "fuzz", "app": "image_pipeline", "frames": 2, "timeout_s": 60,
    "axes": {"rate_hz": [40, 50.0], "mapping": ["greedy", "1:1"],
             "fault_seed": [1, 2]},
    "fixed": {"width": 16, "height": 12, "clock_mhz": 20,
              "memory_words": 512, "utilization_target": 0.9,
              "parallelize": True, "alignment_policy": "trim",
              "spare_processors": 0, "telemetry": False, "replay": False,
              "noc": {"per_hop_cycles": 4, "mesh": None},
              "placement": "energy", "faults": VALID_FAULTS},
    "points": [{"bins": 16, "frames": 3, "noc": True}],
}
VALID_JOB = {
    "sweep": "fuzz", "app": "image_pipeline",
    "params": {"width": 16, "height": 12, "rate_hz": 40},
    "processor": {"clock_mhz": 20}, "options": {"mapping": "1:1"},
    "frames": 2, "timeout_s": 60.0, "inject": {}, "faults": VALID_FAULTS,
    "telemetry": True,
    "noc": {"mesh": None, "per_hop_cycles": 4.0,
            "serialization_cycles_per_element": 1.0},
    "placement": "makespan", "replay": False, "fingerprint": "f" * 64,
}
VALID_TELEMETRY = {"max_spans": 100, "reservoir_size": 16}


def names_in(document) -> set[str]:
    """Every key and string a valid document spells: the real names the
    fuzzer needs to reach past the first unknown-key refusal."""
    if isinstance(document, dict):
        return set(document).union(*map(names_in, document.values()))
    if isinstance(document, list):
        return set().union(*map(names_in, document))
    return {document} if isinstance(document, str) else set()


NAMES = sorted(names_in([VALID_FAULTS, VALID_CHAOS, VALID_SWEEP, VALID_JOB,
                         VALID_TELEMETRY, list(APP_TEMPLATES)]))
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(-3, 3) | st.floats() | st.sampled_from(NAMES)
           | st.text(max_size=3))
JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(NAMES)
                                     | st.text(max_size=2),
                                     inner, max_size=5)),
    max_leaves=20,
)


def places(document, path=()):
    """Every path into ``document``, the root included."""
    yield path
    items = (document.items() if isinstance(document, dict)
             else enumerate(document) if isinstance(document, list) else ())
    for key, value in items:
        yield from places(value, path + (key,))


def replaced(document, path, value):
    if not path:
        return value
    copy = dict(document) if isinstance(document, dict) else list(document)
    copy[path[0]] = replaced(document[path[0]], path[1:], value)
    return copy


def near(valid):
    """Arbitrary JSON, or ``valid`` with one place overwritten — by
    arbitrary JSON, or by a small number or flag that often still loads
    (so the round-trip half of each property sees real traffic)."""
    paths = list(places(valid))

    def overwritten(values):
        return st.builds(
            lambda index, value: replaced(valid, paths[index], value),
            st.integers(0, len(paths) - 1), values,
        )

    mild = st.integers(0, 4) | st.floats(0, 1) | st.booleans()
    return JSON | overwritten(JSON) | overwritten(mild)


def loads_or_refuses(load, document):
    """``load(document)``, or None when it raised a named error; any
    other exception is the property failing."""
    try:
        loaded = load(document)
    except BlockParallelError:
        event("refused")
        return None
    event("loaded")
    return loaded


class TestCrashFreedom:
    @FUZZ
    @given(near(VALID_SWEEP))
    def test_sweep_specs(self, document):
        jobs = loads_or_refuses(
            lambda data: SweepSpec.from_dict(data).jobs(), document)
        for job in jobs or ():
            # to_dict() without the fingerprint's graph build: the
            # property is about loaders, not builders.
            wire = dataclasses.replace(job, _fingerprint="f").to_dict()
            assert Job.from_dict(wire) == job
            assert Job.from_dict(wire).to_dict() == wire

    @FUZZ
    @given(near(VALID_JOB))
    def test_job_documents(self, document):
        job = loads_or_refuses(Job.from_dict, document)
        if job is not None:
            wire = dataclasses.replace(job, _fingerprint="f").to_dict()
            assert Job.from_dict(wire) == job

    @FUZZ
    @given(near(VALID_FAULTS))
    def test_fault_specs(self, document):
        self.round_trips(FaultSpec, document)

    @FUZZ
    @given(near(VALID_CHAOS))
    def test_chaos_specs(self, document):
        self.round_trips(ChaosSpec, document)

    @staticmethod
    def round_trips(cls, document):
        record = loads_or_refuses(cls.from_dict, document)
        if record is None:
            return
        assert cls.from_dict(record.to_dict()) == record
        canonical = record.canonical_json()
        assert cls.from_json(canonical).canonical_json() == canonical
        assert json.loads(canonical) == record.to_dict()

    @FUZZ
    @given(near(VALID_TELEMETRY))
    def test_telemetry_configs(self, document):
        config = loads_or_refuses(TelemetryConfig.coerce, document)
        if config is not None:
            assert TelemetryConfig.coerce(records.dump(config)) == config

    def test_the_valid_documents_are_valid(self):
        """The seeds of the search load — so 'refused' above is about
        the mutation, not the seed."""
        assert len(SweepSpec.from_dict(VALID_SWEEP).jobs()) == 9
        assert Job.from_dict(VALID_JOB).to_dict() == VALID_JOB
        assert FaultSpec.from_dict(VALID_FAULTS).to_dict() == VALID_FAULTS
        assert ChaosSpec.from_dict(VALID_CHAOS).to_dict() == VALID_CHAOS
        assert TelemetryConfig.coerce(VALID_TELEMETRY).max_spans == 100


# ---------------------------------------------------------------------------
# Valid bytes do not move


@pytest.fixture(scope="module")
def captured():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


class TestByteCompatibility:
    @pytest.mark.parametrize("section,cls", [("fault_specs", FaultSpec),
                                             ("chaos_specs", ChaosSpec)])
    def test_canonical_json_is_byte_identical(self, captured, section, cls):
        assert len(captured[section]) >= 11
        for case in captured[section]:
            record = cls.from_dict(case["input"])
            assert record.canonical_json() == case["canonical"]
            assert cls.from_json(case["canonical"]) == record

    def test_every_small_sweep_expands_to_the_same_jobs(self, captured):
        assert len(captured["sweeps"]) == len(APP_TEMPLATES) + 8
        for case in captured["sweeps"]:
            assert jobs_of(case["spec"]) == case["jobs"], case["spec"]

    def test_jobs_survive_their_wire_format(self, captured):
        for case in captured["sweeps"]:
            for wire in case["jobs"]:
                assert Job.from_dict(wire).to_dict() == wire
                fresh = Job.from_dict({**wire, "fingerprint": ""})
                assert fresh.fingerprint == wire["fingerprint"]

    def test_the_bench_grid_is_byte_identical(self, captured):
        """All 720 points of the ``sweep_cold`` / ``serve_tenants``
        grids — the keys of ``bench/golden/jobs.json``."""
        grid = captured["grid"]
        jobs = jobs_of(grid["spec"])
        assert len(jobs) == grid["count"] == 720
        assert (jobs[0], jobs[-1]) == (grid["first"], grid["last"])
        assert grid_digest(jobs) == grid["sha256"]

    def test_the_callers_spelling_survives(self):
        """Validated, never rewritten: ``20`` and ``20.0`` are two
        design points with two labels and two fingerprints."""
        jobs = SweepSpec.from_dict({
            "app": "image_pipeline",
            "axes": {"clock_mhz": [20, 20.0]},
            "fixed": {"width": 16, "height": 12, "rate_hz": 40},
        }).jobs()
        assert [dict(job.processor)["clock_mhz"] for job in jobs] == [20, 20.0]
        assert [type(dict(job.processor)["clock_mhz"]) for job in jobs] == [
            int, float]
        assert "clock_mhz=20)" in jobs[0].label
        assert "clock_mhz=20.0)" in jobs[1].label
        assert jobs[0].fingerprint != jobs[1].fingerprint
        assert jobs[0].build_processor() == jobs[1].build_processor()

    def test_the_key_sets_are_the_declarations(self):
        assert PROCESSOR_KEYS == {
            "clock_mhz", "memory_words", "read_cycles_per_element",
            "write_cycles_per_element"}
        assert OPTION_KEYS == {f.name for f in
                               dataclasses.fields(CompileOptions)}
        assert NOC_KEYS == {"per_hop_cycles",
                            "serialization_cycles_per_element", "mesh"}
        knobs, model = records.defaults(NocKnobs), records.defaults(NocModel)
        assert knobs == {**model, "mesh": None}

    def test_the_noc_defaults_are_spelled_once_in_src(self):
        """4.0 / 1.0 are ``NocModel``'s; the sweep axis and the CLI
        flags read them there."""
        spelled = [
            (path.name, line.strip())
            for path in sorted((ROOT / "src").rglob("*.py"))
            for line in path.read_text("utf-8").splitlines()
            if "4.0" in line and "hop" in line and ">>>" not in line
            and "``" not in line
        ]
        assert spelled == [("noc.py", "per_hop_cycles: float = 4.0")]


# ---------------------------------------------------------------------------
# Once per spec


class TestCheckedOncePerSpec:
    def test_the_bench_grid_checks_each_value_once(self, monkeypatch,
                                                   captured):
        """2 widths + 6 rates + 2 mappings + 1 height = 11 values for 24
        jobs; per expanded point it would be 96."""
        spec = dict(captured["grid"]["spec"])
        spec["axes"] = {**spec["axes"],
                        "rate_hz": [40, 52, 78, 120, 204, 398]}
        calls = []
        real = spec_module._load_value

        def counted(app, key, value):
            calls.append(key)
            return real(app, key, value)

        monkeypatch.setattr(spec_module, "_load_value", counted)
        jobs = SweepSpec.from_dict(spec).jobs()
        assert len(jobs) == 24
        assert len(calls) == 11 <= 12
        assert sorted(set(calls)) == ["height", "mapping", "rate_hz",
                                      "width"]

    def test_routing_checks_nothing(self, monkeypatch):
        """Everything a point carries was loaded before the product: the
        per-point step never reaches a checker."""
        spec = SweepSpec.from_dict(VALID_SWEEP)

        def no_checks(annotation):  # pragma: no cover - the assertion
            raise AssertionError(f"checked {annotation!r} per point")

        real = spec_module._route

        def route(point, spec):
            monkeypatch.setattr(spec_module, "checker", no_checks)
            try:
                return real(point, spec)
            finally:
                monkeypatch.undo()

        monkeypatch.setattr(spec_module, "_route", route)
        assert len(spec_module.expand(spec)) == 9


# ---------------------------------------------------------------------------
# Bounds are declarations


#: Every record whose fields declare bounds, with the way it is loaded;
#: the records nested in them are reached by the walk below.
BOUNDED = {
    SimulationOptions: lambda data: SimulationOptions(**data),
    TelemetryConfig: TelemetryConfig.coerce,
    FaultSpec: FaultSpec.from_dict,
    ChaosSpec: ChaosSpec.from_dict,
    ManyCoreChip: lambda data: ManyCoreChip(**data),
    EnergySpec: lambda data: EnergySpec(**data),
}
#: Built by ``build_noc_model``, never loaded: its bounds stay
#: hand-written, and its hints do not resolve at run time.
NOT_LOADED = {NocModel}


def unwrap(annotation):
    """``X`` for ``X | None``, else ``annotation``."""
    args = typing.get_args(annotation)
    if type(None) not in args:
        return annotation
    (inner,) = (a for a in args if a is not type(None))
    return inner


def step(annotation, key):
    """The annotation of item ``key`` (a field name, a tuple index or a
    mapping key) of a value declared ``annotation``."""
    annotation = unwrap(annotation)
    if dataclasses.is_dataclass(annotation):
        return typing.get_type_hints(annotation, include_extras=True)[key]
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is tuple:
        return args[0] if args[-1] is Ellipsis else args[key]
    return args[1]


def edges(base, domain):
    """(the boundary values ``domain`` takes, the neighbours it refuses)."""
    below = -1 if base is int else math.nextafter(0.0, -1.0)
    if domain is records.NON_NEGATIVE:
        return [0], [below]
    if domain is records.POSITIVE:
        return [1 if base is int else math.nextafter(0.0, 1.0)], [0]
    if domain is records.PROBABILITY:
        return [0, 1], [below, 2 if base is int else math.nextafter(1.0, 2.0)]
    raise AssertionError(f"no boundary values for {domain!r}")


def places(annotation, path=()):
    """``(path, base type, domain)`` of every bound declared under
    ``annotation``: record fields, tuple items and mapping values."""
    annotation = unwrap(annotation)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Annotated:
        yield path, *args
        return
    if dataclasses.is_dataclass(annotation) and annotation not in NOT_LOADED:
        keys = [f.name for f in dataclasses.fields(annotation)]
    elif origin is tuple:
        keys = [0] if args[-1] is Ellipsis else range(len(args))
    elif origin is abc.Mapping:
        keys = [build(args[0])]
    else:
        return
    for key in keys:
        yield from places(step(annotation, key), path + (key,))


def build(annotation, path=None, value=None):
    """The smallest data ``annotation`` accepts; with ``value`` at
    ``path`` when a path is given."""
    if path == ():
        return value
    if path is None and unwrap(annotation) is not annotation:
        return None
    annotation = unwrap(annotation)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Annotated:
        return edges(*args)[0][0]
    if dataclasses.is_dataclass(annotation):
        data = {f.name: build(step(annotation, f.name))
                for f in dataclasses.fields(annotation)
                if f.default is f.default_factory is dataclasses.MISSING}
    elif origin is tuple:
        data = [] if args[-1] is Ellipsis else [build(a) for a in args]
    elif origin is abc.Mapping:
        data = {}
    else:
        return {int: 0, float: 0.0, str: "k", bool: False}[annotation]
    if path:
        item = build(step(annotation, path[0]), path[1:], value)
        if isinstance(data, list):
            data[path[0]:path[0] + 1] = [item]
        else:
            data[path[0]] = item
    return tuple(data) if isinstance(data, list) else data


def innermost(cls, path):
    """The last record ``path`` crosses, and the rest of the path."""
    record, start, annotation = cls, 0, cls
    for i, key in enumerate(path):
        annotation = unwrap(step(annotation, key))
        if dataclasses.is_dataclass(annotation):
            record, start = annotation, i + 1
    return record, path[start:]


def path_text(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).lstrip(".")


PLACES = [(cls, path, base, domain) for cls in BOUNDED
          for path, base, domain in places(cls)]


def refusal(make, data) -> BlockParallelError:
    with pytest.raises(BlockParallelError) as caught:
        make(data)
    return caught.value


class TestDeclaredBounds:
    def test_the_walk_reaches_items_values_and_nested_records(self):
        found = {(cls.__name__, path_text(path)) for cls, path, *_ in PLACES}
        assert {
            ("SimulationOptions",
             "channel_capacity_overrides.('k', 'k', 'k', 'k')"),
            ("SimulationOptions", "telemetry.max_spans"),
            ("FaultSpec", "transient.schedule[0][1]"),
            ("FaultSpec", "slow_pes[0][1]"),
            ("FaultSpec", "pe_failures[0].time_s"),
            ("ChaosSpec", "worker.slow_s"),
            ("ManyCoreChip", "processor.clock_hz"),
        } <= found

    @pytest.mark.parametrize(
        "cls,path,base,domain", PLACES,
        ids=[f"{cls.__name__}.{path_text(path)}" for cls, path, *_ in PLACES])
    def test_a_bound_takes_its_edges_and_refuses_their_neighbours(
            self, cls, path, base, domain):
        record, relative = innermost(cls, path)
        # Constructed directly, and loaded from the outermost record.
        ways = [(lambda data: record(**data),
                 lambda value: build(record, relative, value)),
                (BOUNDED[cls], lambda value: build(cls, path, value))]
        inside, outside = edges(base, domain)
        for make, data in ways:
            typed = refusal(make, data("x"))
            where = str(typed).split(" must be ")[0]
            assert where.endswith(path_text(relative)), typed
            for value in inside:
                make(data(value))
            for value in outside:
                bounded = refusal(make, data(value))
                assert type(bounded) is type(typed)
                assert str(bounded) == (
                    f"{where} must be {domain.phrase}, got {base(value)!r}")


# ---------------------------------------------------------------------------
# The docs tables are the declarations


def type_text(annotation) -> str:
    """An annotation in the words the docs use."""
    plain = {int: "integer", float: "number", bool: "`true` / `false`",
             str: "string", Any: "any JSON value"}
    if annotation in plain:
        return plain[annotation]
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Annotated:
        base, phrase = type_text(args[0]), args[1].phrase
        return (f"{base} {phrase}" if phrase.startswith("in ")
                else f"{phrase} {base}")
    if origin is Literal:
        return "one of " + ", ".join(f"`{json.dumps(a)}`" for a in args)
    if origin is tuple and args[-1] is Ellipsis:
        return f"list of {type_text(args[0])}"
    if origin is tuple:
        return "[" + ", ".join(type_text(a) for a in args) + "]"
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        return f"{type_text(inner)} or `null`"
    raise AssertionError(f"no wording for {annotation!r}")


def field_rows(cls, prefix="") -> list[str]:
    """``| field | type | default |`` rows, nested records flattened."""
    rows = []
    hints = typing.get_type_hints(cls, include_extras=True)
    for f in dataclasses.fields(cls):
        annotation, path = hints[f.name], prefix + f.name
        args = typing.get_args(annotation)
        if dataclasses.is_dataclass(annotation):
            rows += field_rows(annotation, f"{path}.")
        elif args and dataclasses.is_dataclass(args[0]):
            rows += field_rows(args[0], f"{path}[].")
        else:
            default = records.defaults(cls).get(f.name, dataclasses.MISSING)
            shown = ("required" if default is dataclasses.MISSING
                     else f"`{json.dumps(records.dump(default))}`")
            rows.append(f"| `{path}` | {type_text(annotation)} | {shown} |")
    return rows


def record_table(cls) -> str:
    return "\n".join(["| field | type | default |", "|---|---|---|",
                      *field_rows(cls)])


def axis_table() -> str:
    rows = ["| axis | type | configures |", "|---|---|---|"]
    renamed = {"clock_mhz": "clock_hz` (x 1e6)"}
    for axis, annotation in PROCESSOR_AXES.items():
        rows.append(f"| `{axis}` | {type_text(annotation)} | "
                    f"`ProcessorSpec.{renamed.get(axis, axis + '`')} |")
    for axis, annotation in OPTION_AXES.items():
        rows.append(f"| `{axis}` | {type_text(annotation)} | "
                    f"`CompileOptions.{axis}` |")
    targets = {"fault_seed": "FaultSpec.seed"}
    for axis, annotation in JOB_AXES.items():
        rows.append(f"| `{axis}` | {type_text(annotation)} | "
                    f"`{targets.get(axis, 'Job.' + axis)}` |")
    rows.append("| `noc` | `true` / `false`, or an object of the knobs "
                "below | `build_noc_model` |")
    hints = typing.get_type_hints(NocKnobs)
    for knob in dataclasses.fields(NocKnobs):
        rows.append(f"| `noc.{knob.name}` | {type_text(hints[knob.name])} | "
                    f"`build_noc_model({knob.name}=)`, default "
                    f"`{json.dumps(knob.default)}` |")
    rows.append("| `faults` | a fault-spec object or `null` | `FaultSpec` |")
    return "\n".join(rows)


def builder_table() -> str:
    rows = ["| app | parameters |", "|---|---|"]
    for name, template in APP_TEMPLATES.items():
        parameters = inspect.signature(template.build,
                                       eval_str=True).parameters
        if parameters:
            rows.append(f"| `{name}` | " + ", ".join(
                f"`{p.name}` {type_text(p.annotation)}"
                for p in parameters.values()) + " |")
    return "\n".join(rows)


class TestDocsAreTheDeclarations:
    """Each table below is pasted into the doc; when a declaration
    changes the assertion prints the table to paste again."""

    @pytest.mark.parametrize("doc,render", [
        ("explore.md", axis_table),
        ("explore.md", builder_table),
        ("robustness.md", lambda: record_table(FaultSpec)),
        ("chaos.md", lambda: record_table(ChaosSpec)),
        ("observability.md", lambda: record_table(TelemetryConfig)),
    ])
    def test_the_doc_contains_the_rendered_table(self, doc, render):
        text = (ROOT / "docs" / doc).read_text(encoding="utf-8")
        table = render()
        assert table in text, f"docs/{doc} should contain:\n{table}"

    def test_every_axis_the_router_knows_is_in_the_table(self):
        table = axis_table()
        for axis in (PROCESSOR_KEYS | OPTION_KEYS | set(JOB_AXES)
                     | {"noc", "faults"}):
            assert f"| `{axis}` |" in table

    @pytest.mark.parametrize("doc,cls", [("robustness.md", FaultSpec),
                                         ("chaos.md", ChaosSpec)])
    def test_the_docs_example_scenario_loads(self, doc, cls):
        text = (ROOT / "docs" / doc).read_text(encoding="utf-8")
        example = text.split("```json\n", 1)[1].split("```", 1)[0]
        record = cls.from_json(example)
        assert record.to_dict() == json.loads(example)
