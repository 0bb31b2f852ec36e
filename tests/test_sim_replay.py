"""Unit tests for the quasi-static replay engine's edges.

The heavy identity proofs live elsewhere — golden fixtures in
``test_sim_conformance.py``, 200 fuzzed pipelines in
``test_sim_differential.py``, invariants in ``test_properties.py``.
This file pins the engine's *contract surface*: eligibility gating,
stats accounting and rendering, and the API seams other layers
(CLI, explore, benchmarks) consume.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache

import pytest

from repro.apps.suite import BENCHMARK_PROCESSOR, benchmark
from repro.faults import FaultSpec
from repro.machine import ManyCoreChip
from repro.machine.noc import NocModel, row_major_placement
from repro.sim import ReplayStats, SimulationOptions, simulate
from repro.sim.replay import _ineligible_reason
from repro.transform import CompileOptions, compile_application


@lru_cache(maxsize=None)
def _compiled(key: str):
    bench = benchmark(key)
    return bench, compile_application(
        bench.application(),
        BENCHMARK_PROCESSOR,
        CompileOptions(mapping="greedy"),
    )


class TestEligibility:
    def test_default_options_are_eligible(self):
        assert _ineligible_reason(SimulationOptions()) is None

    def test_trace_is_ineligible(self):
        assert _ineligible_reason(SimulationOptions(trace=True)) == "trace"

    def test_active_faults_are_ineligible(self):
        spec = FaultSpec(seed=1, slow_pes=((0, 2.0),))
        assert spec.active()
        opts = SimulationOptions(faults=spec)
        assert _ineligible_reason(opts) == "faults"

    def test_inert_fault_spec_stays_eligible(self):
        """A spec that cannot inject anything does not hook the loop."""
        spec = FaultSpec(seed=1, slow_pes=((0, 1.0),))
        assert not spec.active()
        assert _ineligible_reason(SimulationOptions(faults=spec)) is None

    def test_telemetry_is_ineligible(self):
        opts = SimulationOptions(telemetry=True)
        assert _ineligible_reason(opts) == "telemetry"

    def test_bounded_channels_are_ineligible(self):
        opts = SimulationOptions(channel_capacity=4)
        assert _ineligible_reason(opts) == "bounded-channels"

    def test_trace_wins_over_other_reasons(self):
        """First-match ordering: the reported reason is deterministic."""
        opts = SimulationOptions(trace=True, channel_capacity=4)
        assert _ineligible_reason(opts) == "trace"


class TestIneligibleRuns:
    """Ineligible replay requests still run — as the plain loop."""

    def test_trace_run_reports_stats_and_matches(self):
        bench, compiled = _compiled("2")
        options = SimulationOptions(frames=bench.frames, trace=True,
                                    replay=True)
        result = simulate(compiled, options)
        plain = simulate(
            compiled, SimulationOptions(frames=bench.frames, trace=True)
        )
        stats = result.replay
        assert stats is not None
        assert not stats.eligible and not stats.engaged
        assert stats.reason == "trace"
        assert stats.events_replayed == 0
        assert stats.events_interpreted == result.events_processed
        assert result.as_dict() == plain.as_dict()

    def test_noc_run_reports_noc_reason(self):
        bench, compiled = _compiled("2")
        chip = ManyCoreChip(cols=8, rows=8, processor=BENCHMARK_PROCESSOR)
        noc = NocModel(placement=row_major_placement(compiled.mapping, chip))
        result = simulate(
            compiled,
            SimulationOptions(frames=bench.frames, noc=noc, replay=True),
        )
        assert result.replay.reason == "noc"


class TestStatsSurface:
    def test_replay_stats_never_in_as_dict(self):
        """The conformance surface is shared: stats ride on the result
        object only, never in the canonical dict."""
        bench, compiled = _compiled("5")
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        assert result.replay is not None and result.replay.engaged
        assert "replay" not in result.as_dict()

    def test_replay_off_has_no_stats(self):
        bench, compiled = _compiled("2")
        result = simulate(compiled, SimulationOptions(frames=bench.frames))
        assert result.replay is None

    def test_as_dict_round_trips_through_json(self):
        bench, compiled = _compiled("5")
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        d = json.loads(json.dumps(result.replay.as_dict()))
        assert d["eligible"] and d["engaged"]
        assert d["events_replayed"] + d["events_interpreted"] == (
            result.events_processed
        )
        assert d["period_firings"] > 0 and d["period_events"] > 0
        assert isinstance(d["period_fingerprint"], str)
        assert d["restarts"] == 0

    def test_engaged_run_describe(self):
        bench, compiled = _compiled("5")
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        text = result.replay.describe()
        assert "periods" in text and "demotions" in text
        assert "ineligible" not in text

    def test_ineligible_describe(self):
        stats = ReplayStats(eligible=False, reason="faults",
                            events_interpreted=10)
        assert "ineligible (faults)" in stats.describe()

    def test_eligible_unengaged_describe(self):
        stats = ReplayStats(eligible=True, events_interpreted=10)
        assert "no period locked" in stats.describe()


class TestHardRestart:
    """The last-resort safety net: an exception inside the period executor
    restarts the whole run on the plain loop."""

    def test_executor_error_restarts_on_the_plain_loop(self, monkeypatch):
        bench, compiled = _compiled("1")
        plain = simulate(compiled, SimulationOptions(frames=bench.frames))

        # Luma opts out of batching, so its body runs per firing inside
        # replayed periods: the place a kernel exception becomes a hard
        # divergence.  The event loop lives in simulator.py, so the
        # period executor (repro.sim.replay's ``enter``) on the stack
        # above the body means a period is replaying.  Raise there
        # exactly once.
        kernel = compiled.graph.kernels["Luma"]
        assert not kernel.batch_accepts("combine", frozenset())
        body = kernel.combine
        raised = []

        def combine():
            frame = sys._getframe(1)
            while frame is not None and not raised:
                if (frame.f_code.co_name == "enter" and
                        frame.f_globals["__name__"] == "repro.sim.replay"):
                    raised.append(True)
                    raise RuntimeError("injected kernel failure")
                frame = frame.f_back
            body()

        monkeypatch.setattr(kernel, "combine", combine)
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        assert raised, "the period executor never ran the kernel body"
        assert result.as_dict() == plain.as_dict()

        stats = result.replay
        assert stats.eligible
        assert stats.restarts == 1
        assert stats.reason.startswith("hard divergence")
        assert "injected kernel failure" in stats.reason
        # Nothing of the aborted attempt may describe the returned run...
        assert not stats.engaged
        assert stats.periods_replayed == 0
        assert stats.events_replayed == 0
        assert stats.firings_batched == stats.firings_scalar == 0
        assert stats.batched_kernels == [] and stats.demotions == {}
        assert stats.events_interpreted == result.events_processed
        # ...except that it happened, and what had been compiled by then.
        assert stats.periods_compiled > 0
        text = stats.describe()
        assert "restarted" in text and "periods replayed" not in text


class TestDetectorBounds:
    def test_long_period_app_gives_up_cleanly(self):
        """App 3's beat period (a whole frame of parallel pipelines)
        exceeds the detector window: the recorder must shut off, the run
        must stay correct, and the stats must show the bounded fallback
        rather than a wedged detector."""
        bench, compiled = _compiled("3")
        replayed = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        plain = simulate(compiled, SimulationOptions(frames=bench.frames))
        assert replayed.as_dict() == plain.as_dict()
        stats = replayed.replay
        assert stats.eligible
        assert stats.restarts == 0
        # The alias ladder may replay a handful of early periods before
        # the payoff cutoff trips; the bulk must be interpreted.
        assert stats.events_interpreted > stats.events_replayed

    @pytest.mark.parametrize("key", ["1", "2", "4", "5"])
    def test_periodic_apps_engage(self, key):
        bench, compiled = _compiled(key)
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        stats = result.replay
        assert stats.engaged and stats.periods_replayed > 0
        assert stats.period_fingerprint is not None
        assert stats.restarts == 0
