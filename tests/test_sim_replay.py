"""The ``replay`` / ``batch`` options' contract now that they select nothing.

The quasi-static replay engine was removed: ``SimulationOptions(replay=
True)`` runs the one event loop.  What callers built on the engine still
read is pinned here: both options construct, a replay run returns a
:class:`~repro.sim.ReplayStats` ledger whose replay and batch counters
are zero and whose ``reason`` says why, and the conformance surface is
the plain run's.  ``bench/workloads.py::SimSteady`` is the caller that
fixes the field list.
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest

from repro.apps.suite import BENCHMARK_PROCESSOR, benchmark
from repro.sim import ReplayStats, SimulationOptions, simulate
from repro.transform import CompileOptions, compile_application

#: The ``result.replay`` fields ``SimSteady`` reads on every replay run.
BENCH_FIELDS = ("events_replayed", "firings_batched", "firings_scalar",
                "periods_compiled", "demotions", "restarts")


@lru_cache(maxsize=None)
def _compiled(key: str):
    bench = benchmark(key)
    return bench, compile_application(
        bench.application(),
        BENCHMARK_PROCESSOR,
        CompileOptions(mapping="greedy"),
    )


@pytest.mark.parametrize("batch", [True, False])
def test_bench_options_return_the_zero_ledger(batch):
    """The two option sets ``SimSteady`` builds run, and every field it
    reads is present and zero."""
    _, compiled = _compiled("5")
    options = SimulationOptions(frames=2, replay=True, batch=batch)
    result = simulate(compiled, options)
    stats = result.replay
    assert isinstance(stats, ReplayStats)
    assert {name: getattr(stats, name) for name in BENCH_FIELDS} == {
        "events_replayed": 0, "firings_batched": 0, "firings_scalar": 0,
        "periods_compiled": 0, "demotions": {}, "restarts": 0,
    }
    assert stats.events_interpreted == result.events_processed
    assert "removed" in stats.reason
    assert result.as_dict() == simulate(
        compiled, SimulationOptions(frames=2)).as_dict()


class TestIneligibleRuns:
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
        assert stats.events_replayed == 0
        assert stats.events_interpreted == result.events_processed
        assert result.as_dict() == plain.as_dict()
        assert result.trace == plain.trace


class TestStatsSurface:
    def test_replay_stats_never_in_as_dict(self):
        """Stats ride on the result object only, never in the canonical
        dict, so replay-on and replay-off share one surface."""
        bench, compiled = _compiled("5")
        result = simulate(
            compiled, SimulationOptions(frames=bench.frames, replay=True)
        )
        assert result.replay is not None
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
        assert d == result.replay.as_dict()
        assert set(BENCH_FIELDS) < set(d)
        assert d["events_replayed"] + d["events_interpreted"] == (
            result.events_processed
        )
