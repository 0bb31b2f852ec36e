"""Tests for the maximum-rate search (the StreamIt-style inverse query)."""

import pytest

from repro.apps import build_histogram_app, build_image_pipeline
from repro.errors import TransformError
from repro.machine import ProcessorSpec
from repro.sim import SimulationOptions, simulate
from repro.transform import find_max_rate

PROC = ProcessorSpec(clock_hz=20e6, memory_words=512)


def pipeline(rate):
    return build_image_pipeline(24, 16, rate)


class TestRateSearch:
    def test_rate_grows_with_budget(self):
        rates = []
        for budget in (6, 10, 16):
            res = find_max_rate(pipeline, PROC, processor_budget=budget,
                                low_hz=50.0)
            rates.append(res.best_rate_hz)
            assert res.compiled.processor_count <= budget
        assert rates[0] < rates[1] < rates[2]

    def test_found_rate_meets_in_simulation(self):
        res = find_max_rate(pipeline, PROC, processor_budget=8, low_hz=50.0)
        sim = simulate(res.compiled, SimulationOptions(frames=4))
        verdict = sim.verdict("result", rate_hz=res.best_rate_hz,
                              chunks_per_frame=1)
        assert verdict.meets

    def test_bracket_is_tight(self):
        """Just above the found rate, the budget no longer suffices."""
        from repro.analysis import build_static_schedule
        from repro.transform import compile_application

        budget = 8
        res = find_max_rate(pipeline, PROC, processor_budget=budget,
                            low_hz=50.0, tolerance=0.01)
        higher = res.best_rate_hz * 1.05
        compiled = compile_application(pipeline(higher), PROC)
        fits = (compiled.processor_count <= budget
                and build_static_schedule(compiled).admissible)
        assert not fits

    def test_infeasible_floor_raises(self):
        with pytest.raises(TransformError, match="does not fit"):
            find_max_rate(pipeline, PROC, processor_budget=1, low_hz=50.0)

    def test_bad_budget_rejected(self):
        with pytest.raises(TransformError):
            find_max_rate(pipeline, PROC, processor_budget=0)

    @pytest.mark.parametrize("high_hz", [10.0, 50.0])
    def test_ceiling_at_or_below_floor_rejected(self, high_hz):
        """A ceiling under the floor used to answer *below* a proven rate
        ("max rate 10 Hz" right after verifying 50 Hz)."""
        built = []

        def build(rate):
            built.append(rate)
            return pipeline(rate)

        with pytest.raises(TransformError, match=r"high_hz \(.*\b%g Hz\) "
                           r"must exceed low_hz \(50 Hz\)" % high_hz):
            find_max_rate(build, PROC, processor_budget=6, low_hz=50.0,
                          high_hz=high_hz)
        assert built == []  # rejected up front, before any probe

    def test_explicit_ceiling_accepted_when_feasible(self):
        res = find_max_rate(pipeline, PROC, processor_budget=32,
                            low_hz=50.0, high_hz=100.0)
        assert res.best_rate_hz == 100.0

    def test_history_records_probes(self):
        res = find_max_rate(pipeline, PROC, processor_budget=8, low_hz=50.0)
        assert len(res.history) == res.probes
        assert res.history[0] == (50.0, True)

    def test_serial_bottleneck_caps_rate(self):
        """The histogram merge (dependency-capped) bounds the whole app."""
        res = find_max_rate(
            lambda r: build_histogram_app(32, 24, r), PROC,
            processor_budget=12, low_hz=50.0,
        )
        # Even with spare processors, the rate stalls where the serial
        # portions saturate; the budget is not the binding constraint.
        assert res.compiled.processor_count < 12
