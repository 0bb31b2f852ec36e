"""Unit tests for stream metadata, simulation stats, and machine model."""

from fractions import Fraction

import pytest

from repro.errors import ResourceError, PlacementError
from repro.geometry import Inset, Region, Size2D
from repro.machine import DEFAULT_PROCESSOR, ManyCoreChip, ProcessorSpec, Tile
from repro.sim.stats import ProcessorStats, RealTimeVerdict, UtilizationSummary
from repro.streams import StreamInfo, default_tokens
from repro.tokens import EndOfFrame, EndOfLine


def stream(**overrides):
    base = dict(
        region=Region(Size2D(24, 16), Inset(0, 0)),
        chunk=Size2D(1, 1),
        rate_hz=100.0,
        chunks_per_frame=384,
        token_rates=dict(default_tokens(16)),
    )
    base.update(overrides)
    return StreamInfo(**base)


class TestStreamInfo:
    def test_elements_per_frame(self):
        assert stream().elements_per_frame == 384
        s = stream(chunk=Size2D(5, 5), chunks_per_frame=240)
        assert s.elements_per_frame == 240 * 25

    def test_elements_per_second(self):
        assert stream().elements_per_second == 384 * 100

    def test_token_rates(self):
        s = stream()
        assert s.token_rate(EndOfLine) == 16
        assert s.token_rate(EndOfFrame) == 1

    def test_describe(self):
        assert "24x16" in stream().describe()
        assert "precut" in stream(windows_precut=True).describe()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            stream(rate_hz=0.0)

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            stream(chunks_per_frame=0)

    def test_default_share_is_one(self):
        assert stream().share == Fraction(1)

    def test_with_region(self):
        s = stream().with_region(Region(Size2D(4, 4), Inset(1, 1)))
        assert s.extent == Size2D(4, 4)
        assert s.inset == Inset(1, 1)
        assert s.rate_hz == 100.0


class TestProcessorSpec:
    def test_firing_time_components(self):
        proc = ProcessorSpec(clock_hz=1e6, memory_words=100,
                             read_cycles_per_element=2.0,
                             write_cycles_per_element=3.0)
        read, run, write = proc.firing_time(10, 4, 2)
        assert read == pytest.approx(8e-6)
        assert run == pytest.approx(10e-6)
        assert write == pytest.approx(6e-6)

    def test_invalid_specs(self):
        with pytest.raises(ResourceError):
            ProcessorSpec(clock_hz=0)
        with pytest.raises(ResourceError):
            ProcessorSpec(memory_words=0)
        with pytest.raises(ResourceError):
            ProcessorSpec(read_cycles_per_element=-1)

    def test_default_reasonable(self):
        assert DEFAULT_PROCESSOR.clock_hz > 0
        assert DEFAULT_PROCESSOR.memory_words > 0


class TestChip:
    def test_tiles_enumerated_row_major(self):
        chip = ManyCoreChip(cols=3, rows=2)
        tiles = list(chip.tiles())
        assert len(tiles) == 6
        assert tiles[0] == Tile(0, 0)
        assert tiles[3] == Tile(0, 1)

    def test_tile_lookup(self):
        chip = ManyCoreChip(cols=4, rows=4)
        assert chip.tile(5) == Tile(1, 1)
        with pytest.raises(PlacementError):
            chip.tile(16)

    def test_invalid_dimensions(self):
        with pytest.raises(PlacementError):
            ManyCoreChip(cols=0, rows=4)


class TestUtilizationSummary:
    def summary(self):
        a = ProcessorStats(index=0, read_s=0.1, run_s=0.3, write_s=0.1,
                           firings=10)
        b = ProcessorStats(index=1, read_s=0.0, run_s=0.5, write_s=0.0,
                           firings=5)
        return UtilizationSummary(duration_s=1.0, processors={0: a, 1: b})

    def test_average(self):
        assert self.summary().average_utilization == pytest.approx(0.5)

    def test_components_sum(self):
        comp = self.summary().component_fractions()
        assert comp["run"] == pytest.approx(0.4)
        assert comp["read"] == pytest.approx(0.05)
        assert comp["write"] == pytest.approx(0.05)

    def test_empty(self):
        empty = UtilizationSummary(duration_s=1.0, processors={})
        assert empty.average_utilization == 0.0

    def test_describe(self):
        text = self.summary().describe()
        assert "avg utilization 50.0%" in text


class TestVerdict:
    def test_describe_meets(self):
        v = RealTimeVerdict(meets=True, frames_expected=4,
                            frames_completed=4, worst_interval_s=0.01,
                            frame_period_s=0.01, input_overruns=0)
        assert "MEETS" in v.describe()

    def test_describe_misses_with_reason(self):
        v = RealTimeVerdict(meets=False, frames_expected=4,
                            frames_completed=2,
                            worst_interval_s=float("inf"),
                            frame_period_s=0.01, input_overruns=1,
                            reason="not all frames completed")
        text = v.describe()
        assert "MISSES" in text and "not all frames" in text


class TestBenchmarkSuite:
    def test_keys_unique_and_complete(self):
        from repro.apps import benchmark_suite

        keys = [b.key for b in benchmark_suite()]
        assert len(set(keys)) == len(keys)
        for expected in ("1", "1F", "2", "2F", "3", "4",
                         "SS", "SF", "BS", "BF", "5"):
            assert expected in keys

    def test_lookup(self):
        from repro.apps import benchmark

        assert benchmark("SS").title == "image pipeline 24x16@100Hz"
        with pytest.raises(KeyError):
            benchmark("nope")

    def test_every_benchmark_builds_valid_app(self):
        from repro.analysis import validate_application
        from repro.apps import benchmark_suite

        for bench in benchmark_suite():
            validate_application(bench.application())
