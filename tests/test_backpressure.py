"""Tests for bounded channels and backpressure in the timed simulator."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.graph import ApplicationGraph, Kernel, MethodCost
from repro.kernels import ApplicationOutput, IdentityKernel
from repro.machine import ProcessorSpec
from repro.sim import SimulationOptions, Simulator, simulate
from repro.transform import CompileOptions, compile_application

from helpers import BIG_PROC


class SlowSink(Kernel):
    """A deliberately slow consumer to force upstream stalls."""

    def __init__(self, name: str, cycles: int) -> None:
        self._cycles = cycles
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("in", 1, 1, 1, 1)
        self.add_output("out", 1, 1)
        self.add_method("run", inputs=["in"], outputs=["out"],
                        cost=MethodCost(cycles=self._cycles))

    def run(self) -> None:
        self.write_output("out", self.read_input("in"))


def chain_app(rate=100.0, slow_cycles=50):
    app = ApplicationGraph("chain")
    app.add_input("Input", 8, 8, rate)
    app.add_kernel(IdentityKernel("fast"))
    app.add_kernel(SlowSink("slow", slow_cycles))
    app.add_kernel(ApplicationOutput("Out", 1, 1))
    app.connect("Input", "out", "fast", "in")
    app.connect("fast", "out", "slow", "in")
    app.connect("slow", "out", "Out", "in")
    return app


class TestBackpressure:
    def test_unbounded_default_unchanged(self):
        app = chain_app()
        compiled = compile_application(app, BIG_PROC)
        res = simulate(compiled, SimulationOptions(frames=2))
        assert res.verdict("Out", rate_hz=100.0, chunks_per_frame=64).meets
        for ch in res.channels:
            assert ch.capacity is None or True  # input channels untouched

    def test_bounded_channels_cap_occupancy(self):
        app = chain_app(rate=500.0, slow_cycles=200)
        proc = ProcessorSpec(clock_hz=20e6, memory_words=4096)
        compiled = compile_application(app, proc)
        res = simulate(
            compiled,
            SimulationOptions(frames=2, channel_capacity=4),
        )
        for ch in res.channels:
            if ch.capacity is not None:
                assert ch.max_occupancy <= ch.capacity

    def test_bounded_results_identical_to_unbounded(self):
        """Backpressure changes timing, never values."""
        app = chain_app(rate=200.0, slow_cycles=100)
        proc = ProcessorSpec(clock_hz=20e6, memory_words=4096)
        compiled = compile_application(app, proc)
        free = simulate(compiled, SimulationOptions(frames=2))
        tight = simulate(
            compiled, SimulationOptions(frames=2, channel_capacity=3)
        )
        assert len(free.outputs["Out"]) == len(tight.outputs["Out"])
        for a, b in zip(free.outputs["Out"], tight.outputs["Out"]):
            np.testing.assert_array_equal(a, b)

    def test_stall_delays_completion(self):
        """A stalled producer finishes no earlier than a free-running one."""
        app = chain_app(rate=400.0, slow_cycles=2000)
        proc = ProcessorSpec(clock_hz=20e6, memory_words=4096)
        compiled = compile_application(app, proc, CompileOptions(mapping="1:1"))
        free = simulate(compiled, SimulationOptions(frames=1))
        tight = simulate(
            compiled, SimulationOptions(frames=1, channel_capacity=2)
        )
        assert tight.makespan_s >= free.makespan_s - 1e-12
        # With capacity 2, the fast producer's output channel saturates.
        ch = next(c for c in tight.channels if c.src == "fast")
        assert ch.max_occupancy <= 2

    def test_override_takes_precedence(self):
        app = chain_app()
        compiled = compile_application(app, BIG_PROC,
                                       CompileOptions(mapping="1:1"))
        res = Simulator(
            compiled.graph, compiled.mapping, BIG_PROC,
            SimulationOptions(
                frames=1,
                channel_capacity=4,
                channel_capacity_overrides={("fast", "out", "slow", "in"): 9},
            ),
        ).run()
        by_key = {
            (c.src, c.src_port, c.dst, c.dst_port): c for c in res.channels
        }
        assert by_key[("fast", "out", "slow", "in")].capacity == 9
        assert by_key[("slow", "out", "Out", "in")].capacity == 4

    def test_override_naming_no_channel_is_an_error(self):
        # A typo in an override key must not silently run unbounded.
        compiled = compile_application(chain_app(), BIG_PROC)
        typo = ("fast", "out", "slwo", "in")
        options = SimulationOptions(
            frames=1,
            channel_capacity_overrides={
                ("fast", "out", "slow", "in"): 9, typo: 3,
            },
        )
        with pytest.raises(SimulationError, match="names no channel") as err:
            simulate(compiled, options)
        assert repr(typo) in str(err.value)
        assert "'slow'" not in str(err.value)

    def test_input_channels_never_bounded(self):
        app = chain_app()
        compiled = compile_application(app, BIG_PROC)
        res = simulate(
            compiled, SimulationOptions(frames=1, channel_capacity=2)
        )
        for ch in res.channels:
            if ch.src == "Input":
                assert ch.capacity is None
