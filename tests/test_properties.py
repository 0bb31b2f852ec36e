"""Property-based tests (hypothesis) on core invariants.

These cover the structural kernels and analyses whose correctness is
geometric: buffer window emission versus numpy's own sliding windows,
split/join round trips, column-split reassembly with overlap, inset
trimming, and the dataflow conservation laws — plus whole-simulation
invariants (makespan monotonicity, backpressure never helps, tracing is
observation-free) over the random pipelines of
:mod:`test_random_pipelines`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_random_pipelines import pipelines

from repro.geometry import Size2D, Step2D, iteration_grid
from repro.machine import ProcessorSpec
from repro.sim import SimulationOptions, simulate
from repro.transform import CompileOptions, compile_application
from repro.kernels import (
    BufferKernel,
    ColumnSplit,
    CountedJoin,
    InsetKernel,
    PadKernel,
    ReplicateKernel,
    RoundRobinJoin,
    RoundRobinSplit,
)
from repro.sim.runtime import Channel, RuntimeKernel, SeqCounter
from repro.tokens import ControlToken, EndOfFrame, EndOfLine


def wire(kernel, inputs, fanout=1):
    rk = RuntimeKernel(kernel)
    seq = SeqCounter()
    for port in inputs:
        rk.inputs[port] = Channel("src", "out", kernel.name, port, seq)
    for port in kernel.outputs:
        rk.outputs[port] = [
            Channel(kernel.name, port, f"sink{i}", "in", seq)
            for i in range(fanout)
        ]
    return rk


def drain(rk):
    while (f := rk.ready_firing()) is not None:
        for port, item in rk.execute(f).emissions:
            for ch in rk.outputs.get(port, ()):
                ch.push(item)


def feed_frame(rk, port, frame, eol=False, eof=False):
    h, w = frame.shape
    for y in range(h):
        for x in range(w):
            rk.inputs[port].push(np.array([[frame[y, x]]]))
        if eol:
            rk.inputs[port].push(EndOfLine(frame=0, line=y))
    if eof:
        rk.inputs[port].push(EndOfFrame(frame=0))


geometry = st.tuples(
    st.integers(2, 12),   # region w
    st.integers(2, 10),   # region h
    st.integers(1, 5),    # window w
    st.integers(1, 5),    # window h
    st.integers(1, 3),    # step x
    st.integers(1, 3),    # step y
).filter(
    lambda g: g[2] <= g[0] and g[3] <= g[1] and g[4] <= g[2] and g[5] <= g[3]
)


class TestBufferProperties:
    @given(geometry)
    @settings(max_examples=60, deadline=None)
    def test_windows_match_numpy_sliding_view(self, geom):
        rw, rh, ww, wh, sx, sy = geom
        frame = np.arange(float(rw * rh)).reshape(rh, rw)
        buf = BufferKernel("b", region_w=rw, region_h=rh, window_w=ww,
                           window_h=wh, step_x=sx, step_y=sy)
        rk = wire(buf, ["in"])
        feed_frame(rk, "in", frame)
        drain(rk)
        got = [i for i in rk.outputs["out"][0].items
               if not isinstance(i, ControlToken)]
        view = np.lib.stride_tricks.sliding_window_view(frame, (wh, ww))
        want = view[::sy, ::sx].reshape(-1, wh, ww)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @given(geometry, st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_multi_frame_reset(self, geom, frames):
        rw, rh, ww, wh, sx, sy = geom
        buf = BufferKernel("b", region_w=rw, region_h=rh, window_w=ww,
                           window_h=wh, step_x=sx, step_y=sy)
        rk = wire(buf, ["in"])
        grid = iteration_grid(Size2D(rw, rh), Size2D(ww, wh), Step2D(sx, sy))
        for f in range(frames):
            frame = np.arange(float(rw * rh)).reshape(rh, rw) + 1000 * f
            feed_frame(rk, "in", frame, eof=True)
        drain(rk)
        data = [i for i in rk.outputs["out"][0].items
                if not isinstance(i, ControlToken)]
        assert len(data) == frames * grid.elements


class TestSplitJoinProperties:
    @given(st.integers(2, 5), st.lists(st.floats(-100, 100), min_size=0,
                                       max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_rr_split_join_identity(self, n, values):
        """split_n ; join_n == identity on any data sequence."""
        split = wire(RoundRobinSplit("sp", n), ["in"])
        join = wire(RoundRobinJoin("jn", n), [f"in_{i}" for i in range(n)])
        for v in values:
            split.inputs["in"].push(np.array([[v]]))
        drain(split)
        for i in range(n):
            for item in split.outputs[f"out_{i}"][0].items:
                join.inputs[f"in_{i}"].push(item)
        drain(join)
        got = [float(i[0, 0]) for i in join.outputs["out"][0].items]
        assert got == values

    @given(st.integers(2, 5), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_rr_split_join_identity_with_tokens(self, n, frames):
        """Tokens broadcast by the split merge back to single copies."""
        split = wire(RoundRobinSplit("sp", n), ["in"])
        join = wire(RoundRobinJoin("jn", n), [f"in_{i}" for i in range(n)])
        sent = 0
        for f in range(frames):
            for v in range(f + 1):
                split.inputs["in"].push(np.array([[float(v)]]))
                sent += 1
            split.inputs["in"].push(EndOfFrame(frame=f))
        drain(split)
        for i in range(n):
            for item in split.outputs[f"out_{i}"][0].items:
                join.inputs[f"in_{i}"].push(item)
        drain(join)
        out = join.outputs["out"][0]
        assert out.total_data == sent
        assert out.total_tokens == frames

    @given(
        st.integers(2, 10), st.integers(1, 6), st.integers(2, 3),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_column_split_counted_join_reassembles(self, rw, rh, parts, ww):
        """Column-banded split + counted join reproduce scan order."""
        if ww > rw:
            return
        n_x = rw - ww + 1
        if parts > n_x:
            return
        # Balanced contiguous bands over the window positions.
        base, extra = divmod(n_x, parts)
        counts, ranges, pos = [], [], 0
        for i in range(parts):
            c = base + (1 if i < extra else 0)
            counts.append(c)
            ranges.append((pos, pos + c - 1 + ww - 1))
            pos += c
        split = wire(
            ColumnSplit("cs", region_w=rw, region_h=rh, ranges=ranges),
            ["in"],
        )
        frame = np.arange(float(rw * rh)).reshape(rh, rw)
        feed_frame(split, "in", frame)
        drain(split)
        # Per-part buffers extract ww x 1 windows; join re-interleaves.
        join = wire(CountedJoin("jn", counts, ww, 1),
                    [f"in_{i}" for i in range(parts)])
        for i, (lo, hi) in enumerate(ranges):
            buf = wire(
                BufferKernel("b%d" % i, region_w=hi - lo + 1, region_h=rh,
                             window_w=ww, window_h=1),
                ["in"],
            )
            for item in split.outputs[f"out_{i}"][0].items:
                buf.inputs["in"].push(item)
            drain(buf)
            for item in buf.outputs["out"][0].items:
                join.inputs[f"in_{i}"].push(item)
        drain(join)
        got = [i for i in join.outputs["out"][0].items
               if not isinstance(i, ControlToken)]
        view = np.lib.stride_tricks.sliding_window_view(frame, (1, ww))
        want = view.reshape(-1, 1, ww)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @given(st.integers(2, 5), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_replicate_all_branches_identical(self, n, count):
        rep = wire(ReplicateKernel("r", n, 1, 1), ["in"])
        for v in range(count):
            rep.inputs["in"].push(np.array([[float(v)]]))
        drain(rep)
        first = [float(i[0, 0]) for i in rep.outputs["out_0"][0].items]
        for j in range(1, n):
            branch = [float(i[0, 0]) for i in rep.outputs[f"out_{j}"][0].items]
            assert branch == first


class TestInsetPadProperties:
    trims = st.tuples(
        st.integers(3, 10), st.integers(3, 10),
        st.integers(0, 2), st.integers(0, 2),
        st.integers(0, 2), st.integers(0, 2),
    ).filter(lambda t: (t[2] + t[4] < t[0] and t[3] + t[5] < t[1]
                        and max(t[2:]) > 0))

    @given(trims)
    @settings(max_examples=50, deadline=None)
    def test_inset_matches_numpy_slice(self, params):
        rw, rh, left, top, right, bottom = params
        frame = np.arange(float(rw * rh)).reshape(rh, rw)
        inset = InsetKernel("i", region_w=rw, region_h=rh,
                            trim=(left, top, right, bottom))
        rk = wire(inset, ["in"])
        feed_frame(rk, "in", frame, eol=True, eof=True)
        drain(rk)
        data = [float(i[0, 0]) for i in rk.outputs["out"][0].items
                if not isinstance(i, ControlToken)]
        want = frame[top:rh - bottom, left:rw - right].ravel().tolist()
        assert data == want

    @given(trims)
    @settings(max_examples=50, deadline=None)
    def test_pad_matches_numpy_pad(self, params):
        rw, rh, left, top, right, bottom = params
        frame = np.arange(1.0, 1.0 + rw * rh).reshape(rh, rw)
        pad = PadKernel("p", region_w=rw, region_h=rh,
                        pad=(left, top, right, bottom), fill=0.0)
        rk = wire(pad, ["in"])
        feed_frame(rk, "in", frame, eol=True, eof=True)
        drain(rk)
        data = [float(i[0, 0]) for i in rk.outputs["out"][0].items
                if not isinstance(i, ControlToken)]
        want = np.pad(frame, ((top, bottom), (left, right))).ravel().tolist()
        assert data == want

    @given(trims)
    @settings(max_examples=30, deadline=None)
    def test_pad_then_inset_roundtrip(self, params):
        rw, rh, left, top, right, bottom = params
        frame = np.arange(float(rw * rh)).reshape(rh, rw)
        pad = wire(PadKernel("p", region_w=rw, region_h=rh,
                             pad=(left, top, right, bottom)), ["in"])
        feed_frame(pad, "in", frame, eol=True, eof=True)
        drain(pad)
        inset = wire(
            InsetKernel("i", region_w=rw + left + right,
                        region_h=rh + top + bottom,
                        trim=(left, top, right, bottom)),
            ["in"],
        )
        for item in pad.outputs["out"][0].items:
            inset.inputs["in"].push(item)
        drain(inset)
        data = [float(i[0, 0]) for i in inset.outputs["out"][0].items
                if not isinstance(i, ControlToken)]
        assert data == frame.ravel().tolist()


class TestDataflowProperties:
    @given(geometry, st.floats(1.0, 1000.0))
    @settings(max_examples=40, deadline=None)
    def test_firings_conserve_chunks(self, geom, rate):
        """Consumer firings equal the buffer's emitted window count."""
        import numpy as np

        from repro.analysis import analyze_dataflow
        from repro.graph import ApplicationGraph
        from repro.kernels import ApplicationOutput

        rw, rh, ww, wh, sx, sy = geom
        app = ApplicationGraph("prop")
        app.add_input("Input", rw, rh, rate)
        buf = BufferKernel("buf", region_w=rw, region_h=rh, window_w=ww,
                           window_h=wh, step_x=sx, step_y=sy)
        app.add_kernel(buf)
        app.add_kernel(ApplicationOutput("Out", ww, wh))
        app.connect("Input", "out", "buf", "in")
        app.connect("buf", "out", "Out", "in")
        df = analyze_dataflow(app)
        grid = iteration_grid(Size2D(rw, rh), Size2D(ww, wh), Step2D(sx, sy))
        out_stream = df.flow("buf").outputs["out"]
        assert out_stream.chunks_per_frame == grid.elements
        sink = df.flow("Out")
        assert sink.firings_per_second["record"] == (
            grid.elements * rate
        )


class TestSimulatorProperties:
    """Whole-simulation invariants on random compiled pipelines."""

    PROC = ProcessorSpec(clock_hz=50e6, memory_words=2048)

    def _compile(self, app):
        return compile_application(
            app, self.PROC, CompileOptions(mapping="greedy")
        )

    @given(pipelines(), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_makespan_monotone_in_frames(self, case, frames):
        """More input frames never finish earlier, and every output
        receives at least as many chunks."""
        app, extent, rate = case
        compiled = self._compile(app)
        short = simulate(compiled, SimulationOptions(frames=frames))
        longer = simulate(compiled, SimulationOptions(frames=frames + 1))
        assert longer.makespan_s >= short.makespan_s
        for name, times in short.output_times.items():
            assert len(longer.output_times[name]) >= len(times)

    @given(pipelines(), st.integers(2, 6))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_tightening_capacity_never_increases_throughput(self, case, cap):
        """Bounding internal channels only ever slows a pipeline down:
        no output gets more chunks, no chunk arrives earlier, the whole
        run never finishes sooner.  (Derandomized: backpressure under
        time multiplexing is where scheduling anomalies would live, so
        this case list must be identical on every CI run.)"""
        app, extent, rate = case
        compiled = self._compile(app)
        free = simulate(compiled, SimulationOptions(frames=2))
        tight = simulate(
            compiled, SimulationOptions(frames=2, channel_capacity=cap)
        )
        for name, times in tight.output_times.items():
            unbounded = free.output_times[name]
            assert len(times) <= len(unbounded)
            for got, reference in zip(times, unbounded):
                assert got >= reference
        assert tight.makespan_s >= free.makespan_s

    @given(pipelines(), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_inactive_fault_spec_is_observation_free(self, case, seed):
        """A fault spec that cannot inject anything (zero probabilities,
        empty schedules, unit multipliers) leaves every observable —
        including the recorded trace — identical to running with no
        spec at all, whatever its seed."""
        from repro.faults import FaultSpec

        app, extent, rate = case
        compiled = self._compile(app)
        spec = FaultSpec(
            seed=seed,
            slow_pes=((0, 1.0),),  # present but inert: unit multiplier
        )
        assert not spec.active()
        with_spec = simulate(
            compiled, SimulationOptions(frames=1, trace=True, faults=spec)
        )
        without = simulate(compiled, SimulationOptions(frames=1, trace=True))
        assert "faults" not in with_spec.as_dict()
        assert with_spec.as_dict() == without.as_dict()
        assert with_spec.trace == without.trace
        assert with_spec.events_processed == without.events_processed

    @given(pipelines(), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_faulted_runs_are_bit_reproducible(self, case, seed):
        """Everything an active fault scenario does is a pure function
        of (spec, seed): repeating the simulation reproduces the same
        faults, recoveries, and timings bit for bit."""
        from repro.faults import FaultSpec

        app, extent, rate = case
        compiled = self._compile(app)
        spec = FaultSpec.from_dict({
            "seed": seed,
            "transient": {"probability": 0.05},
            "channel": {"drop_probability": 0.01},
            "recovery": {"max_retries": 2, "backoff_cycles": 8,
                         "shed": True},
        })
        first = simulate(compiled, SimulationOptions(frames=1, faults=spec))
        second = simulate(compiled, SimulationOptions(frames=1, faults=spec))
        assert first.as_dict() == second.as_dict()
        assert first.fault_stats.as_dict() == second.fault_stats.as_dict()
        assert first.events_processed == second.events_processed

    @given(pipelines())
    @settings(max_examples=10, deadline=None)
    def test_trace_flag_is_observation_free(self, case):
        """trace=True records the schedule without perturbing it: every
        observable except the trace section itself is identical."""
        app, extent, rate = case
        compiled = self._compile(app)
        on = simulate(compiled, SimulationOptions(frames=1, trace=True))
        off = simulate(compiled, SimulationOptions(frames=1, trace=False))
        d_on, d_off = on.as_dict(), off.as_dict()
        assert d_on.pop("trace")["events"] == len(on.trace) > 0
        assert d_off.pop("trace")["events"] == 0 and off.trace == []
        assert d_on == d_off
        assert on.events_processed == off.events_processed

    @given(pipelines(), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_replay_off_is_observation_free(self, case, frames):
        """replay=False (the default) attaches no ledger, and the result
        dict is byte-identical to a run that never heard of replay."""
        app, extent, rate = case
        compiled = self._compile(app)
        default = simulate(compiled, SimulationOptions(frames=frames))
        explicit = simulate(
            compiled, SimulationOptions(frames=frames, replay=False)
        )
        assert default.replay is None and explicit.replay is None
        assert default.as_dict() == explicit.as_dict()
        assert default.events_processed == explicit.events_processed

    @given(pipelines(), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_replay_never_changes_observables(self, case, frames):
        """replay=True runs the same loop: verdict, event count,
        makespan, and the whole ``as_dict()`` surface match the plain
        run exactly."""
        app, extent, rate = case
        compiled = self._compile(app)
        plain = simulate(compiled, SimulationOptions(frames=frames))
        rep = simulate(
            compiled, SimulationOptions(frames=frames, replay=True)
        )
        assert rep.as_dict() == plain.as_dict()
        assert rep.events_processed == plain.events_processed
        assert rep.makespan_s == plain.makespan_s
        cpf = max(1, len(plain.output_times["Out"]) // frames)
        assert (
            rep.verdict(
                "Out", rate_hz=rate, chunks_per_frame=cpf, frames=frames
            ).as_dict()
            == plain.verdict(
                "Out", rate_hz=rate, chunks_per_frame=cpf, frames=frames
            ).as_dict()
        )
        stats = rep.replay
        assert stats is not None
        # Conservation: every event was either replayed or interpreted.
        assert (
            stats.events_replayed + stats.events_interpreted
            == rep.events_processed
        )

    @given(pipelines(), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_replay_preserves_fault_accounting(self, case, seed):
        """With an *active* fault spec, replay=True reproduces the fault
        accounting bit for bit — injections are stateful RNG draws, and
        the one loop makes every one of them."""
        from repro.faults import FaultSpec

        app, extent, rate = case
        compiled = self._compile(app)
        spec = FaultSpec.from_dict(
            {"seed": seed, "transient": {"probability": 0.05}}
        )
        assert spec.active()
        plain = simulate(
            compiled, SimulationOptions(frames=1, faults=spec)
        )
        rep = simulate(
            compiled,
            SimulationOptions(frames=1, faults=spec, replay=True),
        )
        assert rep.as_dict() == plain.as_dict()
        assert rep.fault_stats.as_dict() == plain.fault_stats.as_dict()
        stats = rep.replay
        assert stats is not None
        assert stats.events_replayed == 0
