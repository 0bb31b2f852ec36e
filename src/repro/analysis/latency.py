"""First-output (pipeline fill) latency analysis.

The paper's simulator ignores communication delay because, for a
throughput-constrained application, it "will only increase the latency for
the first output, but will not impact the throughput" (Section IV-D).
This module quantifies that first-output latency from the *data
availability* side: how long after the first input element arrives can
each application output produce its first chunk, given only the windowing
structure (buffers must fill ``h-1`` rows, insets skip trimmed leading
elements, token-driven outputs wait for the frame to end).

The estimate is a lower bound: it accounts for when data *can* flow, not
for computation or scheduling time, which add a small processing tail on
top.  The test suite checks simulated first-output times land at or above
the estimate and within a few chunk periods of it for unloaded pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import AnalysisError
from ..graph.app import ApplicationGraph
from ..kernels.buffer import BufferKernel
from ..kernels.inset import InsetKernel, PadKernel
from ..kernels.sources import ApplicationInput, ApplicationOutput, ConstantSource
from ..kernels.splitjoin import (
    ColumnSplit,
    CountedJoin,
    ReplicateKernel,
    RoundRobinSplit,
)
from .dataflow import DataflowResult, analyze_dataflow

__all__ = ["StreamTiming", "LatencyEstimate", "estimate_latency"]


@dataclass(frozen=True, slots=True)
class StreamTiming:
    """Arrival model for a stream: first chunk time and mean spacing."""

    first_s: float
    spacing_s: float


@dataclass(frozen=True, slots=True)
class LatencyEstimate:
    """Fill-latency lower bounds for every application output."""

    app: ApplicationGraph
    outputs: Mapping[str, float]
    streams: Mapping[tuple[str, str], StreamTiming]

    def output_latency(self, name: str) -> float:
        try:
            return self.outputs[name]
        except KeyError:
            raise AnalysisError(f"no application output {name!r}") from None

    def describe(self) -> str:
        lines = ["first-output latency estimates:"]
        for name, t in self.outputs.items():
            lines.append(f"  {name}: {t * 1e3:.3f} ms after start")
        return "\n".join(lines)


def estimate_latency(
    app: ApplicationGraph, dataflow: DataflowResult | None = None
) -> LatencyEstimate:
    """Estimate the first-output time of every application output."""
    if dataflow is None:
        dataflow = analyze_dataflow(app)
    timing: dict[tuple[str, str], StreamTiming] = {}

    for name in app.topological_order():
        kernel = app.kernel(name)
        flow = dataflow.flow(name)

        if isinstance(kernel, ApplicationInput):
            timing[(name, "out")] = StreamTiming(
                first_s=0.0, spacing_s=kernel.element_period
            )
            continue
        if isinstance(kernel, ConstantSource):
            timing[(name, "out")] = StreamTiming(
                first_s=0.0, spacing_s=1.0 / kernel.rate_hz
            )
            continue

        inputs: dict[str, StreamTiming] = {}
        for port in kernel.inputs:
            edge = app.edge_into(name, port)
            assert edge is not None
            inputs[port] = timing[(edge.src, edge.src_port)]

        if isinstance(kernel, ApplicationOutput):
            continue  # terminal; latency read off its input below

        for port in kernel.outputs:
            out_stream = flow.outputs.get(port)
            if out_stream is None:
                continue
            timing[(name, port)] = _output_timing(
                kernel, port, inputs, flow, dataflow
            )

    outputs: dict[str, float] = {}
    for sink in app.application_outputs():
        edge = app.edge_into(sink.name, "in")
        assert edge is not None
        outputs[sink.name] = timing[(edge.src, edge.src_port)].first_s
    return LatencyEstimate(app=app, outputs=outputs, streams=timing)


def _output_timing(kernel, port, inputs, flow, dataflow) -> StreamTiming:
    out_stream = flow.outputs[port]

    def scaled_spacing(t_in: StreamTiming, in_stream) -> float:
        frame_time = t_in.spacing_s * in_stream.chunks_per_frame
        return frame_time / max(out_stream.chunks_per_frame, 1)

    def head_offset_timing(t_in: StreamTiming, in_stream, n0: int) -> StreamTiming:
        """The fill is a head offset: the remaining input chunks of the
        frame pace the outputs, so the last output still lands at the end
        of the input frame (first + (k-1)*spacing ~= frame end)."""
        remaining = max(in_stream.chunks_per_frame - n0, 1)
        spacing = (
            t_in.spacing_s * remaining / max(out_stream.chunks_per_frame, 1)
        )
        return StreamTiming(
            first_s=t_in.first_s + n0 * t_in.spacing_s, spacing_s=spacing
        )

    if isinstance(kernel, BufferKernel):
        # First window completes when its bottom-right element arrives:
        # h-1 full rows plus w elements into the next (0-based index).
        n0 = (kernel.window_h - 1) * kernel.region_w + kernel.window_w - 1
        return head_offset_timing(inputs["in"], flow.inputs["in"], n0)
    if isinstance(kernel, InsetKernel):
        left, top, _, _ = kernel.trim
        n0 = top * kernel.region_w + left
        return head_offset_timing(inputs["in"], flow.inputs["in"], n0)
    if isinstance(kernel, PadKernel):
        t_in = inputs["in"]
        in_stream = flow.inputs["in"]
        return StreamTiming(
            first_s=t_in.first_s,  # the top border emits on first data
            spacing_s=scaled_spacing(t_in, in_stream),
        )
    if isinstance(kernel, (RoundRobinSplit, ColumnSplit, ReplicateKernel)):
        t_in = inputs["in"]
        in_stream = flow.inputs["in"]
        return StreamTiming(
            first_s=t_in.first_s,
            spacing_s=scaled_spacing(t_in, in_stream),
        )
    if isinstance(kernel, CountedJoin):
        t0 = inputs["in_0"]
        in_stream = flow.inputs["in_0"]
        return StreamTiming(
            first_s=t0.first_s,
            spacing_s=scaled_spacing(t0, in_stream),
        )

    # Token-driven outputs (histogram/merge dumps) wait for end of frame
    # on the triggering input.
    method = next(
        (m for m in kernel.methods.values()
         if m.is_token_method and port in m.outputs),
        None,
    )
    if method is not None and kernel.data_method_for_input(port) is None:
        owner_is_data = any(
            port in m.outputs
            for m in kernel.methods.values()
            if not m.is_token_method and not m.is_source
        )
        if not owner_is_data:
            iname = method.token.input_name  # type: ignore[union-attr]
            t_in = inputs[iname]
            in_stream = flow.inputs[iname]
            # The end-of-frame token follows the frame's last chunk.
            last_chunk = (
                t_in.first_s
                + (in_stream.chunks_per_frame - 1) * t_in.spacing_s
            )
            frame_time = t_in.spacing_s * in_stream.chunks_per_frame
            return StreamTiming(first_s=last_chunk, spacing_s=frame_time)

    # Default data method: first output when every trigger input has its
    # first chunk; spacing from the slowest input.
    data_method = None
    for m in kernel.methods.values():
        if not m.is_token_method and not m.is_source and port in m.outputs:
            data_method = m
            break
    if data_method is None or not data_method.data_inputs:
        raise AnalysisError(
            f"{kernel.name}: cannot derive timing for output {port!r}"
        )
    first = max(inputs[p].first_s for p in data_method.data_inputs)
    p0 = data_method.data_inputs[0]
    return StreamTiming(
        first_s=first,
        spacing_s=_spacing_for(inputs[p0], flow.inputs[p0], out_stream),
    )


def _spacing_for(t_in: StreamTiming, in_stream, out_stream) -> float:
    frame_time = t_in.spacing_s * in_stream.chunks_per_frame
    return frame_time / max(out_stream.chunks_per_frame, 1)
