"""Iteration size and rate analysis (Section III-A).

Propagates each application input's size and rate through the graph via a
worklist over the kernels' transfer functions, producing for every kernel
its firing rates (iteration counts times frame rate) and for every channel
the :class:`~repro.streams.StreamInfo` it carries — extent, inset, chunking,
rate, and token rates.

The worklist handles feedback (Section III-D): kernels flagged
``breaks_cycle`` are evaluated with whatever inputs have resolved (their
transfer falls back to declared loop parameters on the first pass) and the
analysis iterates until every stream is stable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from ..errors import AnalysisError
from ..graph.app import ApplicationGraph
from ..graph.edges import StreamEdge
from ..graph.kernel import TransferResult
from ..streams import StreamInfo

__all__ = ["KernelFlow", "DataflowResult", "analyze_dataflow"]


@dataclass(frozen=True, slots=True)
class KernelFlow:
    """Resolved dataflow facts for one kernel."""

    kernel: str
    inputs: Mapping[str, StreamInfo]
    outputs: Mapping[str, StreamInfo]
    firings_per_second: Mapping[str, float]

    @property
    def total_firings_per_second(self) -> float:
        return sum(self.firings_per_second.values())


@dataclass(frozen=True, slots=True)
class DataflowResult:
    """Dataflow analysis over a whole application graph."""

    app: ApplicationGraph
    flows: Mapping[str, KernelFlow]

    def flow(self, kernel: str) -> KernelFlow:
        try:
            return self.flows[kernel]
        except KeyError:
            raise AnalysisError(f"no dataflow result for kernel {kernel!r}") from None

    def stream_on(self, edge: StreamEdge) -> StreamInfo:
        """The stream carried by a channel (as produced by its source)."""
        flow = self.flow(edge.src)
        try:
            return flow.outputs[edge.src_port]
        except KeyError:
            raise AnalysisError(
                f"kernel {edge.src!r} produced no stream on {edge.src_port!r}"
            ) from None

    def stream_into(self, kernel: str, port: str) -> StreamInfo:
        """The stream arriving at an input port."""
        edge = self.app.edge_into(kernel, port)
        if edge is None:
            raise AnalysisError(f"input {kernel}.{port} is unconnected")
        return self.stream_on(edge)

    def describe(self) -> str:
        lines = [f"dataflow for {self.app.name!r}:"]
        for name in self.app.topological_order():
            flow = self.flows.get(name)
            if flow is None:
                continue
            rate = flow.total_firings_per_second
            lines.append(f"  {name}: {rate:,.0f} firings/s")
            for port, s in flow.outputs.items():
                lines.append(f"    {port}: {s.describe()}")
        return "\n".join(lines)


def analyze_dataflow(app: ApplicationGraph) -> DataflowResult:
    """Run the iteration size/rate analysis over ``app``.

    Raises :class:`AnalysisError` if any kernel cannot be resolved (e.g. a
    feedback loop without an :class:`~repro.kernels.InitialValueKernel`) or
    if the worklist fails to converge.

    The result is kept in ``app.derived`` and handed back until the graph
    next changes, so asking again after a pass that inserted nothing is
    free.
    """
    return app.derived.get("dataflow") or _propagate(app, tolerant=False)


def tolerant_dataflow(app: ApplicationGraph) -> DataflowResult:
    """Dataflow that tolerates kernels whose transfer function fails.

    Alignment checking must run *before* the graph is fully analyzable (a
    misaligned subtract makes the default transfer raise), so failures
    simply leave the kernel and everything downstream of it unresolved;
    the caller only queries streams flowing *into* the kernels it inspects.
    On a graph where nothing fails this *is* :func:`analyze_dataflow`'s
    result, and is kept as such.
    """
    return app.derived.get("dataflow") or _propagate(app, tolerant=True)


def _propagate(app: ApplicationGraph, *, tolerant: bool) -> DataflowResult:
    order = app.topological_order()  # raises on unbroken cycles
    kernels = app.kernels
    # Adjacency for this pass only: the graph itself keeps no index that
    # a mutator would have to invalidate.
    source_of: dict[tuple[str, str], tuple[str, str]] = {}
    successors: dict[str, list[str]] = {name: [] for name in order}
    for e in app.edges:
        source_of[e.dst, e.dst_port] = (e.src, e.src_port)
        if e.dst not in successors[e.src]:
            successors[e.src].append(e.dst)

    streams: dict[tuple[str, str], StreamInfo] = {}
    results: dict[str, TransferResult] = {}
    inputs_seen: dict[str, dict[str, StreamInfo]] = {}
    whole = True

    worklist = deque(order)
    queued = set(order)
    max_steps = (4 * max(len(order), 1) + 8) * max(len(order), 1)
    steps = 0
    while worklist:
        steps += 1
        if steps > max_steps:
            raise AnalysisError(
                f"dataflow analysis did not converge on {app.name!r}; "
                "check feedback loop declarations"
            )
        name = worklist.popleft()
        queued.discard(name)
        kernel = kernels[name]
        resolved: dict[str, StreamInfo] = {}
        complete = True
        for port in kernel.inputs:
            source = source_of.get((name, port))
            if source is None and not tolerant:
                raise AnalysisError(f"input {name}.{port} is unconnected")
            stream = streams.get(source)
            if stream is None:
                complete = False
            else:
                resolved[port] = stream
        if not complete and not getattr(kernel, "breaks_cycle", False):
            # Will be revisited once upstream kernels resolve; topological
            # seeding guarantees progress for acyclic graphs.
            continue
        try:
            result = kernel.transfer(resolved)
        except Exception:
            if not tolerant:
                raise
            whole = False
            continue
        inputs_seen[name] = resolved
        changed = name not in results or any(
            streams.get((name, port)) != stream
            for port, stream in result.outputs.items()
        )
        results[name] = result
        for port, stream in result.outputs.items():
            streams[(name, port)] = stream
        if changed:
            for succ in successors[name]:
                if succ not in queued:
                    queued.add(succ)
                    worklist.append(succ)

    missing = [n for n in order if n not in results]
    if missing and not tolerant:
        raise AnalysisError(
            f"dataflow could not resolve kernels {missing}; upstream inputs "
            "never produced streams"
        )

    flows = {
        name: KernelFlow(
            kernel=name,
            inputs=inputs_seen[name],
            outputs=dict(results[name].outputs),
            firings_per_second=dict(results[name].firings_per_second),
        )
        for name in order
        if name in results
    }
    dataflow = DataflowResult(app=app, flows=flows)
    if whole and not missing:
        app.derived["dataflow"] = dataflow
    return dataflow
