"""Per-kernel resource requirements and parallelism degrees (Section IV).

To a first order — exactly the paper's formulation — the degree of
parallelism for a kernel is its required execution rate (from the dataflow
analysis) times the resources consumed per iteration, divided by the
resources one processing element provides.  Compute and memory are assessed
separately: compute binds the filter kernels, memory binds the buffers
(whose row storage may exceed one element's local store, Section IV-C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..errors import ParallelizationError
from ..graph.app import ApplicationGraph
from ..kernels.buffer import BufferKernel
from ..machine.processor import ProcessorSpec
from .dataflow import DataflowResult, analyze_dataflow

__all__ = ["KernelResources", "ResourceAnalysis", "analyze_resources"]

#: Target utilization ceiling per processing element.  Sizing parallelism
#: to exactly 100% leaves no slack for scheduling jitter; the compiler
#: plans to this fraction of each element's capacity.
DEFAULT_UTILIZATION_TARGET = 0.9


@dataclass(frozen=True, slots=True)
class KernelResources:
    """Static resource requirements of one kernel at its required rate."""

    kernel: str
    #: Compute cycles per second across all methods.
    compute_cps: float
    #: Elements read / written per second (channel traffic).
    read_eps: float
    write_eps: float
    #: Total cycles per second including port access costs.
    total_cps: float
    #: Private state plus implicit port double buffers, in words.
    memory_words: int
    #: Fraction of one PE's cycles this kernel needs.
    cpu_utilization: float
    #: Fraction of one PE's memory this kernel needs.
    mem_utilization: float
    #: Parallel instances needed for compute; for memory (buffers only).
    degree_cpu: int
    degree_mem: int

    @property
    def degree(self) -> int:
        return max(self.degree_cpu, self.degree_mem)


@dataclass(frozen=True, slots=True)
class ResourceAnalysis:
    """Resource requirements for every kernel in an application."""

    app: ApplicationGraph
    processor: ProcessorSpec
    utilization_target: float
    kernels: Mapping[str, KernelResources]

    def resources(self, kernel: str) -> KernelResources:
        try:
            return self.kernels[kernel]
        except KeyError:
            raise ParallelizationError(
                f"no resource analysis for kernel {kernel!r}"
            ) from None

    def describe(self) -> str:
        lines = [
            f"resources for {self.app.name!r} on {self.processor.clock_hz/1e6:.0f}"
            f" MHz / {self.processor.memory_words} words per PE "
            f"(target {self.utilization_target:.0%}):"
        ]
        for name, r in self.kernels.items():
            lines.append(
                f"  {name}: cpu {r.cpu_utilization:6.1%}  mem {r.mem_utilization:6.1%}"
                f"  -> degree {r.degree} (cpu {r.degree_cpu}, mem {r.degree_mem})"
            )
        return "\n".join(lines)


def analyze_resources(
    app: ApplicationGraph,
    processor: ProcessorSpec,
    dataflow: DataflowResult | None = None,
    *,
    utilization_target: float = DEFAULT_UTILIZATION_TARGET,
) -> ResourceAnalysis:
    """Compute per-kernel requirements and parallelism degrees.

    ``utilization_target`` caps planned per-PE load; the paper sizes to
    the real-time requirement, and headroom below 1.0 absorbs the
    scheduling quantization the simulator models.
    """
    if not 0 < utilization_target <= 1:
        raise ParallelizationError(
            f"utilization target must be in (0, 1], got {utilization_target}"
        )
    if dataflow is None:
        dataflow = analyze_dataflow(app)
    out: dict[str, KernelResources] = {}
    for name in app.topological_order():
        kernel = app.kernel(name)
        flow = dataflow.flow(name)

        compute_cps = sum(
            flow.firings_per_second.get(m.name, 0.0) * m.cost.cycles
            for m in kernel.methods.values()
        )
        if kernel.charges_element_io:
            read_eps = 0.0
            for port, s in flow.inputs.items():
                spec = kernel.input_spec(port)
                if (
                    kernel.sequential_input_reuse
                    and s.chunk == spec.window
                ):
                    # Figure 9: only fresh columns are new reads.
                    per_chunk = spec.step.x * spec.window.h
                else:
                    per_chunk = s.chunk.elements
                read_eps += per_chunk * s.chunks_per_frame * s.rate_hz
            write_eps = sum(
                s.elements_per_second for s in flow.outputs.values()
            )
        else:
            # Routers charge one access per chunk, matching the runtime.
            read_eps = sum(
                s.chunks_per_frame * s.rate_hz for s in flow.inputs.values()
            )
            write_eps = sum(
                s.chunks_per_frame * s.rate_hz for s in flow.outputs.values()
            )
        io_cps = (
            read_eps * processor.read_cycles_per_element
            + write_eps * processor.write_cycles_per_element
        )
        total_cps = compute_cps + io_cps

        memory_words = kernel.state_words() + kernel.port_buffer_words()
        cpu_util = total_cps / processor.clock_hz
        mem_util = memory_words / processor.memory_words

        degree_cpu = max(1, math.ceil(cpu_util / utilization_target))
        if isinstance(kernel, BufferKernel):
            degree_mem = max(1, math.ceil(mem_util / utilization_target))
        else:
            degree_mem = 1
            if mem_util > 1.0:
                raise ParallelizationError(
                    f"kernel {name!r} needs {memory_words} words but a PE "
                    f"provides {processor.memory_words}, and its state "
                    "cannot be split (only buffers split column-wise)"
                )

        out[name] = KernelResources(
            kernel=name,
            compute_cps=compute_cps,
            read_eps=read_eps,
            write_eps=write_eps,
            total_cps=total_cps,
            memory_words=memory_words,
            cpu_utilization=cpu_util,
            mem_utilization=mem_util,
            degree_cpu=degree_cpu,
            degree_mem=degree_mem,
        )
    return ResourceAnalysis(
        app=app,
        processor=processor,
        utilization_target=utilization_target,
        kernels=out,
    )
