"""The end-to-end compilation pipeline.

``compile_application`` chains every pass of the paper in order:

1. validate the programmer's logical graph;
2. repair multi-input alignment by trimming or padding (Section III-C);
3. run the dataflow analysis (Section III-A);
4. insert buffers wherever chunks do not match windows (Section III-B);
5. size parallelism from rates and per-element capacities and rewrite the
   graph with split/join/replicate kernels (Section IV);
6. re-analyze the physical graph and check the unit-rate invariant;
7. map kernels to processors, 1:1 or greedily multiplexed (Section V).

The input graph is never mutated; the compiled artifact carries the
transformed graph plus every intermediate analysis, which is what the
benchmark harnesses inspect to regenerate the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Literal

from ..analysis.dataflow import DataflowResult, analyze_dataflow
from ..analysis.resources import (
    DEFAULT_UTILIZATION_TARGET,
    ResourceAnalysis,
    analyze_resources,
)
from ..analysis.validate import validate_application, validate_physical
from ..errors import AnalysisError, TransformError
from ..graph.app import ApplicationGraph
from ..machine.processor import DEFAULT_PROCESSOR, ProcessorSpec
from ..records import conform
from .align import AlignmentPolicy, align_application
from .buffering import insert_buffers
from .multiplex import Mapping, map_greedy, map_one_to_one
from .parallelize import ParallelizationReport, parallelize_application

__all__ = ["CompileOptions", "CompiledApp", "compile_application"]


@dataclass(frozen=True, slots=True)
class CompileOptions:
    """Knobs for the compilation pipeline."""

    #: Trim oversized streams or pad undersized producers (Section III-C).
    alignment_policy: AlignmentPolicy = "trim"
    #: Planned per-PE utilization ceiling when sizing parallelism.
    utilization_target: float = DEFAULT_UTILIZATION_TARGET
    #: Kernel-to-processor mapping strategy (Section V).
    mapping: Literal["greedy", "1:1"] = "greedy"
    #: Fuse equal-width round-robin join/split pairs into direct pipeline
    #: wiring (Section IV-B's parallel pipelines).
    fuse_pipelines: bool = True
    #: Disable to compile without the parallelization pass — an ablation
    #: that demonstrates the real-time miss the pass exists to prevent.
    parallelize: bool = True
    #: Idle processing elements the mapper reserves as migration targets
    #: for fault recovery (see :mod:`repro.faults`).
    spare_processors: int = 0

    def __post_init__(self) -> None:
        # Types only; ranges are checked where they are used
        # (``analyze_resources``, the mapper).
        conform(self, error=TransformError, where="CompileOptions")


@dataclass(slots=True)
class CompiledApp:
    """A fully compiled application ready for simulation.

    Picklable by design — ``repro.explore`` ships compiled artifacts
    across :class:`~concurrent.futures.ProcessPoolExecutor` boundaries.
    The one constraint that imposes: procedural input patterns attached
    to :class:`~repro.kernels.ApplicationInput` must be module-level
    callables or callable-class instances, never closures or lambdas
    (see ``apps/bayer_app.py`` for the idiom).  The test suite pickles
    every benchmark's compiled form to keep this true.
    """

    source: ApplicationGraph
    graph: ApplicationGraph
    processor: ProcessorSpec
    options: CompileOptions
    dataflow: DataflowResult
    resources: ResourceAnalysis
    parallelization: ParallelizationReport
    mapping: Mapping
    inserted_alignment: list[str]
    inserted_buffers: list[str]

    @property
    def processor_count(self) -> int:
        return self.mapping.processor_count

    def kernel_count(self) -> int:
        return len(self.graph.kernels)

    def contract(self, output: str | None = None) -> dict[str, Any]:
        """The real-time contract at one application output, as the
        dataflow analysis derived it (Section III-A): ``output``,
        ``chunks_per_frame`` and ``rate_hz`` — the keyword arguments of
        :meth:`~repro.sim.SimulationResult.verdict`, so
        ``result.verdict(**compiled.contract())`` judges a run on the
        frame boundary and rate the graph actually produces.

        ``output`` may be omitted when the graph has exactly one
        :class:`~repro.kernels.ApplicationOutput`.
        """
        outputs = [k.name for k in self.graph.application_outputs()]
        if output is None:
            if len(outputs) != 1:
                raise AnalysisError(
                    f"{self.source.name!r} has {len(outputs)} application "
                    f"outputs {outputs}; contract() needs exactly one, or "
                    "the name of the one to measure"
                )
            output = outputs[0]
        elif output not in outputs:
            raise AnalysisError(
                f"{self.source.name!r} has no application output "
                f"{output!r}; candidates: {outputs}"
            )
        stream = self.dataflow.stream_into(output, "in")
        if stream.share != 1:
            # A split branch's chunks_per_frame is the ceiling over all
            # branches, not what this one sink receives each frame.
            raise AnalysisError(
                f"output {output!r} receives a {stream.share} share of its "
                f"stream; join the branches before measuring there "
                f"(outputs: {outputs})"
            )
        return {
            "output": output,
            "chunks_per_frame": stream.chunks_per_frame,
            "rate_hz": float(stream.rate_hz),
        }

    def describe(self) -> str:
        lines = [
            f"compiled {self.source.name!r}: {self.kernel_count()} kernels on "
            f"{self.processor_count} processors ({self.mapping.strategy})",
            f"  alignment kernels: {self.inserted_alignment or 'none'}",
            f"  buffers: {self.inserted_buffers or 'none'}",
        ]
        for name, degree in self.parallelization.degrees.items():
            if degree > 1:
                lines.append(f"  {name} parallelized x{degree}")
        return "\n".join(lines)


def compile_application(
    app: ApplicationGraph,
    processor: ProcessorSpec = DEFAULT_PROCESSOR,
    options: CompileOptions = CompileOptions(),
) -> CompiledApp:
    """Compile ``app`` for ``processor``; the input graph is left untouched."""
    work = app.copy(f"{app.name}(compiled)")
    validate_application(work)

    inserted_alignment = align_application(work, policy=options.alignment_policy)
    dataflow = analyze_dataflow(work)

    inserted_buffers = insert_buffers(work, dataflow)
    dataflow = analyze_dataflow(work)
    resources = analyze_resources(
        work, processor, dataflow, utilization_target=options.utilization_target
    )

    if options.parallelize:
        parallelization = parallelize_application(
            work,
            processor,
            dataflow=dataflow,
            resources=resources,
            utilization_target=options.utilization_target,
            fuse_pipelines=options.fuse_pipelines,
        )
    else:
        from .parallelize import ParallelizationReport

        parallelization = ParallelizationReport()
        parallelization.degrees = {
            name: 1 for name in work.topological_order()
        }

    dataflow = analyze_dataflow(work)
    validate_physical(work, dataflow)
    resources = analyze_resources(
        work, processor, dataflow, utilization_target=options.utilization_target
    )

    if options.mapping == "greedy":
        mapping = map_greedy(
            work, resources, spare_processors=options.spare_processors
        )
    else:
        mapping = map_one_to_one(
            work, spare_processors=options.spare_processors
        )

    return CompiledApp(
        source=app,
        graph=work,
        processor=processor,
        options=options,
        dataflow=dataflow,
        resources=resources,
        parallelization=parallelization,
        mapping=mapping,
        inserted_alignment=inserted_alignment,
        inserted_buffers=inserted_buffers,
    )
