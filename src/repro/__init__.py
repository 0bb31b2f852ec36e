"""Block-parallel programming for real-time embedded applications.

A from-scratch reproduction of Black-Schaffer & Dally, ICPP 2010: a
stream-programming language with 2-D windowed data parameterization,
control tokens, and explicit throughput constraints; a compiler that
automatically buffers, aligns, parallelizes, and maps applications onto a
many-core processor model; and a timing-accurate functional simulator that
verifies the real-time constraints are met.

Quick start::

    import repro

    app = repro.ApplicationGraph("edge_detect")
    app.add_input("Input", 32, 24, 100.0)         # 32x24 frames at 100 Hz
    app.add_kernel(repro.kernels.SobelKernel("Sobel"))
    app.add_output("Out")
    app.connect("Input", "out", "Sobel", "in")
    app.connect("Sobel", "out", "Out", "in")

    compiled = repro.compile_application(app)      # buffer + parallelize + map
    result = repro.simulate(compiled)              # timing-accurate simulation
    verdict = result.verdict(**compiled.contract())  # the derived rate
    assert verdict.meets                             # and frame boundary

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the paper-figure reproductions.
"""

from . import (
    analysis,
    apps,
    explore,
    faults,
    kernels,
    machine,
    obs,
    sim,
    transform,
)
from .errors import (
    AlignmentError,
    AnalysisError,
    BlockParallelError,
    GraphError,
    ParallelizationError,
    RealTimeViolation,
    SimulationError,
    TransformError,
)
from .geometry import Inset, Offset2D, Region, Size2D, Step2D
from .graph import ApplicationGraph, Kernel, MethodCost
from .machine import DEFAULT_PROCESSOR, ManyCoreChip, ProcessorSpec
from .sim import (
    SimulationOptions,
    SimulationResult,
    run_functional,
    simulate,
)
from .streams import StreamInfo
from .tokens import ControlToken, EndOfFrame, EndOfLine, custom_token
from .transform import (
    CompiledApp,
    CompileOptions,
    compile_application,
)

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "apps",
    "explore",
    "faults",
    "kernels",
    "machine",
    "obs",
    "sim",
    "transform",
    "AlignmentError",
    "AnalysisError",
    "BlockParallelError",
    "GraphError",
    "ParallelizationError",
    "RealTimeViolation",
    "SimulationError",
    "TransformError",
    "Inset",
    "Offset2D",
    "Region",
    "Size2D",
    "Step2D",
    "ApplicationGraph",
    "Kernel",
    "MethodCost",
    "DEFAULT_PROCESSOR",
    "ManyCoreChip",
    "ProcessorSpec",
    "SimulationOptions",
    "SimulationResult",
    "run_functional",
    "simulate",
    "StreamInfo",
    "ControlToken",
    "EndOfFrame",
    "EndOfLine",
    "custom_token",
    "CompiledApp",
    "CompileOptions",
    "compile_application",
    "__version__",
]
