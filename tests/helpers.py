"""Shared test utilities: small app builders and golden references."""

from __future__ import annotations

import numpy as np

from repro.graph import ApplicationGraph, Kernel
from repro.kernels import ApplicationOutput
from repro.machine import ProcessorSpec
from repro.sim import run_functional
from repro.transform import CompileOptions, compile_application

#: A roomy processor: compiles rarely parallelize, keeping graphs small.
BIG_PROC = ProcessorSpec(clock_hz=1e9, memory_words=1 << 20)

#: A small embedded tile that forces parallelization at modest rates.
SMALL_PROC = ProcessorSpec(clock_hz=20e6, memory_words=512)


def single_kernel_app(
    kernel: Kernel,
    width: int,
    height: int,
    rate_hz: float = 100.0,
    *,
    pattern: np.ndarray | None = None,
    in_port: str = "in",
    out_port: str = "out",
    out_w: int = 1,
    out_h: int = 1,
) -> ApplicationGraph:
    """Input -> kernel -> Out, for exercising one kernel's semantics."""
    app = ApplicationGraph(f"single_{kernel.name}")
    src = app.add_input("Input", width, height, rate_hz)
    if pattern is not None:
        src._pattern = pattern
    app.add_kernel(kernel)
    app.add_kernel(ApplicationOutput("Out", out_w, out_h))
    app.connect("Input", "out", kernel.name, in_port)
    app.connect(kernel.name, out_port, "Out", "in")
    return app


def run_compiled(
    app: ApplicationGraph,
    frames: int = 1,
    proc: ProcessorSpec = BIG_PROC,
    **opts,
):
    """Compile on a roomy processor and run functionally."""
    compiled = compile_application(app, proc, CompileOptions(**opts))
    return compiled, run_functional(compiled.graph, frames=frames)


def frame_of(result, name: str, frame: int, width: int, height: int) -> np.ndarray:
    return result.output_frame(name, frame, width, height)


def stored_records(storage, handle) -> dict[int, dict]:
    """A served run's terminal records by job index, read back from the
    service's ``results.jsonl`` — a terminal run's handle keeps none.

    Each record comes back as the scheduler built it (the store's
    ``schema`` key dropped); records are matched to jobs by label and
    fingerprint.
    """
    mine = {(r["label"], r["fingerprint"]): r for r in storage.store
            if r.get("run") == handle.plan.run_id}
    return {
        index: {k: v for k, v in mine[job.label, job.fingerprint].items()
                if k != "schema"}
        for index, job in enumerate(handle.plan.jobs)
        if (job.label, job.fingerprint) in mine
    }
