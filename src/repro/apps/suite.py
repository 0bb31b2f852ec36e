"""The Figure 13 benchmark suite.

The paper's eleven configurations over five applications, plus one
size-range extra:

* ``1`` / ``1F`` — Bayer demosaicing at baseline and faster input rates;
* ``2`` / ``2F`` — image histogram at baseline and faster input rates;
* ``3``        — parallel buffer test;
* ``4``        — multiple convolutions test;
* ``SS SF BS BF`` — the image processing example (Figure 11) with
  small/big input size and slow/fast input rates;
* ``5``        — the application of Figure 1(b) at its baseline rate;
* ``FB``       — a 16-way filter bank supplying the ">50 kernels" end of
  the paper's program-size range (not a named paper benchmark).

Rates are calibrated for the default benchmark processor (a small
embedded tile) so the suite spans lightly-loaded pipelines full of
low-utilization structural kernels — the regime where greedy multiplexing
pays (Section V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..graph.app import ApplicationGraph
from ..machine.processor import ProcessorSpec
from .bayer_app import build_bayer_app
from .buffer_test import build_buffer_test_app
from .filter_bank import build_filter_bank_app
from .histogram_app import build_histogram_app
from .image_pipeline import build_image_pipeline
from .multi_conv import build_multi_conv_app

__all__ = ["Benchmark", "BENCHMARK_PROCESSOR", "benchmark_suite", "benchmark"]


#: The per-element target the Figure 13 reproduction runs on: a modest
#: embedded tile where the example apps need single-digit parallelism.
BENCHMARK_PROCESSOR = ProcessorSpec(
    clock_hz=20e6,
    memory_words=512,
    read_cycles_per_element=1.0,
    write_cycles_per_element=1.0,
)


@dataclass(frozen=True, slots=True)
class Benchmark:
    """One Figure 13 column: a fixed-size, fixed-rate application.

    What a run is judged against (output, chunks per frame, frame rate)
    is not declared here; :meth:`repro.transform.CompiledApp.contract`
    reads it off the compiled graph.
    """

    key: str
    title: str
    build: Callable[[], ApplicationGraph]
    #: Frames to simulate (enough for a steady-state tail).
    frames: int = 4

    def application(self) -> ApplicationGraph:
        return self.build()


def _fig11_pipeline(width: int, height: int, rate: float, tag: str) -> Benchmark:
    return Benchmark(
        key=tag,
        title=f"image pipeline {width}x{height}@{rate:g}Hz",
        build=lambda: build_image_pipeline(width, height, rate),
    )


def benchmark_suite() -> list[Benchmark]:
    """The Figure 13 benchmarks in the paper's order, plus ``FB``."""
    return [
        Benchmark(
            key="1",
            title="Bayer demosaic (baseline)",
            build=lambda: build_bayer_app(32, 16, 200.0),
        ),
        Benchmark(
            key="1F",
            title="Bayer demosaic (fast)",
            build=lambda: build_bayer_app(32, 16, 1200.0),
        ),
        Benchmark(
            key="2",
            title="image histogram (baseline)",
            build=lambda: build_histogram_app(32, 24, 200.0),
        ),
        Benchmark(
            key="2F",
            title="image histogram (fast)",
            build=lambda: build_histogram_app(32, 24, 800.0),
        ),
        Benchmark(
            key="3",
            title="parallel buffer test",
            build=lambda: build_buffer_test_app(96, 24, 50.0),
        ),
        Benchmark(
            key="4",
            title="multiple convolutions test",
            build=lambda: build_multi_conv_app(32, 20, 100.0),
        ),
        _fig11_pipeline(24, 16, 100.0, "SS"),
        _fig11_pipeline(24, 16, 1000.0, "SF"),
        _fig11_pipeline(48, 32, 100.0, "BS"),
        _fig11_pipeline(48, 32, 400.0, "BF"),
        _fig11_pipeline(24, 16, 400.0, "5"),
        Benchmark(
            key="FB",
            title="16-way filter bank (>50 compiled kernels)",
            build=lambda: build_filter_bank_app(24, 16, 100.0, branches=16),
        ),
    ]


def benchmark(key: str) -> Benchmark:
    """Look up one benchmark by its Figure 13 key."""
    for bench in benchmark_suite():
        if bench.key == key:
            return bench
    raise KeyError(f"no benchmark {key!r} in the Figure 13 suite")
