"""FIG4 — the automatically parallelized application (Figure 4).

Compiles the Figure 1(b) application at a rate/memory point that forces
the figure's structure: replicated convolution and median kernels behind
round-robin split/join pairs, a Replicate kernel on the coefficient path,
column-split buffers re-interleaved by a counted join, and a single serial
merge fed once per frame.
"""

from conftest import compile_and_simulate

from repro.apps import build_image_pipeline
from repro.kernels import (
    ColumnSplit,
    CountedJoin,
    ReplicateKernel,
    RoundRobinJoin,
    RoundRobinSplit,
)
from repro.machine import ProcessorSpec


def test_fig04_structure(benchmark):
    proc = ProcessorSpec(clock_hz=20e6, memory_words=256)
    compiled, result = benchmark.pedantic(
        lambda: compile_and_simulate(
            build_image_pipeline(24, 16, 1000.0), proc=proc
        ),
        rounds=1, iterations=1,
    )
    g = compiled.graph
    degrees = compiled.parallelization.degrees

    # Compute kernels replicate for rate; buffers split for memory.
    assert degrees["Conv5x5"] >= 2
    assert degrees["Median3x3"] >= 2
    assert degrees["buf_Conv5x5.in"] >= 2
    assert degrees["Merge"] == 1  # the data-dependency edge held

    counts = {}
    for k in g.iter_kernels():
        counts[type(k).__name__] = counts.get(type(k).__name__, 0) + 1
    assert counts.get("RoundRobinSplit", 0) >= 2
    assert counts.get("RoundRobinJoin", 0) >= 2
    assert counts.get("ReplicateKernel", 0) == 1  # the coeff path
    assert counts.get("ColumnSplit", 0) >= 1
    assert counts.get("CountedJoin", 0) >= 1

    verdict = result.verdict(**compiled.contract())
    assert verdict.meets

    print()
    print("FIG4 parallelization:")
    for name, degree in degrees.items():
        if degree > 1:
            print(f"  {name} x{degree} -> {compiled.parallelization.groups[name]}")
    print(f"  kernel census: {counts}")
    print(f"  {verdict.describe()}")
