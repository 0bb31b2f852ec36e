"""FIG11 — automatic parallelization across input sizes and rates.

Figure 11 shows the example application compiled at four points:
Small/Slow, Big/Slow, Small/Fast, Big/Fast.  The paper's claims:

* growing the input *size* grows the required buffering, and buffers are
  automatically replicated (column split) to fit the fixed per-element
  memory;
* growing the input *rate* grows the required computation, and compute
  kernels are automatically replicated;
* all four configurations meet their real-time constraints in the
  timing-accurate simulator.

An ablation row compiles Small/Fast without the parallelization pass and
shows the real-time miss the pass exists to prevent.
"""

from conftest import compile_and_simulate

from repro.apps import build_image_pipeline
from repro.kernels import BufferKernel
from repro.machine import ProcessorSpec

PROC = ProcessorSpec(clock_hz=20e6, memory_words=256)

CONFIGS = {
    "Small/Slow": (24, 16, 100.0),
    "Big/Slow": (48, 32, 100.0),
    "Small/Fast": (24, 16, 1000.0),
    "Big/Fast": (48, 32, 400.0),
}


def compile_all():
    out = {}
    for label, (w, h, rate) in CONFIGS.items():
        compiled, result = compile_and_simulate(
            build_image_pipeline(w, h, rate), proc=PROC
        )
        verdict = result.verdict(**compiled.contract())
        buffers = sum(
            1 for k in compiled.graph.iter_kernels()
            if isinstance(k, BufferKernel)
        )
        compute = sum(
            1 for n in compiled.graph.kernels
            if n.startswith(("Conv5x5", "Median3x3", "Histogram"))
        )
        out[label] = (compiled, verdict, buffers, compute)
    return out


def test_fig11_scaling(benchmark):
    rows = benchmark.pedantic(compile_all, rounds=1, iterations=1)

    for label, (compiled, verdict, buffers, compute) in rows.items():
        assert verdict.meets, f"{label}: {verdict.describe()}"

    # Size growth replicates buffers (Small/Slow -> Big/Slow).
    assert rows["Big/Slow"][2] > rows["Small/Slow"][2]
    # Rate growth replicates computation (Small/Slow -> Small/Fast).
    assert rows["Small/Fast"][3] > rows["Small/Slow"][3]
    # Both grow together at Big/Fast.
    assert rows["Big/Fast"][2] > rows["Small/Slow"][2]
    assert rows["Big/Fast"][3] > rows["Small/Slow"][3]

    print()
    print("FIG11 reproduced (buffers / compute kernels / verdict):")
    for label, (compiled, verdict, buffers, compute) in rows.items():
        print(f"  {label:>10}: {buffers} buffers, {compute} compute kernels, "
              f"{compiled.processor_count} PEs -> "
              f"{'meets' if verdict.meets else 'MISSES'}")


def test_fig11_ablation_no_parallelization(benchmark):
    """Without the pass, Small/Fast cannot keep up."""
    def run():
        # 1:1 mapping isolates the ablation to the parallelize pass (the
        # greedy mapper would separately reject the unsplit buffer, which
        # no longer fits one element's memory).
        return compile_and_simulate(
            build_image_pipeline(24, 16, 1000.0), proc=PROC,
            parallelize=False, frames=5, mapping="1:1",
        )

    compiled, result = benchmark.pedantic(run, rounds=1, iterations=1)
    verdict = result.verdict(**compiled.contract())
    assert not verdict.meets
    assert verdict.worst_interval_s > 1.0 / 1000.0
    print()
    print(f"FIG11 ablation (no parallelization): {verdict.describe()}")
