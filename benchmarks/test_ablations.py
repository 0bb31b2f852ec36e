"""Ablation benches for the compiler's design choices.

Three knobs the design commits to, each ablated on the running example:

* **Utilization target** — the planner sizes parallelism to a fraction of
  each element's capacity; planning to 100% leaves no slack for the
  scheduling quantization the simulator models.
* **Pipeline fusion** — equal-width join/split pairs are fused into
  direct instance-to-instance wiring (Section IV-B's parallel pipelines);
  disabling it keeps the redundant routers.
* **Pad vs trim** — the Section III-C alignment policy is semantic
  (it changes the histogram): both must compile, run, and differ exactly
  at the border.
"""

import numpy as np

from conftest import compile_and_simulate

from repro.apps import build_image_pipeline
from repro.machine import ProcessorSpec
from repro.sim import run_functional
from repro.transform import CompileOptions, compile_application

PROC = ProcessorSpec(clock_hz=20e6, memory_words=256)
RATE = 1000.0


def sweep_targets():
    rows = {}
    for target in (0.5, 0.7, 0.9):
        compiled, result = compile_and_simulate(
            build_image_pipeline(24, 16, RATE), proc=PROC,
            utilization_target=target,
        )
        verdict = result.verdict(**compiled.contract())
        rows[target] = (compiled, verdict)
    return rows


def test_ablation_utilization_target(benchmark):
    rows = benchmark.pedantic(sweep_targets, rounds=1, iterations=1)

    for target, (compiled, verdict) in rows.items():
        assert verdict.meets, f"target {target}: {verdict.describe()}"
    # Lower targets buy headroom with more hardware.
    pes = {t: c.processor_count for t, (c, _) in rows.items()}
    assert pes[0.5] >= pes[0.9]
    degrees = {
        t: sum(d for d in c.parallelization.degrees.values())
        for t, (c, _) in rows.items()
    }
    assert degrees[0.5] >= degrees[0.9]

    print()
    print("ABLATION utilization target (planned headroom vs hardware):")
    for target, (compiled, verdict) in rows.items():
        print(f"  target {target:.0%}: {compiled.processor_count} PEs, "
              f"{compiled.kernel_count()} kernels -> "
              f"{'meets' if verdict.meets else 'MISSES'}")


PIPE_RATE = 500.0
PIPE_PROC = ProcessorSpec(clock_hz=1e6, memory_words=512)


def pipeline_app():
    """Two dependency-tied stages: the Section IV-B parallel-pipeline case.

    Stage work is deliberately heavy relative to routing (12 cycles per
    element vs the split's 3) so the stages need degree 2 while the
    serial split keeps up — the regime where parallel pipelines exist.
    """
    from repro.graph import ApplicationGraph
    from repro.kernels import ApplicationOutput, ScaleKernel, ThresholdKernel

    class HeavyScale(ScaleKernel):
        cycles = 12

    class HeavyThreshold(ThresholdKernel):
        cycles = 12

    app = ApplicationGraph("dep_pipeline")
    app.add_input("Input", 16, 12, PIPE_RATE)
    app.add_kernel(HeavyScale("stage1", gain=2.0))
    app.add_kernel(HeavyThreshold("stage2", level=100.0))
    app.add_kernel(ApplicationOutput("Out", 1, 1))
    app.connect("Input", "out", "stage1", "in")
    app.connect("stage1", "out", "stage2", "in")
    app.connect("stage2", "out", "Out", "in")
    app.add_dependency("stage1", "stage2")
    return app


def run_fusion_pair():
    on_c, on_r = compile_and_simulate(
        pipeline_app(), proc=PIPE_PROC, fuse_pipelines=True, frames=3
    )
    off_c, off_r = compile_and_simulate(
        pipeline_app(), proc=PIPE_PROC, fuse_pipelines=False, frames=3
    )
    return on_c, on_r, off_c, off_r


def test_ablation_pipeline_fusion(benchmark):
    on_c, on_r, off_c, off_r = benchmark.pedantic(run_fusion_pair, rounds=1,
                                                  iterations=1)
    for label, compiled, res in (("fused", on_c, on_r),
                                 ("unfused", off_c, off_r)):
        v = res.verdict(**compiled.contract())
        assert v.meets, f"{label}: {v.describe()}"
    # Both stages replicated to the same (dependency-tied) degree; fusion
    # removed the join/split pair between them.
    assert on_c.parallelization.degrees["stage1"] > 1
    assert (on_c.parallelization.degrees["stage2"]
            == on_c.parallelization.degrees["stage1"])
    assert on_c.parallelization.fused_pairs
    assert not off_c.parallelization.fused_pairs
    assert on_c.kernel_count() == off_c.kernel_count() - 2
    # Identical results either way.
    np.testing.assert_array_equal(
        np.array(on_r.outputs["Out"]), np.array(off_r.outputs["Out"])
    )

    print()
    print("ABLATION pipeline fusion (dependency-tied two-stage pipeline):")
    print(f"  fused:   {on_c.kernel_count()} kernels on "
          f"{on_c.processor_count} PEs "
          f"({len(on_c.parallelization.fused_pairs)} pairs removed)")
    print(f"  unfused: {off_c.kernel_count()} kernels on "
          f"{off_c.processor_count} PEs")


def run_policies():
    trim = compile_application(
        build_image_pipeline(16, 12, 100.0, hist_lo=-512, hist_hi=512),
        PROC, CompileOptions(alignment_policy="trim"),
    )
    pad = compile_application(
        build_image_pipeline(16, 12, 100.0, hist_lo=-512, hist_hi=512),
        PROC, CompileOptions(alignment_policy="pad"),
    )
    return (trim, run_functional(trim.graph, frames=1),
            pad, run_functional(pad.graph, frames=1))


def test_ablation_pad_vs_trim(benchmark):
    trim_c, trim_r, pad_c, pad_r = benchmark.pedantic(run_policies, rounds=1,
                                                      iterations=1)
    t_hist = trim_r.output("result")[0]
    p_hist = pad_r.output("result")[0]
    # Trim processes the 12x8 intersection; pad the 14x10 union.
    assert t_hist.sum() == 12 * 8
    assert p_hist.sum() == 14 * 10
    # The results genuinely differ — the paper leaves this choice to the
    # programmer precisely because it is not semantics-preserving.
    assert not np.array_equal(t_hist, p_hist)

    print()
    print("ABLATION pad vs trim (16x12 input):")
    print(f"  trim: histogram over {int(t_hist.sum())} pixels "
          f"({trim_c.kernel_count()} kernels)")
    print(f"  pad:  histogram over {int(p_hist.sum())} pixels "
          f"({pad_c.kernel_count()} kernels)")
