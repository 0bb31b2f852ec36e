"""FIG9 — reuse-optimized input buffers (Figure 9; paper extension).

The paper describes — but does not evaluate — replicating a kernel's input
buffer so each parallel instance sees consecutive windows and exploits the
Figure 5 reuse.  This bench builds both structures:

* Figure 9(a): one buffer, round-robin windows to the instances (every
  window read in full — 25 elements);
* Figure 9(c): column-banded buffers with per-branch output buffers
  (only the fresh 5-element column read per window),

verifies functional identity, measures the read-time reduction, and
reports the minimum output buffering for continuous operation that
distinguishes 9(b) from 9(c).
"""

import numpy as np

from conftest import BENCH_PROC

from repro.graph import ApplicationGraph
from repro.kernels import ApplicationOutput, ConvolutionKernel
from repro.sim import SimulationOptions, Simulator, run_functional, simulate
from repro.transform import (
    CompileOptions,
    compile_application,
    insert_buffers,
    minimum_output_buffer_words,
    reuse_optimize_buffer,
)
from repro.transform.multiplex import map_one_to_one

FRAME = np.arange(24.0 * 16).reshape(16, 24)


def conv_app():
    app = ApplicationGraph("fig9")
    src = app.add_input("Input", 24, 16, 100.0)
    src._pattern = FRAME
    app.add_kernel(
        ConvolutionKernel("conv", 5, 5, with_coeff_input=False,
                          coeff=np.ones((5, 5)) / 25.0)
    )
    app.add_kernel(ApplicationOutput("Out", 1, 1))
    app.connect("Input", "out", "conv", "in")
    app.connect("conv", "out", "Out", "in")
    return app


def run_both():
    # Figure 9(a): the standard compile.
    baseline = compile_application(conv_app(), BENCH_PROC,
                                   CompileOptions(mapping="1:1"))
    base_res = simulate(baseline, SimulationOptions(frames=3))

    # Figure 9(c): reuse-optimized with output buffers.
    optimized = conv_app()
    insert_buffers(optimized)
    plan = reuse_optimize_buffer(optimized, "buf_conv.in", 2,
                                 with_output_buffers=True)
    opt_res = Simulator(optimized, map_one_to_one(optimized), BENCH_PROC,
                        SimulationOptions(frames=3)).run()
    func = run_functional(optimized, frames=1)
    return baseline, base_res, optimized, plan, opt_res, func


def test_fig09_reuse_optimized_buffers(benchmark):
    baseline, base_res, optimized, plan, opt_res, func = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    # Functional identity with the baseline pipeline.
    base_func = run_functional(baseline.graph, frames=1)
    np.testing.assert_allclose(
        func.output_frame("Out", 0, 20, 12),
        base_func.output_frame("Out", 0, 20, 12),
    )

    # The optimization's payoff: convolution read traffic drops ~5x
    # (5 fresh elements instead of 25 per window).
    base_read = sum(p.read_s for p in base_res.utilization.processors.values())
    opt_read = sum(p.read_s for p in opt_res.utilization.processors.values())
    assert opt_read < base_read / 2

    # Both meet real time; 9(b)'s hazard is quantified by the required
    # output buffering for continuous operation.
    # (The hand-optimized graph is the same application: same contract.)
    assert base_res.verdict(**baseline.contract()).meets
    assert opt_res.verdict(**baseline.contract()).meets
    need = minimum_output_buffer_words(plan.parts)
    assert all(n > 2 for n in need)  # one port double-buffer is NOT enough

    print()
    print("FIG9 reproduced:")
    print(f"  read seconds: baseline {base_read * 1e3:.3f} ms vs "
          f"reuse-optimized {opt_read * 1e3:.3f} ms "
          f"({base_read / opt_read:.1f}x less)")
    print(f"  branch bands: {[r for r, _ in plan.parts]}")
    print("  Figure 9(b) -> 9(c): per-branch output buffer words needed "
          f"for continuous operation: {need}")


FAST_RATE = 1280.0  # each conv instance ~70% utilized: no slack for stalls


def fast_conv_app():
    app = ApplicationGraph("fig9_fast")
    src = app.add_input("Input", 24, 16, FAST_RATE)
    src._pattern = FRAME
    app.add_kernel(
        ConvolutionKernel("conv", 5, 5, with_coeff_input=False,
                          coeff=np.ones((5, 5)) / 25.0)
    )
    app.add_kernel(ApplicationOutput("Out", 1, 1))
    app.connect("Input", "out", "conv", "in")
    app.connect("conv", "out", "Out", "in")
    return app


def run_dynamic():
    """Figures 9(b) vs 9(c) under bounded channels (backpressure)."""
    # 9(b): no output buffers — each instance may only run one iteration
    # ahead of the join (the implicit port double buffer, capacity 2).
    app_b = fast_conv_app()
    insert_buffers(app_b)
    plan_b = reuse_optimize_buffer(app_b, "buf_conv.in", 2,
                                   with_output_buffers=False)
    caps_b = {
        (inst, "out", plan_b.join, f"in_{i}"): 2
        for i, inst in enumerate(plan_b.consumer_instances)
    }
    res_b = Simulator(
        app_b, map_one_to_one(app_b), BENCH_PROC,
        SimulationOptions(frames=4, channel_capacity_overrides=caps_b),
    ).run()

    # 9(c): explicit output buffers whose storage extends the channel.
    app_c = fast_conv_app()
    insert_buffers(app_c)
    plan_c = reuse_optimize_buffer(app_c, "buf_conv.in", 2,
                                   with_output_buffers=True)
    need = minimum_output_buffer_words(plan_c.parts)
    caps_c = {}
    for i, (inst, ob) in enumerate(
        zip(plan_c.consumer_instances, plan_c.output_buffers)
    ):
        caps_c[(inst, "out", ob, "in")] = 2
        caps_c[(ob, "out", plan_c.join, f"in_{i}")] = need[i] + 2
    res_c = Simulator(
        app_c, map_one_to_one(app_c), BENCH_PROC,
        SimulationOptions(frames=4, channel_capacity_overrides=caps_c),
    ).run()
    return res_b, res_c, need


def test_fig09b_insufficient_output_buffering_stalls(benchmark):
    """Figure 9(b)'s caveat, demonstrated dynamically: without sufficient
    output buffering the parallelized kernels cannot run continuously and
    the application misses its real-time requirement."""
    res_b, res_c, need = benchmark.pedantic(run_dynamic, rounds=1,
                                            iterations=1)
    # Both graphs are hand-transformed fast_conv_app()s; the compiler
    # derives the contract they are held to.
    contract = compile_application(fast_conv_app(), BENCH_PROC).contract()
    v_b = res_b.verdict(**contract)
    v_c = res_c.verdict(**contract)
    assert not v_b.meets, "9(b) should stall against the counted join"
    assert v_c.meets, "9(c)'s output buffers should restore real time"

    print()
    print("FIG9(b)/(c) dynamic (bounded channels):")
    print(f"  9(b) no output buffers : {v_b.describe()}")
    print(f"  9(c) buffers of {need} words: {v_c.describe()}")
