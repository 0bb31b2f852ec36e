"""EXT-DYN — variable work and runtime budget exceptions (Section VII).

The paper's future work, implemented: a block-match kernel whose cost
varies with the data declares a static bound; the simulator charges the
actual cost and records a runtime exception whenever a firing exceeds the
bound.  The bench shows the whole story:

* smooth input: every search terminates early, no exceptions, real time
  met with margin;
* busy input under a correctly sized bound: costlier but still bounded,
  no exceptions, real time met (the bound is what the compiler planned
  parallelism with);
* busy input under an undersized bound: exceptions fire and the
  throughput verdict shows the plan was wrong.
"""

import numpy as np

from repro.graph import ApplicationGraph
from repro.kernels import ApplicationOutput, BlockMatchKernel
from repro.machine import ProcessorSpec
from repro.sim import SimulationOptions, simulate
from repro.transform import compile_application

PROC = ProcessorSpec(clock_hz=20e6, memory_words=512)
RATE = 200.0
W, H = 16, 12


def build(kernel, frame):
    app = ApplicationGraph("motion")
    src = app.add_input("Input", W, H, RATE)
    src._pattern = frame
    app.add_kernel(kernel)
    app.add_kernel(ApplicationOutput("Out", 1, 1))
    app.connect("Input", "out", kernel.name, "in")
    app.connect(kernel.name, "out", "Out", "in")
    return app


def run():
    smooth = np.ones((H, W))
    busy = np.random.default_rng(5).uniform(0, 255, (H, W))
    rows = {}
    cases = {
        "smooth/full bound": (smooth, None),
        "busy/full bound": (busy, None),
        "busy/undersized bound": (busy, 1),
    }
    for label, (frame, bound) in cases.items():
        kernel = BlockMatchKernel("bm", 5, 5, threshold=4.0,
                                  bound_candidates=bound)
        compiled = compile_application(build(kernel, frame), PROC)
        res = simulate(compiled, SimulationOptions(frames=3))
        verdict = res.verdict(**compiled.contract())
        rows[label] = (res, verdict)
    return rows


def test_ext_dynamic_work(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    assert not rows["smooth/full bound"][0].budget_overruns
    assert rows["smooth/full bound"][1].meets
    assert not rows["busy/full bound"][0].budget_overruns
    assert rows["busy/full bound"][1].meets
    assert rows["busy/undersized bound"][0].budget_overruns

    # Data dependence is real: busy frames cost more than smooth ones.
    smooth_busy_s = rows["smooth/full bound"][0].utilization.total_busy_s
    busy_busy_s = rows["busy/full bound"][0].utilization.total_busy_s
    assert busy_busy_s > smooth_busy_s

    print()
    print("EXT-DYN reproduced (Section VII variable-work extension):")
    for label, (res, verdict) in rows.items():
        n = len(res.budget_overruns)
        worst = max((o.factor for o in res.budget_overruns), default=1.0)
        print(f"  {label:>22}: {n:4d} runtime exceptions "
              f"(worst {worst:.1f}x bound), "
              f"{'meets' if verdict.meets else 'MISSES'} real time, "
              f"busy {res.utilization.total_busy_s * 1e3:.2f} ms")
