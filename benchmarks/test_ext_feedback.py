"""EXT-FB — feedback loops (Section III-D; paper extension).

The paper sketches feedback support: break loops with special kernels and
supply initial values via an initialization kernel.  This bench runs a
first-order IIR temporal smoother through the full compile-and-simulate
flow, checks the recurrence against its closed form, and confirms the
loop meets real time.
"""

import numpy as np

from conftest import compile_and_simulate

from repro.graph import ApplicationGraph
from repro.kernels import AddKernel, InitialValueKernel, ScaleKernel
from repro.machine import ProcessorSpec
from repro.sim import run_functional

PROC = ProcessorSpec(clock_hz=20e6, memory_words=512)
ALPHA = 0.5
WIDTH, HEIGHT, RATE = 8, 1, 100.0


def build():
    app = ApplicationGraph("iir")
    src = app.add_input("Input", WIDTH, HEIGHT, RATE)
    src._pattern = np.ones((HEIGHT, WIDTH))
    acc = app.add_kernel(AddKernel("acc"))
    acc.mark_token_transparent("in1")
    app.add_kernel(ScaleKernel("decay", gain=ALPHA))
    app.add_kernel(
        InitialValueKernel("loop", np.zeros((1, 1)), region_w=WIDTH,
                           region_h=HEIGHT, rate_hz=RATE)
    )
    app.add_output("Out")
    app.connect("Input", "out", "acc", "in0")
    app.connect("acc", "out", "loop", "in")
    app.connect("loop", "out", "decay", "in")
    app.connect("decay", "out", "acc", "in1")
    app.connect("acc", "out", "Out", "in")
    return app


def run():
    compiled, result = compile_and_simulate(build(), proc=PROC, frames=3)
    func = run_functional(compiled.graph, frames=3)
    return compiled, result, func


def test_ext_feedback_loop(benchmark):
    compiled, result, func = benchmark.pedantic(run, rounds=1, iterations=1)

    ys = [float(c[0, 0]) for c in func.output("Out")]
    expected, y = [], 0.0
    for _ in ys:
        y = 1.0 + ALPHA * y
        expected.append(y)
    np.testing.assert_allclose(ys, expected)
    # The recurrence converges to 1 / (1 - alpha).
    assert abs(ys[-1] - 1.0 / (1.0 - ALPHA)) < 1e-3

    verdict = result.verdict(**compiled.contract())
    assert verdict.meets

    print()
    print("EXT-FB reproduced:")
    print(f"  y[n] = x[n] + {ALPHA}*y[n-1] over {len(ys)} samples; "
          f"final {ys[-1]:.4f} -> fixpoint {1/(1-ALPHA):.1f}")
    print(f"  {verdict.describe()}")
