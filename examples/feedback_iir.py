"""Feedback loops (Section III-D): a first-order IIR temporal smoother.

The paper sketches feedback support via special loop-breaking kernels plus
programmer-supplied initial values; this example uses that machinery:
``y[n] = x[n] + alpha * y[n-1]`` with ``y[-1] = 0``, running continuously
across frames.  The feedback input of the combining kernel is marked
*token transparent* — the loop stream lags by one iteration (the classic
SDF delay), so the forward path alone carries the frame structure.

Run:  python examples/feedback_iir.py
"""

import numpy as np

import repro
from repro.kernels import AddKernel, InitialValueKernel, ScaleKernel


def build_smoother(alpha: float, width: int, height: int,
                   rate_hz: float) -> repro.ApplicationGraph:
    app = repro.ApplicationGraph("iir_smoother")
    src = app.add_input("Input", width, height, rate_hz)
    src._pattern = np.ones((height, width))

    acc = app.add_kernel(AddKernel("acc"))
    acc.mark_token_transparent("in1")  # the feedback input
    app.add_kernel(ScaleKernel("decay", gain=alpha))
    app.add_kernel(
        InitialValueKernel(
            "loop", np.zeros((1, 1)),
            region_w=width, region_h=height, rate_hz=rate_hz,
        )
    )
    app.add_output("Out")

    app.connect("Input", "out", "acc", "in0")
    app.connect("acc", "out", "loop", "in")       # forward into the loop
    app.connect("loop", "out", "decay", "in")     # loop body
    app.connect("decay", "out", "acc", "in1")     # back edge
    app.connect("acc", "out", "Out", "in")
    return app


def main() -> None:
    alpha = 0.5
    app = build_smoother(alpha, width=6, height=1, rate_hz=100.0)
    compiled = repro.compile_application(app)
    result = repro.run_functional(compiled.graph, frames=2)
    ys = [float(c[0, 0]) for c in result.output("Out")]
    print("smoothed:", [round(y, 4) for y in ys])

    # Check against the closed-form recurrence.
    expected = []
    y = 0.0
    for _ in ys:
        y = 1.0 + alpha * y
        expected.append(y)
    assert np.allclose(ys, expected), (ys, expected)
    print("matches the y[n] = x[n] + %.2f*y[n-1] recurrence" % alpha)

    timed = repro.simulate(compiled, repro.SimulationOptions(frames=2))
    verdict = timed.verdict(**compiled.contract())
    print(verdict.describe())
    assert verdict.meets


if __name__ == "__main__":
    main()
