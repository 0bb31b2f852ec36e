"""Writing your own kernel: methods, private state, and control tokens.

Implements a per-frame running-maximum kernel in the Figure 7 style: one
method counts data, a second fires on the end-of-frame token to flush the
result, and a custom ``ResetPeak`` control token (with a declared maximum
rate, so the compiler can budget its handler) clears the state mid-stream.

Run:  python examples/custom_kernel.py
"""

import numpy as np

import repro
from repro.graph import Kernel, MethodCost
from repro.tokens import EndOfFrame, custom_token

#: A custom control token: at most twice per frame, so the compiler can
#: account for the cycles its handler consumes (Section II-C).
ResetPeak = custom_token("ResetPeak", max_per_frame=2)


class PeakDetector(Kernel):
    """Tracks the maximum element per frame; emits it at end-of-frame."""

    def configure(self) -> None:
        self.add_input("in", 1, 1, 1, 1)
        self.add_output("peak", 1, 1)
        self.add_method("observe", inputs=["in"], cost=MethodCost(cycles=6))
        self.add_method(
            "flush",
            on_token=("in", EndOfFrame),
            outputs=["peak"],
            cost=MethodCost(cycles=8),
            forward_token=True,
        )
        self.add_method(
            "reset", on_token=("in", ResetPeak), cost=MethodCost(cycles=4)
        )
        self._peak = float("-inf")

    def observe(self) -> None:
        value = float(self.read_input("in")[0, 0])
        if value > self._peak:
            self._peak = value

    def flush(self) -> None:
        self.write_output("peak", np.array([[self._peak]]))
        self._peak = float("-inf")

    def reset(self) -> None:
        self._peak = float("-inf")

    def reset_state(self) -> None:  # pragma: no cover - clarity alias
        self.reset()


def main() -> None:
    frame = np.arange(30.0).reshape(5, 6)

    app = repro.ApplicationGraph("peak_demo")
    src = app.add_input("Input", 6, 5, rate_hz=50.0)
    src._pattern = lambda f: frame + 100.0 * f
    app.add_kernel(PeakDetector("Peak"))
    app.add_output("Out")
    app.connect("Input", "out", "Peak", "in")
    app.connect("Peak", "peak", "Out", "in")

    compiled = repro.compile_application(app)
    result = repro.run_functional(compiled.graph, frames=3)
    peaks = [float(c[0, 0]) for c in result.output("Out")]
    print("per-frame peaks:", peaks)
    assert peaks == [29.0, 129.0, 229.0]

    # The same app under full timing.
    timed = repro.simulate(compiled, repro.SimulationOptions(frames=3))
    verdict = timed.verdict(**compiled.contract())
    print(verdict.describe())
    assert verdict.meets


if __name__ == "__main__":
    main()
