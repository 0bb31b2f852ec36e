"""Quickstart: declare a real-time app, compile it, verify it in simulation.

A 32x24 video stream at 100 frames/s passes through a 3x3 Sobel edge
detector.  The compiler inserts the line buffer the windowed filter needs,
sizes parallelism for the declared input rate, and maps kernels to
processors; the timing-accurate simulator then checks the real-time
constraint actually holds.

Run:  python examples/quickstart.py
"""

import repro
from repro.kernels import SobelKernel


def main() -> None:
    # 1. Describe the application: an input with a hard real-time rate,
    #    one computation kernel, one output.
    app = repro.ApplicationGraph("edge_detect")
    app.add_input("Input", 32, 24, rate_hz=100.0)
    app.add_kernel(SobelKernel("Sobel"))
    app.add_output("Out")
    app.connect("Input", "out", "Sobel", "in")
    app.connect("Sobel", "out", "Out", "in")
    print(app.describe())

    # 2. Compile for a small embedded tile: 20 MHz, 512 words of memory.
    proc = repro.ProcessorSpec(clock_hz=20e6, memory_words=512)
    compiled = repro.compile_application(app, proc)
    print()
    print(compiled.describe())
    print()
    print(compiled.mapping.describe())

    # 3. Simulate with full timing and check the verdict.
    result = repro.simulate(compiled, repro.SimulationOptions(frames=4))
    verdict = result.verdict(**compiled.contract())
    print()
    print(verdict.describe())
    print(result.utilization.describe())

    assert verdict.meets, "quickstart should meet real-time"


if __name__ == "__main__":
    main()
