"""Bayer camera pipeline: demosaic a sensor stream in real time.

The Figure 13 benchmark-1 application: an RGGB mosaic sensor feeds a quad
demosaic kernel (one multi-output kernel producing R, G, and B planes)
whose planes fold to luminance.  At the fast sensor rate the compiler must
replicate the demosaic kernel to keep up — run the example to watch the
degree change.

Run:  python examples/bayer_camera.py
"""

import repro
from repro.apps import build_bayer_app


def main() -> None:
    proc = repro.ProcessorSpec(clock_hz=20e6, memory_words=512)
    for label, rate in (("baseline", 200.0), ("fast", 5000.0)):
        app = build_bayer_app(32, 16, rate)
        compiled = repro.compile_application(app, proc)
        result = repro.simulate(compiled, repro.SimulationOptions(frames=4))
        verdict = result.verdict(**compiled.contract())
        degree = compiled.parallelization.degrees.get("Demosaic", 1)
        print(
            f"{label:>8} ({rate:g} fps): demosaic x{degree}, "
            f"{compiled.processor_count} PEs, "
            f"utilization {result.utilization.average_utilization:.1%}"
        )
        print(f"          {verdict.describe()}")
        assert verdict.meets

    # Peek at the first demosaiced luma values.
    app = build_bayer_app(32, 16, 200.0)
    compiled = repro.compile_application(app, proc)
    func = repro.run_functional(compiled.graph, frames=1)
    lumas = [float(c[0, 0]) for c in func.output("Video")[:8]]
    print("first luma samples:", [round(v, 2) for v in lumas])


if __name__ == "__main__":
    main()
