"""Multi-rate processing: a two-level image pyramid with fractional offsets.

A video stream is smoothed, 2:1 box-downsampled (the fractional-offset
case of the paper's footnote 2 — each downsampled pixel sits at offset
(0.5, 0.5) inside its source quad), opened morphologically at the coarse
scale, and emitted.  Every stage needs different buffering, all inserted
automatically; the coarse stages run at a quarter of the pixel rate, which
the dataflow analysis tracks exactly.

Run:  python examples/multirate_pyramid.py
"""

import numpy as np

import repro
from repro.kernels import DownsampleKernel, GaussianKernel, add_opening


def main() -> None:
    width, height, rate = 32, 24, 100.0
    app = repro.ApplicationGraph("pyramid")
    src = app.add_input("Input", width, height, rate)
    rng = np.random.default_rng(7)
    noisy = rng.uniform(0, 255, (height, width))
    src._pattern = noisy

    app.add_kernel(GaussianKernel("Smooth", 3, 3, sigma=1.0))
    app.add_kernel(DownsampleKernel("Down2", factor=2))
    first, last = add_opening(app, "Open", 3, 3)
    app.add_output("Coarse")

    app.connect("Input", "out", "Smooth", "in")
    app.connect("Smooth", "out", "Down2", "in")
    app.connect("Down2", "out", first.name, "in")
    app.connect(last.name, "out", "Coarse", "in")

    proc = repro.ProcessorSpec(clock_hz=20e6, memory_words=512)
    compiled = repro.compile_application(app, proc)
    print(compiled.describe())

    # The analysis knows the rate drop: the smoother iterates 30x22 times
    # per frame, the downsampler 15x11, the opening stages fewer still.
    df = compiled.dataflow
    for name, flow in df.flows.items():
        if name.startswith("Smooth") or name.startswith("Down2"):
            print(f"  {name}: {flow.total_firings_per_second:,.0f} firings/s")

    # Verify in timed simulation, against the frame the analysis
    # derived for the coarse output: smoothing keeps 30x22, downsampling
    # halves to 15x11, each 3x3 opening stage trims its halo: 13x9 then
    # 11x7.
    contract = compiled.contract()
    assert contract["chunks_per_frame"] == 11 * 7
    result = repro.simulate(compiled, repro.SimulationOptions(frames=3))
    verdict = result.verdict(**contract)
    print(verdict.describe())
    assert verdict.meets

    # Functional sanity: opening output is bounded by the smoothed range.
    func = repro.run_functional(compiled.graph, frames=1)
    coarse = func.output_frame("Coarse", 0, 11, 7)
    assert coarse.min() >= 0.0 and coarse.max() <= 255.0
    print(f"coarse frame range: [{coarse.min():.1f}, {coarse.max():.1f}]")


if __name__ == "__main__":
    main()
