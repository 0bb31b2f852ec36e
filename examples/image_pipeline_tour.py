"""A tour of the compiler on the paper's running example (Figures 1-4, 11).

Builds the Figure 1(b) image-processing application — median + convolution
filters, per-pixel difference, data-parallel histogram with a serial merge
— then walks each compiler stage:

1. the misalignment between the 3x3 and 5x5 outputs (Figure 8);
2. automatic inset insertion and buffering (Figure 3);
3. automatic parallelization at four input size/rate points (Figure 11);
4. timing-accurate simulation verifying each configuration's real-time
   constraint.

Run:  python examples/image_pipeline_tour.py
"""

import repro
from repro.analysis import find_misalignments
from repro.apps import build_image_pipeline


def main() -> None:
    proc = repro.ProcessorSpec(clock_hz=20e6, memory_words=512)

    print("=== The misalignment the compiler must repair (Figure 8) ===")
    app = build_image_pipeline(24, 16, 100.0)
    for problem in find_misalignments(app):
        print(problem.describe())

    print()
    print("=== Small/Slow through Big/Fast (Figure 11) ===")
    configs = {
        "Small/Slow": (24, 16, 100.0),
        "Small/Fast": (24, 16, 1000.0),
        "Big/Slow": (48, 32, 100.0),
        "Big/Fast": (48, 32, 400.0),
    }
    for label, (w, h, rate) in configs.items():
        app = build_image_pipeline(w, h, rate)
        compiled = repro.compile_application(app, proc)
        result = repro.simulate(compiled, repro.SimulationOptions(frames=4))
        verdict = result.verdict(**compiled.contract())
        degrees = {
            k: d for k, d in compiled.parallelization.degrees.items() if d > 1
        }
        print(
            f"{label:>10}: {compiled.kernel_count():2d} kernels on "
            f"{compiled.processor_count:2d} PEs, parallelized {degrees or '{}'}"
        )
        print(f"            {verdict.describe()}")

    print()
    print("=== Why parallelization matters: disable it at Small/Fast ===")
    app = build_image_pipeline(24, 16, 1000.0)
    naive = repro.compile_application(
        app, proc, repro.CompileOptions(parallelize=False)
    )
    result = repro.simulate(naive, repro.SimulationOptions(frames=4))
    verdict = result.verdict(**naive.contract())
    print(verdict.describe())
    assert not verdict.meets, "the unparallelized pipeline should fall behind"


if __name__ == "__main__":
    main()
