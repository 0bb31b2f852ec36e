"""EXT-SCHED — static admission test vs the simulator.

An SDF-style periodic schedule is built per processor from the repetition
vector (firings per frame) and the declared costs; a processor is
admissible when its schedule fits one frame period.  The claim: the
static verdict agrees with the timing-accurate simulator — admissible
compiles meet real time, the overloaded ablation is rejected by both.
"""

from repro.analysis import build_static_schedule
from repro.apps import BENCHMARK_PROCESSOR, benchmark_suite, build_image_pipeline
from repro.machine import ProcessorSpec
from repro.sim import SimulationOptions, simulate
from repro.transform import CompileOptions, compile_application

PROC = ProcessorSpec(clock_hz=20e6, memory_words=256)


def run():
    rows = []
    for bench in benchmark_suite():
        compiled = compile_application(bench.application(),
                                       BENCHMARK_PROCESSOR)
        sched = build_static_schedule(compiled)
        result = simulate(compiled, SimulationOptions(frames=bench.frames))
        verdict = result.verdict(**compiled.contract(), frames=bench.frames)
        rows.append((bench.key, sched, verdict))
    # The deliberately overloaded ablation.
    compiled = compile_application(
        build_image_pipeline(24, 16, 1000.0), PROC,
        CompileOptions(parallelize=False, mapping="1:1"),
    )
    sched = build_static_schedule(compiled)
    result = simulate(compiled, SimulationOptions(frames=5))
    verdict = result.verdict(**compiled.contract())
    rows.append(("overloaded", sched, verdict))
    return rows


def test_ext_static_admission(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    for key, sched, verdict in rows:
        assert sched.admissible == verdict.meets, (
            f"{key}: static says {sched.admissible}, "
            f"simulator says {verdict.meets}"
        )

    print()
    print("EXT-SCHED reproduced (static admission vs simulation):")
    for key, sched, verdict in rows:
        bott = sched.bottleneck()
        print(f"  {key:>10}: bottleneck PE{bott.processor} at "
              f"{bott.utilization:6.1%} -> static "
              f"{'admissible' if sched.admissible else 'OVERLOAD':>10}, "
              f"simulated {'meets' if verdict.meets else 'MISSES'}")
