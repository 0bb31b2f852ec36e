"""FIG12 — 1:1 vs greedy kernel-to-processor mapping (Figure 12).

The paper's example: with a naive one-kernel-per-core mapping the
low-utilization buffers and split/join kernels waste most of the chip;
greedy time multiplexing merges neighbours within capacity and raises
utilization from 20% to 37% (about 1.85x) on the example application.
We reproduce the comparison and assert the paper's shape: the greedy
mapping uses strictly fewer processors, raises average utilization by a
similar factor, keeps initial input buffers un-multiplexed, and still
meets real time.
"""

from conftest import compile_and_simulate

from repro.apps import build_image_pipeline
from repro.machine import ProcessorSpec
from repro.transform.multiplex import _is_initial_input_buffer

PROC = ProcessorSpec(clock_hz=20e6, memory_words=256)
RATE = 1000.0  # the Figure 4 configuration: conv and median replicated


def run_both():
    app = build_image_pipeline(24, 16, RATE)
    one_c, one_r = compile_and_simulate(app, proc=PROC, mapping="1:1")
    gm_c, gm_r = compile_and_simulate(app, proc=PROC, mapping="greedy")
    return one_c, one_r, gm_c, gm_r


def test_fig12_greedy_vs_one_to_one(benchmark):
    one_c, one_r, gm_c, gm_r = benchmark.pedantic(run_both, rounds=1,
                                                  iterations=1)

    one_u = one_r.utilization.average_utilization
    gm_u = gm_r.utilization.average_utilization

    assert gm_c.processor_count < one_c.processor_count
    improvement = gm_u / one_u
    # Paper: 20% -> 37% on the example, i.e. ~1.85x; accept a broad band
    # around it (our PE model is parametric, the shape is what matters).
    assert 1.2 <= improvement <= 3.0

    # Both mappings still meet the real-time constraint.
    for label, compiled, res in (("1:1", one_c, one_r),
                                 ("greedy", gm_c, gm_r)):
        v = res.verdict(**compiled.contract())
        assert v.meets, f"{label}: {v.describe()}"

    # Initial input buffers are never multiplexed (Figure 12 caption).
    g = gm_c.graph
    groups = gm_c.mapping.processors()
    for name in g.kernels:
        if _is_initial_input_buffer(g, name):
            proc = gm_c.mapping.processor_of(name)
            assert groups[proc] == [name]

    print()
    print("FIG12 reproduced:")
    print(f"  1:1    mapping: {one_c.processor_count:2d} PEs, "
          f"avg utilization {one_u:.1%}")
    print(f"  greedy mapping: {gm_c.processor_count:2d} PEs, "
          f"avg utilization {gm_u:.1%}")
    print(f"  improvement {improvement:.2f}x "
          "(paper: 20% -> 37% = 1.85x on its example)")
    print()
    print(gm_c.mapping.describe())
