"""FIG13 — processor utilization across the benchmark suite (Figure 13).

The paper's headline evaluation: ten benchmarks (Bayer x2, histogram x2,
parallel buffer test, multiple convolutions, the image pipeline at four
size/rate points, and the Figure 1(b) app), each mapped 1:1 and greedily,
with utilization broken into run/read/write components.  The claims:

* greedy multiplexing improves average utilization ~1.5x across programs
  ranging from fewer than 10 kernels to more than 50;
* every benchmark still meets its real-time constraint.

Absolute percentages depend on the processing-element model; the ratios
and the run/read/write decomposition are the reproduced shape.
"""

import statistics

from repro.apps import BENCHMARK_PROCESSOR, benchmark_suite
from repro.sim import SimulationOptions, simulate
from repro.transform import CompileOptions, compile_application


def run_suite():
    rows = []
    for bench in benchmark_suite():
        row = {"key": bench.key, "title": bench.title}
        for mapping in ("1:1", "greedy"):
            compiled = compile_application(
                bench.application(), BENCHMARK_PROCESSOR,
                CompileOptions(mapping=mapping),
            )
            result = simulate(compiled, SimulationOptions(frames=bench.frames))
            verdict = result.verdict(**compiled.contract(),
                                     frames=bench.frames)
            row[mapping] = {
                "processors": compiled.processor_count,
                "kernels": compiled.kernel_count(),
                "utilization": result.utilization.average_utilization,
                "components": result.utilization.component_fractions(),
                "meets": verdict.meets,
            }
        rows.append(row)
    return rows


def test_fig13_utilization(benchmark):
    rows = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    # Every benchmark meets real time under both mappings.
    for row in rows:
        for mapping in ("1:1", "greedy"):
            assert row[mapping]["meets"], f"{row['key']} misses under {mapping}"

    # The greedy mapping never uses more processors and never lowers
    # utilization.
    improvements = []
    for row in rows:
        assert row["greedy"]["processors"] <= row["1:1"]["processors"]
        assert (row["greedy"]["utilization"]
                >= row["1:1"]["utilization"] - 1e-12)
        improvements.append(
            row["greedy"]["utilization"] / row["1:1"]["utilization"]
        )

    # Average improvement ~1.5x (paper's headline; accept a band).
    mean_improvement = statistics.geometric_mean(improvements)
    assert 1.2 <= mean_improvement <= 2.5

    # The suite spans small to large programs (paper: <10 to >50 kernels).
    sizes = [row["1:1"]["kernels"] for row in rows]
    assert min(sizes) < 10
    assert max(sizes) > 50

    print()
    print("FIG13 reproduced (avg utilization, run/read/write):")
    header = (f"  {'bench':>6} | {'1:1':>22} | {'greedy':>22} | gain")
    print(header)
    for row, gain in zip(rows, improvements):
        cells = []
        for mapping in ("1:1", "greedy"):
            r = row[mapping]
            c = r["components"]
            cells.append(
                f"{r['utilization']:6.1%} ({c['run']:.1%}/"
                f"{c['read']:.1%}/{c['write']:.1%})"
            )
        print(f"  {row['key']:>6} | {cells[0]:>22} | {cells[1]:>22} | "
              f"{gain:.2f}x")
    print(f"  geometric-mean improvement: {mean_improvement:.2f}x "
          "(paper: ~1.5x)")
