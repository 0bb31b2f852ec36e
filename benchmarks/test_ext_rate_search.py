"""EXT-RATE — the StreamIt-style inverse query (Section VI's contrast).

StreamIt fixes the processor count and maximizes rate; this system fixes
the rate and minimizes processors.  With a fully automatic compiler the
former reduces to a search over the latter: binary-search the highest
input rate whose compile fits the processor budget and passes the static
admission test.  The bench sweeps budgets over the running example and
verifies each found rate in the timing-accurate simulator.
"""

from repro.apps import build_image_pipeline
from repro.machine import ProcessorSpec
from repro.sim import SimulationOptions, simulate
from repro.transform import find_max_rate

PROC = ProcessorSpec(clock_hz=20e6, memory_words=512)
BUDGETS = (6, 10, 16)


def run():
    rows = []
    for budget in BUDGETS:
        res = find_max_rate(
            lambda r: build_image_pipeline(24, 16, r), PROC,
            processor_budget=budget, low_hz=50.0,
        )
        sim = simulate(res.compiled, SimulationOptions(frames=4))
        verdict = sim.verdict(**res.compiled.contract())
        rows.append((budget, res, verdict))
    return rows


def test_ext_rate_search(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    rates = [res.best_rate_hz for _, res, _ in rows]
    assert rates == sorted(rates) and rates[0] < rates[-1]
    for budget, res, verdict in rows:
        assert res.compiled.processor_count <= budget
        assert verdict.meets, f"budget {budget}: {verdict.describe()}"

    print()
    print("EXT-RATE reproduced (max sustainable rate vs processor budget):")
    for budget, res, verdict in rows:
        print(f"  {budget:2d} PEs -> {res.best_rate_hz:7.1f} Hz "
              f"({res.compiled.processor_count} used, "
              f"{res.probes} compile probes, simulated: "
              f"{'meets' if verdict.meets else 'MISSES'})")
