"""NoC timing model: routing, contention, placement objectives, seams.

Covers the communication-aware extension end to end:

* XY routing geometry and the link/route rendering helpers;
* the NoC-off identity — a zero-cost NoC model must reproduce the
  paper's free-communication results exactly, and the off-mode result
  dict must not grow a ``noc`` section;
* deterministic link contention and the ``NocStats`` surface;
* the makespan-objective annealer, validated against full simulation
  (annealed placement beats row-major on a Figure 13 app);
* cross-process determinism of ``anneal_placement`` (guards the seeded
  ``random.Random`` usage against platform drift);
* composition with faults (slowdowns, migration to placed spares) and
  telemetry (routed ``TransferSpan`` fields, Perfetto link counters);
* the explore axes (``noc``/``placement``) and their fingerprint
  stability for pre-NoC cache entries.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps import BENCHMARK_PROCESSOR, benchmark, build_image_pipeline
from repro.errors import PlacementError, SimulationError
from repro.machine import (
    ManyCoreChip,
    NocModel,
    anneal_placement,
    fit_chip,
    link_name,
    row_major_placement,
    xy_route,
)
from repro.machine.chip import Tile
from repro.machine.noc import route_path
from repro.machine.placement import _energy, _proposals, traffic_matrix
from repro.sim import SimulationOptions, simulate
from repro.transform import CompileOptions, compile_application

REPO = Path(__file__).resolve().parent.parent


def compile_bench(key: str, **opts):
    return compile_application(
        benchmark(key).application(), BENCHMARK_PROCESSOR,
        CompileOptions(**opts),
    )


# ---------------------------------------------------------------------------
# Routing geometry


def test_xy_route_length_is_manhattan_distance():
    cols = 5
    for sx, sy, dx, dy in [(0, 0, 4, 3), (4, 3, 0, 0), (2, 2, 2, 2),
                           (1, 3, 4, 0), (3, 1, 0, 2)]:
        src, dst = Tile(sx, sy), Tile(dx, dy)
        route = xy_route(cols, src, dst)
        assert len(route) == src.distance(dst)


def test_xy_route_goes_x_first():
    # (0,0) -> (2,1) on a 3-wide mesh: east, east, then south.
    route = xy_route(3, Tile(0, 0), Tile(2, 1))
    names = [link_name(link, 3) for link in route]
    assert names == ["(0,0)->(1,0)", "(1,0)->(2,0)", "(2,0)->(2,1)"]
    assert route_path(route, 3) == "(0,0)->(1,0)->(2,0)->(2,1)"


def test_xy_route_empty_for_same_tile():
    assert xy_route(4, Tile(1, 1), Tile(1, 1)) == ()
    assert route_path((), 4) == ""


def test_routes_between_same_tiles_share_links():
    cols = 6
    a, b = Tile(1, 4), Tile(5, 0)
    assert xy_route(cols, a, b) == xy_route(cols, a, b)
    # Opposite direction uses disjoint (reverse-direction) links.
    forward = set(xy_route(cols, a, b))
    back = set(xy_route(cols, b, a))
    assert not forward & back


def test_fit_chip_smallest_square():
    assert fit_chip(1, BENCHMARK_PROCESSOR).cols == 1
    assert fit_chip(4, BENCHMARK_PROCESSOR).cols == 2
    assert fit_chip(5, BENCHMARK_PROCESSOR).cols == 3
    assert fit_chip(9, BENCHMARK_PROCESSOR).cols == 3
    assert fit_chip(10, BENCHMARK_PROCESSOR).cols == 4
    assert fit_chip(3, BENCHMARK_PROCESSOR, mesh=5).cols == 5
    with pytest.raises(PlacementError):
        fit_chip(5, BENCHMARK_PROCESSOR, mesh=2)


def test_row_major_placement_fills_in_order():
    compiled = compile_bench("5")
    chip = fit_chip(compiled.mapping.processor_count, BENCHMARK_PROCESSOR)
    placement = row_major_placement(compiled.mapping, chip)
    procs = sorted(placement.tiles)
    all_tiles = list(chip.tiles())
    assert [placement.tiles[p] for p in procs] == all_tiles[:len(procs)]


def test_noc_model_validates_knobs():
    compiled = compile_bench("5")
    chip = fit_chip(compiled.mapping.processor_count, BENCHMARK_PROCESSOR)
    placement = row_major_placement(compiled.mapping, chip)
    with pytest.raises(PlacementError):
        NocModel(placement=placement, per_hop_cycles=-1.0)
    with pytest.raises(PlacementError):
        NocModel(placement=placement,
                 serialization_cycles_per_element=-0.5)
    model = NocModel(placement=placement)
    with pytest.raises(PlacementError):
        model.route(0, 999)
    assert "mesh" in model.describe()


# ---------------------------------------------------------------------------
# The hook seam: off and zero-cost configurations


def test_options_reject_non_model():
    with pytest.raises(SimulationError):
        SimulationOptions(noc="mesh")


def test_off_result_has_no_noc_section():
    compiled = compile_bench("1")
    result = simulate(compiled, SimulationOptions(frames=2))
    assert result.noc_stats is None
    assert "noc" not in result.as_dict()


def test_zero_cost_noc_matches_noc_off():
    """hops*0 + elements*0 must reproduce the free-communication run."""
    compiled = compile_bench("5")
    chip = fit_chip(compiled.mapping.processor_count, BENCHMARK_PROCESSOR)
    placement = row_major_placement(compiled.mapping, chip)
    zero = NocModel(placement=placement, per_hop_cycles=0.0,
                    serialization_cycles_per_element=0.0)
    base = simulate(compiled, SimulationOptions(frames=3))
    compiled2 = compile_bench("5")
    routed = simulate(compiled2, SimulationOptions(frames=3, noc=zero))
    assert routed.makespan_s == base.makespan_s
    assert routed.output_times == base.output_times
    assert routed.firings == base.firings
    assert not routed.violations
    for name in base.outputs:
        for a, b in zip(base.outputs[name], routed.outputs[name]):
            np.testing.assert_array_equal(a, b)
    # The model still observed (and routed) the traffic.
    assert routed.noc_stats is not None
    assert routed.noc_stats.transfers_routed > 0


def test_noc_preserves_functional_outputs():
    """Timing-only extension: values and their order never change."""
    compiled = compile_bench("5")
    base = simulate(compiled, SimulationOptions(frames=2))
    compiled2 = compile_bench("5")
    chip = fit_chip(compiled2.mapping.processor_count, BENCHMARK_PROCESSOR)
    noc = NocModel(placement=row_major_placement(compiled2.mapping, chip),
                   per_hop_cycles=16.0,
                   serialization_cycles_per_element=4.0)
    routed = simulate(compiled2, SimulationOptions(frames=2, noc=noc))
    for name in base.outputs:
        assert len(base.outputs[name]) == len(routed.outputs[name])
        for a, b in zip(base.outputs[name], routed.outputs[name]):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Timing and contention


def noc_for(compiled, *, hop=4.0, ser=1.0, strategy="row-major", mesh=None):
    need = compiled.mapping.processor_count + len(compiled.mapping.spares)
    chip = fit_chip(need, BENCHMARK_PROCESSOR, mesh=mesh)
    if strategy == "row-major":
        placement = row_major_placement(compiled.mapping, chip)
    else:
        placement = anneal_placement(
            compiled.mapping, compiled.dataflow, chip,
            seed=0, objective=strategy,
        )
    return NocModel(placement=placement, per_hop_cycles=hop,
                    serialization_cycles_per_element=ser)


def test_noc_slows_the_makespan():
    compiled = compile_bench("5")
    base = simulate(compiled, SimulationOptions(frames=2))
    compiled2 = compile_bench("5")
    routed = simulate(
        compiled2,
        SimulationOptions(frames=2, noc=noc_for(compiled2, hop=16, ser=4)),
    )
    assert routed.makespan_s > base.makespan_s
    stats = routed.noc_stats
    assert stats.transfers_routed > 0
    assert stats.total_hops >= stats.transfers_routed
    assert stats.link_busy_s
    d = stats.as_dict(routed.makespan_s)
    assert d["mean_hops"] >= 1.0
    assert 0.0 < d["worst_link"]["utilization"] <= 1.0
    assert "->" in d["worst_link"]["link"]


def test_contention_is_deterministic():
    runs = []
    for _ in range(2):
        compiled = compile_bench("3")
        result = simulate(
            compiled,
            SimulationOptions(frames=2, noc=noc_for(compiled, hop=16, ser=4)),
        )
        runs.append((result.makespan_s, result.noc_stats.link_wait_s,
                     result.noc_stats.worst_link(),
                     dict(result.noc_stats.link_busy_s)))
    assert runs[0] == runs[1]


def test_higher_costs_never_speed_things_up():
    spans = []
    for hop, ser in [(0.0, 0.0), (4.0, 1.0), (64.0, 16.0)]:
        compiled = compile_bench("5")
        noc = noc_for(compiled, hop=hop, ser=ser)
        spans.append(
            simulate(compiled,
                     SimulationOptions(frames=2, noc=noc)).makespan_s
        )
    assert spans[0] <= spans[1] <= spans[2]


def test_unplaced_processor_is_rejected():
    compiled = compile_bench("5")
    chip = fit_chip(compiled.mapping.processor_count, BENCHMARK_PROCESSOR)
    placement = row_major_placement(compiled.mapping, chip)
    partial = type(placement)(
        chip=placement.chip,
        tiles={p: t for p, t in list(placement.tiles.items())[:-1]},
        energy=0.0, initial_energy=0.0,
    )
    with pytest.raises(SimulationError):
        simulate(compiled, SimulationOptions(
            frames=1, noc=NocModel(placement=partial)))


# ---------------------------------------------------------------------------
# Makespan-objective annealing, validated against full simulation


def test_makespan_objective_reduces_congestion_estimate():
    compiled = compile_bench("BF")
    chip = fit_chip(compiled.mapping.processor_count, BENCHMARK_PROCESSOR)
    placement = anneal_placement(
        compiled.mapping, compiled.dataflow, chip,
        seed=0, iterations=4000, objective="makespan",
    )
    assert placement.objective == "makespan"
    assert placement.energy < placement.initial_energy
    assert placement.improvement > 1.0
    assert "makespan" in placement.describe()


def test_annealed_placement_beats_row_major_in_simulation():
    """The ISSUE's acceptance bar: with the NoC active on a Figure 13
    app, the makespan-annealed placement achieves a strictly lower
    simulated makespan than the naive row-major fill."""
    compiled = compile_bench("BF")
    row = simulate(
        compiled,
        SimulationOptions(frames=2, noc=noc_for(compiled, hop=16, ser=4)),
    )
    compiled2 = compile_bench("BF")
    annealed = simulate(
        compiled2,
        SimulationOptions(
            frames=2,
            noc=noc_for(compiled2, hop=16, ser=4, strategy="makespan"),
        ),
    )
    assert annealed.makespan_s < row.makespan_s
    # The cheap estimate and the full simulation agree on the bottleneck
    # direction: less congestion, less queuing.
    assert (annealed.noc_stats.link_wait_s < row.noc_stats.link_wait_s)


def test_unknown_objective_rejected():
    compiled = compile_bench("5")
    chip = fit_chip(compiled.mapping.processor_count, BENCHMARK_PROCESSOR)
    with pytest.raises(PlacementError):
        anneal_placement(compiled.mapping, compiled.dataflow, chip,
                         objective="latency")


def test_energy_objective_unchanged_default():
    compiled = compile_bench("5")
    chip = ManyCoreChip(cols=4, rows=4, processor=BENCHMARK_PROCESSOR)
    placement = anneal_placement(compiled.mapping, compiled.dataflow, chip)
    assert placement.objective == "energy"


# ---------------------------------------------------------------------------
# Delta-evaluated annealing answers what the full sums answered

#: (app, objective, seed) -> (energy, initial_energy, tiles digest) of
#: ``anneal_placement`` on ``fit_chip``, captured from the commit that
#: still summed every traffic pair on every proposal (PR 16); the
#: ``5@4`` makespan seed 1 and ``333.3+3`` rows were captured from the
#: annealer that still routed every proposal with ``xy_route``.
ANNEAL_LITERALS = {
    ("5", "energy", 0): (3604800.0, 3604800.0, "97d7dd3d12f125d662928452"),
    ("5", "energy", 1): (3604800.0, 3604800.0, "97d7dd3d12f125d662928452"),
    ("5", "makespan", 0): (2625300.0, 2625300.0, "97d7dd3d12f125d662928452"),
    ("5", "makespan", 1): (2625300.0, 2625300.0, "97d7dd3d12f125d662928452"),
    ("BF", "energy", 0): (44230550.0, 77217850.0, "e6f598940428360e71b9c4ec"),
    ("BF", "energy", 1): (44171350.0, 77217850.0, "e14c000cb99f1627a980470e"),
    ("BF", "makespan", 0): (6850177.34375, 16729753.90625,
                            "096e77476fdaa9ed09bf13da"),
    ("BF", "makespan", 1): (6881751.5625, 16729753.90625,
                            "6a291aa87c3db4f72a757ef4"),
    ("FB", "energy", 0): (6092800.0, 24295600.0, "936b24e9b22bf28f19db2790"),
    ("FB", "energy", 1): (5908000.0, 24295600.0, "10d0dfc46b8610e04ba1394c"),
    ("FB", "makespan", 0): (641027.7777777778, 1377919.4444444445,
                            "f4b5f8e36e973a7ebf66fd7f"),
    ("FB", "makespan", 1): (642572.2222222222, 1377919.4444444445,
                            "a8836a27155b95df00f73632"),
    # App 5's four processors on a 4x4 mesh: mostly free-tile moves.
    ("5@4", "energy", 0): (3604800.0, 7113600.0, "f3cd8205094119d7d98fde38"),
    ("5@4", "energy", 1): (3604800.0, 7113600.0, "ca5e72cafe599bd98700ecc6"),
    ("5@4", "makespan", 0): (2456325.0, 3619950.0,
                             "83936fc0942d16d0285c5bba"),
    ("5@4", "makespan", 1): (2456325.0, 3619950.0,
                             "ca5e72cafe599bd98700ecc6"),
    # The 333.3 Hz pipeline with three spare tiles: non-integer traffic,
    # so the makespan costs pin the float link loads bit for bit.
    ("333.3+3", "energy", 0): (3003699.6, 6087391.2,
                               "15b6e1a442797e7b62305783"),
    ("333.3+3", "energy", 1): (3003699.6, 6087391.2,
                               "861679cc415cffca1c4b5248"),
    ("333.3+3", "energy", 2): (3003699.6, 6087391.2,
                               "445db0494f0beed0020453b8"),
    ("333.3+3", "makespan", 0): (2083236.0999999724, 2248886.2,
                                 "25c6b54e2b326551b034d65b"),
    ("333.3+3", "makespan", 1): (2083236.099999971, 2248886.2,
                                 "7f45c61c461aa9e14bb37076"),
    ("333.3+3", "makespan", 2): (2083236.0999999696, 2248886.2,
                                 "0e520f85c4b457363c78c9d2"),
}


def tiles_digest(placement) -> str:
    text = json.dumps({str(p): [t.x, t.y] for p, t in placement.tiles.items()},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def literal_case(app):
    """``(compiled, chip)`` of an ``ANNEAL_LITERALS`` app name: a suite
    key, ``key@side`` for a forced mesh, or ``hz+spare`` for the image
    pipeline at ``hz`` on a chip with ``spare`` free tiles."""
    if "+" in app:
        hz, _, spare = app.partition("+")
        compiled = compile_application(
            build_image_pipeline(24, 16, float(hz)), BENCHMARK_PROCESSOR)
        return compiled, fit_chip(compiled.mapping.processor_count
                                  + int(spare), BENCHMARK_PROCESSOR)
    key, _, mesh = app.partition("@")
    compiled = compile_bench(key)
    return compiled, fit_chip(compiled.mapping.processor_count,
                              BENCHMARK_PROCESSOR,
                              mesh=int(mesh) if mesh else None)


@pytest.mark.parametrize("app", ["5", "BF", "FB", "5@4", "333.3+3"])
def test_annealed_placements_match_the_full_sum_annealer(app):
    compiled, chip = literal_case(app)
    traffic = traffic_matrix(compiled.mapping, compiled.dataflow)
    integral = all(rate == int(rate) for rate in traffic.values())
    assert integral == ("+" not in app)
    for (name, objective, seed), expected in ANNEAL_LITERALS.items():
        if name != app:
            continue
        placement = anneal_placement(compiled.mapping, compiled.dataflow,
                                     chip, seed=seed, objective=objective)
        assert (placement.energy, placement.initial_energy,
                tiles_digest(placement)) == expected, (objective, seed)
        if objective == "energy":
            assert placement.energy == _energy(dict(placement.tiles), traffic)


def test_reported_energy_is_recomputed_not_accumulated():
    """At 333.3 Hz the traffic is not integer-valued, so a running total
    of deltas drifts; what is reported is the sum over the tiles reported."""
    compiled = compile_application(
        build_image_pipeline(24, 16, 333.3), BENCHMARK_PROCESSOR)
    traffic = traffic_matrix(compiled.mapping, compiled.dataflow)
    assert any(rate != int(rate) for rate in traffic.values())
    chip = fit_chip(compiled.mapping.processor_count + 3, BENCHMARK_PROCESSOR)
    for seed in range(3):
        placement = anneal_placement(compiled.mapping, compiled.dataflow,
                                     chip, seed=seed)
        assert placement.energy < placement.initial_energy
        assert placement.energy == _energy(dict(placement.tiles), traffic)


def choice_proposals(rng, count, free, iterations):
    """The proposal stream as ``Random.choice`` / ``randrange`` draw it."""
    for _ in range(iterations):
        a = rng.choice(range(count))
        if free and rng.random() < 0.3:
            yield a, None, rng.randrange(free)
        else:
            b = rng.choice(range(count))
            if a != b:
                yield a, b, None


@pytest.mark.parametrize("seed", range(5))
def test_proposal_draws_are_random_choice_and_randrange(seed):
    """``_proposals`` draws its indices with ``getrandbits`` the way
    CPython's ``_randbelow`` does; a change there fails here by name.
    Each proposal is followed by a ``random()`` draw, as a Metropolis
    test draws between two proposals."""
    def drain(stream, rng):
        return [(*move, rng.random()) for move in stream]

    for count in range(1, 65):
        for free in {0, 1, count, 64 - count}:
            ours, theirs = random.Random(seed), random.Random(seed)
            assert drain(_proposals(ours, count, free, 64), ours) == drain(
                choice_proposals(theirs, count, free, 64), theirs
            ), (count, free)
            assert ours.getstate() == theirs.getstate(), (count, free)


# ---------------------------------------------------------------------------
# Seeded determinism across processes (satellite)

_ANNEAL_SCRIPT = """\
import json, sys
from repro.apps import BENCHMARK_PROCESSOR, benchmark, build_image_pipeline
from repro.machine import anneal_placement, fit_chip
from repro.transform import compile_application

compiled = compile_application(
    benchmark(sys.argv[1]).application(), BENCHMARK_PROCESSOR)
chip = fit_chip(compiled.mapping.processor_count, BENCHMARK_PROCESSOR)
p = anneal_placement(compiled.mapping, compiled.dataflow, chip,
                     seed=7, iterations=1500, objective=sys.argv[2])
print(json.dumps({
    "tiles": {str(k): [t.x, t.y] for k, t in sorted(p.tiles.items())},
    "energy": p.energy, "initial": p.initial_energy,
}))
"""


@pytest.mark.parametrize("objective", ["energy", "makespan"])
def test_anneal_placement_deterministic_across_processes(objective):
    """Same (mapping, chip, seed) -> identical Placement in a fresh
    interpreter, including hash randomization differences."""
    compiled = compile_bench("3")
    chip = fit_chip(compiled.mapping.processor_count, BENCHMARK_PROCESSOR)
    local = anneal_placement(compiled.mapping, compiled.dataflow, chip,
                             seed=7, iterations=1500, objective=objective)
    out = subprocess.run(
        [sys.executable, "-c", _ANNEAL_SCRIPT, "3", objective],
        capture_output=True, text=True, check=True,
        cwd=str(REPO), env={"PYTHONPATH": str(REPO / "src"),
                            "PYTHONHASHSEED": "random", "PATH": "/usr/bin"},
    )
    remote = json.loads(out.stdout)
    assert remote["tiles"] == {
        str(k): [t.x, t.y] for k, t in sorted(local.tiles.items())
    }
    assert remote["energy"] == local.energy
    assert remote["initial"] == local.initial_energy


# ---------------------------------------------------------------------------
# Composition with faults and telemetry


def test_noc_composes_with_slow_pe_faults():
    from repro.faults import FaultSpec

    compiled = compile_bench("5")
    noc = noc_for(compiled, hop=16, ser=4)
    healthy = simulate(compiled, SimulationOptions(frames=2, noc=noc))
    compiled2 = compile_bench("5")
    # Slow every PE so the degradation necessarily hits the critical path
    # even when NoC serialization dominates compute on some processors.
    spec = FaultSpec.from_dict({"slow_pes": [[p, 3.0] for p in range(4)]})
    degraded = simulate(
        compiled2,
        SimulationOptions(frames=2, noc=noc_for(compiled2, hop=16, ser=4),
                          faults=spec),
    )
    assert degraded.makespan_s > healthy.makespan_s
    assert degraded.noc_stats.transfers_routed > 0


def test_noc_requires_placed_spares_for_migration():
    compiled = compile_bench("5", spare_processors=1)
    assert compiled.mapping.spares
    # fit_chip counts the spares, so the placement covers them...
    noc = noc_for(compiled)
    result = simulate(compiled, SimulationOptions(frames=1, noc=noc))
    assert result.noc_stats is not None
    # ...while a placement that omits them is rejected up front.
    chip = fit_chip(compiled.mapping.processor_count, BENCHMARK_PROCESSOR)
    tiles = dict(zip(
        sorted(set(compiled.mapping.assignment.values())),
        chip.tiles(),
    ))
    from repro.machine import Placement

    bare = Placement(chip=chip, tiles=tiles, energy=0.0, initial_energy=0.0)
    with pytest.raises(SimulationError):
        simulate(compiled,
                 SimulationOptions(frames=1, noc=NocModel(placement=bare)))


def test_noc_migration_reroutes_from_spare():
    """After a PE death migrates kernels to a spare, transfers route
    from the spare's tile — the route cache keys on live processors."""
    from repro.faults import FaultSpec

    compiled = compile_bench("5", spare_processors=1)
    spec = FaultSpec.from_dict({
        "pe_failures": [{"processor": 1, "time_s": 0.0005}],
        "recovery": {"migrate": True},
    })
    result = simulate(
        compiled,
        SimulationOptions(frames=2, noc=noc_for(compiled, hop=16, ser=4),
                          faults=spec),
    )
    assert result.fault_stats.migrations == 1
    assert result.noc_stats.transfers_routed > 0


def test_transfer_spans_carry_routes():
    compiled = compile_bench("5")
    result = simulate(
        compiled,
        SimulationOptions(frames=2, noc=noc_for(compiled, hop=16, ser=4),
                          telemetry=True),
    )
    tele = result.telemetry
    routed = [s for s in tele.spans
              if s.kind == "transfer" and s.route]
    unrouted = [s for s in tele.spans
                if s.kind == "transfer" and not s.route]
    assert routed and unrouted
    assert all(s.hops > 0 and not s.token for s in routed)
    assert all(s.hops == 0 and s.link_wait_s == 0.0 for s in unrouted)
    assert len(routed) == result.noc_stats.transfers_routed
    assert tele.link_occupancy
    # Spans serialize route fields only when routed (digest stability).
    from repro.obs.spans import span_as_dict

    assert "route" in span_as_dict(routed[0])
    assert "route" not in span_as_dict(unrouted[0])


def test_perfetto_gains_link_counters():
    from repro.obs import to_perfetto, validate_perfetto

    compiled = compile_bench("5")
    result = simulate(
        compiled,
        SimulationOptions(frames=2, noc=noc_for(compiled, hop=16, ser=4),
                          telemetry=True),
    )
    doc = to_perfetto(result.telemetry, app="5")
    counts = validate_perfetto(doc)
    assert counts["C"] > 0 and counts["i"] > 0
    link_events = [e for e in doc["traceEvents"]
                   if e.get("cat") == "noc" and e["ph"] == "C"]
    route_events = [e for e in doc["traceEvents"]
                    if e.get("cat") == "noc" and e["ph"] == "i"]
    assert link_events and route_events
    assert all("in_flight" in e["args"] for e in link_events)
    assert all(e["args"]["route"] for e in route_events)
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert "noc links" in names


def test_telemetry_off_spans_unchanged_without_noc():
    """NoC-off TransferSpans serialize exactly the pre-NoC key set."""
    compiled = compile_bench("1")
    result = simulate(compiled,
                      SimulationOptions(frames=1, telemetry=True))
    from repro.obs.spans import span_as_dict

    transfer = next(s for s in result.telemetry.spans
                    if s.kind == "transfer")
    assert set(span_as_dict(transfer)) == {
        "kind", "seq", "start_s", "src", "src_port", "dst", "dst_port",
        "bytes", "token", "occupancy",
    }


# ---------------------------------------------------------------------------
# Explore axes


def test_explore_noc_axis_roundtrip_and_fingerprints():
    from repro.explore.spec import Job, SweepSpec

    spec = SweepSpec.from_dict({
        "name": "noc", "app": "5", "frames": 2,
        "points": [
            {},
            {"noc": True},
            {"noc": {"per_hop_cycles": 16,
                     "serialization_cycles_per_element": 4},
             "placement": "makespan"},
        ],
    })
    off, defaults, tuned = spec.jobs()
    assert off.fingerprint != defaults.fingerprint != tuned.fingerprint
    assert "noc" in defaults.label and "placement=makespan" in tuned.label
    for job in (off, defaults, tuned):
        assert Job.from_dict(job.to_dict()).fingerprint == job.fingerprint


def test_explore_off_fingerprint_stable():
    """A job without NoC keys fingerprints identically whether the keys
    are absent or explicitly off — pre-NoC cache entries stay valid."""
    from repro.explore.spec import Job

    old_style = Job.from_dict({"app": "5", "frames": 2})
    new_style = Job.from_dict({"app": "5", "frames": 2,
                               "noc": None, "placement": ""})
    assert old_style.fingerprint == new_style.fingerprint
    # noc=True and its explicit defaults normalize to one fingerprint.
    a = Job.from_dict({"app": "5", "frames": 2, "noc": True})
    b = Job.from_dict({"app": "5", "frames": 2, "noc": {
        "per_hop_cycles": 4.0, "serialization_cycles_per_element": 1.0,
        "mesh": None,
    }})
    assert a.fingerprint == b.fingerprint


def test_explore_placement_requires_noc():
    from repro.explore.spec import ExploreError, SweepSpec

    with pytest.raises(ExploreError):
        SweepSpec.from_dict({
            "name": "bad", "app": "5",
            "points": [{"placement": "makespan"}],
        }).jobs()
    with pytest.raises(ExploreError):
        SweepSpec.from_dict({
            "name": "bad", "app": "5",
            "points": [{"noc": True, "placement": "spiral"}],
        }).jobs()
    with pytest.raises(ExploreError):
        SweepSpec.from_dict({
            "name": "bad", "app": "5",
            "points": [{"noc": {"hops": 3}}],
        }).jobs()


def test_explore_executes_noc_job():
    from repro.explore.executor import execute_job
    from repro.explore.spec import SweepSpec

    spec = SweepSpec.from_dict({
        "name": "noc", "app": "5", "frames": 2,
        "points": [{"noc": {"per_hop_cycles": 16,
                            "serialization_cycles_per_element": 4},
                    "placement": "makespan"}],
    })
    stats = execute_job(spec.jobs()[0])
    assert stats["noc"]["placement"] == "makespan"
    assert stats["noc"]["transfers_routed"] > 0
    assert stats["meets"] in (True, False)


# ---------------------------------------------------------------------------
# CLI


def test_cli_simulate_noc_json(capsys):
    from repro.cli import main

    rc = main(["simulate", "5", "--frames", "2", "--noc",
               "--placement", "makespan", "--hop-cycles", "16",
               "--ser-cycles", "4", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["noc"]["transfers_routed"] > 0
    assert out["noc"]["worst_link"]["utilization"] > 0


def test_cli_placement_without_noc_errors(capsys):
    from repro.cli import main

    rc = main(["simulate", "5", "--frames", "1", "--placement", "energy"])
    assert rc == 2
    assert "--noc" in capsys.readouterr().err
