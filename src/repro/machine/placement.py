"""Simulated-annealing placement (Section IV-D).

The paper notes that "a simulated annealing approach to placement has been
implemented, but not integrated within the simulator" — communication delay
does not affect throughput for these applications, but placement determines
communication *energy*.  This module provides that pass: processors are
assigned to tiles of the 2-D mesh so as to minimize total traffic-weighted
Manhattan distance, with a deterministic annealing schedule.

Two objectives are supported:

* ``objective="energy"`` (the default, matching the paper): minimize total
  traffic-weighted Manhattan distance.  The result feeds no timing back
  into the simulator; benchmarks report the energy improvement over the
  naive row-major placement.
* ``objective="makespan"``: minimize a cheap incremental *congestion
  estimate* of the :class:`~repro.machine.noc.NocModel` mesh — the peak
  per-link traffic load under XY routing (the serialization bottleneck
  that bounds the simulated makespan) plus a small total-traffic tiebreak.
  Per-link loads update incrementally per move (only pairs touching the
  moved processors re-route), so a full anneal costs seconds, not the
  hours a simulate-per-candidate loop would.  ``tests/test_noc.py``
  validates the estimate against full NoC simulation on the Figure 13
  applications.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Literal, Mapping

from typing import TYPE_CHECKING

from ..analysis.dataflow import DataflowResult
from ..errors import PlacementError
from .chip import ManyCoreChip, Tile
from .noc import NocModel, fit_chip, row_major_placement, xy_route

if TYPE_CHECKING:  # pragma: no cover - avoids a machine<->transform cycle
    from ..transform.multiplex import Mapping as KernelMapping

__all__ = ["Placement", "traffic_matrix", "anneal_placement",
           "build_noc_model"]

#: Annealing objectives; see the module docstring.
PlacementObjective = Literal["energy", "makespan"]


@dataclass(frozen=True, slots=True)
class Placement:
    """Processor-to-tile assignment with its objective cost.

    ``energy``/``initial_energy`` hold the annealed objective's cost —
    traffic-weighted distance for ``objective="energy"``, the congestion
    estimate for ``objective="makespan"`` — so :attr:`improvement` reads
    the same either way.
    """

    chip: ManyCoreChip
    tiles: Mapping[int, Tile]
    energy: float
    initial_energy: float
    objective: str = "energy"

    @property
    def improvement(self) -> float:
        """Cost reduction factor vs the naive row-major placement."""
        if self.energy <= 0:
            return 1.0 if self.initial_energy <= 0 else math.inf
        return self.initial_energy / self.energy

    def describe(self) -> str:
        lines = [
            f"placement on {self.chip.cols}x{self.chip.rows} mesh: "
            f"{self.objective} {self.energy:,.0f} "
            f"(from {self.initial_energy:,.0f}, "
            f"{self.improvement:.2f}x better)"
        ]
        for proc, tile in sorted(self.tiles.items()):
            lines.append(f"  PE{proc} -> ({tile.x},{tile.y})")
        return "\n".join(lines)


def traffic_matrix(
    mapping: "KernelMapping", dataflow: DataflowResult
) -> dict[tuple[int, int], float]:
    """Elements/second exchanged between processor pairs.

    Only inter-processor channels count; kernels multiplexed onto one
    element communicate through local memory for free.  Off-chip endpoints
    (application inputs/outputs, constant sources) are excluded — their
    traffic enters at the chip boundary regardless of placement.
    """
    traffic: dict[tuple[int, int], float] = {}
    app = mapping.app
    for edge in app.edges:
        src = mapping.processor_of(edge.src)
        dst = mapping.processor_of(edge.dst)
        if src is None or dst is None or src == dst:
            continue
        stream = dataflow.stream_on(edge)
        key = (min(src, dst), max(src, dst))
        traffic[key] = traffic.get(key, 0.0) + stream.elements_per_second
    return traffic


def _energy(
    tiles: dict[int, Tile], traffic: Mapping[tuple[int, int], float]
) -> float:
    return sum(
        rate * tiles[a].distance(tiles[b]) for (a, b), rate in traffic.items()
    )


class _Congestion:
    """Incrementally maintained per-link loads under XY routing.

    The cost is ``peak link load + total hop-traffic / link count``: the
    peak is the serialization bottleneck a mesh NoC exposes, the total
    (which equals the energy objective) breaks plateaus where several
    placements share a bottleneck.  Loads change only for traffic pairs
    touching a moved processor, so one move costs O(pairs touching it),
    not O(all pairs).

    Processors and tiles are integer indices: ``at[p]`` is processor
    ``p``'s tile, a pair is ``(p, q, rate)``, and ``routes[s * span +
    d]`` is :func:`~repro.machine.noc.xy_route` from tile ``s`` to tile
    ``d``, built once per call (quadratic in the mesh, like the energy
    search's hop table), so re-routing a pair is list indexing.
    ``loads`` is indexed by link id; a load that comes back within
    ±1e-9 of zero snaps to zero, what a link no route uses reads.  Loads
    are sums of non-negative rates, so the peak over every link is the
    peak over the loaded ones.
    """

    __slots__ = ("routes", "span", "loads", "total", "link_count",
                 "touching")

    def __init__(self, at: list[int], pairs, chip: ManyCoreChip) -> None:
        all_tiles = list(chip.tiles())
        self.span = chip.tile_count
        self.routes = [xy_route(chip.cols, source, target)
                       for source in all_tiles for target in all_tiles]
        self.link_count = 4 * chip.tile_count
        self.loads = [0.0] * self.link_count
        self.total = 0.0
        self.touching: list[list[tuple[int, int, float]]] = [[] for _ in at]
        for pair in pairs:
            self.touching[pair[0]].append(pair)
            self.touching[pair[1]].append(pair)
            self.shift(at, (pair,), +1.0)

    def shift(self, at: list[int], pairs, sign: float) -> None:
        loads, routes, span = self.loads, self.routes, self.span
        total = self.total
        for a, b, rate in pairs:
            delta = rate * sign
            for link in routes[at[a] * span + at[b]]:
                new = loads[link] + delta
                loads[link] = 0.0 if -1e-9 < new < 1e-9 else new
                total += delta
        self.total = total

    def cost(self) -> float:
        return max(self.loads) + self.total / self.link_count


def anneal_placement(
    mapping: "KernelMapping",
    dataflow: DataflowResult,
    chip: ManyCoreChip,
    *,
    seed: int = 0,
    iterations: int = 20_000,
    start_temperature: float | None = None,
    objective: PlacementObjective = "energy",
) -> Placement:
    """Place the mapping's processors onto the chip mesh by annealing.

    Classic Metropolis annealing over pairwise tile swaps with a geometric
    cooling schedule; the RNG is seeded so results are reproducible — the
    same ``(mapping, chip, seed)`` yields an identical :class:`Placement`
    across processes and platforms (``random.Random`` is specified to be
    platform-independent, and the test suite holds this with a
    cross-process regression).
    """
    if objective not in ("energy", "makespan"):
        raise PlacementError(
            f"unknown placement objective {objective!r}; "
            "expected 'energy' or 'makespan'"
        )
    # Spares occupy tiles too — they must physically exist to be
    # migration targets — but exchange no traffic until occupied.
    procs = sorted(
        set(mapping.assignment.values()) | set(getattr(mapping, "spares", ()))
    )
    if len(procs) > chip.tile_count:
        raise PlacementError(
            f"{len(procs)} processors do not fit a chip of "
            f"{chip.tile_count} tiles"
        )
    traffic = traffic_matrix(mapping, dataflow)
    all_tiles = list(chip.tiles())
    tiles: dict[int, Tile] = {p: all_tiles[i] for i, p in enumerate(procs)}
    # The searches see processor ``procs[i]`` as index ``i`` on tile
    # index ``at[i]``, starting from the row-major fill.
    index = {p: i for i, p in enumerate(procs)}
    pairs = [(index[a], index[b], rate) for (a, b), rate in traffic.items()]
    at = list(range(len(procs)))

    congestion = (
        _Congestion(at, pairs, chip) if objective == "makespan" else None
    )
    if congestion is not None:
        initial_energy = congestion.cost()
    else:
        initial_energy = _energy(tiles, traffic)

    if not traffic or len(procs) < 2:
        return Placement(
            chip=chip, tiles=dict(tiles),
            energy=initial_energy, initial_energy=initial_energy,
            objective=objective,
        )

    rng = random.Random(seed)
    temperature = (
        start_temperature
        if start_temperature is not None
        else max(initial_energy / max(len(procs), 1), 1e-9)
    )
    slots = list(range(len(procs), len(all_tiles)))
    if congestion is not None:
        best, best_energy = _anneal_congestion(
            rng, at, slots, congestion, iterations, temperature,
        )
    else:
        best, best_energy = _anneal_distance(
            rng, at, slots, all_tiles, pairs, iterations, temperature,
            initial_energy,
        )
    return Placement(
        chip=chip,
        tiles={p: all_tiles[best[i]] for i, p in enumerate(procs)},
        energy=best_energy,
        initial_energy=initial_energy,
        objective=objective,
    )


#: Geometric cooling factor per proposed move.
_COOLING = 0.999


def _proposals(rng: random.Random, count: int, free: int, iterations: int):
    """``(a, b, slot)`` per proposed move, all indices: swap processor
    ``a``'s tile with processor ``b``'s or, when ``b`` is None, with free
    slot ``slot``.

    Both searches draw from here, so the seeded draw sequence —
    including the ``a == b`` draw that proposes nothing and, unlike a
    rejection, does not cool — exists once.  An index below ``n`` is
    drawn the way ``Random.choice`` and ``Random.randrange`` draw one
    (CPython's ``_randbelow``): ``n.bit_length()`` random bits, redrawn
    while they reach ``n``; ``tests/test_noc.py`` holds the streams equal.
    Each search then draws ``rng.random()`` for an uphill move's
    Metropolis test, between two proposals.
    """
    bits, uniform = rng.getrandbits, rng.random
    width, free_width = count.bit_length(), free.bit_length()
    for _ in range(iterations):
        a = bits(width)
        while a >= count:
            a = bits(width)
        if free and uniform() < 0.3:
            slot = bits(free_width)
            while slot >= free:
                slot = bits(free_width)
            yield a, None, slot
        else:
            b = bits(width)
            while b >= count:
                b = bits(width)
            if a != b:
                yield a, b, None


def _anneal_distance(
    rng: random.Random,
    at: list[int],
    slots: list[int],
    all_tiles: list[Tile],
    pairs: list[tuple[int, int, float]],
    iterations: int,
    temperature: float,
    energy: float,
) -> tuple[list[int], float]:
    """The ``energy`` search, delta-evaluated.

    A move changes only the traffic pairs touching the (at most two)
    processors it moves, so each proposal is priced from those pairs
    alone: processors sit on integer tile indices, hop counts come from a
    tile-by-tile table (quadratic in the mesh, built once per call), and
    every processor carries the ``(peer, rate)`` pairs it exchanges
    traffic with.  A swap is priced as two single moves in a
    row — the second sees the first already landed — which makes the pair
    between the two swapped processors cancel without a special case.

    ``energy`` is a running total only between improvements: whenever a
    new best is kept it is re-summed from the hop table in traffic
    order, the float operations of :func:`_energy`, so the value
    reported is always :func:`_energy` of the tiles reported.
    """
    hops = [[a.distance(b) for b in all_tiles] for a in all_tiles]
    touching: list[list[tuple[int, float]]] = [[] for _ in at]
    for a, b, rate in pairs:
        touching[a].append((b, rate))
        touching[b].append((a, rate))
    uniform, exp = rng.random, math.exp

    best, best_energy = at[:], energy
    for a, b, slot in _proposals(rng, len(at), len(slots), iterations):
        source = at[a]
        target = slots[slot] if b is None else at[b]
        here, there = hops[source], hops[target]
        delta = 0.0
        for peer, rate in touching[a]:
            where = at[peer]
            delta += rate * (there[where] - here[where])
        if b is not None:
            at[a] = target
            for peer, rate in touching[b]:
                where = at[peer]
                delta += rate * (here[where] - there[where])
            at[a] = source
        new_energy = energy + delta
        if new_energy <= energy or uniform() < exp(
            (energy - new_energy) / max(temperature, 1e-12)
        ):
            energy = new_energy
            at[a] = target
            if b is None:
                slots[slot] = source
            else:
                at[b] = source
            if energy < best_energy:
                best = at[:]
                best_energy = energy = sum(
                    rate * hops[at[p]][at[q]] for p, q, rate in pairs)
        temperature *= _COOLING
    return best, best_energy


def _anneal_congestion(
    rng: random.Random,
    at: list[int],
    slots: list[int],
    congestion: _Congestion,
    iterations: int,
    temperature: float,
) -> tuple[list[int], float]:
    """The ``makespan`` search: each proposal re-routes the pairs touching
    the moved processors, and a rejected one routes them back."""

    def exchange(a: int, b: int | None, slot: int | None, pairs) -> None:
        shift(at, pairs, -1.0)
        if b is None:
            at[a], slots[slot] = slots[slot], at[a]
        else:
            at[a], at[b] = at[b], at[a]
        shift(at, pairs, +1.0)

    shift, cost = congestion.shift, congestion.cost
    touching = congestion.touching
    uniform, exp = rng.random, math.exp
    energy = cost()
    best, best_energy = at[:], energy
    for a, b, slot in _proposals(rng, len(at), len(slots), iterations):
        # A swap re-routes both processors' pairs, the pair between
        # them once.
        pairs = touching[a] if b is None else touching[a] + [
            pair for pair in touching[b] if a != pair[0] and a != pair[1]]
        exchange(a, b, slot, pairs)
        new_energy = cost()
        if new_energy <= energy or uniform() < exp(
            (energy - new_energy) / max(temperature, 1e-12)
        ):
            energy = new_energy
            if energy < best_energy:
                best_energy = energy
                best = at[:]
        else:
            exchange(a, b, slot, pairs)  # its own inverse
        temperature *= _COOLING
    return best, best_energy


def build_noc_model(
    compiled,
    *,
    mesh: int | None,
    placement: str | None,
    per_hop_cycles: float,
    serialization_cycles_per_element: float,
) -> NocModel:
    """The :class:`NocModel` of one compiled application.

    The one recipe the CLI's ``--noc`` and a sweep job's ``noc`` knobs
    share: the smallest mesh holding every processor and spare (or a
    forced ``mesh`` side), then ``placement`` — ``"row-major"`` (also
    what a falsy value means) or an annealing objective, annealed with
    seed 0 so equal inputs give equal placements everywhere.
    """
    mapping = compiled.mapping
    chip = fit_chip(
        mapping.processor_count + len(getattr(mapping, "spares", ())),
        compiled.processor,
        mesh=mesh,
    )
    if (placement or "row-major") == "row-major":
        placed = row_major_placement(mapping, chip)
    else:
        placed = anneal_placement(mapping, compiled.dataflow, chip,
                                  seed=0, objective=placement)
    return NocModel(
        placement=placed,
        per_hop_cycles=per_hop_cycles,
        serialization_cycles_per_element=serialization_cycles_per_element,
    )
