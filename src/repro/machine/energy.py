"""Energy model for mapped and placed applications.

Section IV-D motivates placement with energy ("increasing the number of
kernels beyond what is required ... may allow a more optimal placement,
resulting in a lower overall energy consumption"), and Section V's
multiplexing is an efficiency argument.  This model quantifies both with
four coefficients:

* dynamic compute energy per cycle actually executed;
* dynamic access energy per element moved across a port;
* network energy per element-hop, charged on inter-processor traffic
  weighted by the placement's Manhattan distances;
* leakage power per powered processing element.

The absolute numbers are parametric (defaults are loosely 45 nm-class
figures); the comparisons — greedy vs 1:1 mapping, annealed vs row-major
placement — are what the benchmarks reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Annotated

from ..errors import ResourceError
from ..records import NON_NEGATIVE, conform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.dataflow import DataflowResult
    from ..sim.simulator import SimulationResult
    from ..transform.multiplex import Mapping as KernelMapping
    from .placement import Placement
    from .processor import ProcessorSpec

__all__ = ["EnergySpec", "EnergyReport", "estimate_energy"]


@dataclass(frozen=True, slots=True)
class EnergySpec:
    """Energy coefficients for one processing element and its network."""

    pj_per_cycle: Annotated[float, NON_NEGATIVE] = 2.0
    pj_per_element_access: Annotated[float, NON_NEGATIVE] = 1.0
    pj_per_element_hop: Annotated[float, NON_NEGATIVE] = 0.5
    leakage_mw_per_processor: Annotated[float, NON_NEGATIVE] = 0.25

    def __post_init__(self) -> None:
        conform(self, error=ResourceError, where="EnergySpec")


@dataclass(frozen=True, slots=True)
class EnergyReport:
    """Energy breakdown for one simulated run, in joules."""

    duration_s: float
    compute_j: float
    access_j: float
    network_j: float
    leakage_j: float

    @property
    def total_j(self) -> float:
        return self.compute_j + self.access_j + self.network_j + self.leakage_j

    @property
    def average_power_w(self) -> float:
        return self.total_j / self.duration_s if self.duration_s > 0 else 0.0

    def describe(self) -> str:
        parts = [
            f"energy over {self.duration_s * 1e3:.3f} ms: "
            f"{self.total_j * 1e6:.3f} uJ "
            f"({self.average_power_w * 1e3:.3f} mW avg)"
        ]
        for label, value in (
            ("compute", self.compute_j),
            ("access", self.access_j),
            ("network", self.network_j),
            ("leakage", self.leakage_j),
        ):
            share = value / self.total_j if self.total_j > 0 else 0.0
            parts.append(f"  {label}: {value * 1e6:.3f} uJ ({share:.0%})")
        return "\n".join(parts)


def estimate_energy(
    result: "SimulationResult",
    mapping: "KernelMapping",
    dataflow: "DataflowResult",
    *,
    processor: "ProcessorSpec",
    spec: EnergySpec = EnergySpec(),
    placement: "Placement | None" = None,
) -> EnergyReport:
    """Energy of one simulated run under ``spec``.

    Compute and access energy come from the simulation's measured busy
    times (run vs read+write seconds, converted back to cycles and
    elements through the processor's clock and per-element access costs).
    Network energy charges the dataflow traffic between distinct
    processors over the run's duration; without a placement every
    inter-processor hop counts as one (bus model), with one it is the
    tiles' Manhattan distance.
    """
    from .placement import traffic_matrix

    duration = result.utilization.duration_s
    clock_hz = processor.clock_hz
    compute_cycles = sum(
        p.run_s for p in result.utilization.processors.values()
    ) * clock_hz
    read_elems = sum(
        p.read_s for p in result.utilization.processors.values()
    ) * clock_hz / max(processor.read_cycles_per_element, 1e-12)
    write_elems = sum(
        p.write_s for p in result.utilization.processors.values()
    ) * clock_hz / max(processor.write_cycles_per_element, 1e-12)
    compute_j = compute_cycles * spec.pj_per_cycle * 1e-12
    access_j = (read_elems + write_elems) * spec.pj_per_element_access * 1e-12

    traffic = traffic_matrix(mapping, dataflow)
    network_elements_hops = 0.0
    for (a, b), rate in traffic.items():
        if placement is not None:
            hops = placement.tiles[a].distance(placement.tiles[b])
        else:
            hops = 1
        network_elements_hops += rate * duration * hops
    network_j = network_elements_hops * spec.pj_per_element_hop * 1e-12

    leakage_j = (
        result.utilization.processor_count
        * spec.leakage_mw_per_processor * 1e-3
        * duration
    )
    return EnergyReport(
        duration_s=duration,
        compute_j=compute_j,
        access_j=access_j,
        network_j=network_j,
        leakage_j=leakage_j,
    )
