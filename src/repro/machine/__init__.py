"""Target machine model: processing elements, chip grid, placement, NoC."""

from .chip import ManyCoreChip, Tile
from .energy import EnergyReport, EnergySpec, estimate_energy
from .noc import (
    NocModel,
    NocStats,
    fit_chip,
    link_name,
    row_major_placement,
    xy_route,
)
from .placement import (
    Placement,
    anneal_placement,
    build_noc_model,
    traffic_matrix,
)
from .processor import DEFAULT_PROCESSOR, ProcessorSpec

__all__ = [
    "ManyCoreChip",
    "EnergyReport",
    "EnergySpec",
    "estimate_energy",
    "Tile",
    "NocModel",
    "NocStats",
    "fit_chip",
    "link_name",
    "row_major_placement",
    "xy_route",
    "Placement",
    "anneal_placement",
    "build_noc_model",
    "traffic_matrix",
    "DEFAULT_PROCESSOR",
    "ProcessorSpec",
]
