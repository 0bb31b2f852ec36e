"""Chip model: a grid of identical processing elements.

The parallelization analysis needs only per-element capacities; the chip
grid adds a 2-D topology used by the (extension) simulated-annealing
placement pass, whose energy model charges traffic times Manhattan distance
between tiles (Section IV-D discusses the placement/parallelization
interaction; the paper implemented annealing but did not integrate it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Iterator

from ..errors import PlacementError
from ..records import POSITIVE, conform
from .processor import DEFAULT_PROCESSOR, ProcessorSpec

__all__ = ["ManyCoreChip", "Tile"]


@dataclass(frozen=True, slots=True)
class Tile:
    """A grid position holding one processing element."""

    x: int
    y: int

    def distance(self, other: "Tile") -> int:
        """Manhattan hop count between two tiles (mesh NoC)."""
        return abs(self.x - other.x) + abs(self.y - other.y)


@dataclass(frozen=True, slots=True)
class ManyCoreChip:
    """``cols x rows`` identical processing elements on a 2-D mesh."""

    cols: Annotated[int, POSITIVE] = 8
    rows: Annotated[int, POSITIVE] = 8
    processor: ProcessorSpec = DEFAULT_PROCESSOR

    def __post_init__(self) -> None:
        conform(self, error=PlacementError, where="ManyCoreChip")

    @property
    def tile_count(self) -> int:
        return self.cols * self.rows

    def tiles(self) -> Iterator[Tile]:
        for y in range(self.rows):
            for x in range(self.cols):
                yield Tile(x, y)

    def tile(self, index: int) -> Tile:
        if not 0 <= index < self.tile_count:
            raise PlacementError(
                f"tile index {index} outside chip of {self.tile_count}"
            )
        return Tile(index % self.cols, index // self.cols)
