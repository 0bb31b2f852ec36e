"""Input/output port parameterization (Section II-A of the paper).

Each kernel input and output is parameterized by a two-dimensional *window*
size, a *step* size determining how far the window advances per iteration,
and (for inputs) an *offset* from the window's upper-left corner to the
logical position of the produced output.  Inputs may additionally be marked
*replicated*, meaning a parallelizing transform must copy — not distribute —
their data to every parallel instance (e.g. convolution coefficients).

The fixed scan-line data order plus this parameterization fully determines
data movement, reuse, and iteration counts (Figure 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import PortError
from ..geometry import (
    Offset2D,
    Size2D,
    Step2D,
    shared_on_copy,
)

__all__ = ["Direction", "PortSpec", "InputSpec", "OutputSpec"]


class Direction(enum.Enum):
    """Whether a port consumes or produces data."""

    INPUT = "input"
    OUTPUT = "output"


@shared_on_copy
@dataclass(frozen=True, slots=True)
class PortSpec:
    """Common parameterization shared by inputs and outputs."""

    name: str
    window: Size2D
    step: Step2D

    def __post_init__(self) -> None:
        if not self.name:
            raise PortError("port names must be non-empty")
        if self.step.x > self.window.w or self.step.y > self.window.h:
            # Steps larger than the window would skip data; the language
            # models decimation with downsampling kernels instead.
            raise PortError(
                f"port {self.name!r}: step {self.step} exceeds window "
                f"{self.window}; data would be skipped"
            )

    @property
    def elements(self) -> int:
        """Elements touched per iteration."""
        return self.window.elements

    def describe(self) -> str:
        """Paper-style rendering, e.g. ``in (5x5)[1,1]``."""
        return f"{self.name} {self.window}{self.step}"


@shared_on_copy
@dataclass(frozen=True, slots=True)
class InputSpec(PortSpec):
    """A kernel input: window, step, offset, and replication flag.

    ``offset`` maps the window origin to the logical output position; the
    5x5 convolution uses [2.0, 2.0] so each output lands two pixels over and
    down from the window's upper-left corner (Figure 5(a)).  ``replicated``
    inputs are copied, not split, during parallelization (dashed edges in
    the application graphs).
    """

    offset: Offset2D = field(default_factory=lambda: Offset2D(0, 0))
    replicated: bool = False
    #: Tokens arriving on this input are silently dropped and the input is
    #: excluded from multi-input token matching.  Used for feedback-loop
    #: inputs (Section III-D): the loop stream is offset by one iteration
    #: (the classic SDF delay), so its frame tokens can never line up with
    #: the forward input's — the forward path carries the frame structure.
    token_transparent: bool = False

    @property
    def direction(self) -> Direction:
        return Direction.INPUT

    @property
    def halo(self) -> tuple[int, int]:
        """(x, y) halo: data consumed beyond the produced grid per side pair."""
        return (self.window.w - self.step.x, self.window.h - self.step.y)

    def describe(self) -> str:
        base = PortSpec.describe(self)
        tail = f" {self.offset}"
        if self.replicated:
            tail += " (replicated)"
        return base + tail


@shared_on_copy
@dataclass(frozen=True, slots=True)
class OutputSpec(PortSpec):
    """A kernel output: the chunk produced per firing.

    Output tiles of successive iterations abut, so the step defaults to the
    window size; a distinct step is permitted only for equality with the
    window (kept as an explicit field to mirror the paper's notation, e.g.
    ``out (32x1)[32,1]`` for the histogram).
    """

    def __post_init__(self) -> None:
        PortSpec.__post_init__(self)
        if (self.step.x, self.step.y) != (self.window.w, self.window.h):
            raise PortError(
                f"output {self.name!r}: step {self.step} must equal window "
                f"{self.window}; outputs tile without overlap"
            )

    @property
    def direction(self) -> Direction:
        return Direction.OUTPUT


def make_input(
    name: str,
    width: int,
    height: int,
    step_x: int = 1,
    step_y: int = 1,
    offset_x: float | Fraction = 0,
    offset_y: float | Fraction = 0,
    *,
    replicated: bool = False,
) -> InputSpec:
    """Convenience constructor mirroring the paper's ``createInput``."""
    return InputSpec(
        name=name,
        window=Size2D(width, height),
        step=Step2D(step_x, step_y),
        offset=Offset2D(offset_x, offset_y),
        replicated=replicated,
    )


def make_output(name: str, width: int, height: int) -> OutputSpec:
    """Convenience constructor mirroring the paper's ``createOutput``."""
    return OutputSpec(
        name=name, window=Size2D(width, height), step=Step2D(width, height)
    )
