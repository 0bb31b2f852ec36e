"""Two-dimensional geometry for the block-parallel data model.

The language fixes a left-to-right, top-to-bottom scan-line order over
two-dimensional data (Section II-A of the paper).  Everything the compiler
needs to reason about — window sizes, steps, offsets, iteration counts,
insets, and data reuse — reduces to small amounts of integer/rational 2-D
arithmetic, collected here.

Conventions
-----------
* ``x`` indexes columns (width), ``y`` indexes rows (height).
* A *window* is the rectangular extent a port reads or writes per iteration.
* A *step* is how far the window advances per iteration in each dimension.
* An *offset* maps the window's upper-left corner to the logical position of
  the produced output; it may be fractional for downsampling kernels
  (footnote 2 of the paper).
* An *inset* measures how far a data region's upper-left corner sits from
  the upper-left corner of the original application input that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AnalysisError, PortError

__all__ = [
    "shared_on_copy",
    "Size2D",
    "Step2D",
    "Offset2D",
    "Inset",
    "Region",
    "iteration_count",
    "iteration_grid",
    "output_extent",
    "halo",
    "steady_state_reuse",
    "window_positions",
]


def shared_on_copy(cls):
    """Class decorator for frozen value types: ``copy.deepcopy`` hands back
    the instance itself.

    A graph copy duplicates what a pass may mutate (containers, arrays,
    runtime state); the port, method and geometry records hanging off every
    kernel can never change, so copies of a kernel share them.
    """
    cls.__deepcopy__ = lambda self, memo: self
    return cls


@shared_on_copy
@dataclass(frozen=True, slots=True)
class Size2D:
    """A strictly positive 2-D extent in elements (width x height)."""

    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise PortError(f"sizes must be positive, got {self.w}x{self.h}")

    @property
    def elements(self) -> int:
        """Total element count of the extent."""
        return self.w * self.h

    def __str__(self) -> str:  # matches the paper's "(WxH)" rendering
        return f"({self.w}x{self.h})"

    def __iter__(self):
        yield self.w
        yield self.h

    def fits_in(self, other: "Size2D") -> bool:
        """True when this extent fits inside ``other`` in both dimensions."""
        return self.w <= other.w and self.h <= other.h


@shared_on_copy
@dataclass(frozen=True, slots=True)
class Step2D:
    """How far a window advances per iteration in each dimension."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x <= 0 or self.y <= 0:
            raise PortError(f"steps must be positive, got [{self.x},{self.y}]")

    def __str__(self) -> str:  # matches the paper's "[sx,sy]" rendering
        return f"[{self.x},{self.y}]"

    def __iter__(self):
        yield self.x
        yield self.y


def _bounded_fraction(value: float | int | Fraction) -> Fraction:
    """``value`` as a rational with denominator at most 2**16.

    Inset propagation adds offsets that are already such rationals, and
    ``limit_denominator`` leaves those unchanged in value, so they are kept
    as they are instead of being rebuilt on every transfer.
    """
    if type(value) is not Fraction:
        value = Fraction(value)
    if value.denominator <= 1 << 16:
        return value
    return value.limit_denominator(1 << 16)


@shared_on_copy
@dataclass(frozen=True, slots=True)
class Offset2D:
    """Offset from a window's upper-left corner to its logical output.

    Stored as exact rationals so fractional offsets used by downsampling
    kernels do not accumulate floating-point error during inset propagation.
    """

    x: Fraction
    y: Fraction

    def __init__(self, x: float | int | Fraction, y: float | int | Fraction) -> None:
        object.__setattr__(self, "x", _bounded_fraction(x))
        object.__setattr__(self, "y", _bounded_fraction(y))

    def __str__(self) -> str:  # matches the paper's "[x.y,x.y]" rendering
        return f"[{float(self.x):.1f},{float(self.y):.1f}]"

    def __add__(self, other: "Offset2D") -> "Offset2D":
        return Offset2D(self.x + other.x, self.y + other.y)

    def __iter__(self):
        yield self.x
        yield self.y


#: An inset is dimensionally identical to an offset: a (possibly fractional)
#: displacement from the original application input's origin.
Inset = Offset2D


@shared_on_copy
@dataclass(frozen=True, slots=True)
class Region:
    """A rectangle of data positioned relative to an application input.

    ``extent`` is the size of the region; ``inset`` locates its upper-left
    corner relative to the origin of the application input whose data flowed
    into it.  Two regions feeding one multi-input method are *aligned* when
    both extent and inset agree.
    """

    extent: Size2D
    inset: Inset = Inset(0, 0)

    def __str__(self) -> str:
        return f"{self.extent}@{self.inset}"

    def aligned_with(self, other: "Region") -> bool:
        return self.extent == other.extent and self.inset == other.inset

    def intersection(self, other: "Region") -> "Region":
        """The overlapping region of two regions in input coordinates.

        Used by the alignment transform to decide how much to trim from the
        larger region (Figure 8: "3x3 and 5x5 Outputs Aligned").
        """
        left = max(self.inset.x, other.inset.x)
        top = max(self.inset.y, other.inset.y)
        right = min(self.inset.x + self.extent.w, other.inset.x + other.extent.w)
        bottom = min(self.inset.y + self.extent.h, other.inset.y + other.extent.h)
        if right <= left or bottom <= top:
            raise AnalysisError(f"regions {self} and {other} do not overlap")
        w, h = right - left, bottom - top
        if w.denominator != 1 or h.denominator != 1:
            raise AnalysisError(
                f"intersection of {self} and {other} has fractional extent"
            )
        return Region(Size2D(int(w), int(h)), Inset(left, top))

    def union_bound(self, other: "Region") -> "Region":
        """Smallest region covering both (used for padding decisions)."""
        left = min(self.inset.x, other.inset.x)
        top = min(self.inset.y, other.inset.y)
        right = max(self.inset.x + self.extent.w, other.inset.x + other.extent.w)
        bottom = max(self.inset.y + self.extent.h, other.inset.y + other.extent.h)
        w, h = right - left, bottom - top
        if w.denominator != 1 or h.denominator != 1:
            raise AnalysisError(f"union of {self} and {other} has fractional extent")
        return Region(Size2D(int(w), int(h)), Inset(left, top))

    def trim_margins(self, target: "Region") -> tuple[int, int, int, int]:
        """(left, top, right, bottom) margins to trim to reach ``target``.

        Raises when ``target`` is not contained in this region or margins
        would be fractional.
        """
        left = target.inset.x - self.inset.x
        top = target.inset.y - self.inset.y
        right = (self.inset.x + self.extent.w) - (target.inset.x + target.extent.w)
        bottom = (self.inset.y + self.extent.h) - (target.inset.y + target.extent.h)
        margins = (left, top, right, bottom)
        if any(m < 0 for m in margins):
            raise AnalysisError(f"target {target} is not contained in {self}")
        if any(m.denominator != 1 for m in margins):
            raise AnalysisError(f"trimming {self} to {target} needs fractional margins")
        return tuple(int(m) for m in margins)  # type: ignore[return-value]


def iteration_count(extent: int, window: int, step: int) -> int:
    """Number of window positions along one dimension.

    ``floor((extent - window) / step) + 1``; e.g. a 100-wide row through a
    5-wide window at step 1 yields 96 iterations (Section III-A).
    """
    if window > extent:
        raise AnalysisError(
            f"window of {window} does not fit in extent of {extent}"
        )
    return (extent - window) // step + 1


def iteration_grid(extent: Size2D, window: Size2D, step: Step2D) -> Size2D:
    """2-D iteration counts for a window scanned over an extent."""
    return Size2D(
        iteration_count(extent.w, window.w, step.x),
        iteration_count(extent.h, window.h, step.y),
    )


def output_extent(iterations: Size2D, out_size: Size2D) -> Size2D:
    """Extent produced by ``iterations`` firings each emitting ``out_size``.

    The output tiles of successive iterations abut (output step equals output
    size in this model), so the produced extent is the elementwise product.
    """
    return Size2D(iterations.w * out_size.w, iterations.h * out_size.h)


def halo(window: Size2D, step: Step2D) -> Size2D | tuple[int, int]:
    """Halo of a windowed input: ``window - step`` per dimension.

    The 5x5 step-(1,1) convolution has a 4x4 halo (Section III-A).  Returned
    as a plain tuple because a halo may legitimately be zero.
    """
    return (window.w - step.x, window.h - step.y)


def steady_state_reuse(window: Size2D, step: Step2D) -> Fraction:
    """Fraction of window elements reused between consecutive iterations.

    In steady state — previous rows resident in the buffer — only
    ``step_x * step_y`` elements of each window are new; everything else
    was already received.  A 5x5 window at step (1,1) therefore reuses
    24 of 25 elements (Figure 5(b)).
    """
    fresh = min(step.x * step.y, window.elements)
    return Fraction(window.elements - fresh, window.elements)


def window_positions(extent: Size2D, window: Size2D, step: Step2D):
    """Yield (x, y) upper-left window positions in scan-line order."""
    its = iteration_grid(extent, window, step)
    for iy in range(its.h):
        for ix in range(its.w):
            yield (ix * step.x, iy * step.y)

