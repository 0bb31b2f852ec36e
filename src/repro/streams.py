"""Stream metadata flowing along channels during static analysis.

A :class:`StreamInfo` describes everything the compiler knows statically
about the data on one channel: the logical 2-D region per frame (extent and
inset relative to the originating application input), the physical chunk
granularity items move in, the frame rate, and the worst-case control-token
rates (Section II-C).  The dataflow analysis of Section III propagates these
through the application graph using each kernel's transfer function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .geometry import Inset, Region, Size2D
from .tokens import ControlToken, EndOfFrame, EndOfLine

__all__ = ["StreamInfo", "default_tokens"]


def default_tokens(frame_height: int) -> Mapping[str, int]:
    """Token rates automatically generated by an application input.

    End-of-line once per scan line, end-of-frame once per frame.
    """
    return MappingProxyType(
        {EndOfLine.token_name(): frame_height, EndOfFrame.token_name(): 1}
    )


@dataclass(frozen=True, slots=True)
class StreamInfo:
    """Static description of the data carried by one stream channel.

    Attributes
    ----------
    region:
        Logical data extent per frame and its inset from the originating
        application input (Sections III-A and III-C).
    chunk:
        Physical granularity: the extent of each item moved per producer
        firing.  App inputs produce 1x1 chunks; buffer kernels re-chunk a
        stream into consumer-window-sized pieces.
    rate_hz:
        Frames per second.  The real-time constraint of Section III derives
        from the rates declared on the application inputs.
    chunks_per_frame:
        Items per frame, determining consumer firing counts.
    token_rates:
        Worst-case control tokens per frame by token name, used to budget
        handler resources (Section II-C).
    windows_precut:
        True when chunks are pre-extracted consumer windows (downstream of a
        buffer or window-preserving split) rather than disjoint tiles of the
        region; such chunks may overlap so ``chunks_per_frame * chunk`` can
        exceed the region extent.
    share:
        Fraction of the logical stream this channel carries.  Round-robin
        split branches carry ``1/n`` of the iterations while still
        describing the full logical region, so downstream kernels' firing
        rates scale by the share (Section IV-A).  Control tokens are
        broadcast to every branch, so token rates do *not* scale.
    """

    region: Region
    chunk: Size2D
    rate_hz: float
    chunks_per_frame: int
    token_rates: Mapping[str, int] = field(default_factory=dict)
    windows_precut: bool = False
    share: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError(f"stream rate must be positive, got {self.rate_hz}")
        if self.chunks_per_frame <= 0:
            raise ValueError(
                f"chunks per frame must be positive, got {self.chunks_per_frame}"
            )

    @property
    def extent(self) -> Size2D:
        return self.region.extent

    @property
    def inset(self) -> Inset:
        return self.region.inset

    @property
    def elements_per_frame(self) -> int:
        """Elements moved per frame (chunk elements times chunk count)."""
        return self.chunk.elements * self.chunks_per_frame

    @property
    def elements_per_second(self) -> float:
        return self.elements_per_frame * self.rate_hz

    def token_rate(self, token_cls: type[ControlToken]) -> int:
        """Worst-case per-frame rate of ``token_cls`` on this stream."""
        return self.token_rates.get(token_cls.token_name(), 0)

    def describe(self) -> str:
        pre = " precut" if self.windows_precut else ""
        return (
            f"{self.region} chunk={self.chunk} x{self.chunks_per_frame} "
            f"@ {self.rate_hz:g}Hz{pre}"
        )
