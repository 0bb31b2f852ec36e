"""Inset (trim) and pad kernels for data alignment (Section III-C, Figure 8).

When two differently-haloed filter outputs feed one multi-input kernel, the
compiler must either trim the larger output or pad the smaller one's input
so the extents and insets agree.  The *choice* is the programmer's (it
changes the result); the mechanics are these kernels, inserted by the align
transform (the inverted-house "Inset" node of Figure 3).

Both kernels re-shape the line structure of the stream, so they manage
end-of-line tokens explicitly instead of relying on automatic forwarding:
an inset kernel drops the EOL of dropped lines; a pad kernel synthesizes
EOLs for the padding rows it invents.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import AnalysisError, GraphError
from ..geometry import Inset, Region, Size2D
from ..graph.kernel import Kernel, TransferResult
from ..graph.methods import MethodCost
from ..streams import StreamInfo
from ..tokens import EndOfFrame, EndOfLine

__all__ = ["InsetKernel", "PadKernel"]


class InsetKernel(Kernel):
    """Trim ``(left, top, right, bottom)`` margins off a 1x1-chunk stream.

    The Figure 3/4 label ``offset(in1) (0,0)[1,1,1,1]`` corresponds to
    ``trim=(1, 1, 1, 1)``: one pixel discarded on each side of the median
    output so it aligns with the smaller convolution output.
    """

    data_parallel = False
    compiler_inserted = True
    timing_depends_on = "position"
    positional_bodies = {"filter_elem": "advance"}

    def __init__(
        self,
        name: str,
        *,
        region_w: int,
        region_h: int,
        trim: tuple[int, int, int, int],
    ) -> None:
        left, top, right, bottom = trim
        if min(trim) < 0:
            raise GraphError(f"inset {name!r}: negative trim {trim}")
        if left + right >= region_w or top + bottom >= region_h:
            raise GraphError(
                f"inset {name!r}: trim {trim} consumes the whole "
                f"{region_w}x{region_h} region"
            )
        self.region_w = region_w
        self.region_h = region_h
        self.trim = (left, top, right, bottom)
        self._x = 0
        self._y = 0
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("in", 1, 1, 1, 1)
        self.add_output("out", 1, 1)
        self.add_method(
            "filter_elem", inputs=["in"], outputs=["out"],
            cost=MethodCost(cycles=3),
        )
        self.add_method(
            "end_line", on_token=("in", EndOfLine), outputs=["out"],
            cost=MethodCost(cycles=2),
        )
        self.add_method(
            "end_frame", on_token=("in", EndOfFrame), outputs=["out"],
            cost=MethodCost(cycles=2), forward_token=True,
        )

    def filter_elem(self) -> None:
        chunk = self.read_input("in")
        if self.advance():
            self.write_output("out", chunk)

    def advance(self) -> bool:
        """The position half of :meth:`filter_elem`, and its positional
        body (:attr:`positional_bodies`): steps the cursor past one
        element and returns whether the trim keeps it — as a count, how
        many times the firing writes ``out``."""
        x, y = self._x, self._y
        if x + 1 < self.region_w:
            self._x = x + 1
        else:
            self._x = 0
            self._y = y + 1
        left, top, right, bottom = self.trim
        return (left <= x < self.region_w - right
                and top <= y < self.region_h - bottom)

    def end_line(self) -> None:
        token = self.read_token()
        ended = self._y - 1 if self._x == 0 else self._y
        left, top, right, bottom = self.trim
        if top <= ended < self.region_h - bottom:
            self.emit_token("out", EndOfLine(frame=token.frame, line=ended - top))

    def end_frame(self) -> None:
        self._x = 0
        self._y = 0

    def reset(self) -> None:
        super().reset()
        self._x = 0
        self._y = 0

    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        s = inputs["in"]
        if (s.extent.w, s.extent.h) != (self.region_w, self.region_h):
            raise AnalysisError(
                f"{self.name}: inset built for {self.region_w}x{self.region_h}"
                f" but stream region is {s.extent}"
            )
        if s.chunk != Size2D(1, 1):
            raise AnalysisError(f"{self.name}: inset kernels expect 1x1 chunks")
        left, top, right, bottom = self.trim
        out_w = self.region_w - left - right
        out_h = self.region_h - top - bottom
        token_rates = dict(s.token_rates)
        if EndOfLine.token_name() in token_rates:
            token_rates[EndOfLine.token_name()] = out_h
        out = StreamInfo(
            region=Region(
                Size2D(out_w, out_h), Inset(s.inset.x + left, s.inset.y + top)
            ),
            chunk=Size2D(1, 1),
            rate_hz=s.rate_hz,
            chunks_per_frame=out_w * out_h,
            token_rates=token_rates,
            share=s.share,
        )
        return TransferResult(
            outputs={"out": out},
            firings_per_second={
                "filter_elem": float(s.chunks_per_frame) * s.rate_hz,
                "end_line": s.token_rate(EndOfLine) * s.rate_hz,
                "end_frame": s.rate_hz,
            },
        )


class PadKernel(Kernel):
    """Surround a 1x1-chunk stream with ``(left, top, right, bottom)``
    constant-fill margins (the zero-padding alternative of Section III-C).

    Mirror padding is not implemented: mirroring a line's left edge needs
    data that arrives only later in the scan, i.e. a line buffer inside the
    pad kernel; the paper leaves the pad/trim *choice* to the programmer
    and our align transform defaults to trimming.
    """

    data_parallel = False
    compiler_inserted = True
    timing_depends_on = "position"

    def __init__(
        self,
        name: str,
        *,
        region_w: int,
        region_h: int,
        pad: tuple[int, int, int, int],
        fill: float = 0.0,
    ) -> None:
        # Bursty: the first element of a frame triggers the whole top
        # border (rows x padded width plus their end-of-line tokens).
        left, top, right, bottom = pad
        padded_w = region_w + left + right
        self.max_emissions_per_firing = max(
            2, (max(top, bottom) + 1) * (padded_w + 2)
        )
        if min(pad) < 0:
            raise GraphError(f"pad {name!r}: negative padding {pad}")
        if max(pad) == 0:
            raise GraphError(f"pad {name!r}: padding is a no-op")
        self.region_w = region_w
        self.region_h = region_h
        self.pad = tuple(int(p) for p in pad)
        self.fill = float(fill)
        self._x = 0
        self._y = 0
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("in", 1, 1, 1, 1)
        self.add_output("out", 1, 1)
        self.add_method(
            "pad_elem", inputs=["in"], outputs=["out"], cost=MethodCost(cycles=4)
        )
        self.add_method(
            "end_line", on_token=("in", EndOfLine), outputs=["out"],
            cost=MethodCost(cycles=2),
        )
        self.add_method(
            "end_frame", on_token=("in", EndOfFrame), outputs=["out"],
            cost=MethodCost(cycles=2),
        )

    @property
    def padded_w(self) -> int:
        left, _, right, _ = self.pad
        return self.region_w + left + right

    @property
    def padded_h(self) -> int:
        _, top, _, bottom = self.pad
        return self.region_h + top + bottom

    def _fill_chunk(self) -> np.ndarray:
        return np.full((1, 1), self.fill)

    def _emit_pad_row(self, frame: int, line: int) -> None:
        for _ in range(self.padded_w):
            self.write_output("out", self._fill_chunk())
        self.emit_token("out", EndOfLine(frame=frame, line=line))

    def pad_elem(self) -> None:
        left, top, _, _ = self.pad
        if self._x == 0 and self._y == 0:
            for row in range(top):
                self._emit_pad_row(frame=0, line=row)
        if self._x == 0:
            for _ in range(left):
                self.write_output("out", self._fill_chunk())
        self.write_output("out", self.read_input("in"))
        self._x += 1
        if self._x >= self.region_w:
            self._x = 0
            self._y += 1

    def end_line(self) -> None:
        token = self.read_token()
        _, top, right, _ = self.pad
        for _ in range(right):
            self.write_output("out", self._fill_chunk())
        ended = self._y - 1 if self._x == 0 else self._y
        self.emit_token(
            "out", EndOfLine(frame=token.frame, line=ended + top)
        )

    def end_frame(self) -> None:
        token = self.read_token()
        _, top, _, bottom = self.pad
        for row in range(bottom):
            self._emit_pad_row(frame=token.frame, line=top + self.region_h + row)
        self.emit_token("out", EndOfFrame(frame=token.frame))
        self._x = 0
        self._y = 0

    def reset(self) -> None:
        super().reset()
        self._x = 0
        self._y = 0

    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        s = inputs["in"]
        if (s.extent.w, s.extent.h) != (self.region_w, self.region_h):
            raise AnalysisError(
                f"{self.name}: pad built for {self.region_w}x{self.region_h} "
                f"but stream region is {s.extent}"
            )
        if s.chunk != Size2D(1, 1):
            raise AnalysisError(f"{self.name}: pad kernels expect 1x1 chunks")
        left, top, _, _ = self.pad
        token_rates = dict(s.token_rates)
        token_rates[EndOfLine.token_name()] = self.padded_h
        token_rates[EndOfFrame.token_name()] = 1
        out = StreamInfo(
            region=Region(
                Size2D(self.padded_w, self.padded_h),
                Inset(s.inset.x - left, s.inset.y - top),
            ),
            chunk=Size2D(1, 1),
            rate_hz=s.rate_hz,
            chunks_per_frame=self.padded_w * self.padded_h,
            token_rates=token_rates,
            share=s.share,
        )
        return TransferResult(
            outputs={"out": out},
            firings_per_second={
                "pad_elem": float(s.chunks_per_frame) * s.rate_hz,
                "end_line": s.token_rate(EndOfLine) * s.rate_hz,
                "end_frame": s.rate_hz,
            },
        )
