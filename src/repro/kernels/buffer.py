"""The two-dimensional circular buffer kernel (Section III-B).

The only channel buffering implicit in the application model is the single
iteration of double-buffering in each port; everything else is explicit
Buffer kernels inserted by the compiler.  A buffer kernel accumulates
scan-line-ordered chunks into a circular row store and emits consumer-sized
windows as they complete.  It is a *regular* kernel — it has a method,
declared costs, and state — so the mapping and simulation passes treat it
like any other computation.

Buffers are sized to double-buffer the larger of their input or output: a
``(1x1)[1,1] -> (5x5)[1,1]`` buffer over a 20-wide region stores
``20 x 10`` elements (two window-heights of rows), which is exactly the
``Buffer [20x10]`` annotation of Figure 4.

Buffers are **not** data parallel: round-robin distribution would reorder
data (Section IV-C).  When a buffer must split — usually because its row
storage exceeds one processing element's memory — it splits column-wise
with the window overlap replicated to both halves (Figure 10); see
:mod:`repro.transform.parallelize`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import AnalysisError, FiringError, PortError
from ..geometry import Size2D, Step2D, iteration_grid, shared_on_copy
from ..graph.kernel import Kernel, TransferResult
from ..graph.methods import MethodCost
from ..streams import StreamInfo
from ..tokens import EndOfFrame

__all__ = ["BufferKernel"]


@shared_on_copy
@dataclass(frozen=True, slots=True)
class _Lattice:
    """Which windows a chunk completes, by where it lands.

    Chunks arrive in scan order, so a window completes when its
    bottom-right element lands: a ``chunk``-shaped ``(h, w)`` tile stored
    at column ``x`` of row ``y`` completes the windows with origin
    ``(py, px)`` for ``py`` in ``tops[y]`` and ``px`` in ``columns[x]``,
    emitted row by row.  A buffer's geometry never changes, so the tables
    are built once per geometry and shared by every copy of the kernel
    (a graph copy does not walk them).
    """

    chunk: tuple[int, int]
    tops: tuple[range, ...]
    columns: tuple[range, ...]


def _origins(first: int, last: int, size: int, stride: int) -> range:
    """Origins, on the ``stride`` lattice, of the windows of extent
    ``size`` whose far edge lies in ``[first, last]``."""
    lo = max(0, first - size + 1)
    return range(lo + (-lo) % stride, last - size + 2, stride)


@functools.lru_cache(maxsize=256)
def _window_lattice(region: Size2D, window: Size2D, step: Step2D,
                    chunk: Size2D) -> _Lattice:
    return _Lattice(
        (chunk.h, chunk.w),
        tuple(_origins(y, y + chunk.h - 1, window.h, step.y)
              for y in range(region.h)),
        tuple(_origins(x, x + chunk.w - 1, window.w, step.x)
              for x in range(region.w)),
    )


class BufferKernel(Kernel):
    """Re-chunk a stream of ``in_chunk`` tiles into overlapping windows.

    Parameters
    ----------
    region_w, region_h:
        The per-frame extent of the incoming stream (known statically from
        the dataflow analysis at insertion time).
    window_w, window_h, step_x, step_y:
        The consumer's window parameterization.
    in_chunk_w, in_chunk_h:
        Incoming chunk extent.  Application inputs produce ``1x1``; chunk
        heights above one are only supported for full-width tiles because
        window completion is tracked as a scan-order watermark.
    """

    data_parallel = False
    compiler_inserted = True
    timing_depends_on = "position"
    positional_bodies = {"store": "count_windows"}

    #: Cycles charged per stored input chunk (pointer arithmetic + wrap).
    STORE_CYCLES = 4

    def __init__(
        self,
        name: str,
        *,
        region_w: int,
        region_h: int,
        window_w: int,
        window_h: int,
        step_x: int = 1,
        step_y: int = 1,
        in_chunk_w: int = 1,
        in_chunk_h: int = 1,
    ) -> None:
        if window_w > region_w or window_h > region_h:
            raise PortError(
                f"buffer {name!r}: window {window_w}x{window_h} exceeds "
                f"region {region_w}x{region_h}"
            )
        if in_chunk_h > 1 and in_chunk_w != region_w:
            raise PortError(
                f"buffer {name!r}: multi-row chunks must span the full region"
            )
        if region_w % in_chunk_w or region_h % in_chunk_h:
            raise PortError(
                f"buffer {name!r}: chunks {in_chunk_w}x{in_chunk_h} do not "
                f"tile region {region_w}x{region_h}"
            )
        self.region_w = region_w
        self.region_h = region_h
        self.window_w = window_w
        self.window_h = window_h
        self.step_x = step_x
        self.step_y = step_y
        self.in_chunk_w = in_chunk_w
        self.in_chunk_h = in_chunk_h
        #: One stored chunk can complete several windows when chunks span
        #: multiple step positions; bound emissions for backpressure gating.
        self.max_emissions_per_firing = max(2, -(-in_chunk_w // step_x) + 1)
        #: Circular row store: two window-heights of rows (double buffering).
        self.storage_rows = 2 * window_h
        self._store = np.zeros((self.storage_rows, region_w), dtype=np.float64)
        self._lattice = _window_lattice(
            Size2D(region_w, region_h), Size2D(window_w, window_h),
            Step2D(step_x, step_y), Size2D(in_chunk_w, in_chunk_h))
        self._x = 0
        self._y = 0
        super().__init__(name)

    # ------------------------------------------------------------------
    def configure(self) -> None:
        self.add_input(
            "in", self.in_chunk_w, self.in_chunk_h, self.in_chunk_w, self.in_chunk_h
        )
        self.add_output("out", self.window_w, self.window_h)
        self.add_method(
            "store",
            inputs=["in"],
            outputs=["out"],
            cost=MethodCost(cycles=self.STORE_CYCLES),
        )
        self.add_method(
            "end_frame",
            on_token=("in", EndOfFrame),
            outputs=["out"],
            cost=MethodCost(cycles=2),
            forward_token=True,
        )

    @property
    def storage_words(self) -> int:
        """Words of row storage — the ``[W x 2h]`` box label of Figure 4."""
        return self.storage_rows * self.region_w

    def extra_state_words(self) -> int:
        return self.storage_words

    def describe_parameterization(self) -> str:
        """Paper-style label, e.g. ``(1x1)[1,1]-->(5x5)[1,1] [20x10]``."""
        return (
            f"({self.in_chunk_w}x{self.in_chunk_h})"
            f"[{self.in_chunk_w},{self.in_chunk_h}]-->"
            f"({self.window_w}x{self.window_h})[{self.step_x},{self.step_y}] "
            f"[{self.region_w}x{self.storage_rows}]"
        )

    # ------------------------------------------------------------------
    # Runtime behaviour
    # ------------------------------------------------------------------
    def store(self) -> None:
        chunk = self.read_input("in")
        ch, cw = chunk.shape
        x, y, tops, columns = self._advance(chunk.shape)
        rows = self.storage_rows
        if ch == 1:
            # Scan-order elements and row chunks land here.
            self._store[y % rows, x : x + cw] = chunk[0]
        else:
            for dy in range(ch):
                self._store[(y + dy) % rows, x : x + cw] = chunk[dy]
        if not columns:
            return
        h, w = self.window_h, self.window_w
        write = self.write_output
        for py in tops:
            r0 = py % rows
            if r0 + h <= rows:
                # Common case: the window's rows are physically contiguous
                # in the circular store, so one basic-slice view serves
                # every window of this row (copied per emission below).
                block = self._store[r0 : r0 + h]
            else:
                block = self._store[[(py + dy) % rows for dy in range(h)]]
            for px in columns:
                write("out", block[:, px : px + w].copy())

    def count_windows(self) -> int:
        """:meth:`store`'s positional body (:attr:`positional_bodies`):
        the same cursor, region check and window lattice, nothing stored
        and nothing copied — how many windows the chunk completes."""
        _, _, tops, columns = self._advance(self.read_input("in").shape)
        return len(tops) * len(columns)

    def _advance(self, shape: tuple[int, int]) -> tuple[int, int, range, range]:
        """The position half of :meth:`store`, shared by both its bodies.

        Checks that a chunk of ``shape`` is the declared chunk and fits
        the declared region, steps the fill cursor past it and returns
        ``(x, y, tops, columns)``: where the chunk lands, and the
        windows it completes (:class:`_Lattice`).
        """
        ch, cw = shape
        x, y = self._x, self._y
        lattice = self._lattice
        if shape != lattice.chunk:
            raise FiringError(
                f"{self.name}: expects {self.in_chunk_w}x{self.in_chunk_h} "
                f"chunks, got {cw}x{ch}"
            )
        if y + ch > self.region_h:
            raise FiringError(
                f"{self.name}: received more data than the declared "
                f"{self.region_w}x{self.region_h} region"
            )
        if x + cw < self.region_w:
            self._x = x + cw
        else:
            self._x = 0
            self._y = y + ch
        return x, y, lattice.tops[y], lattice.columns[x]

    def end_frame(self) -> None:
        """End-of-frame: rewind the fill position for the next frame."""
        self._x = 0
        self._y = 0

    def reset(self) -> None:
        super().reset()
        self._store = np.zeros((self.storage_rows, self.region_w), dtype=np.float64)
        self._x = 0
        self._y = 0

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        s = inputs["in"]
        if (s.extent.w, s.extent.h) != (self.region_w, self.region_h):
            raise AnalysisError(
                f"{self.name}: buffer sized for {self.region_w}x"
                f"{self.region_h} but stream region is {s.extent}"
            )
        window = Size2D(self.window_w, self.window_h)
        grid = iteration_grid(s.extent, window, Step2D(self.step_x, self.step_y))
        out = StreamInfo(
            region=s.region,
            chunk=window,
            rate_hz=s.rate_hz,
            chunks_per_frame=grid.elements,
            token_rates=dict(s.token_rates),
            windows_precut=True,
        )
        return TransferResult(
            outputs={"out": out},
            firings_per_second={
                "store": s.chunks_per_frame * s.rate_hz,
                "end_frame": s.rate_hz,
            },
        )
