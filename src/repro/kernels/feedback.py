"""Feedback support (Section III-D — a designed extension of the paper).

The paper sketches two modifications to support feedback: breaking loops in
the dataflow analysis with special feedback kernels, and letting the
programmer define initial values for the data held in a loop.  Both are
realized by :class:`InitialValueKernel`:

* ``breaks_cycle = True`` makes the graph's topological ordering (and the
  worklist dataflow analysis) ignore the kernel's incoming back edge;
* its ``init`` method emits the declared initial chunk(s) once at startup
  and thereafter it passes its input through unchanged, which is exactly
  the "outputs the initial values once and then passes on its input values"
  behaviour the paper describes.

Feedback loops are inherently serial — each iteration depends on the
previous one — so the kernel is not data parallel; applications should also
add a data-dependency edge around latency-critical loops so the
parallelizer keeps the loop body together (Section IV-B).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import GraphError
from ..geometry import Inset, Region, Size2D
from ..graph.kernel import Kernel, TransferResult
from ..graph.methods import MethodCost
from ..streams import StreamInfo

__all__ = ["InitialValueKernel"]


class InitialValueKernel(Kernel):
    """Breaks a feedback loop and provides its initial value.

    ``initial`` is the chunk emitted once at startup (its shape defines the
    loop's chunk extent); ``region_w``/``region_h``/``rate_hz`` declare the
    loop stream statically, since the dataflow analysis cannot derive them
    from an unbroken cycle.
    """

    data_parallel = False
    breaks_cycle = True
    timing_depends_on = "position"

    def __init__(
        self,
        name: str,
        initial: np.ndarray,
        *,
        region_w: int | None = None,
        region_h: int | None = None,
        rate_hz: float | None = None,
    ) -> None:
        arr = np.atleast_2d(np.asarray(initial, dtype=np.float64))
        if arr.ndim != 2:
            raise GraphError(f"feedback {name!r}: initial value must be 2-D")
        self.initial = arr
        ch, cw = arr.shape
        self.region_w = region_w if region_w is not None else cw
        self.region_h = region_h if region_h is not None else ch
        self.rate_hz = rate_hz
        super().__init__(name)

    def configure(self) -> None:
        ch, cw = self.initial.shape
        self.add_input("in", cw, ch, cw, ch)
        self.add_output("out", cw, ch)
        self.add_init_method("init", MethodCost(cycles=5, state_words=cw * ch))
        self.add_method(
            "passthrough", inputs=["in"], outputs=["out"],
            cost=MethodCost(cycles=2),
        )

    def init(self) -> None:
        """Prime the loop: emit the initial value once at startup."""
        self.write_output("out", self.initial.copy())

    def passthrough(self) -> None:
        self.write_output("out", self.read_input("in"))

    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        ch, cw = self.initial.shape
        if "in" in inputs:
            s = inputs["in"]
            out = StreamInfo(
                region=s.region,
                chunk=s.chunk,
                rate_hz=s.rate_hz,
                chunks_per_frame=s.chunks_per_frame,
                token_rates=dict(s.token_rates),
                share=s.share,
            )
            rate = s.chunks_per_frame * s.rate_hz
        else:
            # First worklist pass around the loop: fall back to the declared
            # stream so downstream kernels can be analyzed; a later pass
            # refines it once the back edge has been evaluated.
            if self.rate_hz is None:
                raise GraphError(
                    f"feedback {self.name!r}: declare rate_hz so the loop "
                    "can be analyzed before the back edge resolves"
                )
            out = StreamInfo(
                region=Region(Size2D(self.region_w, self.region_h), Inset(0, 0)),
                chunk=Size2D(cw, ch),
                rate_hz=self.rate_hz,
                chunks_per_frame=max(
                    1, (self.region_w * self.region_h) // (cw * ch)
                ),
            )
            rate = out.chunks_per_frame * out.rate_hz
        return TransferResult(
            outputs={"out": out},
            firings_per_second={"passthrough": float(rate)},
        )
