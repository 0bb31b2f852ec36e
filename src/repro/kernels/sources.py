"""Application boundary kernels: inputs, outputs, and constant sources.

Application inputs define the real-time constraints of the whole program
(Section II-A): each declares a frame size and rate, delivers data one
element at a time in scan-line order, and automatically interleaves
end-of-line and end-of-frame control tokens with the data (Section II-C).

Constant sources model the auxiliary inputs of the example application —
the "5x5 Coeff" and "Hist Bins" nodes of Figure 2 — which emit a fixed
array as one chunk per (typically very slow) frame and are wired to
*replicated* kernel inputs.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..errors import GraphError
from ..geometry import Inset, Region, Size2D
from ..graph.kernel import Kernel, TransferResult
from ..graph.methods import MethodCost
from ..streams import StreamInfo, default_tokens

__all__ = ["ApplicationInput", "ApplicationOutput", "ConstantSource"]


class ApplicationInput(Kernel):
    """A real-time data input delivering ``width x height`` frames at
    ``rate_hz`` frames per second, one element per emission.

    The element rate — ``width * height * rate_hz`` elements per second —
    is the hard real-time constraint the compiled application must sustain;
    the simulator flags a :class:`~repro.errors.RealTimeViolation` if the
    first consumer cannot keep up (the input cannot be stalled).

    ``pattern`` supplies the frame contents: a callable ``(frame) ->
    ndarray(h, w)`` or a fixed array; the default is a deterministic ramp so
    functional outputs are reproducible.
    """

    data_parallel = False
    timing_depends_on = "position"

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        rate_hz: float,
        pattern: np.ndarray | Callable[[int], np.ndarray] | None = None,
    ) -> None:
        if rate_hz <= 0:
            raise GraphError(f"input {name!r}: rate must be positive")
        self.width = width
        self.height = height
        self.rate_hz = float(rate_hz)
        self._pattern = pattern
        super().__init__(name)

    def configure(self) -> None:
        self.add_output("out", 1, 1)
        self.add_method("emit", outputs=["out"], source=True,
                        cost=MethodCost(cycles=0))

    @property
    def frame_size(self) -> Size2D:
        return Size2D(self.width, self.height)

    @property
    def elements_per_second(self) -> float:
        """The element arrival rate defining the real-time constraint."""
        return self.width * self.height * self.rate_hz

    @property
    def element_period(self) -> float:
        return 1.0 / self.elements_per_second

    def frame(self, index: int) -> np.ndarray:
        """The contents of frame ``index`` as an ``(h, w)`` array."""
        if callable(self._pattern):
            arr = np.asarray(self._pattern(index), dtype=np.float64)
        elif self._pattern is not None:
            arr = np.asarray(self._pattern, dtype=np.float64)
        else:
            base = np.arange(self.width * self.height, dtype=np.float64)
            arr = (base.reshape(self.height, self.width) + 100.0 * index)
        if arr.shape != (self.height, self.width):
            raise GraphError(
                f"input {self.name!r}: pattern shape {arr.shape} does not "
                f"match declared frame {(self.height, self.width)}"
            )
        return arr

    def emit(self) -> None:  # pragma: no cover - driven directly by runtimes
        """Placeholder body; the runtime generates source traffic itself."""

    def serialize_extra(self) -> dict:
        from ..errors import GraphError

        if callable(self._pattern):
            raise GraphError(
                f"input {self.name!r}: procedural frame patterns (callables)"
                " cannot be serialized; use a fixed array pattern"
            )
        if self._pattern is None:
            return {}
        return {"pattern": np.asarray(self._pattern, dtype=np.float64)}

    def apply_serialized_extra(self, extra) -> None:
        if "pattern" in extra:
            self._pattern = np.asarray(extra["pattern"], dtype=np.float64)

    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        stream = StreamInfo(
            region=Region(self.frame_size, Inset(0, 0)),
            chunk=Size2D(1, 1),
            rate_hz=self.rate_hz,
            chunks_per_frame=self.width * self.height,
            token_rates=dict(default_tokens(self.height)),
        )
        return TransferResult(
            outputs={"out": stream},
            firings_per_second={"emit": self.elements_per_second},
        )


class ConstantSource(Kernel):
    """Emits a fixed 2-D array as a single chunk, ``rate_hz`` times a second.

    Models coefficient and bin-range sources (Figure 2's "5x5 Coeff" and
    "Hist Bins").  Because consumers declare those inputs *replicated*, the
    parallelize transform inserts a Replicate kernel — never a Split — after
    a constant source (Figure 4).
    """

    data_parallel = False
    timing_depends_on = "position"

    def __init__(self, name: str, values: np.ndarray, rate_hz: float = 1.0) -> None:
        arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if arr.ndim != 2:
            raise GraphError(f"source {name!r}: values must be 2-D")
        self.values = arr
        self.rate_hz = float(rate_hz)
        super().__init__(name)

    def configure(self) -> None:
        h, w = self.values.shape
        self.add_output("out", w, h)
        self.add_method("emit", outputs=["out"], source=True,
                        cost=MethodCost(cycles=0))

    def emit(self) -> None:  # pragma: no cover - driven directly by runtimes
        """Placeholder body; the runtime generates source traffic itself."""

    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        h, w = self.values.shape
        stream = StreamInfo(
            region=Region(Size2D(w, h), Inset(0, 0)),
            chunk=Size2D(w, h),
            rate_hz=self.rate_hz,
            chunks_per_frame=1,
        )
        return TransferResult(
            outputs={"out": stream},
            firings_per_second={"emit": self.rate_hz},
        )


class ApplicationOutput(Kernel):
    """A sink recording everything that reaches it.

    ``width``/``height`` declare the expected chunk extent (the histogram
    merge emits 32x1 chunks, plain pixel pipelines 1x1).  The simulator
    timestamps arrivals, which is how frame completion times — and hence
    real-time verdicts — are measured.
    """

    data_parallel = False
    timing_depends_on = "position"

    def __init__(self, name: str, width: int = 1, height: int = 1) -> None:
        self.width = width
        self.height = height
        self.received: list[np.ndarray] = []
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("in", self.width, self.height, self.width, self.height)
        self.add_method("record", inputs=["in"], cost=MethodCost(cycles=0))

    def record(self) -> None:
        self.received.append(self.read_input("in").copy())

    def reset(self) -> None:
        super().reset()
        self.received = []

    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        s = inputs.get("in")
        firings = s.chunks_per_frame * s.rate_hz if s is not None else 0.0
        return TransferResult(outputs={}, firings_per_second={"record": firings})
