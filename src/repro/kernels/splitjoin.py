"""Split, join, and replicate kernels (Section IV, Figures 4 and 10).

These are the distribution/collection finite state machines the compiler
inserts around parallelized kernels:

* :class:`RoundRobinSplit` / :class:`RoundRobinJoin` — the simple-minded
  (but correct) data-parallel distribution of Section IV-A: chunk *i* goes
  to instance ``i mod n`` and results are collected in the same order.
* :class:`ColumnSplit` — the buffer-splitting FSM of Figure 10: elements
  route by column, with the window-overlap columns sent to *both*
  neighbouring parts so each split buffer can form its edge windows.
* :class:`CountedJoin` — collects a repeating pattern of chunk counts from
  its inputs; used to re-interleave the window streams of column-split
  buffers in scan order (so downstream kernels see the original order).
* :class:`ReplicateKernel` — broadcasts a stream; inserted in front of
  *replicated* inputs (coefficients, bin ranges) instead of a split
  (Figure 4's "Replicate" diamonds).

Control tokens are broadcast by splits and merged by joins: a token is
forwarded downstream once it has arrived on every join input, which is the
same rule the subtract kernel uses for its two data inputs (Section II-C).
All of these are regular kernels with declared costs, so the mapping and
simulation passes account for the resources they consume.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence


from ..errors import AnalysisError, GraphError
from ..geometry import Inset, Region, Size2D
from ..graph.kernel import Kernel, TransferResult
from ..graph.methods import MethodCost, MethodSpec
from ..streams import StreamInfo
from ..tokens import ControlToken, EndOfFrame

__all__ = [
    "RoundRobinSplit",
    "RoundRobinJoin",
    "ColumnSplit",
    "CountedJoin",
    "ReplicateKernel",
]

#: Cycles per routed chunk for the distribution FSMs.
ROUTE_CYCLES = 3


class RoundRobinSplit(Kernel):
    """Distribute chunks to ``n`` outputs in round-robin order."""

    data_parallel = False
    compiler_inserted = True
    forwards_all_line_tokens = True
    charges_element_io = False
    timing_depends_on = "position"

    def __init__(self, name: str, n: int, chunk_w: int = 1, chunk_h: int = 1) -> None:
        if n < 2:
            raise GraphError(f"split {name!r}: need at least 2 ways, got {n}")
        self.n = n
        self.chunk_w = chunk_w
        self.chunk_h = chunk_h
        self._next = 0
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("in", self.chunk_w, self.chunk_h, self.chunk_w, self.chunk_h)
        outs = []
        for i in range(self.n):
            self.add_output(f"out_{i}", self.chunk_w, self.chunk_h)
            outs.append(f"out_{i}")
        self.add_method(
            "route", inputs=["in"], outputs=outs, cost=MethodCost(cycles=ROUTE_CYCLES)
        )

    def route(self) -> None:
        chunk = self.read_input("in")
        self.write_output(f"out_{self._next}", chunk)
        self._next = (self._next + 1) % self.n

    def on_token_forwarded(self, method: MethodSpec, token: ControlToken) -> None:
        if isinstance(token, EndOfFrame):
            self._next = 0

    def reset(self) -> None:
        super().reset()
        self._next = 0

    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        s = inputs["in"]
        per_branch = s.share / self.n
        chunks = max(1, -(-s.chunks_per_frame // self.n))
        branch = StreamInfo(
            region=s.region,
            chunk=s.chunk,
            rate_hz=s.rate_hz,
            chunks_per_frame=chunks,
            token_rates=dict(s.token_rates),
            windows_precut=s.windows_precut,
            share=per_branch,
        )
        return TransferResult(
            outputs={f"out_{i}": branch for i in range(self.n)},
            firings_per_second={"route": float(s.chunks_per_frame) * s.rate_hz},
        )


class CountedJoin(Kernel):
    """Collect a repeating pattern of chunk counts from ``n`` inputs.

    ``counts[i]`` chunks are taken from input *i* per pattern cycle, in
    input order.  ``counts = [1] * n`` is round-robin collection; a
    column-split buffer pair uses the per-row window counts of the two
    parts so the merged stream is in scan order.
    """

    data_parallel = False
    compiler_inserted = True
    forwards_all_line_tokens = True
    charges_element_io = False
    timing_depends_on = "position"

    def __init__(
        self, name: str, counts: Sequence[int], chunk_w: int = 1, chunk_h: int = 1
    ) -> None:
        if len(counts) < 2 or any(c < 1 for c in counts):
            raise GraphError(f"join {name!r}: counts must be >= 1 per input")
        self.counts = tuple(int(c) for c in counts)
        self.n = len(self.counts)
        self.chunk_w = chunk_w
        self.chunk_h = chunk_h
        self._idx = 0       # which input we are collecting from
        self._taken = 0     # chunks taken from it this pattern cycle
        super().__init__(name)

    def configure(self) -> None:
        ins = []
        for i in range(self.n):
            self.add_input(f"in_{i}", self.chunk_w, self.chunk_h,
                           self.chunk_w, self.chunk_h)
            ins.append(f"in_{i}")
        self.add_output("out", self.chunk_w, self.chunk_h)
        self.add_method(
            "collect",
            inputs=ins,
            outputs=["out"],
            cost=MethodCost(cycles=ROUTE_CYCLES),
            selector="next_input",
        )

    def next_input(self) -> str:
        """The input the FSM expects next (pure; may be polled repeatedly)."""
        return f"in_{self._idx}"

    def collect(self) -> None:
        _, chunk = self.consumed_input()
        self.write_output("out", chunk)
        self._taken += 1
        if self._taken >= self.counts[self._idx]:
            self._taken = 0
            self._idx = (self._idx + 1) % self.n

    def on_token_forwarded(self, method: MethodSpec, token: ControlToken) -> None:
        if isinstance(token, EndOfFrame):
            self._idx = 0
            self._taken = 0

    def reset(self) -> None:
        super().reset()
        self._idx = 0
        self._taken = 0

    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        streams = [inputs[f"in_{i}"] for i in range(self.n)]
        rates = {s.rate_hz for s in streams}
        if len(rates) != 1:
            raise AnalysisError(f"{self.name}: joined streams have mixed rates")
        region = streams[0].region
        same_region = all(s.region == region for s in streams[1:])
        for s in streams[1:]:
            if s.region != region:
                region = region.union_bound(s.region)
        if same_region:
            # Round-robin branches of one logical stream: shares add up.
            # Token-driven per-instance outputs (parallel histograms each
            # emitting a partial per frame) carry share 1 apiece and are
            # purely chunk-counted downstream, so the share caps at 1.
            total_share = min(
                sum((s.share for s in streams), Fraction(0)), Fraction(1)
            )
        else:
            # Disjoint column-split parts: the merge covers the union once.
            total_share = max(s.share for s in streams)
        chunks = sum(s.chunks_per_frame for s in streams)
        token_rates: dict[str, int] = {}
        for s in streams:
            for tok, rate in s.token_rates.items():
                token_rates[tok] = max(token_rates.get(tok, 0), rate)
        out = StreamInfo(
            region=region,
            chunk=streams[0].chunk,
            rate_hz=streams[0].rate_hz,
            chunks_per_frame=chunks,
            token_rates=token_rates,
            windows_precut=all(s.windows_precut for s in streams),
            share=total_share,
        )
        return TransferResult(
            outputs={"out": out},
            firings_per_second={"collect": float(chunks) * streams[0].rate_hz},
        )


class RoundRobinJoin(CountedJoin):
    """Collect one chunk from each input in turn (Section IV-A)."""

    def __init__(self, name: str, n: int, chunk_w: int = 1, chunk_h: int = 1) -> None:
        super().__init__(name, [1] * n, chunk_w, chunk_h)


class ColumnSplit(Kernel):
    """Column-wise splitter with overlap replication (Figure 10).

    ``ranges`` are inclusive input-column intervals, one per output;
    neighbouring intervals overlap by the window halo so each split buffer
    receives the shared columns it needs ("2 samples for each line are sent
    to both buffers" in the Figure 10 FSM).  Position is tracked by
    counting; end-of-frame rewinds it.
    """

    data_parallel = False
    compiler_inserted = True
    forwards_all_line_tokens = True
    charges_element_io = False
    timing_depends_on = "position"

    def __init__(
        self,
        name: str,
        *,
        region_w: int,
        region_h: int,
        ranges: Sequence[tuple[int, int]],
    ) -> None:
        if len(ranges) < 2:
            raise GraphError(f"column split {name!r}: need at least 2 ranges")
        for lo, hi in ranges:
            if not (0 <= lo <= hi < region_w):
                raise GraphError(
                    f"column split {name!r}: range ({lo},{hi}) outside region "
                    f"width {region_w}"
                )
        if ranges[0][0] != 0 or ranges[-1][1] != region_w - 1:
            raise GraphError(
                f"column split {name!r}: ranges must cover the full region"
            )
        for (_, hi_a), (lo_b, _) in zip(ranges, ranges[1:]):
            if lo_b > hi_a + 1:
                raise GraphError(
                    f"column split {name!r}: gap between ranges at column {hi_a}"
                )
        self.region_w = region_w
        self.region_h = region_h
        self.ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
        self.n = len(self.ranges)
        self._x = 0
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("in", 1, 1, 1, 1)
        outs = []
        for i in range(self.n):
            self.add_output(f"out_{i}", 1, 1)
            outs.append(f"out_{i}")
        self.add_method(
            "route", inputs=["in"], outputs=outs,
            cost=MethodCost(cycles=ROUTE_CYCLES),
        )

    def route(self) -> None:
        chunk = self.read_input("in")
        x = self._x
        for i, (lo, hi) in enumerate(self.ranges):
            if lo <= x <= hi:
                self.write_output(f"out_{i}", chunk)
        self._x = (x + 1) % self.region_w

    def on_token_forwarded(self, method: MethodSpec, token: ControlToken) -> None:
        if isinstance(token, EndOfFrame):
            self._x = 0

    def reset(self) -> None:
        super().reset()
        self._x = 0

    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        s = inputs["in"]
        if s.extent.w != self.region_w or s.extent.h != self.region_h:
            raise AnalysisError(
                f"{self.name}: split built for {self.region_w}x{self.region_h} "
                f"but stream region is {s.extent}"
            )
        if s.chunk != Size2D(1, 1):
            raise AnalysisError(f"{self.name}: column splits expect 1x1 chunks")
        outputs: dict[str, StreamInfo] = {}
        for i, (lo, hi) in enumerate(self.ranges):
            width = hi - lo + 1
            outputs[f"out_{i}"] = StreamInfo(
                region=Region(
                    Size2D(width, self.region_h),
                    Inset(s.inset.x + lo, s.inset.y),
                ),
                chunk=Size2D(1, 1),
                rate_hz=s.rate_hz,
                chunks_per_frame=width * self.region_h,
                token_rates=dict(s.token_rates),
            )
        return TransferResult(
            outputs=outputs,
            firings_per_second={"route": float(s.chunks_per_frame) * s.rate_hz},
        )


class ReplicateKernel(Kernel):
    """Broadcast every chunk (and token) to all outputs.

    Inserted in front of replicated inputs when their consumer is
    parallelized, so each instance receives identical coefficient or bin
    data (dashed edges in Figure 4).
    """

    data_parallel = False
    compiler_inserted = True
    forwards_all_line_tokens = True
    charges_element_io = False
    timing_depends_on = "position"

    def __init__(self, name: str, n: int, chunk_w: int, chunk_h: int) -> None:
        if n < 2:
            raise GraphError(f"replicate {name!r}: need at least 2 ways")
        self.n = n
        self.chunk_w = chunk_w
        self.chunk_h = chunk_h
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("in", self.chunk_w, self.chunk_h, self.chunk_w, self.chunk_h)
        outs = []
        for i in range(self.n):
            self.add_output(f"out_{i}", self.chunk_w, self.chunk_h)
            outs.append(f"out_{i}")
        self.add_method(
            "broadcast", inputs=["in"], outputs=outs,
            cost=MethodCost(cycles=ROUTE_CYCLES),
        )

    def broadcast(self) -> None:
        chunk = self.read_input("in")
        for i in range(self.n):
            self.write_output(f"out_{i}", chunk)

    def transfer(self, inputs: Mapping[str, StreamInfo]) -> TransferResult:
        s = inputs["in"]
        return TransferResult(
            outputs={f"out_{i}": s for i in range(self.n)},
            firings_per_second={
                "broadcast": float(s.chunks_per_frame) * s.rate_hz
            },
        )
