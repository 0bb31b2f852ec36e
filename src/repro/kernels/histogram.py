"""Histogram kernels (Figure 7) and the serial merge of Figure 1(b).

The histogram demonstrates the control-token machinery: ``count`` fires on
each data element, ``finish_count`` fires on the end-of-frame token arriving
on the *same* input, dumps the bin counts to the output, resets, and
forwards the token so the downstream merge kernel can detect the frame
boundary in turn.  The two methods communicate through private state (the
bin counts), which is exactly the separation of control and data processing
the paper advertises.

The merge kernel is the serial portion of the manually split histogram: it
accumulates partial histograms from the parallel instances and emits one
combined histogram per frame.  It is *not* data parallel; the application
marks that with a data-dependency edge from the input (Section IV-B).
"""

from __future__ import annotations

import numpy as np

from ..graph.kernel import Kernel
from ..graph.methods import MethodCost
from ..tokens import EndOfFrame

__all__ = ["HistogramKernel", "HistogramMergeKernel", "default_bin_edges"]


def default_bin_edges(bins: int, lo: float = 0.0, hi: float = 256.0) -> np.ndarray:
    """Evenly spaced upper bin edges over ``[lo, hi)``."""
    return lo + (hi - lo) * (np.arange(1, bins + 1, dtype=np.float64) / bins)


class HistogramKernel(Kernel):
    """Per-element histogram with end-of-frame flush (Figure 7).

    Ports: "in" ``(1x1)[1,1]``; "bins" ``(bins x 1)[bins,1]`` replicated
    (bin upper edges, reloadable like convolution coefficients); "out"
    ``(bins x 1)`` written once per frame by ``finish_count``.

    Costs follow Figure 7: init ``2*bins + 3`` cycles (clearing the bins),
    count ``bins/2 + 5`` (average linear search reaches halfway),
    finish_count ``3*bins + 3`` (dump and reset).
    """

    timing_depends_on = "declared"

    def __init__(
        self,
        name: str,
        bins: int = 32,
        *,
        lo: float = 0.0,
        hi: float = 256.0,
        with_bins_input: bool = True,
    ) -> None:
        self.bins = bins
        self._with_bins_input = with_bins_input
        self.bin_edges = default_bin_edges(bins, lo, hi)
        self.counts = np.zeros(bins, dtype=np.float64)
        super().__init__(name)

    def configure(self) -> None:
        b = self.bins
        self.add_input("in", 1, 1, 1, 1, 0, 0)
        self.add_output("out", b, 1)
        self.add_init_method("init", MethodCost(cycles=2 * b + 3, state_words=b))
        self.add_method(
            "count", inputs=["in"], cost=MethodCost(cycles=b // 2 + 5)
        )
        self.add_method(
            "finish_count",
            on_token=("in", EndOfFrame),
            outputs=["out"],
            cost=MethodCost(cycles=3 * b + 3),
            forward_token=True,
        )
        if self._with_bins_input:
            self.add_input("bins", b, 1, b, 1, 0, 0, replicated=True)
            self.add_method(
                "configure_bins",
                inputs=["bins"],
                cost=MethodCost(cycles=2 * b + 5, state_words=b),
            )

    def init(self) -> None:
        self.counts[:] = 0.0

    def find_bin(self, value: float) -> int:
        """Index of the first bin whose upper edge exceeds ``value``.

        Out-of-range values clamp into the end bins, as a fixed-function
        histogram unit would.
        """
        idx = int(np.searchsorted(self.bin_edges, value, side="right"))
        return min(idx, self.bins - 1)

    def count(self) -> None:
        value = float(self.read_input("in")[0, 0])
        self.counts[self.find_bin(value)] += 1.0

    def finish_count(self) -> None:
        self.write_output("out", self.counts.reshape(1, self.bins).copy())
        self.counts[:] = 0.0

    def configure_bins(self) -> None:
        self.bin_edges = self.read_input("bins").ravel().copy()
        self.counts[:] = 0.0

    def reset(self) -> None:
        super().reset()
        self.counts = np.zeros(self.bins, dtype=np.float64)


class HistogramMergeKernel(Kernel):
    """Serial reduction of partial histograms — once per frame.

    Accumulates every partial histogram chunk that arrives during a frame
    and emits the combined histogram when the (forwarded) end-of-frame
    token is seen.  Limited parallelism is expressed at the application
    level with a data-dependency edge from the application input to this
    kernel (Figure 1(b)), capping it at one instance per input frame.
    """

    data_parallel = False
    timing_depends_on = "declared"

    def __init__(self, name: str, bins: int = 32) -> None:
        self.bins = bins
        self.total = np.zeros(bins, dtype=np.float64)
        super().__init__(name)

    def configure(self) -> None:
        b = self.bins
        self.add_input("in", b, 1, b, 1, 0, 0)
        self.add_output("out", b, 1)
        self.add_method(
            "accumulate", inputs=["in"], cost=MethodCost(cycles=2 * b + 5,
                                                         state_words=b)
        )
        self.add_method(
            "finish",
            on_token=("in", EndOfFrame),
            outputs=["out"],
            cost=MethodCost(cycles=3 * b + 3),
            forward_token=True,
        )

    def accumulate(self) -> None:
        self.total += self.read_input("in").ravel()

    def finish(self) -> None:
        self.write_output("out", self.total.reshape(1, self.bins).copy())
        self.total[:] = 0.0

    def reset(self) -> None:
        super().reset()
        self.total = np.zeros(self.bins, dtype=np.float64)
