"""Bayer demosaicing kernels (benchmark 1/1F of Figure 13).

A Bayer sensor delivers one colour sample per pixel in an RGGB mosaic; the
demosaic kernel reconstructs full-colour pixels.  We model the common
bilinear quad demosaic: each ``2x2`` RGGB quad produces one RGB pixel, so
the kernel's input is ``(2x2)[2,2]`` (no reuse, zero halo) and it has three
1x1 outputs — a natural example of a multi-output kernel, which StreamIt's
single-output restriction cannot express directly (Section VI).
"""

from __future__ import annotations

import numpy as np

from ..graph.kernel import Kernel
from ..graph.methods import MethodCost

__all__ = ["BayerDemosaicKernel", "LuminanceKernel"]


class BayerDemosaicKernel(Kernel):
    """RGGB quad demosaic: ``(2x2)[2,2]`` in, three ``1x1`` colour outputs."""

    timing_depends_on = "declared"

    def __init__(self, name: str) -> None:
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("in", 2, 2, 2, 2, 0, 0)
        self.add_output("r", 1, 1)
        self.add_output("g", 1, 1)
        self.add_output("b", 1, 1)
        self.add_method(
            "demosaic",
            inputs=["in"],
            outputs=["r", "g", "b"],
            cost=MethodCost(cycles=24),
        )

    def demosaic(self) -> None:
        quad = self.read_input("in")
        r = quad[0, 0]
        g = 0.5 * (quad[0, 1] + quad[1, 0])
        b = quad[1, 1]
        self.write_output("r", np.array([[r]]))
        self.write_output("g", np.array([[g]]))
        self.write_output("b", np.array([[b]]))


class LuminanceKernel(Kernel):
    """Rec.601 luma from three colour planes: ``0.299R + 0.587G + 0.114B``.

    Used by the Bayer benchmark to fold the demosaiced planes back into a
    single stream feeding the application output.
    """

    timing_depends_on = "declared"

    def __init__(self, name: str) -> None:
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("r", 1, 1, 1, 1, 0, 0)
        self.add_input("g", 1, 1, 1, 1, 0, 0)
        self.add_input("b", 1, 1, 1, 1, 0, 0)
        self.add_output("out", 1, 1)
        self.add_method(
            "combine",
            inputs=["r", "g", "b"],
            outputs=["out"],
            cost=MethodCost(cycles=12),
        )

    def combine(self) -> None:
        r = float(self.read_input("r")[0, 0])
        g = float(self.read_input("g")[0, 0])
        b = float(self.read_input("b")[0, 0])
        self.write_output("out", np.array([[0.299 * r + 0.587 * g + 0.114 * b]]))
