"""Downsampling kernel — the fractional-offset case (paper footnote 2).

A ``factor x factor`` box downsampler consumes non-overlapping windows and
emits one element each.  The logical position of that element relative to
the window's upper-left corner is ``(factor-1)/2`` — fractional for even
factors — which is why the language stores offsets as exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..errors import GraphError
from ..graph.kernel import Kernel
from ..graph.methods import MethodCost

__all__ = ["DownsampleKernel"]


class DownsampleKernel(Kernel):
    """Box-average ``factor:1`` downsampler with fractional output offset."""

    timing_depends_on = "declared"

    def __init__(self, name: str, factor: int = 2) -> None:
        if factor < 2:
            raise GraphError(f"downsample {name!r}: factor must be >= 2")
        self.factor = factor
        super().__init__(name)

    def configure(self) -> None:
        f = self.factor
        centre = Fraction(f - 1, 2)
        self.add_input("in", f, f, f, f, centre, centre)
        self.add_output("out", 1, 1)
        self.add_method(
            "run", inputs=["in"], outputs=["out"],
            cost=MethodCost(cycles=5 + 2 * f * f),
        )

    def run(self) -> None:
        window = self.read_input("in")
        self.write_output("out", np.array([[float(window.mean())]]))
