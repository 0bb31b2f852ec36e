"""Elementwise kernels: subtract, add, absolute difference, scale, threshold.

The subtract kernel of Figure 1 is the canonical multi-input elementwise
kernel: both inputs are ``(1x1)[1,1]`` with offset ``[0,0]`` and one method
triggers on data arriving on *both*.  Control tokens reaching both inputs
are forwarded once to the output (Section II-C's two-input rule).

Every kernel here, and every windowed filter built on
:class:`~repro.kernels.filters.WindowedKernel`, states its math once, as
:meth:`ComputeKernel.compute`; the per-firing body is derived from it.
"""

from __future__ import annotations

import numpy as np

from ..graph.kernel import Kernel
from ..graph.methods import MethodCost

__all__ = [
    "ComputeKernel",
    "BinaryElementwiseKernel",
    "SubtractKernel",
    "AddKernel",
    "AbsDiffKernel",
    "MultiplyKernel",
    "UnaryElementwiseKernel",
    "ScaleKernel",
    "ThresholdKernel",
    "IdentityKernel",
]


class ComputeKernel(Kernel):
    """Shape base: one data method maps its inputs to a ``1x1`` output.

    A subclass declares the shape — ``operands`` (the inputs, in
    :meth:`compute`'s argument order), their ``width`` x ``height``
    window, ``cycles`` and the method name ``body`` — and the math, as
    :meth:`compute`.  ``compute`` is called once per firing, with a float
    per input, or with each window flattened to ``(h*w,)`` when
    ``windowed``, and returns one number; the per-firing body ``run``
    writes it as the ``1x1`` output.
    """

    timing_depends_on = "declared"
    body = "run"
    operands: tuple[str, ...] = ("in",)
    width = height = 1
    windowed = False
    cycles: int

    def configure(self) -> None:
        w, h = self.width, self.height
        for port in self.operands:
            self.add_input(port, w, h, 1, 1, w // 2, h // 2)
        self.add_output("out", 1, 1)
        self.add_method(
            self.body,
            inputs=list(self.operands),
            outputs=["out"],
            cost=MethodCost(cycles=self.cycles),
        )

    def compute(self, *operands):
        raise NotImplementedError

    def run(self) -> None:
        # ravel() and item() are the cheapest flatten and float for a
        # contiguous window and a 1x1 chunk.
        if self.windowed:
            args = [self.read_input(port).ravel() for port in self.operands]
        else:
            args = [self.read_input(port).item() for port in self.operands]
        self.write_output("out", np.array([[self.compute(*args)]]))


class BinaryElementwiseKernel(ComputeKernel):
    """Base for two-input, one-output per-element kernels."""

    #: Per-iteration compute cost; cheap ALU work.
    cycles = 5
    operands = ("in0", "in1")


class SubtractKernel(BinaryElementwiseKernel):
    """Per-pixel difference ``in0 - in1`` (Figure 1's Subtract)."""

    def compute(self, a, b):
        return a - b


class AddKernel(BinaryElementwiseKernel):
    """Per-pixel sum ``in0 + in1``."""

    def compute(self, a, b):
        return a + b


class AbsDiffKernel(BinaryElementwiseKernel):
    """Per-pixel absolute difference ``|in0 - in1|``."""

    def compute(self, a, b):
        return abs(a - b)


class MultiplyKernel(BinaryElementwiseKernel):
    """Per-pixel product ``in0 * in1``."""

    def compute(self, a, b):
        return a * b


class UnaryElementwiseKernel(ComputeKernel):
    """Base for one-input, one-output per-element kernels."""

    cycles = 4


class ScaleKernel(UnaryElementwiseKernel):
    """Affine per-pixel transform ``gain * x + bias``."""

    def __init__(self, name: str, gain: float = 1.0, bias: float = 0.0) -> None:
        self.gain = gain
        self.bias = bias
        super().__init__(name)

    def compute(self, value):
        return self.gain * value + self.bias


class ThresholdKernel(UnaryElementwiseKernel):
    """Binary threshold: 1.0 where ``x >= level`` else 0.0."""

    def __init__(self, name: str, level: float) -> None:
        self.level = level
        super().__init__(name)

    def compute(self, value):
        return (value >= self.level) * 1.0


class IdentityKernel(UnaryElementwiseKernel):
    """Pass-through; useful as a pipeline stage anchor for dependency edges."""

    cycles = 1

    def compute(self, value):
        return value
