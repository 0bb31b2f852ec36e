"""Elementwise kernels: subtract, add, absolute difference, scale, threshold.

The subtract kernel of Figure 1 is the canonical multi-input elementwise
kernel: both inputs are ``(1x1)[1,1]`` with offset ``[0,0]`` and one method
triggers on data arriving on *both*.  Control tokens reaching both inputs
are forwarded once to the output (Section II-C's two-input rule).
"""

from __future__ import annotations

import numpy as np

from ..graph.kernel import Kernel
from ..graph.methods import MethodCost

__all__ = [
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


class BinaryElementwiseKernel(Kernel):
    """Base for two-input, one-output per-element kernels."""

    #: Per-iteration compute cost; cheap ALU work.
    cycles: int = 5
    timing_depends_on = "declared"

    def configure(self) -> None:
        self.add_input("in0", 1, 1, 1, 1, 0, 0)
        self.add_input("in1", 1, 1, 1, 1, 0, 0)
        self.add_output("out", 1, 1)
        self.add_method(
            "run",
            inputs=["in0", "in1"],
            outputs=["out"],
            cost=MethodCost(cycles=self.cycles),
        )

    def compute(self, a: float, b: float) -> float:
        raise NotImplementedError

    def compute_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`compute` over value vectors; bit-identical."""
        raise NotImplementedError

    def run(self) -> None:
        a = float(self.read_input("in0")[0, 0])
        b = float(self.read_input("in1")[0, 0])
        self.write_output("out", np.array([[self.compute(a, b)]]))

    def batch_accepts(self, method: str, others: frozenset[str]) -> bool:
        # Stateless: forwards only touch token bookkeeping, never the math.
        return (
            method == "run"
            and others <= {"<forward>"}
            and type(self).compute_batch is not BinaryElementwiseKernel.compute_batch
        )

    def batched_apply(self, method, inputs):
        n = len(inputs["in0"])
        a = np.stack(inputs["in0"]).reshape(n)
        b = np.stack(inputs["in1"]).reshape(n)
        out = self.compute_batch(a, b).reshape(n, 1, 1)
        return [[("out", out[i])] for i in range(n)], None


class SubtractKernel(BinaryElementwiseKernel):
    """Per-pixel difference ``in0 - in1`` (Figure 1's Subtract)."""

    def compute(self, a: float, b: float) -> float:
        return a - b

    def compute_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a - b


class AddKernel(BinaryElementwiseKernel):
    """Per-pixel sum ``in0 + in1``."""

    def compute(self, a: float, b: float) -> float:
        return a + b

    def compute_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b


class AbsDiffKernel(BinaryElementwiseKernel):
    """Per-pixel absolute difference ``|in0 - in1|``."""

    def compute(self, a: float, b: float) -> float:
        return abs(a - b)

    def compute_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(a - b)


class MultiplyKernel(BinaryElementwiseKernel):
    """Per-pixel product ``in0 * in1``."""

    def compute(self, a: float, b: float) -> float:
        return a * b

    def compute_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b


class UnaryElementwiseKernel(Kernel):
    """Base for one-input, one-output per-element kernels."""

    cycles: int = 4
    timing_depends_on = "declared"

    def configure(self) -> None:
        self.add_input("in", 1, 1, 1, 1, 0, 0)
        self.add_output("out", 1, 1)
        self.add_method(
            "run", inputs=["in"], outputs=["out"], cost=MethodCost(cycles=self.cycles)
        )

    def compute(self, value: float) -> float:
        raise NotImplementedError

    def compute_batch(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`compute` over a value vector; bit-identical."""
        raise NotImplementedError

    def run(self) -> None:
        value = float(self.read_input("in")[0, 0])
        self.write_output("out", np.array([[self.compute(value)]]))

    def batch_accepts(self, method: str, others: frozenset[str]) -> bool:
        return (
            method == "run"
            and others <= {"<forward>"}
            and type(self).compute_batch is not UnaryElementwiseKernel.compute_batch
        )

    def batched_apply(self, method, inputs):
        n = len(inputs["in"])
        values = np.stack(inputs["in"]).reshape(n)
        out = self.compute_batch(values).reshape(n, 1, 1)
        return [[("out", out[i])] for i in range(n)], None


class ScaleKernel(UnaryElementwiseKernel):
    """Affine per-pixel transform ``gain * x + bias``."""

    def __init__(self, name: str, gain: float = 1.0, bias: float = 0.0) -> None:
        self.gain = gain
        self.bias = bias
        super().__init__(name)

    def compute(self, value: float) -> float:
        return self.gain * value + self.bias

    def compute_batch(self, values: np.ndarray) -> np.ndarray:
        return self.gain * values + self.bias


class ThresholdKernel(UnaryElementwiseKernel):
    """Binary threshold: 1.0 where ``x >= level`` else 0.0."""

    def __init__(self, name: str, level: float) -> None:
        self.level = level
        super().__init__(name)

    def compute(self, value: float) -> float:
        return 1.0 if value >= self.level else 0.0

    def compute_batch(self, values: np.ndarray) -> np.ndarray:
        return (values >= self.level).astype(np.float64)


class IdentityKernel(UnaryElementwiseKernel):
    """Pass-through; useful as a pipeline stage anchor for dependency edges."""

    cycles = 1

    def compute(self, value: float) -> float:
        return value

    def compute_batch(self, values: np.ndarray) -> np.ndarray:
        return values
