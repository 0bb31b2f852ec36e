"""Variable-work kernels (Section VII's future-work extension).

The paper's canonical example is a motion-vector search "where the number
of motion vectors, the data required to process them, and the processing
time per motion vector vary from frame to frame", and its prescription is
"bounds on real-time processing requirements and runtime exceptions to
indicate when a kernel has exceeded its allocated resources".

:class:`VariableWorkKernel` realizes that contract: the constructor
declares a *bound* (the static ``MethodCost`` the compiler plans with) and
the body reports its actual data-dependent cost via
``self.charge_cycles(...)``.  The simulator records a
:class:`~repro.sim.BudgetOverrun` whenever an actual exceeds the bound —
the "runtime exception" — while charging the actual time, so the
throughput verdict shows the real-time consequences of an undersized
bound.

:class:`BlockMatchKernel` is a concrete miniature of the motion-search
scenario: per window it scans candidate offsets until a match cost drops
below a threshold, so busy frames genuinely cost more cycles.
"""

from __future__ import annotations

import numpy as np

from ..errors import ResourceError
from ..graph.kernel import Kernel
from ..graph.methods import MethodCost

__all__ = ["VariableWorkKernel", "BlockMatchKernel"]


class VariableWorkKernel(Kernel):
    """Base class for kernels with data-dependent per-firing cost.

    Subclasses implement :meth:`work`, returning ``(value, cycles)`` for
    each input window; the base registers a single windowed method whose
    declared cost is the ``bound_cycles`` budget.
    """

    timing_depends_on = "values"

    def __init__(
        self, name: str, width: int, height: int, *, bound_cycles: int
    ) -> None:
        if bound_cycles <= 0:
            raise ResourceError(f"{name}: bound_cycles must be positive")
        self.width = width
        self.height = height
        self.bound_cycles = bound_cycles
        super().__init__(name)

    def configure(self) -> None:
        self.add_input(
            "in", self.width, self.height, 1, 1,
            self.width // 2, self.height // 2,
        )
        self.add_output("out", 1, 1)
        self.add_method(
            "run", inputs=["in"], outputs=["out"],
            cost=MethodCost(cycles=self.bound_cycles),
        )

    def work(self, window: np.ndarray) -> tuple[float, float]:
        """Return (result value, actual cycles consumed)."""
        raise NotImplementedError

    def run(self) -> None:
        window = self.read_input("in")
        value, cycles = self.work(window)
        self.charge_cycles(cycles)
        self.write_output("out", np.array([[value]]))


class BlockMatchKernel(VariableWorkKernel):
    """A miniature motion-search: scan offsets until the residual is small.

    Within each ``width x height`` window the kernel compares the centre
    column against each other column in turn (a 1-D "search range") and
    stops at the first whose mean absolute difference falls below
    ``threshold``; the reported value is the matching offset and the cost
    is ``cycles_per_candidate`` per column examined.  Smooth regions match
    immediately (cheap); busy regions scan everything (expensive).
    """

    def __init__(
        self,
        name: str,
        width: int = 5,
        height: int = 5,
        *,
        threshold: float = 4.0,
        cycles_per_candidate: int = 40,
        bound_candidates: int | None = None,
    ) -> None:
        self.threshold = threshold
        self.cycles_per_candidate = cycles_per_candidate
        candidates = width - 1
        bounded = (
            bound_candidates if bound_candidates is not None else candidates
        )
        super().__init__(
            name, width, height,
            bound_cycles=10 + cycles_per_candidate * max(bounded, 1),
        )

    def work(self, window: np.ndarray) -> tuple[float, float]:
        centre = window[:, self.width // 2]
        examined = 0
        best = 0.0
        for dx in range(self.width):
            if dx == self.width // 2:
                continue
            examined += 1
            cost = float(np.mean(np.abs(window[:, dx] - centre)))
            if cost < self.threshold:
                best = float(dx - self.width // 2)
                break
        return best, 10 + self.cycles_per_candidate * max(examined, 1)
