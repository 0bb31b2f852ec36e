"""Windowed image-processing kernels: convolution, median, Sobel, Gaussian.

These are the workhorses of the paper's example applications (Figures 1-4).
All follow the same pattern: a ``(w x h)`` windowed input stepping ``(1,1)``
with offset ``(w//2, h//2)`` — so each output lands at the centre of its
window — and a ``1x1`` output.  The convolution additionally demonstrates
multiple methods sharing private kernel state: ``load_coeff`` runs when new
coefficients arrive on the *replicated* "coeff" input and ``run_convolve``
uses them on subsequent data firings (Figure 6).
"""

from __future__ import annotations

import numpy as np

from ..errors import FiringError
from ..graph.kernel import Kernel
from ..graph.methods import MethodCost

__all__ = [
    "WindowedKernel",
    "ConvolutionKernel",
    "MedianKernel",
    "SobelKernel",
    "GaussianKernel",
]


class WindowedKernel(Kernel):
    """Base class for ``(w x h) -> 1x1`` sliding-window kernels.

    Subclasses set ``cycles`` (per-iteration compute cost) before calling
    ``super().__init__`` and implement :meth:`compute` mapping the window
    array to a scalar.
    """

    timing_depends_on = "declared"

    def __init__(self, name: str, width: int, height: int, cycles: int) -> None:
        self.width = width
        self.height = height
        self.cycles = cycles
        super().__init__(name)

    def configure(self) -> None:
        self.add_input(
            "in", self.width, self.height, 1, 1, self.width // 2, self.height // 2
        )
        self.add_output("out", 1, 1)
        self.add_method(
            "run", inputs=["in"], outputs=["out"], cost=MethodCost(cycles=self.cycles)
        )

    def compute(self, window: np.ndarray) -> float:
        raise NotImplementedError

    def compute_batch(self, windows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`compute` over an ``(n, h, w)`` stack; must be
        bit-identical to per-window evaluation."""
        raise NotImplementedError

    def run(self) -> None:
        window = self.read_input("in")
        self.write_output("out", np.array([[self.compute(window)]]))

    def batch_accepts(self, method: str, others: frozenset[str]) -> bool:
        return (
            method == "run"
            and others <= {"<forward>"}
            and type(self).compute_batch is not WindowedKernel.compute_batch
        )

    def batched_apply(self, method, inputs):
        wins = np.stack(inputs["in"])
        out = self.compute_batch(wins).reshape(len(wins), 1, 1)
        return [[("out", out[i])] for i in range(len(wins))], None


class ConvolutionKernel(Kernel):
    """A ``width x height`` convolution with a reloadable coefficient input.

    Mirrors Figure 6: the "in" input is ``(w x h)[1,1]`` with offset
    ``[w//2, h//2]``; the "coeff" input is ``(w x h)[w,h]`` (no reuse — new
    coefficients replace old) and *replicated*, so parallel instances all
    receive the same coefficients.  Costs follow the paper:
    ``10 + 3*h*w`` cycles to convolve, ``10 + 2*h*w`` to load coefficients.

    Pass ``with_coeff_input=False`` to embed fixed coefficients instead of
    wiring a coefficient source (convenient for small pipelines and tests).
    """

    timing_depends_on = "declared"

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        *,
        with_coeff_input: bool = True,
        coeff: np.ndarray | None = None,
    ) -> None:
        self.width = width
        self.height = height
        self._with_coeff_input = with_coeff_input
        if coeff is not None:
            coeff = np.asarray(coeff, dtype=np.float64)
            if coeff.shape != (height, width):
                raise FiringError(
                    f"{name}: coefficient shape {coeff.shape} does not match "
                    f"{(height, width)}"
                )
        self.coeff = coeff
        self._flipped: np.ndarray | None = None
        super().__init__(name)

    def configure(self) -> None:
        w, h = self.width, self.height
        self.add_input("in", w, h, 1, 1, w // 2, h // 2)
        self.add_output("out", 1, 1)
        self.add_method(
            "run_convolve",
            inputs=["in"],
            outputs=["out"],
            cost=MethodCost(cycles=10 + 3 * h * w),
        )
        if self._with_coeff_input:
            self.add_input("coeff", w, h, w, h, w // 2, h // 2, replicated=True)
            self.add_method(
                "load_coeff",
                inputs=["coeff"],
                cost=MethodCost(cycles=10 + 2 * h * w, state_words=h * w),
            )

    def run_convolve(self) -> None:
        window = self.read_input("in")
        if self.coeff is None:
            raise FiringError(
                f"{self.name}: data arrived before any coefficients; wire a "
                "coefficient source or pass coeff= at construction"
            )
        # The paper's loop multiplies in[x][y] by coeff[w-1-x][h-1-y]: a
        # flipped-kernel accumulation, i.e. true convolution.  The flipped
        # copy is cached contiguous per coefficient load — strided reversed
        # views cost more than the multiply on 3x3 windows.
        flipped = self._flipped
        if flipped is None:
            flipped = self._flipped = np.ascontiguousarray(
                self.coeff[::-1, ::-1]
            )
        acc = float(np.sum(window * flipped))
        self.write_output("out", np.array([[acc]]))

    def load_coeff(self) -> None:
        self.coeff = self.read_input("coeff").copy()
        self._flipped = None

    def batch_accepts(self, method: str, others: frozenset[str]) -> bool:
        # A load_coeff inside the period would change the coefficients
        # between firings, so any period containing one stays per-firing.
        return (
            method == "run_convolve"
            and others <= {"<forward>"}
            and self.coeff is not None
        )

    def batched_apply(self, method, inputs):
        flipped = self._flipped
        if flipped is None:
            flipped = self._flipped = np.ascontiguousarray(self.coeff[::-1, ::-1])
        wins = np.stack(inputs["in"])
        # Axis-reduction sum, NOT a matmul: np.sum(w * c, axis=(1, 2)) is
        # bit-identical to the scalar float(np.sum(window * flipped));
        # reshape @ ravel pairs terms in a different order and is not.
        acc = np.sum(wins * flipped, axis=(1, 2)).reshape(len(wins), 1, 1)
        return [[("out", acc[i])] for i in range(len(wins))], None


class MedianKernel(WindowedKernel):
    """A ``width x height`` median filter (the 3x3 median of Figure 1).

    Cost models a partial selection network: ``10 + 5*h*w`` cycles.
    """

    def __init__(self, name: str, width: int, height: int) -> None:
        super().__init__(name, width, height, cycles=10 + 5 * width * height)

    def compute(self, window: np.ndarray) -> float:
        # Selection via partition, exactly what np.median computes (the
        # middle element for odd counts, the mean of the two middles for
        # even) without its dispatch and nan-handling overhead — this is
        # the hottest compute in the Figure 1 pipeline.
        flat = window.ravel()
        n = flat.size
        mid = n >> 1
        if n & 1:
            return float(np.partition(flat, mid)[mid])
        part = np.partition(flat, (mid - 1, mid))
        return float((part[mid - 1] + part[mid]) / 2.0)

    def compute_batch(self, windows: np.ndarray) -> np.ndarray:
        flat = windows.reshape(windows.shape[0], -1)
        n = flat.shape[1]
        mid = n >> 1
        if n & 1:
            return np.partition(flat, mid, axis=1)[:, mid]
        part = np.partition(flat, (mid - 1, mid), axis=1)
        return (part[:, mid - 1] + part[:, mid]) / 2.0


class SobelKernel(Kernel):
    """3x3 Sobel gradient magnitude (|Gx| + |Gy| approximation).

    A second standard windowed filter used by the multi-filter benchmark
    applications; fixed 3x3 window, centre offset.
    """

    timing_depends_on = "declared"

    _GX = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    _GY = _GX.T.copy()

    def __init__(self, name: str) -> None:
        super().__init__(name)

    def configure(self) -> None:
        self.add_input("in", 3, 3, 1, 1, 1, 1)
        self.add_output("out", 1, 1)
        self.add_method(
            "run", inputs=["in"], outputs=["out"], cost=MethodCost(cycles=10 + 6 * 9)
        )

    def run(self) -> None:
        window = self.read_input("in")
        gx = float(np.sum(window * self._GX))
        gy = float(np.sum(window * self._GY))
        self.write_output("out", np.array([[abs(gx) + abs(gy)]]))

    def batch_accepts(self, method: str, others: frozenset[str]) -> bool:
        return method == "run" and others <= {"<forward>"}

    def batched_apply(self, method, inputs):
        wins = np.stack(inputs["in"])
        gx = np.sum(wins * self._GX, axis=(1, 2))
        gy = np.sum(wins * self._GY, axis=(1, 2))
        out = (np.abs(gx) + np.abs(gy)).reshape(len(wins), 1, 1)
        return [[("out", out[i])] for i in range(len(wins))], None


def _gaussian_coeff(width: int, height: int, sigma: float) -> np.ndarray:
    ys = np.arange(height) - (height - 1) / 2.0
    xs = np.arange(width) - (width - 1) / 2.0
    g = np.exp(-(ys[:, None] ** 2 + xs[None, :] ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


class GaussianKernel(ConvolutionKernel):
    """A convolution pre-loaded with normalized Gaussian coefficients."""

    def __init__(self, name: str, width: int, height: int, sigma: float = 1.0) -> None:
        self.sigma = sigma
        super().__init__(
            name,
            width,
            height,
            with_coeff_input=False,
            coeff=_gaussian_coeff(width, height, sigma),
        )
