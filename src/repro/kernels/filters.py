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
from ..graph.methods import MethodCost
from .arithmetic import ComputeKernel

__all__ = [
    "WindowedKernel",
    "ConvolutionKernel",
    "MedianKernel",
    "SobelKernel",
    "GaussianKernel",
]


class WindowedKernel(ComputeKernel):
    """Base class for ``(w x h) -> 1x1`` sliding-window kernels.

    Subclasses pass ``cycles`` (per-iteration compute cost) to
    ``super().__init__`` and implement :meth:`compute` over the window
    flattened to ``(h*w,)`` (:class:`~repro.kernels.arithmetic.ComputeKernel`).
    """

    windowed = True

    def __init__(self, name: str, width: int, height: int, cycles: int) -> None:
        self.width = width
        self.height = height
        self.cycles = cycles
        super().__init__(name)


class ConvolutionKernel(WindowedKernel):
    """A ``width x height`` convolution with a reloadable coefficient input.

    Mirrors Figure 6: the "in" input is ``(w x h)[1,1]`` with offset
    ``[w//2, h//2]``; the "coeff" input is ``(w x h)[w,h]`` (no reuse — new
    coefficients replace old) and *replicated*, so parallel instances all
    receive the same coefficients.  Costs follow the paper:
    ``10 + 3*h*w`` cycles to convolve, ``10 + 2*h*w`` to load coefficients.

    Pass ``with_coeff_input=False`` to embed fixed coefficients instead of
    wiring a coefficient source (convenient for small pipelines and tests).
    """

    body = "run_convolve"

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        *,
        with_coeff_input: bool = True,
        coeff: np.ndarray | None = None,
    ) -> None:
        self._with_coeff_input = with_coeff_input
        self.coeff: np.ndarray | None = None
        if coeff is not None:
            coeff = np.asarray(coeff, dtype=np.float64)
            if coeff.shape != (height, width):
                raise FiringError(
                    f"{name}: coefficient shape {coeff.shape} does not match "
                    f"{(height, width)}"
                )
            self._use(coeff)
        super().__init__(name, width, height, cycles=10 + 3 * height * width)

    def configure(self) -> None:
        super().configure()
        if self._with_coeff_input:
            w, h = self.width, self.height
            self.add_input("coeff", w, h, w, h, w // 2, h // 2, replicated=True)
            self.add_method(
                "load_coeff",
                inputs=["coeff"],
                cost=MethodCost(cycles=10 + 2 * h * w, state_words=h * w),
            )

    run_convolve = WindowedKernel.run

    def compute(self, window: np.ndarray) -> np.ndarray:
        if self.coeff is None:
            raise FiringError(
                f"{self.name}: data arrived before any coefficients; wire a "
                "coefficient source or pass coeff= at construction"
            )
        return np.add.reduce(window * self._flipped, -1)

    def load_coeff(self) -> None:
        self._use(self.read_input("coeff").copy())

    def _use(self, coeff: np.ndarray) -> None:
        # The paper's loop multiplies in[x][y] by coeff[w-1-x][h-1-y]: a
        # flipped-kernel accumulation, i.e. true convolution.  The flipped
        # copy is made contiguous and flat, like the window, once per load.
        self.coeff = coeff
        self._flipped = coeff[::-1, ::-1].ravel()


class MedianKernel(WindowedKernel):
    """A ``width x height`` median filter (the 3x3 median of Figure 1).

    Cost models a partial selection network: ``10 + 5*h*w`` cycles.
    """

    def __init__(self, name: str, width: int, height: int) -> None:
        super().__init__(name, width, height, cycles=10 + 5 * width * height)

    def compute(self, window: np.ndarray) -> np.ndarray:
        # Selection via partition, exactly what np.median computes (the
        # middle element for odd counts, the mean of the two middles for
        # even) without its dispatch and nan-handling overhead — this is
        # the hottest compute in the Figure 1 pipeline.
        n = window.size
        mid = n >> 1
        if n & 1:
            return np.partition(window, mid)[mid]
        part = np.partition(window, (mid - 1, mid))
        return (part[mid - 1] + part[mid]) / 2.0


class SobelKernel(WindowedKernel):
    """3x3 Sobel gradient magnitude (|Gx| + |Gy| approximation).

    A second standard windowed filter used by the multi-filter benchmark
    applications; fixed 3x3 window, centre offset.
    """

    _GX = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    _GY = _GX.T.ravel()
    _GX = _GX.ravel()

    def __init__(self, name: str) -> None:
        super().__init__(name, 3, 3, cycles=10 + 6 * 9)

    def compute(self, window: np.ndarray) -> np.ndarray:
        gx = np.add.reduce(window * self._GX, -1)
        gy = np.add.reduce(window * self._GY, -1)
        return abs(gx) + abs(gy)


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
